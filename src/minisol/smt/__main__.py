"""Process interface: read one SMT-LIB 2 script on stdin, print the result.

Output is the first line ``sat``/``unsat``/``unknown``; on sat, a second
line answers the script's get-value queries as ``((term value) ...)``.
Malformed input exits nonzero with an ``(error ...)`` line, and so does a
term nested too deep for the solver's recursive passes (a
``RecursionError``).
"""

import sys

from .solve import solve_text
from .terms import SmtError


def main(argv=None):
    text = sys.stdin.read()
    try:
        sys.stdout.write(solve_text(text))
    except (SmtError, RecursionError) as exc:
        sys.stdout.write('(error "%s")\n' % str(exc).replace('"', "'"))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
