"""Bundled SMT solver for the bitvector + uninterpreted-function fragment
the encoder builds.  In process, ``solve.solve_commands`` solves a
``parse.Script`` of hash-consed terms (the encoder builds one directly);
:func:`solve_text` and the standalone process ``python -m minisol.smt``
take SMT-LIB 2 text.  The text format lives here alone: ``parse`` reads
it and ``terms.print_script`` writes it."""

from .solve import SmtInternalError, SmtUnknown, solve_text
from .parse import SmtParseError
from .terms import SmtError

__all__ = ["solve_text", "SmtError", "SmtParseError", "SmtUnknown",
           "SmtInternalError"]
