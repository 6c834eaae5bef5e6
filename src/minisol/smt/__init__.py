"""Bundled SMT solver for the quantifier-free bitvector and array fragment
(QF_ABV) the encoder builds.  In process, ``solve.solve_commands`` solves a
``parse.Script`` of hash-consed terms (the encoder builds one directly) and
answers a ``solve.SatResult``; :func:`solve_text` and the standalone
process ``python -m minisol.smt`` take SMT-LIB 2 text.  The text format
lives here alone: ``parse_script`` reads it and ``Script.text`` writes
it."""

from .solve import SmtInternalError, SmtUnknown, solve_text
from .parse import SmtParseError
from .terms import SmtError

__all__ = ["solve_text", "SmtError", "SmtParseError", "SmtUnknown",
           "SmtInternalError"]
