"""Exception hierarchy shared across the package."""


class MiniSolError(Exception):
    """Base class for every error this package raises deliberately."""


class ParseError(MiniSolError):
    def __init__(self, message, line, col=0):
        super().__init__("line %d:%d: %s" % (line, col, message))
        self.line = line
        self.col = col


class SemanticError(MiniSolError):
    def __init__(self, message, line=0):
        prefix = "line %d: " % line if line else ""
        super().__init__(prefix + message)
        self.line = line


class TargetError(MiniSolError):
    """Target annotation problems: bad line, unparseable or out-of-scope safety."""


class LoweringError(MiniSolError):
    """AST-to-IR lowering failures, including recursion among internal calls."""


class EncodeError(MiniSolError):
    """Walk cannot be turned into a constraint script."""


class SolverError(MiniSolError):
    """External solver trouble. ``kind`` is one of missing/crash/malformed."""

    def __init__(self, kind, message):
        super().__init__("solver %s: %s" % (kind, message))
        self.kind = kind


class ReplayError(MiniSolError):
    """Malformed transaction sequence handed to the replay oracle."""


class MutationError(MiniSolError):
    """Bad mutant specification or unsupported mutant class."""


class ConfigError(MiniSolError):
    """Invalid run configuration (CLI or library)."""
