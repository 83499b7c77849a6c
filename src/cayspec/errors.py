"""Exception types shared across the package."""


class CayspecError(Exception):
    """Base class for all library errors."""


class ClosureCapExceeded(CayspecError):
    """Generator closure grew past the configured element cap."""


class NotAUnit(CayspecError):
    """An integer was used as a Galois exponent but is not coprime to the modulus."""


class NotSymmetric(CayspecError):
    """A colour assignment differs on some element and its inverse."""


class NotClassFunction(CayspecError):
    """A colour assignment differs on two conjugate elements."""


class Disconnected(CayspecError):
    """The Cayley graph of a connection set does not reach every element."""

    def __init__(self, message, unreached=()):
        super().__init__(message)
        self.unreached = tuple(unreached)


class NoConvergence(CayspecError):
    """The numeric eigensolver did not converge within the sweep budget."""


class UnsupportedFamily(CayspecError):
    """No exact character table is available for this group family."""


class InternalInconsistency(CayspecError):
    """Two independent computations of the same quantity disagree (a bug)."""


class CoefficientBudgetExceeded(CayspecError):
    """Exact coefficients outgrew the configured bit budget."""


class ParseError(CayspecError):
    """An instance file could not be parsed; carries line and column."""

    def __init__(self, message, line=0, column=0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.reason = message
        self.line = line
        self.column = column
