"""The package's two exception types.

Bad input is refused with a ParseError when it has a line and column in an
instance file, and with a ValueError otherwise; the CLI exits 2 on either.
An InternalInconsistency, which exits 3, names the route that disagreed.
"""


class InternalInconsistency(Exception):
    """Two independent computations of the same quantity disagree, or the
    numeric oracle did not converge: a bug, not bad input."""


class ParseError(Exception):
    """An instance file could not be parsed; carries line and column."""

    def __init__(self, message, line=0, column=0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.reason = message
        self.line = line
        self.column = column
