"""Exception types shared across the package."""


class WalksparseError(Exception):
    """Base class for all package errors."""


class InvalidInput(WalksparseError):
    """An input violates a documented precondition."""


class NotPSD(WalksparseError):
    """A matrix required to be positive semidefinite is not."""


class StepTooLarge(WalksparseError):
    """A perturbation violates the admissibility condition of the potential bound."""


class SubspaceExhausted(WalksparseError):
    """A walk or halving round cannot continue (its support or subspace ran out)."""


class ParseError(WalksparseError):
    """A graph file could not be parsed; carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
