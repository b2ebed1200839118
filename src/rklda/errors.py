"""Exception hierarchy shared by all modules.

DataError subclasses map to CLI exit code 2, NumericalError subclasses to
exit code 3.
"""


class RkldaError(Exception):
    """Base class for all library errors."""


class DataError(RkldaError):
    """Invalid or degenerate input data."""


class InvalidData(DataError):
    """Malformed input: non-finite entries, bad shapes, unreadable files."""


class DegenerateLabels(DataError):
    """Fewer than two distinct classes."""


class DegenerateMatrix(DataError):
    """Matrix carries no usable information (e.g. all rows zero after centering)."""


class DegenerateSubspace(DataError):
    """A subspace with no columns / zero numerical rank where one is required."""


class ClassCoverageError(DataError):
    """Random splitting failed to place every class in the training set."""


class TooLarge(DataError):
    """Instance exceeds a dense size guard (SVD / scatter oracles, densification)."""


class NumericalError(RkldaError):
    """Numerical failure during iteration."""


class ZeroRowError(NumericalError):
    """A zero-norm row reached a projection step."""


class NumericalDivergence(NumericalError):
    """Non-finite values appeared in an iterate."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration
