"""Exception hierarchy shared across the package."""

__all__ = [
    "DistShapError", "InvalidParameterError", "SingularMatrixError", "RankDeficiencyError",
    "InsufficientDataError", "NotConvergedError", "SaturationError", "BandwidthSelectionError",
    "UtilityEvaluationError", "BaselineFailureError", "EnumerationSizeError", "CsvParseError",
]


class DistShapError(Exception):
    """Base class for all errors raised by distshap."""


class InvalidParameterError(DistShapError):
    """An argument violates a documented precondition."""


class SingularMatrixError(DistShapError):
    """A matrix expected to be positive definite failed to factor.

    ``pivot`` is the 1-based index of the leading minor at which the
    Cholesky factorization broke down, when known.
    """

    def __init__(self, message, pivot=None):
        if pivot is not None:
            message = f"{message} (failing pivot index {pivot})"
        super().__init__(message)
        self.pivot = pivot


class RankDeficiencyError(DistShapError):
    """Too few samples to identify a full-rank second moment without a ridge."""


class InsufficientDataError(DistShapError):
    """Not enough samples to fit the requested model."""


class NotConvergedError(DistShapError):
    """An iterative fit did not converge and downstream use is refused."""


class SaturationError(DistShapError):
    """A predicted class probability is numerically 0 or 1."""


class BandwidthSelectionError(DistShapError):
    """No bandwidth in the grid produced a finite cross-validation score."""


class UtilityEvaluationError(DistShapError):
    """A utility function could not be evaluated on a subset.

    Carries the subset size to help diagnose gate or fit problems.
    """

    def __init__(self, message, subset_size=None):
        if subset_size is not None:
            message = f"{message} (subset size {subset_size})"
        super().__init__(message)
        self.subset_size = subset_size


class BaselineFailureError(DistShapError):
    """The Monte-Carlo baseline failed on more than half of its draws."""


class EnumerationSizeError(DistShapError):
    """Exact enumeration refused; the dataset is too large for 2^n utilities."""


class CsvParseError(DistShapError):
    """A delimited text file failed to parse as finite numbers.

    ``row`` and ``col`` are 1-based and count data rows (header excluded).
    """

    def __init__(self, message, row=None, col=None):
        if row is not None and col is not None:
            message = f"{message} at row {row}, column {col}"
        super().__init__(message)
        self.row = row
        self.col = col
