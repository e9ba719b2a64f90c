"""Exception types shared across the library."""


class ZeroMatrixError(ValueError):
    """Raised when an operation requires a nonzero matrix."""


class MatrixInputError(ValueError):
    """Raised when a matrix, given or read from a file, is not a finite 2-D matrix of at least
    one entry, or a matrix file is not a Matrix Market dense array of its stated size."""


class RankDeficientError(ValueError):
    """Raised when a requested rank exceeds the numerical rank."""


class DistributionError(ValueError):
    """Raised when sampling weights are not a nonempty 1-D vector, finite, nonnegative and summing
    to 1, or a pair of distributions does not weigh the rows and the columns of its matrix."""


class IndexSetError(ValueError):
    """Raised when an index set names no axis, or a CUR is not given a nonempty row index set
    and a nonempty column index set."""


class IndexOutOfRangeError(IndexError):
    """Raised when a row/column index falls outside the matrix."""


class DomainError(ValueError):
    """Raised when a scalar parameter is outside its admissible range."""


class ZeroProbabilityDrawError(ValueError):
    """Raised when a drawn index carries zero probability weight."""


class SingularInterpolationError(RuntimeError):
    """Raised when the interpolation system of a greedy selection step is singular."""


class ConfigError(ValueError):
    """Raised on invalid experiment configuration; names the offending field."""

    def __init__(self, message, field=None, line=None):
        self.field = field
        self.line = line
        where = ""
        if line is not None:
            where += f"line {line}: "
        if field is not None:
            where += f"field '{field}': "
        super().__init__(where + message)


class CertificateError(RuntimeError):
    """Raised when computed stability floors fail to certify their distributions (a bug)."""
