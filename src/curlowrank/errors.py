"""Exception types shared across the library."""


class ZeroMatrixError(ValueError):
    """Raised when an operation requires a nonzero matrix."""


class RankDeficientError(ValueError):
    """Raised when a requested rank exceeds the numerical rank."""


class IndexOutOfRangeError(IndexError):
    """Raised when a row/column index falls outside the matrix."""


class DomainError(ValueError):
    """Raised when a scalar parameter is outside its admissible range."""


class ZeroProbabilityDrawError(ValueError):
    """Raised when a drawn index carries zero probability weight."""


class NoiseDominatesError(ValueError):
    """Raised when noise is as large as the signal on some row or column.

    The stability floor for that index would be nonpositive, so no
    perturbed-probability guarantee can be certified.
    """

    def __init__(self, axis, index):
        self.axis = axis
        self.index = index
        super().__init__(f"noise dominates signal on {axis[:-1]} {index}")


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
