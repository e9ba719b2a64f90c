"""Dense matrix primitives: compact SVD, pseudoinverse, ranks, submatrices.

Matrices are plain ``numpy.ndarray`` objects of dtype float64 in C (row-major)
memory order; every public function validates its input through
:func:`as_matrix`.  Every numerical-rank decision in the package is made by
:func:`rank_cutoff`, at the cutoff ``max(m, n) * machine_epsilon * sigma_1``
unless the ``tol`` argument of a function overrides it.

The SVD carries a fixed sign convention (the largest-magnitude entry of each
left singular vector is made nonnegative, first such entry on ties) so that
singular vectors, and everything derived from them, are reproducible across
runs on identical input bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRangeError, ZeroMatrixError

_EPS = float(np.finfo(np.float64).eps)

ROWS = "rows"
COLS = "cols"


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-D float64 array with finite entries."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix must be at least 1x1, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def default_tolerance(shape, sigma_max) -> float:
    """Rank cutoff ``max(m, n) * eps * sigma_1`` used everywhere by default."""
    return max(shape) * _EPS * float(sigma_max)


def rank_cutoff(s, shape, tol=None) -> tuple:
    """``(rank, tol)``: the count of singular values ``s`` above ``tol`` (default :func:`default_tolerance`)."""
    if tol is None:
        tol = default_tolerance(shape, s[0])
    return int(np.count_nonzero(s > tol)), float(tol)


@dataclass(frozen=True)
class IndexSet:
    """An ordered multiset of 0-based row or column indices.

    Duplicates are permitted and order is preserved as drawn.  Upper-bound
    validation happens where a concrete matrix is available.
    """

    indices: tuple
    axis: str

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if any(i < 0 for i in self.indices):
            raise IndexOutOfRangeError("indices must be nonnegative")
        if self.axis not in (ROWS, COLS):
            raise ValueError(f"axis must be '{ROWS}' or '{COLS}', got {self.axis!r}")

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


@dataclass(frozen=True)
class SvdFactors:
    """Compact SVD ``A ~ left @ diag(singular_values) @ right.T``.

    ``left`` is m-by-k and ``right`` is n-by-k, both with orthonormal columns;
    ``singular_values`` holds the k values above ``tolerance_used`` in
    nonincreasing order.  ``all_singular_values`` keeps the full spectrum of
    length min(m, n), including anything below the cutoff.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray
    numerical_rank: int
    tolerance_used: float
    all_singular_values: np.ndarray = field(repr=False)

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values) @ self.right.T

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudoinverse ``right @ diag(1/sigma) @ left.T`` at the cutoff."""
        return (self.right / self.singular_values) @ self.left.T

    def condition_number(self) -> float:
        """Largest over smallest singular value above the cutoff."""
        return float(self.singular_values[0] / self.singular_values[-1])

    def stable_rank(self) -> float:
        """``||A||_F^2 / ||A||_2^2`` from the full spectrum, scaled by sigma_1 first."""
        return float(np.sum((self.all_singular_values / self.all_singular_values[0]) ** 2))


def _fix_signs(w, vt):
    """Make the largest-magnitude entry of each left singular vector nonnegative."""
    for j in range(w.shape[1]):
        i = int(np.argmax(np.abs(w[:, j])))
        if w[i, j] < 0.0:
            w[:, j] = -w[:, j]
            vt[j, :] = -vt[j, :]
    return w, vt


def compact_svd(a, tol=None) -> SvdFactors:
    """Compact SVD of ``a``, keeping singular values strictly above ``tol``.

    Raises ZeroMatrixError when every singular value falls at or below the
    cutoff (a rank-0 matrix has no compact SVD; use :func:`numerical_rank`
    if rank 0 is an acceptable answer).
    """
    a = as_matrix(a)
    w, s, vt = np.linalg.svd(a, full_matrices=False)
    k, tol = rank_cutoff(s, a.shape, tol)
    if k == 0:
        raise ZeroMatrixError("all singular values are at or below the tolerance")
    w, vt = _fix_signs(w[:, :k].copy(), vt[:k, :].copy())
    return SvdFactors(
        left=w,
        singular_values=s[:k].copy(),
        right=vt.T.copy(),
        numerical_rank=k,
        tolerance_used=tol,
        all_singular_values=s,
    )


def numerical_rank(a, tol=None) -> int:
    """Number of singular values strictly above ``tol`` (0 for a zero matrix)."""
    a = as_matrix(a)
    return rank_cutoff(np.linalg.svd(a, compute_uv=False), a.shape, tol)[0]


def pseudoinverse(a, tol=None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the truncated SVD at ``tol``.

    The zero matrix maps to the zero matrix of transposed shape.
    """
    try:
        return compact_svd(a, tol).pinv()
    except ZeroMatrixError:
        return np.zeros(np.shape(a)[::-1])


def stable_rank(a) -> float:
    """``||A||_F^2 / ||A||_2^2``; a perturbation-robust surrogate for rank."""
    return compact_svd(a).stable_rank()


def condition_number(a, tol=None) -> float:
    """Generalized spectral condition number: sigma_max over minimal NONZERO sigma."""
    return compact_svd(a, tol).condition_number()


def submatrix(a, index_set: IndexSet) -> np.ndarray:
    """Extract ``A(I, :)`` or ``A(:, J)``; duplicates and ordering are honored."""
    a = as_matrix(a)
    dim = a.shape[0] if index_set.axis == ROWS else a.shape[1]
    idx = np.asarray(index_set.indices, dtype=np.intp)
    if idx.size and int(idx.max()) >= dim:
        raise IndexOutOfRangeError(
            f"index {int(idx.max())} out of range for axis '{index_set.axis}' of size {dim}"
        )
    if index_set.axis == ROWS:
        return a[idx, :].copy()
    return a[:, idx].copy()
