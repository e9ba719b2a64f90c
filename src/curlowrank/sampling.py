"""Sampling distributions over rows/columns, weighted draws, and size bounds.

Three families of probability distributions are supported per axis: uniform,
squared-length, and rank-k leverage scores.  Draws are i.i.d. with
replacement through an inverse-CDF lookup (binary search on the cumulative
weight vector), so a fixed ``numpy.random.Generator`` state reproduces the
same index multiset byte for byte.  Zero-weight indices are never drawn.

Every "how many samples suffice" formula lives here as well, together with
the stability floors that certify a perturbed distribution against the
squared-length one.  ``log`` means the natural logarithm throughout; leading
universal constants are surfaced as parameters rather than guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivisionByZeroWeightError,
    DomainError,
    NoiseDominatesError,
    RankDeficientError,
    ZeroMatrixError,
    ZeroProbabilityDrawError,
)
from .linalg import COLS, ROWS, IndexSet, as_matrix, compact_svd, condition_number, unit_scaled

UNIFORM = "uniform"
LENGTH = "length"
SCHEMES = (UNIFORM, LENGTH, "leverage")


@dataclass(frozen=True, eq=False)
class ProbDist:
    """A probability vector over the row or column indices of one axis."""

    weights: np.ndarray
    axis: str
    scheme: str

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty 1-D vector")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 (got {total!r})")
        if self.axis not in (ROWS, COLS):
            raise ValueError(f"axis must be '{ROWS}' or '{COLS}'")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return int(self.weights.size)


def uniform_dist(n, axis) -> ProbDist:
    """Uniform weights 1/n over ``n`` indices."""
    if n < 1:
        raise DomainError(f"need at least one index, got n={n}")
    return ProbDist(np.full(int(n), 1.0 / int(n)), axis, UNIFORM)


def length_dist(a, axis) -> ProbDist:
    """Weights proportional to squared row/column Euclidean norms.

    Zero rows/columns get weight exactly 0.0; the zero matrix is rejected.
    """
    a = unit_scaled(a)
    sq = a * a
    norms2 = sq.sum(axis=1) if axis == ROWS else sq.sum(axis=0)
    total = float(norms2.sum())
    if total == 0.0:
        raise ZeroMatrixError("length distribution of the zero matrix is undefined")
    return ProbDist(norms2 / total, axis, LENGTH)


def _leverage_dists(a, k, axes):
    """Yield the rank-k leverage distribution over each of ``axes``, all from one compact SVD."""
    if k < 1:
        raise DomainError(f"leverage rank must be >= 1, got {k}")
    f = compact_svd(a)
    if k > f.numerical_rank:
        raise RankDeficientError(
            f"requested leverage rank {k} exceeds numerical rank {f.numerical_rank}"
        )
    for axis in axes:
        basis = f.right[:, :k] if axis == COLS else f.left[:, :k]
        yield ProbDist(np.sum(basis * basis, axis=1) / float(k), axis, f"leverage({int(k)})")


def leverage_dist(a, k, axis) -> ProbDist:
    """Rank-k leverage scores: ``(1/k) * ||V_k(j,:)||^2`` per column index.

    Row leverage replaces the right singular factor by the left one.  Raises
    RankDeficientError when ``k`` exceeds the numerical rank of ``a``.
    """
    return next(_leverage_dists(a, k, (axis,)))


def axis_dists(a, scheme, k=None) -> tuple:
    """Row and column distributions of one scheme from :data:`SCHEMES`.

    Leverage scores need the truncation rank ``k``; without it a
    DomainError is raised.  Both leverage axes come from one SVD of ``a``.
    """
    if scheme == UNIFORM:
        return uniform_dist(a.shape[0], ROWS), uniform_dist(a.shape[1], COLS)
    if scheme == LENGTH:
        return length_dist(a, ROWS), length_dist(a, COLS)
    if scheme not in SCHEMES:
        raise DomainError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if k is None:
        raise DomainError("leverage sampling needs the truncation rank k")
    return tuple(_leverage_dists(a, k, (ROWS, COLS)))


def draw_with_replacement(dist: ProbDist, d, rng) -> IndexSet:
    """Draw ``d`` i.i.d. indices from ``dist`` with replacement.

    Inverse-CDF sampling over the positive-weight support; deterministic for
    a given generator state.
    """
    if d < 1:
        raise DomainError(f"need at least one draw, got d={d}")
    support = np.flatnonzero(dist.weights > 0.0)
    cum = np.cumsum(dist.weights[support])
    u = rng.random(int(d)) * cum[-1]
    pos = np.searchsorted(cum, u, side="right")
    return IndexSet(tuple(support[pos]), dist.axis)


def draw_indices(row_dist: ProbDist, col_dist: ProbDist, d1, d2, rng, dedup=False) -> tuple:
    """``(rows, cols)``: ``d1`` row and ``d2`` column draws with replacement.

    Rows come from a child stream of ``rng`` and columns from a second one,
    so changing ``d2`` never affects the rows drawn, and vice versa.
    ``dedup=True`` removes repeated indices afterwards.
    """
    row_rng, col_rng = rng.spawn(2)
    rows = draw_with_replacement(row_dist, d1, row_rng)
    cols = draw_with_replacement(col_dist, d2, col_rng)
    if dedup:
        return dedup_indices(rows), dedup_indices(cols)
    return rows, cols


def dedup_indices(index_set: IndexSet) -> IndexSet:
    """Remove duplicates, keeping first occurrences in order."""
    return IndexSet(tuple(dict.fromkeys(index_set.indices)), index_set.axis)


def rescaled_submatrix(a, index_set: IndexSet, dist: ProbDist, d) -> np.ndarray:
    """Rows (or columns) at the drawn indices, each scaled by ``1/sqrt(d * p_i)``.

    With this scaling the sampled Gram matrix is an unbiased estimator:
    ``E[Rhat^T Rhat] = A^T A`` when the draws follow ``dist``.
    """
    if d < 1:
        raise DomainError(f"scaling denominator d must be >= 1, got d={d}")
    if index_set.axis != dist.axis:
        raise ValueError("index set and distribution refer to different axes")
    a = as_matrix(a)
    idx = np.asarray(index_set.indices, dtype=np.intp)
    w = dist.weights[idx]
    if np.any(w <= 0.0):
        bad = int(idx[np.argmin(w)])
        raise ZeroProbabilityDrawError(f"index {bad} has zero probability weight")
    scale = 1.0 / np.sqrt(float(d) * w)
    if index_set.axis == ROWS:
        return a[idx, :] * scale[:, None]
    return a[:, idx] * scale[None, :]


def min_sample_size_rv(r, eps, delta, big_c=1.0) -> int:
    """Draw count ``ceil(C * x * log x)`` with ``x = r / (eps^4 * delta)``.

    When ``log x < 1`` the result is clamped below at ``ceil(x)`` so the
    count never falls under the plain ``x`` scale.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if r < 1.0:
        raise DomainError(f"stable rank must be >= 1, got {r}")
    if big_c <= 0.0:
        raise DomainError(f"leading constant must be positive, got {big_c}")
    x = float(r) / (float(eps) ** 4 * float(delta))
    d = math.ceil(big_c * x * math.log(x))
    if math.log(x) < 1.0:
        d = max(d, math.ceil(x))
    return int(d)


def sample_size_leverage(k, beta, delta) -> int:
    """Draw count ``ceil((8/beta) * (log(2k) + 1/delta) * k)`` for dominated leverage sampling."""
    if k < 1:
        raise DomainError(f"rank must be >= 1, got {k}")
    if not (0.0 < beta <= 1.0):
        raise DomainError(f"beta must lie in (0, 1], got {beta}")
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    return int(math.ceil((8.0 / beta) * (math.log(2 * k) + 1.0 / delta) * k))


def sample_size_length_via_lev(r, kappa, k, delta) -> int:
    """Draw count ``ceil(8 * r * kappa^2 * (log(2k) + 1/delta))`` for length sampling."""
    if r < 1.0:
        raise DomainError(f"stable rank must be >= 1, got {r}")
    if kappa < 1.0:
        raise DomainError(f"condition number must be >= 1, got {kappa}")
    if k < 1:
        raise DomainError(f"rank must be >= 1, got {k}")
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    return int(math.ceil(8.0 * r * kappa * kappa * (math.log(2 * k) + 1.0 / delta)))


@dataclass(frozen=True, eq=False)
class StabilityParams:
    """Per-index floors certifying a perturbed distribution pair.

    ``alpha_per_col[j]`` certifies the column distribution against the
    squared-length one (``p_tilde_j >= alpha_j^2 * p_j^col``) and
    ``beta_per_row[i]`` does the same for rows.  Conventionally the floor is
    1 on zero rows/columns of the reference matrix.
    """

    alpha_per_col: np.ndarray
    beta_per_row: np.ndarray
    alpha: float
    beta: float
    gamma: float


def _make_params(alpha_per_col, beta_per_row) -> StabilityParams:
    alpha_per_col = np.asarray(alpha_per_col, dtype=np.float64)
    beta_per_row = np.asarray(beta_per_row, dtype=np.float64)
    if np.any(alpha_per_col <= 0.0) or np.any(beta_per_row <= 0.0):
        raise ValueError("stability floors must be strictly positive")
    alpha = float(alpha_per_col.min())
    beta = float(beta_per_row.min())
    return StabilityParams(
        alpha_per_col=alpha_per_col,
        beta_per_row=beta_per_row,
        alpha=alpha,
        beta=beta,
        gamma=min(alpha, beta),
    )


def _certify(params: StabilityParams, a, p_tilde_cols, q_tilde_rows, slack=1e-12):
    """Check the floors actually dominate: raised only on internal inconsistency."""
    a = unit_scaled(a)
    sq = a * a
    fro2 = float(sq.sum())
    p_col = sq.sum(axis=0) / fro2
    q_row = sq.sum(axis=1) / fro2
    ok_cols = np.all(p_tilde_cols >= params.alpha_per_col**2 * p_col - slack)
    ok_rows = np.all(q_tilde_rows >= params.beta_per_row**2 * q_row - slack)
    if not (ok_cols and ok_rows):
        raise AssertionError("stability floors fail to certify their distributions")


def uniform_stability_floor(a) -> StabilityParams:
    """Floors certifying the uniform distributions against squared lengths.

    For a nonzero row i the floor is ``sqrt(||A||_F^2 / (m * ||A(i,:)||^2))``
    and analogously over columns with n; zero rows/columns get floor 1.
    """
    a = unit_scaled(a)
    m, n = a.shape
    sq = a * a
    fro2 = float(sq.sum())
    if fro2 == 0.0:
        raise ZeroMatrixError("stability floor of the zero matrix is undefined")
    row2 = sq.sum(axis=1)
    col2 = sq.sum(axis=0)
    beta_per_row = np.where(row2 > 0.0, np.sqrt(fro2 / (m * np.where(row2 > 0, row2, 1.0))), 1.0)
    alpha_per_col = np.where(col2 > 0.0, np.sqrt(fro2 / (n * np.where(col2 > 0, col2, 1.0))), 1.0)
    params = _make_params(alpha_per_col, beta_per_row)
    _certify(params, a, np.full(n, 1.0 / n), np.full(m, 1.0 / m))
    return params


def noisy_stability_floor(a, e) -> StabilityParams:
    """Floors certifying the length distributions of ``a + e`` against those of ``a``.

    Per nonzero row i of ``a`` the floor is
    ``(1 - ||E(i,:)|| / ||A(i,:)||) / (1 + ||E||_F / ||A||_F)`` and the
    column floors are analogous.  Zero rows/columns of ``a`` get floor 1.
    Raises NoiseDominatesError on any index whose floor would be nonpositive.
    """
    a, e = unit_scaled(a, as_matrix(e))
    if a.shape != e.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {e.shape}")
    fro_a = float(np.linalg.norm(a))
    if fro_a == 0.0:
        raise ZeroMatrixError("stability floor of the zero matrix is undefined")
    denom = 1.0 + float(np.linalg.norm(e)) / fro_a

    def floors(a_norms, e_norms, axis_name):
        live = a_norms > 0.0
        dominated = np.flatnonzero(live & (e_norms >= a_norms))
        if dominated.size:
            raise NoiseDominatesError(axis_name, int(dominated[0]))
        return np.where(live, (1.0 - e_norms / np.where(live, a_norms, 1.0)) / denom, 1.0)

    beta_per_row = floors(np.linalg.norm(a, axis=1), np.linalg.norm(e, axis=1), ROWS)
    alpha_per_col = floors(np.linalg.norm(a, axis=0), np.linalg.norm(e, axis=0), COLS)
    params = _make_params(alpha_per_col, beta_per_row)

    a_tilde = a + e
    sq = a_tilde * a_tilde
    fro2 = float(sq.sum())
    if fro2 > 0.0:
        _certify(params, a, sq.sum(axis=0) / fro2, sq.sum(axis=1) / fro2)
    return params


def epsilon_ceiling(a, params: StabilityParams | None = None, delta=None) -> float:
    """Largest admissible ``eps`` for the sampling guarantees on ``a``.

    Without stability floors this is ``1/kappa(A)``; with floors it is
    ``min(1/kappa(A), delta^(-1/4) * sqrt(2 * gamma))``.
    """
    kappa_inv = 1.0 / condition_number(a)
    if params is None:
        return kappa_inv
    if delta is None or not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1) when floors are given, got {delta}")
    return min(kappa_inv, float(delta) ** -0.25 * math.sqrt(2.0 * params.gamma))


def leverage_dominance_ratio(p_tilde: ProbDist, p_lev: ProbDist) -> float:
    """``max_j p_lev_j / p_tilde_j`` over indices with positive leverage weight."""
    if p_tilde.axis != p_lev.axis or p_tilde.size != p_lev.size:
        raise ValueError("distributions must share axis and length")
    mask = p_lev.weights > 0.0
    if np.any(p_tilde.weights[mask] == 0.0):
        bad = int(np.flatnonzero(mask & (p_tilde.weights == 0.0))[0])
        raise DivisionByZeroWeightError(
            f"index {bad} has positive leverage weight but zero sampling weight"
        )
    return float(np.max(p_lev.weights[mask] / p_tilde.weights[mask]))
