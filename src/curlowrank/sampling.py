"""Sampling distributions over rows/columns, weighted draws, and size bounds.

Uniform, squared-length and rank-k leverage distributions each have one
builder, :func:`axis_dists`, which gives both axes at once; the squared
lengths of both axes come from one pass of row and column sums of squares
over the scaled matrix, with no m-by-n temporary.  The trials, which hold
each matrix as thin factors, weigh a whole stack of them at once from the
factors and their SVDs (:func:`_stacked_weights`).  Draws are i.i.d. with
replacement through an inverse-CDF lookup, a binary search of the full
cumulative weight vector, so a fixed ``numpy.random.Generator`` state
reproduces the same index multiset byte for byte.  Zero-weight indices are
never drawn.

Rank-k leverage scores need only the top-k singular subspaces, which
:func:`~curlowrank.linalg.leading_bases` gives: from the certified sketch
:func:`~curlowrank.linalg._leading_svd`, still a pure function of the matrix
bits, or from the dense :func:`~curlowrank.linalg.compact_svd` where the
sketch declines; the paper's stability result (sampling from any
``p_tilde >= beta * p``) absorbs the sketch's error.

Every "how many samples suffice" formula lives here as well, together with
the per-index stability floors that certify a perturbed distribution
against the squared-length weights, which each floor function checks before
it returns.  ``log`` means the natural logarithm throughout; leading
universal constants are surfaced as parameters rather than guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateError,
    DivisionByZeroWeightError,
    DomainError,
    NoiseDominatesError,
    ZeroMatrixError,
    ZeroProbabilityDrawError,
)
from .linalg import (
    COLS,
    ROWS,
    IndexSet,
    _bases,
    _unit_shift,
    as_matrix,
    condition_number,
    leading_bases,
    unit_scaled,
)

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
        _check_weights(w)
        if self.axis not in (ROWS, COLS):
            raise ValueError(f"axis must be '{ROWS}' or '{COLS}'")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return int(self.weights.size)


def _check_weights(w) -> None:
    """:class:`ProbDist`'s checks on each vector of the stack ``w``: finite, nonnegative, sum 1."""
    if not (w.min() >= 0.0 and w.max() < math.inf):  # NaN fails the first test
        raise ValueError("weights must be finite and nonnegative")
    off = [total for total in np.atleast_1d(w.sum(axis=-1)).tolist() if abs(total - 1.0) > 1e-12]
    if off:
        raise ValueError(f"weights must sum to 1 (got {off[0]!r})")


def uniform_dist(n, axis) -> ProbDist:
    """Uniform weights 1/n over ``n`` indices."""
    if n < 1:
        raise DomainError(f"need at least one index, got n={n}")
    return ProbDist(np.full(int(n), 1.0 / int(n)), axis, UNIFORM)


def _squared_lengths(a) -> tuple:
    """``(rows, cols)``: the squared row and column lengths of ``a``, with no m-by-n temporary.

    The rows are squared a block at a time and the columns summed by einsum,
    with the bits of ``(a * a).sum(axis)``.  No square over- or underflows
    where ``a`` is at unit scale.
    """
    rows = [np.square(a[i:i + 64]).sum(axis=1) for i in range(0, len(a), 64)]
    return np.concatenate(rows), np.einsum("ij,ij->j", a, a)


def _length_weights(rows, cols) -> tuple:
    """The squared lengths of each axis (of each matrix) over their own sum; no zero matrix."""
    if not rows.any(axis=-1).all():
        raise ZeroMatrixError("length distribution of the zero matrix is undefined")
    return rows / rows.sum(axis=-1, keepdims=True), cols / cols.sum(axis=-1, keepdims=True)


def _factored_lengths(p, q, svds) -> tuple:
    """The squared row and column lengths of each ``p[t] @ q[t].T``, each axis at its own scale.

    ``svds[t] = W S V^T`` is the product's compact SVD, whose W and V span the
    ranges of p and q: row i has the length of ``p_i (q^T V)`` and column j
    that of ``q_j (p^T W)``, with no LAPACK call (one product at a time where
    ranks differ).  Each is formed from unit-scaled factors, so no square over-
    or underflows, and a zero row of ``q`` gives a column of length exactly 0.0.
    """
    if len({f.numerical_rank for f in svds}) > 1:
        alone = [_factored_lengths(p[t:t + 1], q[t:t + 1], [f]) for t, f in enumerate(svds)]
        return tuple(map(np.concatenate, zip(*alone)))
    p, q = (np.ldexp(x, _unit_shift(x)[:, None, None]) for x in (p, q))
    rights, lefts = np.stack([f.right for f in svds]), np.stack([f.left for f in svds])
    return tuple(np.sum((x @ (np.swapaxes(y, 1, 2) @ basis)) ** 2, axis=2)
                 for x, y, basis in ((p, q, rights), (q, p, lefts)))


def _on_axis(dists, axis) -> ProbDist:
    """The member of a ``(rows, cols)`` pair that ``axis`` names."""
    if axis not in (ROWS, COLS):
        raise ValueError(f"axis must be '{ROWS}' or '{COLS}', got {axis!r}")
    return dists[axis == COLS]


def length_dist(a, axis) -> ProbDist:
    """Weights proportional to squared row/column Euclidean norms.

    Zero rows/columns get weight exactly 0.0; the zero matrix is rejected.
    """
    return _on_axis(axis_dists(a, LENGTH), axis)


def leverage_dist(a, k, axis) -> ProbDist:
    """Rank-k leverage scores: ``(1/k) * ||V_k(j,:)||^2`` per column index.

    Row leverage replaces the right singular factor by the left one, and
    both come from the sketch or the dense SVD as in :func:`axis_dists`.
    Raises RankDeficientError when ``k`` exceeds the numerical rank of ``a``.
    """
    return _on_axis(axis_dists(a, "leverage", k), axis)


def axis_dists(a, scheme, k=None) -> tuple:
    """Row and column distributions of the matrix ``a`` for one scheme from :data:`SCHEMES`.

    Leverage scores need the truncation rank ``k``; without it a DomainError
    is raised.  Both leverage axes come from one factorization of ``a``, its
    :func:`~curlowrank.linalg.leading_bases`.
    """
    if scheme not in SCHEMES:
        raise DomainError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if scheme not in (UNIFORM, LENGTH) and (k is None or k < 1):
        raise DomainError(f"leverage sampling needs a truncation rank k >= 1, got {k}")
    if scheme == UNIFORM:
        return uniform_dist(a.shape[0], ROWS), uniform_dist(a.shape[1], COLS)
    elif scheme == LENGTH:
        weights = _length_weights(*_squared_lengths(unit_scaled(a)))
    else:
        weights = [np.sum(b * b, axis=1) / float(k) for b in leading_bases(a, k)]
    label = scheme if scheme in (UNIFORM, LENGTH) else f"leverage({int(k)})"
    return ProbDist(weights[0], ROWS, label), ProbDist(weights[1], COLS, label)


def _stacked_weights(p, q, svds, scheme, k) -> tuple:
    """The (T, m) and (T, n) stacks of :func:`axis_dists`'s weights of each ``p[t] @ q[t].T``,
    from each product's compact SVD ``svds[t]``, with the checks of :class:`ProbDist`.  The
    length weights are within 1e-14 of the largest weight of the dense product."""
    if scheme == UNIFORM:
        weights = [np.full((len(x), len(x[0])), 1.0 / len(x[0])) for x in (p, q)]
    elif scheme == LENGTH:
        weights = _length_weights(*_factored_lengths(np.stack(p), np.stack(q), svds))
    else:
        bases = map(np.stack, zip(*(_bases(f, k) for f in svds)))
        weights = [np.sum(b * b, axis=2) / float(k) for b in bases]
    for w in weights:
        _check_weights(w)
    return weights


def _inverse_cdf(cum, d, rng) -> np.ndarray:
    """``d >= 1`` i.i.d. indices of the weights with running sum ``cum``; never a zero weight's."""
    if d < 1:
        raise DomainError(f"need at least one draw, got d={d}")
    return np.searchsorted(cum, rng.random(int(d)) * cum[-1], side="right")


def draw_with_replacement(dist: ProbDist, d, rng) -> IndexSet:
    """Draw ``d`` i.i.d. indices from ``dist`` with replacement, by an inverse-CDF lookup."""
    return IndexSet(_inverse_cdf(np.cumsum(dist.weights), d, rng).tolist(), dist.axis)


def _draw_pair(row_cum, col_cum, d1, d2, rng, dedup) -> tuple:
    """:func:`draw_indices` of ``d1`` rows and ``d2`` columns, from each axis's running sums."""
    drawn = [_inverse_cdf(cum, d, g).tolist()
             for cum, d, g in zip((row_cum, col_cum), (d1, d2), rng.spawn(2))]
    return tuple(IndexSet(dict.fromkeys(x) if dedup else x, axis)
                 for x, axis in zip(drawn, (ROWS, COLS)))


def draw_indices(row_dist: ProbDist, col_dist: ProbDist, d1, d2, rng, dedup=False) -> tuple:
    """``(rows, cols)``: ``d1`` row and ``d2`` column draws with replacement.

    Rows come from a child stream of ``rng`` and columns from a second one,
    so changing ``d2`` never affects the rows drawn, and vice versa.
    ``dedup=True`` removes repeated indices afterwards.
    """
    if row_dist.axis != ROWS or col_dist.axis != COLS:
        raise ValueError("draw_indices needs a row and a column distribution")
    return _draw_pair(np.cumsum(row_dist.weights), np.cumsum(col_dist.weights), d1, d2, rng, dedup)


def rescaled_submatrix(a, index_set: IndexSet, dist: ProbDist, d) -> np.ndarray:
    """Rows (or columns) at the drawn indices, each scaled by ``1/sqrt(d * p_i)``.

    With this scaling the sampled Gram matrix is an unbiased estimator:
    ``E[Rhat^T Rhat] = A^T A`` when the draws follow ``dist``, provided that
    ``dist`` gives every nonzero row (column) of ``a`` a positive weight.
    Uniform and squared-length weights always do; rank-k leverage weights do
    when rank(A) = k, and may not otherwise: ``A = diag(2, 1)`` has rank-1
    leverage 0 on its nonzero second row.
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


# The admissible range of each sample-size input, and the rule a DomainError states.
_INPUT_RANGES = {
    "r": (lambda v: 1.0 <= v < math.inf, "stable rank must be finite and >= 1"),
    "eps": (lambda v: 0.0 < v < 1.0, "eps must lie in (0, 1)"),
    "delta": (lambda v: 0.0 < v < 1.0, "delta must lie in (0, 1)"),
    "big_c": (lambda v: 0.0 < v < math.inf, "leading constant must be finite and positive"),
    "k": (lambda v: v >= 1, "rank must be >= 1"),
    "beta": (lambda v: 0.0 < v <= 1.0, "beta must lie in (0, 1]"),
    "kappa": (lambda v: 1.0 <= v < math.inf, "condition number must be finite and >= 1"),
}


def _draw_count(formula, **inputs) -> int:
    """``ceil(formula())``, once each of ``inputs`` passes its :data:`_INPUT_RANGES` check.

    A count that leaves the float range is a DomainError naming every input.
    It leaves it by overflowing to inf, by dividing by a power that
    underflowed to 0, or through an integer input too large for a float.
    """
    for name, value in inputs.items():
        in_range, rule = _INPUT_RANGES[name]
        if not in_range(value):
            raise DomainError(f"{rule}, got {value}")
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        named = ", ".join(f"{key}={val!r}" for key, val in inputs.items())
        raise DomainError(f"draw count for {named} is not a finite integer")
    return math.ceil(value)


def min_sample_size_rv(r, eps, delta, big_c=1.0) -> int:
    """Draw count ``ceil(C * x * log x)`` with ``x = r / (eps^4 * delta)``.

    When ``log x < 1`` the result is clamped below at ``ceil(x)`` so the
    count never falls under the plain ``x`` scale.
    """
    def count():
        x = float(r) / (float(eps) ** 4 * float(delta))
        d = big_c * x * math.log(x)
        return max(d, x) if math.log(x) < 1.0 else d

    return _draw_count(count, eps=eps, delta=delta, r=r, big_c=big_c)


def sample_size_leverage(k, beta, delta) -> int:
    """Draw count ``ceil((8/beta) * (log(2k) + 1/delta) * k)`` for dominated leverage sampling."""
    return _draw_count(lambda: (8.0 / beta) * (math.log(2 * k) + 1.0 / delta) * k,
                       k=k, beta=beta, delta=delta)


def sample_size_length_via_lev(r, kappa, k, delta) -> int:
    """Draw count ``ceil(8 * r * kappa^2 * (log(2k) + 1/delta))`` for length sampling."""
    return _draw_count(lambda: 8.0 * r * kappa * kappa * (math.log(2 * k) + 1.0 / delta),
                       r=r, kappa=kappa, k=k, delta=delta)


@dataclass(frozen=True, eq=False)
class StabilityParams:
    """Per-index floors certifying a perturbed distribution pair.

    ``alpha_per_col[j]`` certifies the column distribution against the
    squared-length one (``p_tilde_j >= alpha_j^2 * p_j^col``) and
    ``beta_per_row[i]`` does the same for rows.  Conventionally the floor is
    1 on zero rows/columns of the reference matrix.  Only these floors are
    stored; ``alpha``, ``beta`` and ``gamma = min(alpha, beta)`` are their minima.
    """

    alpha_per_col: np.ndarray
    beta_per_row: np.ndarray

    def __post_init__(self):
        if not (np.all(self.alpha_per_col > 0.0) and np.all(self.beta_per_row > 0.0)):
            raise ValueError("stability floors must be strictly positive")

    @property
    def alpha(self) -> float:
        return float(self.alpha_per_col.min())

    @property
    def beta(self) -> float:
        return float(self.beta_per_row.min())

    @property
    def gamma(self) -> float:
        return min(self.alpha, self.beta)


def _certify(params: StabilityParams, reference, perturbed) -> StabilityParams:
    """``params``, once each perturbed weight is at least its floor squared times the reference one.

    ``reference`` and ``perturbed`` are ``(rows, cols)`` weight pairs, compared
    with a rounding slack of 1e-12.  The floors certify by construction, so a
    CertificateError names an internal inconsistency: the first failing
    index, rows before columns.
    """
    floors = (params.beta_per_row, params.alpha_per_col)
    for axis, floor, ref, tilde in zip((ROWS, COLS), floors, reference, perturbed):
        short = np.flatnonzero(~(tilde >= floor**2 * ref - 1e-12))
        if short.size:
            raise CertificateError(f"stability floor fails to certify {axis[:-1]} {short[0]}")
    return params


def uniform_stability_floor(a) -> StabilityParams:
    """Floors certifying the uniform distributions against squared lengths.

    For a nonzero row i the floor is ``sqrt(||A||_F^2 / (m * ||A(i,:)||^2))``,
    which is ``sqrt(1 / (m * q_i))`` for the length weight ``q_i`` of row i,
    and analogously over columns with n; zero rows/columns get floor 1.
    """
    weights = _length_weights(*_squared_lengths(unit_scaled(a)))
    rows, cols = (np.where(w > 0.0, np.sqrt(1.0 / (w.size * np.where(w > 0.0, w, 1.0))), 1.0)
                  for w in weights)
    uniform = [uniform_dist(w.size, axis).weights for w, axis in zip(weights, (ROWS, COLS))]
    return _certify(StabilityParams(alpha_per_col=cols, beta_per_row=rows), weights, uniform)


def _noisy_floors(a_lengths, e_lengths, norm_a, norm_e, shift=0) -> StabilityParams:
    """The floors of :func:`noisy_stability_floor`, not yet certified.

    ``a_lengths`` and ``e_lengths`` are the :func:`_squared_lengths` of A and
    of E, and ``norm_a`` and ``norm_e`` their Frobenius norms, E's taken at
    ``2**-shift`` times A's scale.  :func:`noisy_stability_floor` scales each
    by its own power of two; the noise trial, which holds only A and E by
    then, passes them unshifted: its ``||A||_2 = 1``, an E whose squares
    overflow leaves every floor 0 or NaN, and one whose squares underflow
    every floor 1, so a shift would change no outcome.
    """
    # E's norms in A's units: inf only where E dwarfs A beyond the float range,
    # which leaves every floor 0 or NaN, so NoiseDominatesError
    with np.errstate(over="ignore", invalid="ignore"):
        denom = 1.0 + np.ldexp(norm_e, shift) / norm_a
        floors = []
        for a2, e2, axis in zip(a_lengths, e_lengths, (ROWS, COLS)):
            live = a2 > 0.0
            e_norm = np.ldexp(np.sqrt(e2), shift)
            out = np.where(live, (1.0 - e_norm / np.sqrt(np.where(live, a2, 1.0))) / denom, 1.0)
            dominated = np.flatnonzero(~(out > 0.0))
            if dominated.size:
                raise NoiseDominatesError(axis, int(dominated[0]))
            floors.append(out)
    return StabilityParams(alpha_per_col=floors[1], beta_per_row=floors[0])


def noisy_stability_floor(a, e) -> StabilityParams:
    """Floors certifying the length distributions of ``a + e`` against those of ``a``.

    Per nonzero row i of ``a`` the floor is
    ``(1 - ||E(i,:)|| / ||A(i,:)||) / (1 + ||E||_F / ||A||_F)`` and the
    column floors are analogous.  Zero rows/columns of ``a`` get floor 1.
    Raises NoiseDominatesError on any index whose floor would be nonpositive,
    including one that underflows to 0.  ``a`` and ``e`` are each squared at
    their own power-of-two scale, as in :func:`~curlowrank.linalg.frobenius_norm`,
    so no norm over- or underflows where E dwarfs A.  At most two m-by-n
    arrays are held beyond the inputs: one buffer takes the scaled ``a``, the
    scaled ``e`` and then ``a + e``, which adds the scaled ``e`` from another.
    """
    a, e = as_matrix(a), as_matrix(e)
    if a.shape != e.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {e.shape}")
    shifts = _unit_shift(a), _unit_shift(e)
    scaled, lengths, norms = np.empty_like(a), [], []
    for x, j in zip((a, e), shifts):
        lengths.append(_squared_lengths(np.ldexp(x, j, out=scaled)))
        norms.append(np.linalg.norm(scaled))
    params = _noisy_floors(*lengths, *norms, shifts[0] - shifts[1])
    # A + E at the scale of the larger, so the sum cannot overflow
    a_tilde = np.ldexp(a, min(shifts), out=scaled)
    a_tilde += np.ldexp(e, min(shifts))
    np.ldexp(a_tilde, _unit_shift(a_tilde), out=a_tilde)
    return _certify(params, _length_weights(*lengths[0]),
                    _length_weights(*_squared_lengths(a_tilde)))


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
