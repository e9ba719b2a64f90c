"""Sampling distributions over rows/columns, weighted draws, and size bounds.

Uniform, squared-length and rank-k leverage weights have one builder,
:func:`_weights`, which weighs a stack of matrices given dense or as thin
factors with their SVDs: :func:`axis_dists`, the one public entry for a
distribution, gives both axes of one matrix through it, the trials weigh
their factors, and the noise trial its dense ``A + E``.  Draws are i.i.d.
with replacement through an inverse-CDF lookup, a binary search of the full
cumulative weight vector, so a fixed ``numpy.random.Generator`` state
reproduces the same index multiset byte for byte.  Zero-weight indices are
never drawn.

Rank-k leverage scores need only the top-k singular subspaces.  Of a
factored matrix they come from its SVD; of a dense one from
:func:`~curlowrank.linalg._leading_bases`: from the certified sketch
:func:`~curlowrank.linalg._leading_svd`, still a pure function of the matrix
bits, or from the dense :func:`~curlowrank.linalg.compact_svd` where the
sketch declines; the paper's stability result (sampling from any
``p_tilde >= beta * p``) absorbs the sketch's error.

Every "how many samples suffice" formula lives here as well, together with
the noise trial's per-index stability floors (:func:`_noisy_floors`), which
:func:`_certify` checks against the squared-length weights of A and of
``A + E``.  ``log`` means the natural logarithm throughout; leading
universal constants are surfaced as parameters rather than guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateError,
    DistributionError,
    DomainError,
    IndexSetError,
    ZeroMatrixError,
    ZeroProbabilityDrawError,
)
from .linalg import (
    COLS,
    ROWS,
    IndexSet,
    _bases,
    _leading_bases,
    _unit_shift,
    as_matrix,
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
            raise DistributionError("weights must be a nonempty 1-D vector")
        _check_weights(w)
        if self.axis not in (ROWS, COLS):
            raise IndexSetError(f"axis must be '{ROWS}' or '{COLS}'")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return int(self.weights.size)


def _check_weights(w) -> None:
    """:class:`ProbDist`'s checks on each vector of the stack ``w``: finite, nonnegative, sum 1."""
    if not (w.min() >= 0.0 and w.max() < math.inf):  # NaN fails the first test
        raise DistributionError("weights must be finite and nonnegative")
    off = [total for total in np.atleast_1d(w.sum(axis=-1)).tolist() if abs(total - 1.0) > 1e-12]
    if off:
        raise DistributionError(f"weights must sum to 1 (got {off[0]!r})")


def _squared_lengths(a) -> tuple:
    """``(rows, cols)``: the squared row and column lengths of ``a``, or of each matrix of the
    stack ``a``, with no temporary beyond 64 rows of the whole stack.

    The rows of the stack, taken as one tall matrix, are squared 64 at a time
    and the columns summed by einsum, with the bits of ``(a * a).sum(axis)`` of
    each matrix alone.  No square over- or underflows where ``a`` is at unit scale.
    """
    flat = a.reshape(-1, a.shape[-1])
    rows = [np.square(flat[i:i + 64]).sum(axis=-1) for i in range(0, len(flat), 64)]
    return np.concatenate(rows).reshape(a.shape[:-1]), np.einsum("...ij,...ij->...j", a, a)


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


def axis_dists(a, scheme, k=None) -> tuple:
    """``(rows, cols)``: the row and column distributions of the matrix ``a`` for one scheme of
    :data:`SCHEMES`, :func:`_weights` of ``a`` as a stack of one; the one public entry for a
    sampling distribution.

    Length weights are proportional to squared row and column norms: zero rows and columns get
    weight exactly 0.0, and the zero matrix is a ZeroMatrixError.  Rank-k leverage weights,
    ``||V_k(j,:)||^2 / k`` per column and ``||U_k(i,:)||^2 / k`` per row, come from the sketch
    or the dense SVD (:func:`~curlowrank.linalg._leading_bases`) and need the truncation rank
    ``k``; a ``k`` above the numerical rank of ``a`` is a RankDeficientError."""
    if scheme not in SCHEMES:
        raise DomainError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if scheme not in (UNIFORM, LENGTH) and (k is None or k < 1):
        raise DomainError(f"leverage sampling needs a truncation rank k >= 1, got {k}")
    weights = _weights(scheme, k, dense=as_matrix(a)[None])
    label = scheme if scheme in (UNIFORM, LENGTH) else f"leverage({int(k)})"
    return ProbDist(weights[0][0], ROWS, label), ProbDist(weights[1][0], COLS, label)


def _weights(scheme, k, dense=None, factors=None, lengths=None) -> list:
    """The (T, m) and (T, n) stacks of ``scheme``'s row and column weights, with the checks of
    :class:`ProbDist`, of each matrix of ``dense``, a (T, m, n) array, or of each ``p[t] @ q[t].T``
    of ``factors = (p, q, svds)``, the factors and the products' compact SVDs.

    Length weights normalise ``lengths``, the squared lengths where the caller has them, else
    those of the factors (:func:`_factored_lengths`) or of the dense stack shifted by
    :func:`~curlowrank.linalg._unit_shift`, which keeps their bits.  Leverage weights are
    ``sum(b**2) / k`` over the rows of the top-``k`` bases of the SVDs or of each dense matrix
    alone (:func:`~curlowrank.linalg._leading_bases`), unshifted: the SVD of a matrix scaled
    far from 1 need not keep its bits."""
    if factors is None:
        count, *sizes = dense.shape
    else:
        p, q, svds = factors
        count, sizes = len(p), (len(p[0]), len(q[0]))
    if scheme == UNIFORM:
        weights = [np.full((count, size), 1.0 / size) for size in sizes]
    elif scheme == LENGTH:
        if lengths is None and factors is None:
            lengths = _squared_lengths(np.ldexp(dense, _unit_shift(dense)[:, None, None]))
        elif lengths is None:
            lengths = _factored_lengths(np.stack(p), np.stack(q), svds)
        weights = _length_weights(*lengths)
    elif factors is None:  # each matrix's bases summed alone, as its bits need
        weights = [np.stack([np.sum(b * b, axis=1) for b in axis]) / float(k)
                   for axis in zip(*(_leading_bases(x, k) for x in dense))]
    else:
        weights = [np.sum(b * b, axis=2) / float(k) for b in _bases(svds, k)]
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
        raise IndexSetError("draw_indices needs a row and a column distribution")
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
        raise IndexSetError("index set and distribution refer to different axes")
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


def _certify(floors, reference, perturbed) -> None:
    """Check that each perturbed weight is at least its floor squared times the reference one.

    ``floors`` (beta per row, alpha per column), ``reference`` and ``perturbed``
    are ``(rows, cols)`` pairs, compared with a rounding slack of 1e-12; for a
    stack of matrices each member is a stack of vectors.  The floors certify by
    construction, so a CertificateError names an internal inconsistency: the
    first failing index, rows before columns, of the first matrix that fails,
    which is the index that matrix alone names.
    """
    for axis, floor, ref, tilde in zip((ROWS, COLS), floors, reference, perturbed):
        short = np.nonzero(~(tilde >= floor**2 * ref - 1e-12))[-1]
        if short.size:
            raise CertificateError(f"stability floor fails to certify {axis[:-1]} {short[0]}")


def _noisy_floors(a_lengths, e_lengths, norm_a, norm_e) -> tuple:
    """``(rows, cols)``: the floors beta and alpha certifying the length distributions of
    ``A + E`` against those of A, not yet certified (:func:`_certify`).

    Per nonzero row i of A the floor is
    ``(1 - ||E(i,:)|| / ||A(i,:)||) / (1 + ||E||_F / ||A||_F)`` and the column
    floors are analogous; zero rows/columns of A get floor 1.  ``a_lengths``
    and ``e_lengths`` are the :func:`_squared_lengths` of A and of E, and
    ``norm_a`` and ``norm_e`` their Frobenius norms; for a stack of matrices
    each member is a stack of vectors and each norm a vector.  A floor that is
    not positive, one that underflows to 0 or is NaN included, marks noise that
    dominates its row or column, where no floor certifies.
    """
    # ||E||_F / ||A||_F is inf only where E dwarfs A beyond the float range,
    # which leaves every floor 0 or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        denom = np.expand_dims(1.0 + norm_e / norm_a, -1)
        floors = []
        for a2, e2 in zip(a_lengths, e_lengths):
            live = a2 > 0.0
            ratio = np.sqrt(e2) / np.sqrt(np.where(live, a2, 1.0))
            floors.append(np.where(live, (1.0 - ratio) / denom, 1.0))
    return tuple(floors)
