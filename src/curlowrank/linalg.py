"""Dense matrix primitives: compact SVD, spectra, norms, ranks, submatrices.

Matrices are plain ``numpy.ndarray`` objects of dtype float64 in C (row-major)
memory order.  A matrix is validated once, by :func:`as_matrix`, where it
enters the public API; the package passes an already validated matrix on to
private helpers (:func:`_take`, :func:`_compact_svd`, :func:`_leading_svd`,
:func:`_leading_bases`, :func:`_rank_pinv_cutoff`, which also gives the
pseudoinverse) that skip that check, and :func:`_take` trusts its caller's
range check.  No other module of the package calls ``np.linalg.svd`` or
``np.linalg.eigvalsh``.  Every numerical-rank decision in the package is made
by :func:`rank_cutoff`, at the cutoff ``max(m, n) * machine_epsilon * sigma_1``
unless the ``tol`` argument of a function overrides it; the small blocks that
stand for a CUR of A (:func:`_pinvs`, :func:`_rank_pinv_cutoff`) are cut at A's.

A thin product ``p @ q.T`` is factored through thin QRs of ``p`` and ``q``
and its small core ``R_p @ R_q.T`` (Halko, Martinsson and Tropp,
arXiv:0909.4061), in O((m + n) k^2) time instead of O(m n min(m, n)).  The
top-k singular triplets of a dense matrix come from :func:`_leading_svd`'s
certified subspace iteration in O(m n k) time, or None where it cannot
certify them; :func:`_leading_bases` is the one place that chooses between
that sketch and the dense SVD.  ``||A||_2`` alone comes from :func:`_gram_norm`,
a symmetric eigensolve of the smaller Gram matrix, which :func:`spectral_norm`
applies to a scaled copy of A, and a spectrum alone from
:func:`singular_values`, an SVD without vectors.

The SVD carries a fixed sign convention (the largest-magnitude entry of each
left singular vector is made nonnegative, first such entry on ties) so that
singular vectors, and everything derived from them, are reproducible across
runs on identical input bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, IndexOutOfRangeError, IndexSetError, MatrixInputError,
                     RankDeficientError, ZeroMatrixError)

_EPS = float(np.finfo(np.float64).eps)

ROWS = "rows"
COLS = "cols"


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-D float64 array with finite entries."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise MatrixInputError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise MatrixInputError(f"matrix must be at least 1x1, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise MatrixInputError("matrix entries must be finite (no NaN/Inf)")
    return m


def rank_cutoff(s, shape, tol=None) -> tuple:
    """``(rank, tol)``: how many of ``s`` exceed ``tol``.

    ``tol`` defaults to ``max(m, n) * eps * s[0]``.  A given ``tol`` that is
    negative or not finite is a DomainError.
    """
    ranks, tols = _cutoffs(np.asarray(s)[None], shape, None if tol is None else [tol])
    return int(ranks[0]), float(tols[0])


def _cutoffs(s, shape, tols) -> tuple:
    """``(ranks, tols)``: :func:`rank_cutoff` of each spectrum of the (T, r) stack ``s`` at its
    item of ``tols``, or at each one's default where ``tols`` is None, as a list and an array."""
    if tols is None:
        tols = max(shape) * _EPS * s[:, 0]
    else:
        tols = np.asarray(tols, dtype=np.float64)
        for extreme in (tols.min(), tols.max()):  # a NaN is both
            _nonnegative(extreme, "tol")
    return (s > tols[:, None]).sum(axis=1).tolist(), tols


def _nonnegative(value, name) -> float:
    """``value`` as a float, or a DomainError naming ``name`` where it is negative or not finite."""
    if not 0.0 <= value < math.inf:
        raise DomainError(f"{name} must be finite and >= 0, got {value}")
    return float(value)


@dataclass(frozen=True)
class IndexSet:
    """An ordered multiset of 0-based row or column indices.

    Duplicates are permitted and order is preserved as drawn.  Upper-bound
    validation happens where a concrete matrix is available.
    """

    indices: tuple
    axis: str

    def __post_init__(self):
        indices = tuple(map(int, self.indices))
        object.__setattr__(self, "indices", indices)
        if min(indices, default=0) < 0:
            raise IndexOutOfRangeError("indices must be nonnegative")
        if self.axis not in (ROWS, COLS):
            raise IndexSetError(f"axis must be '{ROWS}' or '{COLS}', got {self.axis!r}")

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


def condition_of(s) -> float:
    """Largest over smallest of the nonincreasing singular values ``s`` kept above a cutoff."""
    return float(s[0] / s[-1])


def stable_rank_of(s) -> float:
    """``||A||_F^2 / ||A||_2^2`` from A's nonincreasing spectrum ``s``."""
    return float(np.sum((s / s[0]) ** 2))


def _fix_signs(w, vt):
    """Make the largest-magnitude entry of each left singular vector of the stack ``w``
    nonnegative, the first such entry on ties, and flip the matching rows of ``vt``."""
    peak = w[np.arange(len(w))[:, None], np.argmax(np.abs(w), axis=1), np.arange(w.shape[2])]
    sign = np.where(peak < 0.0, -1.0, 1.0)
    return w * sign[:, None, :], vt * sign[:, :, None]


def compact_svd(a, tol=None) -> SvdFactors:
    """Compact SVD of ``a``, cut at :func:`rank_cutoff`'s ``tol``.

    Raises ZeroMatrixError when every singular value falls at or below the
    cutoff (a rank-0 matrix has no compact SVD; use :func:`rank_cutoff` of
    :func:`singular_values` if rank 0 is an acceptable answer).
    """
    return _compact_svd(as_matrix(a), tol)


def _compact_svd(a, tol) -> SvdFactors:
    """:func:`compact_svd` of an already validated matrix ``a``."""
    w, s, vt = np.linalg.svd(a, full_matrices=False)
    return _truncated(w[None], s[None], vt[None], a.shape, None if tol is None else [tol])[0]


def _as_stack(a) -> np.ndarray:
    """The stack of matrices ``a``, each matrix validated by :func:`as_matrix`."""
    a = np.asarray(a)
    if a.ndim != 3:
        raise MatrixInputError(f"expected a stack of matrices, got ndim={a.ndim}")
    return as_matrix(a.reshape(-1, a.shape[-1])).reshape(a.shape)


def _core(rp, rq):
    """``(core, shift)`` of the stacks ``rp``, ``rq``: ``rp @ rq.T == ldexp(core, -shift)``
    for each pair, each factor scaled near 1 first."""
    sp, sq = _unit_shift(rp), _unit_shift(rq)
    core = np.ldexp(rp, sp[:, None, None]) @ np.swapaxes(np.ldexp(rq, sq[:, None, None]), 1, 2)
    return core, sp + sq


def factored_svd(p, q) -> list:
    """The compact SVD of each product ``p[t] @ q[t].T`` of the stacks ``p``, ``q``.

    ``p`` is (T, m, k) and ``q`` (T, n, k): one QR of each stack and one SVD of
    the T small cores ``R_p @ R_q.T`` (Halko, Martinsson and Tropp).  The
    cutoff and sign convention are :func:`compact_svd`'s for the m-by-n product;
    ``all_singular_values`` is padded with zeros to length min(m, n).  A zero row
    of a factor, a zero row or column of the product, gives an exactly zero row of
    ``left`` or ``right``, as it gives an exactly zero row or column of any
    submatrix, where the QR's roundoff would leave about 1e-17.  Each product's
    arrays are views into the stacks of :func:`_truncated`.
    """
    p, q = _as_stack(p), _as_stack(q)
    qp, rp = np.linalg.qr(p)
    qq, rq = np.linalg.qr(q)
    qp[~p.any(axis=2)] = 0.0
    qq[~q.any(axis=2)] = 0.0
    core, shift = _core(rp, rq)
    w, s, vt = np.linalg.svd(core, full_matrices=False)
    shape = (p.shape[1], q.shape[1])
    spectra = np.zeros((len(s), min(shape)))
    spectra[:, :s.shape[1]] = np.ldexp(s, -shift[:, None])
    return _truncated(qp @ w, spectra, vt @ np.swapaxes(qq, 1, 2), shape)


def factored_norms(p, q) -> list:
    """``(||p[t] @ q[t].T||_2, ||p[t] @ q[t].T||_F)`` of each product of the stacks ``p``, ``q``,
    from one QR of each stack and one SVD of the stack of cores, without vectors."""
    p, q = _as_stack(p), _as_stack(q)
    return _norms(*_core(np.linalg.qr(p, mode="r"), np.linalg.qr(q, mode="r")))


def _norms(core, shift=0) -> list:
    """``(||a||_2, ||a||_F)`` of each ``a = ldexp(core, -shift)`` of the stack ``core`` (and its
    shifts), from one SVD of the stack with each core scaled near 1 first."""
    scales = _unit_shift(core)
    s = np.linalg.svd(np.ldexp(core, scales[:, None, None]), compute_uv=False)
    shifts = -(scales + shift)
    return list(zip(np.ldexp(s[:, 0], shifts).tolist(), np.ldexp(_row_norms(s), shifts).tolist()))


def _row_norms(x):
    """``np.linalg.norm`` of each row of ``x``, with its bits: numpy takes a row times a column
    through the same ``dot`` whose square root ``norm`` is."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


# Subspace iteration for the leading singular subspaces (Halko, Martinsson and
# Tropp, arXiv:0909.4061, Algorithm 4.4), certified a posteriori by its Ritz values.
# The starting block is always drawn from this seed, so the result is a pure
# function of the matrix bits.
SKETCH_SEED = 200102774
# Ten extra columns make the rank-k subspace converge at the rate of
# sigma_(k+11)/sigma_k rather than sigma_(k+1)/sigma_k.
SKETCH_OVERSAMPLE = 10
# Two power steps bring a noise floor 1e-3 below sigma_k down to machine precision.
SKETCH_POWER_STEPS = 2
# Largest gap estimate accepted: leverage scores then agree with the dense ones
# to within 5e-13 of the largest weight (measured), far inside the paper's
# stability floor beta.
SKETCH_GAP_TOL = 1e-12


def _leading_svd(a, k):
    """``(left, singular_values, right)``: the top ``k >= 1`` singular triplets of ``a``, or None.

    Block subspace iteration from a Gaussian block of width ``l = k +``
    :data:`SKETCH_OVERSAMPLE` drawn from :data:`SKETCH_SEED` (no caller's
    generator is read), with :data:`SKETCH_POWER_STEPS` power steps, a thin
    QR after every half step, and a Rayleigh-Ritz SVD of the small ``Q.T @ a``.
    Signs follow :func:`compact_svd`'s convention.

    Returns None, so the caller can take :func:`compact_svd` instead, when
    ``2 l > min(m, n)`` (the dense SVD costs as little), when
    :func:`rank_cutoff` keeps fewer than ``k`` Ritz values, or when the gap
    estimate ``(s_(k+1) / s_k) ** (2 q + 1)`` exceeds :data:`SKETCH_GAP_TOL`.
    The estimate uses the Ritz value ``s_(k+1)``, not the smallest one
    ``s_l``: Ritz values are lower bounds of the singular values, and
    ``s_(k+1) >= s_l`` also bounds the gap between the rank-k subspace and
    the next direction, on which the rank-k subspace itself depends.
    """
    width = k + SKETCH_OVERSAMPLE
    if 2 * width > min(a.shape):
        return None
    shift = _unit_shift(a)
    scaled = np.ldexp(a, shift)
    omega = np.random.default_rng(SKETCH_SEED).standard_normal((a.shape[1], width))
    q = np.linalg.qr(scaled @ omega)[0]
    for _ in range(SKETCH_POWER_STEPS):
        q = np.linalg.qr(scaled @ np.linalg.qr(scaled.T @ q)[0])[0]
    w, s, vt = np.linalg.svd(q.T @ scaled, full_matrices=False)
    if rank_cutoff(s, a.shape)[0] < k:
        return None
    if (s[k] / s[k - 1]) ** (2 * SKETCH_POWER_STEPS + 1) > SKETCH_GAP_TOL:
        return None
    w, vt = _fix_signs((q @ w[:, :k])[None], vt[None, :k, :])
    return w[0], np.ldexp(s[:k], -shift), vt[0].T


def _leading_bases(a, k, tol=None) -> tuple:
    """``(left, right)``: the top-``k`` left and right singular vectors of the validated ``a``.

    They come from :func:`_leading_svd` when ``tol`` is None and the sketch
    certifies, else from :func:`compact_svd` of ``a`` at ``tol``.  A ``k``
    outside ``1..min(m, n)`` is a DomainError; a ``k`` within it that exceeds
    the numerical rank of that SVD is a RankDeficientError.
    """
    if not 1 <= k <= min(a.shape):
        raise DomainError(f"need 1 <= k <= {min(a.shape)}, got k={k}")
    sketch = _leading_svd(a, k) if tol is None else None
    if sketch is not None:
        return sketch[0], sketch[2]
    left, right = _bases([_compact_svd(a, tol)], k)
    return left[0], right[0]


def _bases(svds, k) -> tuple:
    """``(left, right)``: the stacks of the first ``k`` columns of the bases of each compact SVD
    of ``svds``, or a RankDeficientError naming the first whose numerical rank is below ``k``."""
    short = [f.numerical_rank for f in svds if f.numerical_rank < k]
    if short:
        raise RankDeficientError(f"requested rank k={k} exceeds numerical rank {short[0]}")
    return np.stack([f.left[:, :k] for f in svds]), np.stack([f.right[:, :k] for f in svds])


def _truncated(w, s, vt, shape, tols=None) -> list:
    """The compact SVD of each m-by-n matrix of a stack from the stacks of its thin ``w, s,
    vt``, cut at :func:`rank_cutoff` of its item of ``tols`` (by default its own): views into
    stacks as wide as the largest rank, where the signs are fixed, sliced at its own rank."""
    ranks, tols = _cutoffs(s, shape, tols)
    if not min(ranks):
        raise ZeroMatrixError("all singular values are at or below the tolerance")
    width = max(ranks)
    w, vt = _fix_signs(w[..., :width], vt[:, :width])
    right = np.ascontiguousarray(np.swapaxes(vt, 1, 2))
    return [SvdFactors(left=x[:, :k], singular_values=y[:k], right=z[:, :k], numerical_rank=k,
                       tolerance_used=tol, all_singular_values=y)
            for x, y, z, k, tol in zip(w, s, right, ranks, tols.tolist())]


def singular_values(a) -> np.ndarray:
    """All min(m, n) singular values of ``a``, nonincreasing, from an SVD without vectors."""
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def _rank_pinv_cutoff(a, tol=None) -> tuple:
    """``(rank, pinv)`` of the validated matrix ``a``: :func:`_pinvs` of it alone."""
    return _pinvs(a[None], None if tol is None else [tol])[0]


def _pinvs(a, tols=None) -> list:
    """``(rank, pinv)`` of each matrix of the stack ``a``, from one SVD of the stack, cut at
    :func:`rank_cutoff` of its item of ``tols`` (by default its own), so a small matrix can
    stand for a larger one with the same nonzero singular values.  The cut terms are masked
    to zero, which keeps the bits of their sum, so the pinvs are views into one stack.  Rank
    0 has a zero pinv; the pinv needs no sign convention, as each term pairs a vector with
    its own sign.  A kept singular value below the normal range, whose reciprocal can
    overflow, is a MatrixInputError."""
    w, s, vt = np.linalg.svd(a, full_matrices=False)
    ranks, tols = _cutoffs(s, a.shape[1:], tols)
    kept = (s > tols[:, None])[:, :, None]  # the first rank of each nonincreasing spectrum
    if (kept[..., 0] & (s < np.finfo(np.float64).tiny)).any():
        raise MatrixInputError("a kept singular value is subnormal; the pinv would overflow")
    terms = np.divide(vt, s[:, :, None], out=np.zeros_like(vt), where=kept)
    return list(zip(ranks, np.swapaxes(terms, 1, 2) @ np.swapaxes(w, 1, 2)))


def _unit_shift(a):
    """The exponent ``j`` for which ``2**j * max|a|`` lies nearest 1 (0 for a zero matrix), or
    for a stack of matrices the array of each one's.

    Scaling by ``2**j`` is exact unless an entry underflows, so scale-invariant
    quantities (norm ratios, distributions) keep their bits, while squared
    entries no longer overflow or underflow when |a| is near 1e170 or 1e-170.
    """
    peaks = np.maximum(a.max(axis=(-2, -1)), -a.min(axis=(-2, -1)))
    shifts = [-round(math.log2(peak)) if peak > 0.0 else 0 for peak in np.ravel(peaks).tolist()]
    return np.array(shifts, dtype=np.intc) if a.ndim == 3 else shifts[0]


def frobenius_norm(a) -> float:
    """``||a||_F`` of ``a`` scaled by :func:`_unit_shift`, scaled back; no square over- or
    underflows.

    In-range inputs give the bits of ``np.linalg.norm(a)``, since both
    scalings are by a power of two.
    """
    a = as_matrix(a)
    shift = _unit_shift(a)
    return math.ldexp(float(np.linalg.norm(np.ldexp(a, shift))), -shift)


def spectral_norm(a) -> float:
    """``||a||_2``: :func:`_gram_norm` of ``a`` scaled by :func:`_unit_shift`, scaled back, which
    keeps every bit under scaling by 2^j and keeps the Gram entries from over- or underflowing."""
    a = as_matrix(a)
    shift = _unit_shift(a)
    return math.ldexp(_gram_norm(np.ldexp(a, shift)), -shift)


def _gram_norm(a) -> float:
    """``||a||_2``, the square root of the largest eigenvalue of the smaller of ``a.T @ a`` and
    ``a @ a.T``: one BLAS-3 product and a symmetric eigensolve instead of an SVD, with no copy of
    ``a``, within 1e-12 relative, as that eigenvalue is accurate relative to itself."""
    gram = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    return math.sqrt(float(np.linalg.eigvalsh(gram)[-1]))


def stable_rank(a) -> float:
    """``||A||_F^2 / ||A||_2^2``; a perturbation-robust surrogate for rank."""
    s = singular_values(a)
    if s[0] == 0.0:
        raise ZeroMatrixError("the zero matrix has no stable rank")
    return stable_rank_of(s)


def condition_number(a, tol=None) -> float:
    """Generalized spectral condition number: sigma_max over minimal NONZERO sigma."""
    a = as_matrix(a)
    s = singular_values(a)
    rank = rank_cutoff(s, a.shape, tol)[0]
    if rank == 0:
        raise ZeroMatrixError("all singular values are at or below the tolerance")
    return condition_of(s[:rank])


def _take(a, index_set: IndexSet) -> np.ndarray:
    """``A(I, :)`` or ``A(:, J)`` of the validated ``a``, as a new C-ordered array.

    Duplicates and ordering are honored; the caller has checked the indices
    against the size of ``a`` along their axis.
    """
    axis = 0 if index_set.axis == ROWS else 1
    return a.take(np.asarray(index_set.indices, dtype=np.intp), axis=axis)
