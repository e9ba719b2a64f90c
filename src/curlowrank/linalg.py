"""Dense matrix primitives: compact SVD, spectra, norms, ranks, submatrices.

Matrices are plain ``numpy.ndarray`` objects of dtype float64 in C (row-major)
memory order.  A matrix is validated once, by :func:`as_matrix`, where it
enters the public API; the package passes an already validated matrix on to
private helpers (:func:`_take`, :func:`_compact_svd`, :func:`_leading_svd`,
:func:`_rank_pinv_cutoff`, which also gives the pseudoinverse) that skip that
check, and :func:`_take` trusts its caller's range check.  No other module of
the package calls ``np.linalg.svd``.
Every numerical-rank decision in the package is made by
:func:`rank_cutoff`, at the cutoff ``max(m, n) * machine_epsilon * sigma_1``
unless the ``tol`` argument of a function overrides it; the small blocks that
stand for a CUR of A (:func:`_pinvs`, :func:`_rank_pinv_cutoff`) are cut at A's.

A thin product ``p @ q.T`` is factored through thin QRs of ``p`` and ``q``
and its small core ``R_p @ R_q.T`` (Halko, Martinsson and Tropp,
arXiv:0909.4061), in O((m + n) k^2) time instead of O(m n min(m, n)).  The
top-k singular triplets of a dense matrix come from :func:`_leading_svd`'s
certified subspace iteration in O(m n k) time, or None where it cannot
certify them; :func:`leading_bases` is the one place that chooses between
that sketch and the dense SVD.  ``||A||_2`` alone comes from
:func:`spectral_norm`, a symmetric eigensolve of the smaller Gram matrix,
and a spectrum alone from :func:`singular_values`, an SVD without vectors.

The SVD carries a fixed sign convention (the largest-magnitude entry of each
left singular vector is made nonnegative, first such entry on ties) so that
singular vectors, and everything derived from them, are reproducible across
runs on identical input bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IndexOutOfRangeError, RankDeficientError, ZeroMatrixError

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
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def rank_cutoff(s, shape, tol=None) -> tuple:
    """``(rank, tol)``: how many of ``s`` exceed ``tol``.

    ``tol`` defaults to ``max(m, n) * eps * s[0]``.  A given ``tol`` that is
    negative or not finite is a DomainError.
    """
    if tol is None:
        tol = max(shape) * _EPS * float(s[0])
    elif not 0.0 <= tol < math.inf:
        raise DomainError(f"tol must be finite and >= 0, got {tol}")
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
        indices = tuple(map(int, self.indices))
        object.__setattr__(self, "indices", indices)
        if min(indices, default=0) < 0:
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

    def stable_rank(self) -> float:
        """``||A||_F^2 / ||A||_2^2`` from the full spectrum, scaled by sigma_1 first."""
        return stable_rank_of(self.all_singular_values)

    def frobenius_norm(self) -> float:
        """``||A||_F`` as ``sigma_1 * sqrt(stable rank)``."""
        return float(self.all_singular_values[0]) * math.sqrt(self.stable_rank())


def condition_of(s) -> float:
    """Largest over smallest of the nonincreasing singular values ``s`` kept above a cutoff."""
    return float(s[0] / s[-1])


def stable_rank_of(s) -> float:
    """``||A||_F^2 / ||A||_2^2`` from A's nonincreasing spectrum ``s``."""
    return float(np.sum((s / s[0]) ** 2))


def _fix_signs(w, vt):
    """Make the largest-magnitude entry of each left singular vector nonnegative."""
    peak = w[np.argmax(np.abs(w), axis=0), np.arange(w.shape[1])]
    sign = np.where(peak < 0.0, -1.0, 1.0)
    return w * sign, vt * sign[:, None]


def compact_svd(a, tol=None) -> SvdFactors:
    """Compact SVD of ``a``, cut at :func:`rank_cutoff`'s ``tol``.

    Raises ZeroMatrixError when every singular value falls at or below the
    cutoff (a rank-0 matrix has no compact SVD; use :func:`rank_cutoff` of
    :func:`singular_values` if rank 0 is an acceptable answer).
    """
    return _compact_svd(as_matrix(a), tol)


def _compact_svd(a, tol) -> SvdFactors:
    """:func:`compact_svd` of an already validated matrix ``a``."""
    return _truncated(*np.linalg.svd(a, full_matrices=False), a.shape, tol)


def _as_stack(a) -> np.ndarray:
    """The stack of matrices ``a``, each matrix validated by :func:`as_matrix`."""
    a = np.asarray(a)
    if a.ndim != 3:
        raise ValueError(f"expected a stack of matrices, got ndim={a.ndim}")
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
    submatrix, where the QR's roundoff would leave about 1e-17.
    """
    p, q = _as_stack(p), _as_stack(q)
    qp, rp = np.linalg.qr(p)
    qq, rq = np.linalg.qr(q)
    qp[~p.any(axis=2)] = 0.0
    qq[~q.any(axis=2)] = 0.0
    core, shift = _core(rp, rq)
    w, s, vt = np.linalg.svd(core, full_matrices=False)
    shape = (p.shape[1], q.shape[1])
    pad = np.zeros(min(shape) - s.shape[1])
    return [_truncated(left, np.concatenate([np.ldexp(s_i, -j), pad]), right, shape, None)
            for left, s_i, right, j in zip(qp @ w, s, vt @ np.swapaxes(qq, 1, 2), shift)]


def factored_norms(p, q) -> tuple:
    """``(||p @ q.T||_2, ||p @ q.T||_F)`` from the singular values of the core."""
    p, q = as_matrix(p), as_matrix(q)
    return _norms(*_core(np.linalg.qr(p, mode="r")[None], np.linalg.qr(q, mode="r")[None]))[0]


def _norms(core, shift=0) -> list:
    """``(||a||_2, ||a||_F)`` of each ``a = ldexp(core, -shift)`` of the stack ``core`` (and its
    shifts), from one SVD of the stack with each core scaled near 1 first."""
    scales = _unit_shift(core)
    s = np.linalg.svd(np.ldexp(core, scales[:, None, None]), compute_uv=False)
    return [(math.ldexp(float(s_i[0]), -j), math.ldexp(float(np.linalg.norm(s_i)), -j))
            for s_i, j in zip(s, (scales + shift).tolist())]


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
    w, vt = _fix_signs(q @ w[:, :k], vt[:k, :])
    return w, np.ldexp(s[:k], -shift), vt.T


def leading_bases(a, k, tol=None) -> tuple:
    """``(left, right)``: the top-``k`` left and right singular vectors of ``a``.

    They come from :func:`_leading_svd` when ``tol`` is None and the sketch
    certifies, else from :func:`compact_svd` of ``a`` at ``tol``.  A ``k``
    outside ``1..min(m, n)`` is a DomainError; a ``k`` within it that exceeds
    the numerical rank of that SVD is a RankDeficientError.
    """
    a = as_matrix(a)
    if not 1 <= k <= min(a.shape):
        raise DomainError(f"need 1 <= k <= {min(a.shape)}, got k={k}")
    sketch = _leading_svd(a, k) if tol is None else None
    if sketch is not None:
        return sketch[0], sketch[2]
    return _bases(_compact_svd(a, tol), k)


def _bases(svd, k) -> tuple:
    """``(left, right)``: the first ``k`` columns of the bases of the compact SVD ``svd``, or a
    RankDeficientError where ``k`` exceeds its numerical rank."""
    if k > svd.numerical_rank:
        raise RankDeficientError(
            f"requested rank k={k} exceeds numerical rank {svd.numerical_rank}"
        )
    return svd.left[:, :k], svd.right[:, :k]


def _truncated(w, s, vt, shape, tol) -> SvdFactors:
    """The compact SVD of an m-by-n matrix from its thin ``w, s, vt``, cut at the cutoff."""
    k, tol = rank_cutoff(s, shape, tol)
    if k == 0:
        raise ZeroMatrixError("all singular values are at or below the tolerance")
    w, vt = _fix_signs(w[:, :k], vt[:k, :])
    return SvdFactors(
        left=w,
        singular_values=s[:k].copy(),
        right=vt.T.copy(),
        numerical_rank=k,
        tolerance_used=tol,
        all_singular_values=s,
    )


def singular_values(a) -> np.ndarray:
    """All min(m, n) singular values of ``a``, nonincreasing, from an SVD without vectors."""
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def _rank_pinv_cutoff(a, tol=None) -> tuple:
    """``(rank, pinv)`` of the validated matrix ``a``: :func:`_pinvs` of it alone."""
    return _pinvs(a[None], [tol])[0]


def _pinvs(a, tols) -> list:
    """``(rank, pinv)`` of each matrix of the stack ``a``, from one SVD of the stack, cut at
    :func:`rank_cutoff` of its item of ``tols`` (None for its own default), so a small matrix
    can stand for a larger one with the same nonzero singular values.  Rank 0 has a zero
    pinv; the pinv needs no sign convention, as each term pairs a vector with its own sign."""
    pinvs = []
    for w, s, vt, tol in zip(*np.linalg.svd(a, full_matrices=False), tols):
        rank = rank_cutoff(s, a.shape[1:], tol)[0]
        pinvs.append((rank, (vt[:rank].T / s[:rank]) @ w[:, :rank].T))
    return pinvs


def _unit_shift(a):
    """The exponent ``j`` for which ``2**j * max|a|`` lies nearest 1 (0 for a zero matrix), or
    for a stack of matrices the array of each one's."""
    peaks = np.maximum(a.max(axis=(-2, -1)), -a.min(axis=(-2, -1)))
    shifts = [-round(math.log2(peak)) if peak > 0.0 else 0 for peak in np.ravel(peaks).tolist()]
    return np.array(shifts, dtype=np.intc) if a.ndim == 3 else shifts[0]


def unit_scaled(a):
    """``a`` divided by the power of two nearest max|a|.

    The division is exact unless an entry underflows, so scale-invariant
    quantities (norm ratios, distributions) keep their bits, while squared
    entries no longer overflow or underflow when |a| is near 1e170 or 1e-170.
    """
    a = as_matrix(a)
    return np.ldexp(a, _unit_shift(a))


def frobenius_norm(a) -> float:
    """``||a||_F`` of :func:`unit_scaled` ``a``, scaled back; no square over- or underflows.

    In-range inputs give the bits of ``np.linalg.norm(a)``, since both
    scalings are by a power of two.
    """
    a = as_matrix(a)
    shift = _unit_shift(a)
    return math.ldexp(float(np.linalg.norm(np.ldexp(a, shift))), -shift)


def spectral_norm(a) -> float:
    """``||a||_2`` of :func:`unit_scaled` ``a``, scaled back, from its smaller Gram matrix.

    The square root of the largest eigenvalue of ``a.T @ a`` or ``a @ a.T``:
    one BLAS-3 product and a symmetric eigensolve instead of an SVD.  The
    largest eigenvalue of a positive semidefinite matrix is accurate relative
    to itself, so this agrees with the largest singular value to within
    1e-12 relative; the power-of-two scaling keeps every bit under scaling
    by 2^j and keeps the Gram entries from over- or underflowing.
    """
    a = as_matrix(a)
    shift = _unit_shift(a)
    a = np.ldexp(a, shift)
    gram = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    return math.ldexp(math.sqrt(float(np.linalg.eigvalsh(gram)[-1])), -shift)


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
