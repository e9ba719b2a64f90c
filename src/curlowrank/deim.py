"""Greedy deterministic index selection from singular-vector bases.

The selection walks the basis columns left to right.  The first index is the
largest-magnitude entry of the first column; each later step interpolates the
next column on the indices chosen so far, and picks the entry where the
interpolation residual is largest.  Ties break toward the smallest index.
Exactly ``rank(A)`` indices per side recover a low-rank matrix exactly, and a
computable singular-value margin certifies recovery from a noisy observation.
The rank-k bases come from :func:`~curlowrank.linalg.leading_bases`: the
certified sketch in O(m n k) time where it certifies (Sorensen and Embree,
arXiv:1407.5516, select from any accurate rank-k singular vectors), else the
dense compact SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cur import CurFactors, _cur
from .errors import DomainError, SingularInterpolationError
from .linalg import COLS, ROWS, IndexSet, as_matrix, leading_bases, rank_cutoff, singular_values


@dataclass(frozen=True, eq=False)
class DeimSelection:
    """Indices chosen from a basis, with the per-step residual maxima."""

    indices: IndexSet
    residual_maxima: tuple


def deim_select(v, ell, axis=ROWS) -> DeimSelection:
    """Select ``ell`` interpolation indices from the basis ``v`` (columns).

    ``v`` should have orthonormal columns (singular vectors); ``ell`` may not
    exceed the column count.  The returned index set is tagged with ``axis``
    so callers can route it to rows or columns of the data matrix.
    """
    v = as_matrix(v)
    if not (1 <= ell <= v.shape[1]):
        raise DomainError(f"need 1 <= ell <= {v.shape[1]}, got ell={ell}")
    chosen, maxima = _select(v[None], ell)
    return DeimSelection(indices=IndexSet(chosen[0], axis), residual_maxima=tuple(maxima[0]))


def _select(v, ell) -> tuple:
    """:func:`deim_select`'s indices and residual maxima, as (T, ell) lists, of each basis of
    the stack ``v``: one stacked solve per greedy step."""
    t = np.arange(len(v))[:, None]
    chosen, maxima = np.empty((len(v), ell), dtype=np.intp), np.empty((len(v), ell))
    resid = v[:, :, 0]
    for j in range(ell):
        if j:
            picked = chosen[:, :j]
            try:
                coeff = np.linalg.solve(v[t, picked, :j], v[t, picked, j][..., None])
            except np.linalg.LinAlgError as exc:
                raise SingularInterpolationError(
                    f"interpolation system singular at step {j + 1}"
                ) from exc
            resid = v[:, :, j] - (v[:, :, :j] @ coeff)[..., 0]
        magnitude = np.abs(resid)
        chosen[:, j], maxima[:, j] = magnitude.argmax(axis=1), magnitude.max(axis=1)
    return chosen.tolist(), maxima.tolist()


def deim_cur(a, k, tol=None, svd=None) -> CurFactors:
    """Exactly ``k`` rows and columns chosen greedily from the rank-k SVD factors.

    Columns come from the right singular vectors and rows from the left ones.
    When ``rank(A) = k`` the resulting decomposition reproduces A exactly.
    The bases are :func:`~curlowrank.linalg.leading_bases` of ``a``: from
    ``svd``, the caller's compact SVD of ``a``, if it holds one; else from
    the certified sketch when ``tol`` is None; else from ``a`` factored at ``tol``.
    """
    if k < 1:
        raise DomainError(f"rank must be >= 1, got k={k}")
    a = as_matrix(a)
    left, right = leading_bases(a, k, tol, svd)
    return _cur(a, deim_select(left, k, ROWS).indices, deim_select(right, k, COLS).indices, tol)


def _deim_indices(svds, k) -> list:
    """``(rows, cols)`` that :func:`deim_cur` selects from each compact SVD of ``svds``, every
    rank-``k`` basis of one side at once."""
    bases = map(np.stack, zip(*(leading_bases(None, k, svd=f) for f in svds)))
    rows, cols = (_select(b, k)[0] for b in bases)
    return [(IndexSet(i, ROWS), IndexSet(j, COLS)) for i, j in zip(rows, cols)]


@dataclass(frozen=True)
class NoiseCertificate:
    """Outcome of the noisy-recovery hypothesis check."""

    holds: bool
    margin: float
    threshold: float
    sigma_k_lower: float


def deim_noise_certificate(a_tilde, k, e_bound) -> NoiseCertificate:
    """Check the recovery hypothesis for selection on a noisy observation.

    Given only ``a_tilde = A + E`` and a bound on ``||E||_2``, the k-th
    singular value of A is bounded below by ``sigma_k(a_tilde) - e_bound``
    (Weyl), and the certificate requires that lower bound to reach
    ``(1 + 2^k * sqrt(max(m, n) * k / 3)) * e_bound``.  When it holds and A
    has rank k, greedy selection on the noisy singular vectors yields an
    exact decomposition of A itself.  Where ``2^k`` leaves the float range
    the threshold reads inf, so the certificate fails instead of raising;
    with ``e_bound = 0`` the threshold stays 0.0.
    """
    a_tilde = as_matrix(a_tilde)
    m, n = a_tilde.shape
    if not 1 <= k <= min(m, n):
        raise DomainError(f"need 1 <= k <= {min(m, n)}, got k={k}")
    if not 0.0 <= e_bound < math.inf:
        raise DomainError(f"noise bound must be finite and nonnegative, got {e_bound}")
    s = singular_values(a_tilde)
    # below the numerical-rank cutoff a singular value counts as zero
    sigma_k = float(s[k - 1]) if k <= rank_cutoff(s, (m, n))[0] else 0.0
    sigma_k_lower = sigma_k - float(e_bound)
    with np.errstate(over="ignore"):
        growth = np.ldexp(math.sqrt(max(m, n) * k / 3.0), k)
        threshold = float((1.0 + growth) * float(e_bound)) if e_bound > 0.0 else 0.0
    holds = sigma_k_lower > 0.0 and sigma_k_lower >= threshold
    return NoiseCertificate(
        holds=bool(holds),
        margin=sigma_k_lower - threshold,
        threshold=threshold,
        sigma_k_lower=sigma_k_lower,
    )
