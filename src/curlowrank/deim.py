"""Greedy deterministic index selection from singular-vector bases.

The selection walks the basis columns left to right.  The first index is the
largest-magnitude entry of the first column; each later step interpolates the
next column on the indices chosen so far, and picks the entry where the
interpolation residual is largest.  Ties break toward the smallest index.
Exactly ``rank(A)`` indices per side recover a low-rank matrix exactly, and a
computable singular-value margin certifies recovery from a noisy observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cur import CurFactors, build_cur
from .errors import DomainError, RankDeficientError, SingularInterpolationError
from .linalg import COLS, ROWS, IndexSet, as_matrix, compact_svd, rank_cutoff


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
    n, width = v.shape
    if not (1 <= ell <= width):
        raise DomainError(f"need 1 <= ell <= {width}, got ell={ell}")

    chosen = [int(np.argmax(np.abs(v[:, 0])))]
    maxima = [float(abs(v[chosen[0], 0]))]
    for j in range(1, ell):
        vj = v[:, j]
        interp = v[np.asarray(chosen), :j]
        try:
            coeff = np.linalg.solve(interp, vj[np.asarray(chosen)])
        except np.linalg.LinAlgError as exc:
            raise SingularInterpolationError(
                f"interpolation system singular at step {j + 1}"
            ) from exc
        resid = vj - v[:, :j] @ coeff
        p = int(np.argmax(np.abs(resid)))
        maxima.append(float(abs(resid[p])))
        chosen.append(p)
    return DeimSelection(indices=IndexSet(tuple(chosen), axis), residual_maxima=tuple(maxima))


def deim_cur(a, k, tol=None, svd=None) -> CurFactors:
    """Exactly ``k`` rows and columns chosen greedily from the rank-k SVD factors.

    Columns come from the right singular vectors and rows from the left ones.
    When ``rank(A) = k`` the resulting decomposition reproduces A exactly.
    ``svd`` is the caller's compact SVD of ``a``, if it holds one; otherwise
    ``a`` is factored at ``tol``.
    """
    if k < 1:
        raise DomainError(f"rank must be >= 1, got k={k}")
    a = as_matrix(a)
    f = compact_svd(a, tol) if svd is None else svd
    if f.numerical_rank < k:
        raise RankDeficientError(
            f"requested k={k} exceeds numerical rank {f.numerical_rank}"
        )
    cols = deim_select(f.right[:, :k], k, axis=COLS).indices
    rows = deim_select(f.left[:, :k], k, axis=ROWS).indices
    return build_cur(a, rows, cols, tol)


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
    exact decomposition of A itself.
    """
    if k < 1:
        raise DomainError(f"rank must be >= 1, got k={k}")
    if e_bound < 0.0:
        raise DomainError(f"noise bound must be nonnegative, got {e_bound}")
    a_tilde = as_matrix(a_tilde)
    m, n = a_tilde.shape
    s = np.linalg.svd(a_tilde, compute_uv=False)
    # below the numerical-rank cutoff a singular value counts as zero
    sigma_k = float(s[k - 1]) if k <= rank_cutoff(s, (m, n))[0] else 0.0
    sigma_k_lower = sigma_k - float(e_bound)
    threshold = (1.0 + (2.0**k) * math.sqrt(max(m, n) * k / 3.0)) * float(e_bound)
    holds = sigma_k_lower > 0.0 and sigma_k_lower >= threshold
    return NoiseCertificate(
        holds=bool(holds),
        margin=sigma_k_lower - threshold,
        threshold=threshold,
        sigma_k_lower=sigma_k_lower,
    )
