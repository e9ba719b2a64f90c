"""Greedy deterministic index selection from singular-vector bases.

The selection walks the basis columns left to right.  The first index is the
largest-magnitude entry of the first column; each later step interpolates the
next column on the indices chosen so far, and picks the entry where the
interpolation residual is largest.  Ties break toward the smallest index.
Exactly ``rank(A)`` indices per side recover a low-rank matrix exactly.
The rank-k bases come from :func:`~curlowrank.linalg._leading_bases`: the
certified sketch in O(m n k) time where it certifies (Sorensen and Embree,
arXiv:1407.5516, select from any accurate rank-k singular vectors), else the
dense compact SVD.
"""

from __future__ import annotations

import numpy as np

from .cur import CurFactors, _cur
from .errors import DomainError, SingularInterpolationError
from .linalg import (
    COLS,
    ROWS,
    IndexSet,
    _bases,
    _leading_bases,
    as_matrix,
)


def deim_select(v, ell, axis=ROWS) -> IndexSet:
    """Select ``ell`` interpolation indices from the basis ``v`` (columns).

    ``v`` should have orthonormal columns (singular vectors); ``ell`` may not
    exceed the column count.  The returned index set is tagged with ``axis``
    so callers can route it to rows or columns of the data matrix.
    """
    v = as_matrix(v)
    if not (1 <= ell <= v.shape[1]):
        raise DomainError(f"need 1 <= ell <= {v.shape[1]}, got ell={ell}")
    return IndexSet(_select(v[None], ell)[0], axis)


def _select(v, ell) -> list:
    """:func:`deim_select`'s indices, as a (T, ell) list, of each basis of the stack ``v``: one
    stacked solve per greedy step."""
    t = np.arange(len(v))[:, None]
    chosen = np.empty((len(v), ell), dtype=np.intp)
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
        chosen[:, j] = np.abs(resid).argmax(axis=1)
    return chosen.tolist()


def deim_cur(a, k, tol=None) -> CurFactors:
    """Exactly ``k`` rows and columns chosen greedily from the rank-k SVD factors.

    Columns come from the right singular vectors and rows from the left ones.
    When ``rank(A) = k`` the resulting decomposition reproduces A exactly.
    The bases are :func:`~curlowrank.linalg._leading_bases` of ``a``: the
    certified sketch when ``tol`` is None, else ``a`` factored at ``tol``.
    """
    a = as_matrix(a)
    left, right = _leading_bases(a, k, tol)
    return _cur(a, deim_select(left, k, ROWS), deim_select(right, k, COLS), tol)


def _deim_indices(svds, k) -> list:
    """``(rows, cols)`` that :func:`deim_cur` selects from each compact SVD of ``svds``, every
    rank-``k`` basis of one side at once."""
    rows, cols = (_select(b, k) for b in _bases(svds, k))
    return [(IndexSet(i, ROWS), IndexSet(j, COLS)) for i, j in zip(rows, cols)]
