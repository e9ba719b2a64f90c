"""CUR construction and error measures, the five-way rank-equivalence check, sampling pipelines.

A CUR decomposition picks column indices J and row indices I of a matrix A
and forms ``C = A(:, J)``, ``R = A(I, :)``, ``U = A(I, J)``; the
decomposition is *exact* when ``A = C U^+ R``, which happens precisely when
``rank(U) = rank(A)``.  ``verify_characterization`` evaluates all five
equivalent formulations of that statement numerically and reports them
side by side; they must agree on every instance.

Exactness is declared at relative Frobenius tolerance 1e-8 by default.  A CUR
of A is measured in the k-by-k blocks of A's compact SVD (:func:`_blocks`),
without extracting C, U or R: C, R and U have the singular values of small
blocks, every rank and every ``U^+`` is cut at A's numerical-rank cutoff, and
no m-by-n product is formed, so roundoff does not grow with the condition
number of U.  The trials and ``verify_characterization`` share these blocks.
An extracted CUR (:func:`_cur`, which the ``cur`` and ``deim`` commands
measure) cuts ``U^+`` at ``tol``, by default U's own cutoff, and its errors
are norms of the dense residual ``A - C U^+ R``, whose roundoff grows with
``1 / sigma_min(U)``.  Their spectral norms come from
:func:`~curlowrank.linalg.spectral_norm`, an eigensolve of the smaller Gram
matrix, so no m-by-n residual is factored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRangeError, IndexSetError
from .linalg import (
    COLS,
    ROWS,
    IndexSet,
    _compact_svd,
    _nonnegative,
    _norms,
    _pinvs,
    _rank_pinv_cutoff,
    _take,
    _unit_shift,
    as_matrix,
    frobenius_norm,
    spectral_norm,
)
from .sampling import ProbDist, draw_indices

EXACTNESS_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class CurFactors:
    """Index sets and the submatrices they extract, plus the middle pseudoinverse."""

    I: IndexSet
    J: IndexSet
    C: np.ndarray
    U: np.ndarray
    R: np.ndarray
    U_pinv: np.ndarray

    def approximation(self) -> np.ndarray:
        """The product ``C U^+ R``."""
        return self.C @ self.U_pinv @ self.R


def _check_cur(rows: IndexSet, cols: IndexSet, shape) -> None:
    """Raise unless ``rows``, ``cols`` are a nonempty row and column index set within ``shape``."""
    if rows.axis != ROWS or cols.axis != COLS:
        raise IndexSetError("a CUR needs a row index set and a column index set")
    if not (rows.indices and cols.indices):
        raise IndexSetError("a CUR needs at least one row index and one column index")
    for index_set, size in zip((rows, cols), shape):
        top = max(index_set.indices)
        if top >= size:
            raise IndexOutOfRangeError(
                f"index {top} out of range for axis '{index_set.axis}' of size {size}"
            )


def _extract(a, rows: IndexSet, cols: IndexSet) -> tuple:
    """``(C, U, R)`` of the validated ``a`` for the given index sets."""
    _check_cur(rows, cols, a.shape)
    c, r = _take(a, cols), _take(a, rows)
    return c, _take(c, rows), r


def _cur(a, rows: IndexSet, cols: IndexSet, tol) -> CurFactors:
    """``C, U, R`` of the validated ``a`` for the given index sets; ``U^+`` is cut at ``tol``."""
    c, u, r = _extract(a, rows, cols)
    return CurFactors(I=rows, J=cols, C=c, U=u, R=r, U_pinv=_rank_pinv_cutoff(u, tol)[1])


def approx_error(a, factors: CurFactors) -> float:
    """``||A - C U^+ R||_F``."""
    return frobenius_norm(as_matrix(a) - factors.approximation())


@dataclass(frozen=True)
class CharacterizationReport:
    """Numerical verdicts for the five equivalent exact-CUR conditions.

    The booleans must be unanimous on every instance; ``u_pinv_identity``
    (``U^+ = C^+ A R^+``) is only meaningful when all five hold.
    ``residuals`` holds the relative Frobenius residual of each identity.
    A caller that needs only (ii) measures the CUR with :func:`_cores_of_a`,
    as the trials do.
    """

    rank_a: int
    rank_c: int
    rank_r: int
    rank_u: int
    holds_i: bool
    holds_ii: bool
    holds_iii: bool
    holds_iv: bool
    holds_v: bool
    u_pinv_identity: bool
    residuals: dict = field(repr=False)
    tol: float

    @property
    def verdicts(self):
        return (self.holds_i, self.holds_ii, self.holds_iii, self.holds_iv, self.holds_v)

    @property
    def unanimous(self) -> bool:
        return len(set(self.verdicts)) == 1

    @property
    def all_hold(self) -> bool:
        return all(self.verdicts)


def _ratio(err, size) -> float:
    """``err / size``, with 0/0 read as 0.0 and err/0 as inf."""
    if size > 0.0:
        return err / size
    return 0.0 if err == 0.0 else float("inf")


def relative_errors(a, factors: CurFactors) -> tuple:
    """``(rel_2, rel_F)``: the spectral and Frobenius norms of ``A - C U^+ R`` over those of A."""
    a = as_matrix(a)
    resid = a - factors.approximation()
    return (_ratio(spectral_norm(resid), spectral_norm(a)),
            _ratio(frobenius_norm(resid), frobenius_norm(a)))


def _stacked(fn, *items) -> list:
    """``fn``'s result for each matrix, where each of ``items`` holds one array (or number) per
    matrix and ``fn`` maps their stacks to a list of per-matrix results: one call on the whole
    stacks where each one's items share a shape, else one call per matrix on stacks of one."""
    try:
        stacks = [np.array(item) for item in items]
    except ValueError:  # numpy refuses to stack items of different shapes
        return [out for i in range(len(items[0]))
                for out in fn(*(np.array(item[i:i + 1]) for item in items))]
    return fn(*stacks)


def _r_factors(x, indices, scale=None):
    """The R factors of the rows ``indices[t]`` of each matrix ``x[t]`` of the stack, each
    column scaled by its item of ``scale[t]`` first where given: (T, min(d, k), k) for (T, d)
    indices."""
    rows = x[np.arange(len(x))[:, None], indices]
    return np.linalg.qr(rows if scale is None else rows * scale[:, None, :], mode="r")


def _blocks(curs) -> tuple:
    """The lists of ``R_b``, ``R_v``, ``(rank(U), M^+)``, ``z`` and ``middle`` of ``curs``.

    ``curs`` holds ``(svd, rows, cols)``: A's compact SVD ``A = W S V^T`` and the
    index sets.  ``U = (W_I S) V_J^T`` has the singular values of the core
    ``M = R_b R_v^T`` of the R factors of ``W_I S`` and ``V_J``, so ``U^+ = Q_v M^+
    Q_b^T``, cut at A's cutoff ``svd.tolerance_used``; the residual is ``W middle V^T``
    with ``middle = S - S R_v^T M^+ R_b`` (grouped so that no product passes through
    ``S^2``; the part of A below its cutoff is left out), and ``U^+ R = Q_v z V^T``
    with ``z = M^+ R_b``.  Each stage is one call on the stacks of its matrices where
    their shapes agree (not under dedup), and a trial's blocks are views into them.
    """
    svds, rows, cols = zip(*curs)
    s = [f.singular_values for f in svds]
    rb = _stacked(_r_factors, [f.left for f in svds], [i.indices for i in rows], s)
    rv = _stacked(_r_factors, [f.right for f in svds], [j.indices for j in cols])
    pinvs, zs, middles = zip(*_stacked(_core_blocks, rb, rv, s, [f.tolerance_used for f in svds]))
    return rb, rv, pinvs, zs, middles


def _core_blocks(rb, rv, s, tols) -> list:
    """``((rank(U), M^+), z, middle)`` of each CUR of :func:`_blocks` from the stacks of its R
    factors ``rb``, ``rv`` and of A's singular values ``s`` and cutoffs ``tols``."""
    pinvs = _pinvs(rb @ np.swapaxes(rv, 1, 2), tols)
    zs = np.stack([pinv for _, pinv in pinvs]) @ rb
    middles = s[:, :, None] * np.eye(s.shape[1]) - s[:, :, None] * (np.swapaxes(rv, 1, 2) @ zs)
    return list(zip(pinvs, zs, middles))


def _cores_of_a(curs) -> list:
    """``((||A - C U^+ R||_2, ||A - C U^+ R||_F), z)`` of each CUR of A in ``curs``, from
    :func:`_blocks`."""
    *_, zs, middles = _blocks(curs)
    return list(zip(_stacked(_norms, middles), zs))


def verify_characterization(a, rows: IndexSet, cols: IndexSet, tol=EXACTNESS_TOL) -> CharacterizationReport:
    """Evaluate conditions (i)-(v) of the exact-CUR equivalence at tolerance ``tol``.

    (i) rank(U) = rank(A); (ii) ``A = C U^+ R``; (iii) ``A = C C^+ A R^+ R``;
    (iv) ``A^+ = R^+ U C^+``; (v) rank(C) = rank(R) = rank(A).  Each is
    evaluated in the k-by-k blocks of :func:`_blocks` from one compact SVD of
    the unit-scaled A: C, R and U have the singular values of ``X = S R_v^T``,
    ``R_b`` and ``M``, every rank and pseudoinverse is cut at A's cutoff, and
    the orthonormal factors drop out of each residual, so (iii) is
    ``||S - X X^+ S R_b^+ R_b||``, (iv) is ``||S^-1 - R_b^+ R_b R_v^T X^+||``
    and the ``U^+`` identity ``||M^+ - X^+ S R_b^+||``, relative to S, S^-1 and M^+.
    A ``tol`` that is negative or not finite is a DomainError.
    """
    tol = _nonnegative(tol, "tol")
    a = as_matrix(a)
    _check_cur(rows, cols, a.shape)
    if a.any():
        f = _compact_svd(np.ldexp(a, _unit_shift(a)), None)  # A scaled by 2^j, max|A| near 1
        [b], [v], [(rank_u, m_pinv)], _, [middle] = _blocks([(f, rows, cols)])
        s, s_inv = np.diag(f.singular_values), np.diag(1.0 / f.singular_values)
        x = f.singular_values[:, None] * v.T
        rank_c, x_pinv = _rank_pinv_cutoff(x, f.tolerance_used)
        rank_r, b_pinv = _rank_pinv_cutoff(b, f.tolerance_used)
        ranks = f.numerical_rank, rank_c, rank_r, rank_u
        residuals = [float(_ratio(np.linalg.norm(err), np.linalg.norm(ref))) for err, ref in (
            (middle, s), (s - x @ x_pinv @ s @ b_pinv @ b, s),
            (s_inv - b_pinv @ b @ v.T @ x_pinv, s_inv), (m_pinv - x_pinv @ s @ b_pinv, m_pinv))]
    else:  # A, C, R and U have rank 0, and every identity holds exactly
        ranks, residuals = (0, 0, 0, 0), [0.0] * 4
    rank_a, rank_c, rank_r, rank_u = ranks
    holds_ii, holds_iii, holds_iv, u_pinv_identity = (r <= tol for r in residuals)
    return CharacterizationReport(
        rank_a=rank_a,
        rank_c=rank_c,
        rank_r=rank_r,
        rank_u=rank_u,
        holds_i=rank_u == rank_a,
        holds_ii=holds_ii,
        holds_iii=holds_iii,
        holds_iv=holds_iv,
        holds_v=rank_c == rank_a and rank_r == rank_a,
        u_pinv_identity=u_pinv_identity,
        residuals=dict(zip(("cur", "projection", "pinv_product", "u_pinv_identity"), residuals)),
        tol=tol,
    )


def randomized_cur(a, row_dist: ProbDist, col_dist: ProbDist, d1, d2, rng,
                   dedup=False, tol=None) -> CurFactors:
    """The CUR of ``d1`` rows and ``d2`` columns drawn by :func:`~curlowrank.sampling.draw_indices`.

    Rows and columns come from independent child streams of ``rng``.
    ``dedup=True`` removes repeated indices afterwards (exactness of the
    decomposition is unaffected).
    """
    a = as_matrix(a)
    if (row_dist.size, col_dist.size) != a.shape:
        raise ValueError("row_dist and col_dist must weigh the rows and the columns of a")
    return _cur(a, *draw_indices(row_dist, col_dist, d1, d2, rng, dedup), tol)
