"""CUR construction and error measures, the five-way rank-equivalence check, sampling pipelines.

A CUR decomposition picks column indices J and row indices I of a matrix A
and forms ``C = A(:, J)``, ``R = A(I, :)``, ``U = A(I, J)``; the
decomposition is *exact* when ``A = C U^+ R``, which happens precisely when
``rank(U) = rank(A)``.  ``verify_characterization`` evaluates all five
equivalent formulations of that statement numerically and reports them
side by side; they must agree on every instance.

Exactness is declared at relative Frobenius tolerance 1e-8 by default.
Rank decisions for C, U, R reuse the numerical-rank cutoff of the source
matrix A, since per-submatrix cutoffs can misclassify a near-singular U.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    COLS,
    ROWS,
    IndexSet,
    _rank_pinv_cutoff,
    as_matrix,
    frobenius_norm,
    pseudoinverse,
    submatrix,
    unit_scaled,
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


def _submatrices(a, rows: IndexSet, cols: IndexSet) -> tuple:
    """``(C, R, U)`` of ``a`` for a row and a column index set."""
    if rows.axis != ROWS or cols.axis != COLS:
        raise ValueError("build_cur needs a row index set and a column index set")
    c = submatrix(a, cols)
    return c, submatrix(a, rows), submatrix(c, rows)


def build_cur(a, rows: IndexSet, cols: IndexSet, tol=None) -> CurFactors:
    """Extract ``C, U, R`` for the given index sets; ``U^+`` is truncated at ``tol``."""
    c, r, u = _submatrices(as_matrix(a), rows, cols)
    return CurFactors(I=rows, J=cols, C=c, U=u, R=r, U_pinv=pseudoinverse(u, tol))


def approx_error(a, factors: CurFactors, norm="frobenius") -> float:
    """``||A - C U^+ R||`` in the spectral or Frobenius norm."""
    a = as_matrix(a)
    resid = a - factors.approximation()
    if norm == "frobenius":
        return frobenius_norm(resid)
    if norm == "spectral":
        return float(np.linalg.norm(resid, 2))
    raise ValueError(f"norm must be 'spectral' or 'frobenius', got {norm!r}")


@dataclass(frozen=True)
class CharacterizationReport:
    """Numerical verdicts for the five equivalent exact-CUR conditions.

    The booleans must be unanimous on every instance; ``u_pinv_identity``
    (``U^+ = C^+ A R^+``) is only meaningful when all five hold.  ``factors``
    is the CUR behind the verdicts, with ``U^+`` truncated at A's cutoff.
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
    factors: CurFactors = field(repr=False)

    @property
    def verdicts(self):
        return (self.holds_i, self.holds_ii, self.holds_iii, self.holds_iv, self.holds_v)

    @property
    def unanimous(self) -> bool:
        return len(set(self.verdicts)) == 1

    @property
    def all_hold(self) -> bool:
        return all(self.verdicts)


def _relative(resid, ref):
    """``||resid||_F / ||ref||_F``, both scaled first so neither norm over- or underflows."""
    ref, resid = unit_scaled(ref, resid)
    err, size = float(np.linalg.norm(resid)), float(np.linalg.norm(ref))
    if size > 0.0:
        return err / size
    return 0.0 if err == 0.0 else float("inf")


def relative_errors(a, factors: CurFactors) -> tuple:
    """``(rel_2, rel_F)``: the spectral and Frobenius norms of ``A - C U^+ R`` over those of A."""
    a = as_matrix(a)
    resid = a - factors.approximation()
    return float(np.linalg.norm(resid, 2)) / np.linalg.norm(a, 2), _relative(resid, a)


def verify_characterization(a, rows: IndexSet, cols: IndexSet, tol=EXACTNESS_TOL) -> CharacterizationReport:
    """Evaluate conditions (i)-(v) of the exact-CUR equivalence at tolerance ``tol``.

    (i) rank(U) = rank(A); (ii) ``A = C U^+ R``; (iii) ``A = C C^+ A R^+ R``;
    (iv) ``A^+ = R^+ U C^+``; (v) rank(C) = rank(R) = rank(A).  Ranks and all
    pseudoinverse truncations use the numerical-rank cutoff of A itself.
    """
    a = as_matrix(a)
    c, r, u = _submatrices(a, rows, cols)
    # a zero A leaves rank_tol None, and its zero submatrices get rank 0 as well
    rank_a, a_pinv, rank_tol = _rank_pinv_cutoff(a)
    rank_c, c_pinv, _ = _rank_pinv_cutoff(c, rank_tol)
    rank_r, r_pinv, _ = _rank_pinv_cutoff(r, rank_tol)
    rank_u, u_pinv, _ = _rank_pinv_cutoff(u, rank_tol)

    rel_cur = _relative(a - c @ u_pinv @ r, a)
    rel_proj = _relative(a - c @ c_pinv @ a @ r_pinv @ r, a)
    rel_pinv = _relative(a_pinv - r_pinv @ u @ c_pinv, a_pinv)
    rel_u_pinv = _relative(u_pinv - c_pinv @ a @ r_pinv, u_pinv)

    return CharacterizationReport(
        rank_a=rank_a,
        rank_c=rank_c,
        rank_r=rank_r,
        rank_u=rank_u,
        holds_i=rank_u == rank_a,
        holds_ii=rel_cur <= tol,
        holds_iii=rel_proj <= tol,
        holds_iv=rel_pinv <= tol,
        holds_v=rank_c == rank_a and rank_r == rank_a,
        u_pinv_identity=rel_u_pinv <= tol,
        residuals={
            "cur": rel_cur,
            "projection": rel_proj,
            "pinv_product": rel_pinv,
            "u_pinv_identity": rel_u_pinv,
        },
        tol=float(tol),
        factors=CurFactors(I=rows, J=cols, C=c, U=u, R=r, U_pinv=u_pinv),
    )


def randomized_cur(a, row_dist: ProbDist, col_dist: ProbDist, d1, d2, rng,
                   dedup=False, tol=None) -> CurFactors:
    """The CUR of ``d1`` rows and ``d2`` columns drawn by :func:`~curlowrank.sampling.draw_indices`.

    Rows and columns come from independent child streams of ``rng``.
    ``dedup=True`` removes repeated indices afterwards (exactness of the
    decomposition is unaffected).
    """
    a = as_matrix(a)
    m, n = a.shape
    if row_dist.axis != ROWS or row_dist.size != m:
        raise ValueError("row_dist must be a distribution over the rows of a")
    if col_dist.axis != COLS or col_dist.size != n:
        raise ValueError("col_dist must be a distribution over the columns of a")
    return build_cur(a, *draw_indices(row_dist, col_dist, d1, d2, rng, dedup), tol)
