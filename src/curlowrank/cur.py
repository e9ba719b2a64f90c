"""CUR factor construction, the five-way rank-equivalence check, and sampling pipelines.

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

from .errors import ZeroMatrixError
from .linalg import (
    COLS,
    ROWS,
    IndexSet,
    as_matrix,
    compact_svd,
    pseudoinverse,
    submatrix,
)
from .sampling import ProbDist, dedup_indices, draw_with_replacement

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
    scheme_tag: str = "manual"

    def approximation(self) -> np.ndarray:
        """The product ``C U^+ R``."""
        return self.C @ self.U_pinv @ self.R


def build_cur(a, rows: IndexSet, cols: IndexSet, tol=None, scheme_tag="manual") -> CurFactors:
    """Extract ``C, U, R`` for the given index sets; ``U^+`` is truncated at ``tol``."""
    a = as_matrix(a)
    if rows.axis != ROWS or cols.axis != COLS:
        raise ValueError("build_cur needs a row index set and a column index set")
    c = submatrix(a, cols)
    r = submatrix(a, rows)
    u = submatrix(c, rows)
    return CurFactors(
        I=rows,
        J=cols,
        C=c,
        U=u,
        R=r,
        U_pinv=pseudoinverse(u, tol),
        scheme_tag=scheme_tag,
    )


def approx_error(a, factors: CurFactors, norm="frobenius") -> float:
    """``||A - C U^+ R||`` in the spectral or Frobenius norm."""
    a = as_matrix(a)
    resid = a - factors.approximation()
    if norm == "frobenius":
        return float(np.linalg.norm(resid))
    if norm == "spectral":
        return float(np.linalg.norm(resid, 2))
    raise ValueError(f"norm must be 'spectral' or 'frobenius', got {norm!r}")


@dataclass(frozen=True)
class CharacterizationReport:
    """Numerical verdicts for the five equivalent exact-CUR conditions.

    The booleans must be unanimous on every instance; ``u_pinv_identity``
    (``U^+ = C^+ A R^+``) is only meaningful when all five hold.
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


def _relative(err, ref):
    if ref > 0.0:
        return err / ref
    return 0.0 if err == 0.0 else float("inf")


def _rank_and_pinv(mat, tol):
    """Rank, pseudoinverse and cutoff of ``mat`` from one compact SVD; rank 0 has a zero pinv."""
    try:
        f = compact_svd(mat, tol)
    except ZeroMatrixError:
        return 0, np.zeros(mat.shape[::-1]), tol
    return f.numerical_rank, f.pinv(), f.tolerance_used


def verify_characterization(a, rows: IndexSet, cols: IndexSet, tol=EXACTNESS_TOL) -> CharacterizationReport:
    """Evaluate conditions (i)-(v) of the exact-CUR equivalence at tolerance ``tol``.

    (i) rank(U) = rank(A); (ii) ``A = C U^+ R``; (iii) ``A = C C^+ A R^+ R``;
    (iv) ``A^+ = R^+ U C^+``; (v) rank(C) = rank(R) = rank(A).  Ranks and all
    pseudoinverse truncations use the numerical-rank cutoff of A itself.
    """
    a = as_matrix(a)
    # a zero A leaves rank_tol None, and its zero submatrices get rank 0 as well
    rank_a, a_pinv, rank_tol = _rank_and_pinv(a, None)

    c = submatrix(a, cols)
    r = submatrix(a, rows)
    u = submatrix(c, rows)
    rank_c, c_pinv, _ = _rank_and_pinv(c, rank_tol)
    rank_r, r_pinv, _ = _rank_and_pinv(r, rank_tol)
    rank_u, u_pinv, _ = _rank_and_pinv(u, rank_tol)

    norm_a = float(np.linalg.norm(a))
    norm_a_pinv = float(np.linalg.norm(a_pinv))
    norm_u_pinv = float(np.linalg.norm(u_pinv))

    rel_cur = _relative(float(np.linalg.norm(a - c @ u_pinv @ r)), norm_a)
    rel_proj = _relative(float(np.linalg.norm(a - c @ c_pinv @ a @ r_pinv @ r)), norm_a)
    rel_pinv = _relative(float(np.linalg.norm(a_pinv - r_pinv @ u @ c_pinv)), norm_a_pinv)
    rel_u_pinv = _relative(float(np.linalg.norm(u_pinv - c_pinv @ a @ r_pinv)), norm_u_pinv)

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
    )


def randomized_cur(a, row_dist: ProbDist, col_dist: ProbDist, d1, d2, rng,
                   dedup=False, tol=None) -> CurFactors:
    """Sample ``d1`` rows and ``d2`` columns independently with replacement.

    Rows come from a child stream of ``rng`` and columns from a second one,
    so the two index sets are drawn independently: changing ``d2`` never
    affects the rows drawn, and vice versa.  ``dedup=True`` removes repeated
    indices afterwards (exactness of the decomposition is unaffected).
    """
    a = as_matrix(a)
    m, n = a.shape
    if row_dist.axis != ROWS or row_dist.size != m:
        raise ValueError("row_dist must be a distribution over the rows of a")
    if col_dist.axis != COLS or col_dist.size != n:
        raise ValueError("col_dist must be a distribution over the columns of a")
    row_rng, col_rng = rng.spawn(2)
    rows = draw_with_replacement(row_dist, d1, row_rng)
    cols = draw_with_replacement(col_dist, d2, col_rng)
    if dedup:
        rows = dedup_indices(rows)
        cols = dedup_indices(cols)
    tag = f"{row_dist.scheme}/{col_dist.scheme}"
    return build_cur(a, rows, cols, tol, scheme_tag=tag)
