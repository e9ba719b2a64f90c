"""CUR construction and error measures, the five-way rank-equivalence check, sampling pipelines.

A CUR decomposition picks column indices J and row indices I of a matrix A
and forms ``C = A(:, J)``, ``R = A(I, :)``, ``U = A(I, J)``; the
decomposition is *exact* when ``A = C U^+ R``, which happens precisely when
``rank(U) = rank(A)``.  ``verify_characterization`` evaluates all five
equivalent formulations of that statement numerically and reports them
side by side; they must agree on every instance.

Exactness is declared at relative Frobenius tolerance 1e-8 by default.
Rank decisions for C, U, R use the numerical-rank cutoff of the source
matrix A, since per-submatrix cutoffs can misclassify a near-singular U;
only where repeated indices make a submatrix's own default cutoff larger
is that one used, so its roundoff never counts toward its rank.

Spectral errors take ``||.||_2`` from :func:`~curlowrank.linalg.spectral_norm`,
an eigensolve of the smaller Gram matrix that agrees with the SVD norm to
within 1e-12 relative, so no m-by-n residual is factored.  A CUR of a matrix
held as its compact SVD is measured in that SVD's k-by-k core instead
(:func:`_cores_of_a`), without extracting C, U or R.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    COLS,
    ROWS,
    IndexSet,
    _norms,
    _pinvs,
    _rank_pinv_cutoff,
    _take,
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


def _submatrices(a, rows: IndexSet, cols: IndexSet) -> tuple:
    """``(C, R, U)`` of the validated ``a`` for a row and a column index set."""
    if rows.axis != ROWS or cols.axis != COLS:
        raise ValueError("a CUR needs a row index set and a column index set")
    if not (rows.indices and cols.indices):
        raise ValueError("a CUR needs at least one row index and one column index")
    c = _take(a, cols)
    return c, _take(a, rows), _take(c, rows)


def _cur(a, rows: IndexSet, cols: IndexSet, tol) -> CurFactors:
    """``C, U, R`` of the validated ``a`` for the given index sets; ``U^+`` is cut at ``tol``."""
    c, r, u = _submatrices(a, rows, cols)
    return CurFactors(I=rows, J=cols, C=c, U=u, R=r, U_pinv=_rank_pinv_cutoff(u, tol)[1])


def approx_error(a, factors: CurFactors, norm="frobenius") -> float:
    """``||A - C U^+ R||`` in the spectral or Frobenius norm."""
    a = as_matrix(a)
    resid = a - factors.approximation()
    if norm == "frobenius":
        return frobenius_norm(resid)
    if norm == "spectral":
        return spectral_norm(resid)
    raise ValueError(f"norm must be 'spectral' or 'frobenius', got {norm!r}")


@dataclass(frozen=True)
class CharacterizationReport:
    """Numerical verdicts for the five equivalent exact-CUR conditions.

    The booleans must be unanimous on every instance; ``u_pinv_identity``
    (``U^+ = C^+ A R^+``) is only meaningful when all five hold.
    ``residuals`` holds the relative Frobenius residual of each identity.
    A caller that needs only an exact CUR draws it at A's cutoff (as
    :func:`randomized_cur` does) and tests (ii) on its residual.
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


def _relative(resid, ref):
    """``||resid||_F / ||ref||_F``, neither norm over- or underflowing."""
    return _ratio(frobenius_norm(resid), frobenius_norm(ref))


def relative_errors(a, factors: CurFactors) -> tuple:
    """``(rel_2, rel_F)``: the spectral and Frobenius norms of ``A - C U^+ R`` over those of A."""
    a = as_matrix(a)
    resid = a - factors.approximation()
    return _ratio(spectral_norm(resid), spectral_norm(a)), _relative(resid, a)


def _stacked(fn, mats, *args):
    """``fn`` of each of ``mats`` and its item of each of ``args``: one call on their
    stack if they share a shape, else one call each."""
    if len({m.shape for m in mats}) == 1:
        return fn(np.stack(mats), *args)
    return [fn(m[None], *([arg[i]] for arg in args))[0] for i, m in enumerate(mats)]


def _r_factors(x):
    """The R factors of the stack ``x``: (T, min(d, k), k) for (T, d, k)."""
    return np.linalg.qr(x, mode="r")


def _cores_of_a(curs) -> list:
    """``((||A - C U^+ R||_2, ||A - C U^+ R||_F), z)`` of each CUR of A in ``curs``.

    ``curs`` holds ``(svd, rows, cols, tol)``: A's compact SVD ``A = W S V^T``, the
    index sets, and the cutoff of ``U^+``, None for U's own.  ``U = (W_I S) V_J^T``
    has the singular values of the core ``M = R_b R_v^T`` of the R factors of
    ``W_I S`` and ``V_J``, so ``U^+ = Q_v M^+ Q_b^T``, the residual is
    ``W (S - S R_v^T M^+ R_b) V^T`` (grouped so that no product passes through
    ``S^2``; where ``svd`` is cut, the part of A below its cutoff is left out)
    and ``U^+ R = Q_v z V^T`` with ``z = M^+ R_b``.  Each stage is one LAPACK
    call on the stack of its matrices where their shapes agree.
    """
    svds, rows, cols, tols = zip(*curs)
    rb = _stacked(_r_factors, [np.take(f.left, i.indices, axis=0) * f.singular_values
                               for f, i in zip(svds, rows)])
    rv = _stacked(_r_factors, [np.take(f.right, j.indices, axis=0) for f, j in zip(svds, cols)])
    shapes = [(len(i), len(j)) for i, j in zip(rows, cols)]
    pinvs = _stacked(_pinvs, [b @ v.T for b, v in zip(rb, rv)], shapes, tols)
    zs = [pinv @ b for (_, pinv, _), b in zip(pinvs, rb)]
    middles = [np.diag(f.singular_values) - f.singular_values[:, None] * (v.T @ z)
               for f, v, z in zip(svds, rv, zs)]
    return list(zip(_stacked(_norms, middles), zs))


def verify_characterization(a, rows: IndexSet, cols: IndexSet, tol=EXACTNESS_TOL) -> CharacterizationReport:
    """Evaluate conditions (i)-(v) of the exact-CUR equivalence at tolerance ``tol``.

    (i) rank(U) = rank(A); (ii) ``A = C U^+ R``; (iii) ``A = C C^+ A R^+ R``;
    (iv) ``A^+ = R^+ U C^+``; (v) rank(C) = rank(R) = rank(A).  Ranks and all
    pseudoinverse truncations use the numerical-rank cutoff of A, raised for
    C, R or U to its own default cutoff when that is larger.
    """
    a = as_matrix(a)
    c, r, u = _submatrices(a, rows, cols)
    # a zero A has cutoff 0.0, and its zero submatrices get rank 0 as well
    rank_a, a_pinv, rank_tol = _rank_pinv_cutoff(a)
    rank_c, c_pinv = _rank_pinv_cutoff(c, floor=rank_tol)[:2]
    rank_r, r_pinv = _rank_pinv_cutoff(r, floor=rank_tol)[:2]
    rank_u, u_pinv = _rank_pinv_cutoff(u, floor=rank_tol)[:2]

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
    return _cur(a, *draw_indices(row_dist, col_dist, d1, d2, rng, dedup), tol)
