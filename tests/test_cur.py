import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from curlowrank import cur
from curlowrank.cur import (
    CurFactors,
    _cores_of_a,
    _cur,
    approx_error,
    randomized_cur,
    relative_errors,
    verify_characterization,
)
from curlowrank.errors import DistributionError, DomainError, IndexOutOfRangeError, IndexSetError
from curlowrank.harness import trial_generator
from curlowrank.linalg import COLS, ROWS, IndexSet, _rank_pinv_cutoff, as_matrix, factored_svd
from curlowrank.sampling import ProbDist, axis_dists, draw_indices

from conftest import rank_k, uniform


class TestBuildCur:
    def test_rank_one_pivot(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        f = _cur(as_matrix(a), IndexSet([0], ROWS), IndexSet([0], COLS), None)
        np.testing.assert_array_equal(f.C, [[1.0], [2.0]])
        np.testing.assert_array_equal(f.U, [[1.0]])
        np.testing.assert_array_equal(f.R, [[1.0, 2.0]])
        np.testing.assert_allclose(f.approximation(), a, atol=1e-14)

    def test_other_pivot(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        f = _cur(as_matrix(a), IndexSet([1], ROWS), IndexSet([1], COLS), None)
        np.testing.assert_array_equal(f.U, [[4.0]])
        np.testing.assert_allclose(f.approximation(), a, atol=1e-14)

    def test_duplicate_indices_leave_product_unchanged(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        plain = _cur(as_matrix(a), IndexSet([0], ROWS), IndexSet([0], COLS), None)
        doubled = _cur(as_matrix(a), IndexSet([0, 0], ROWS), IndexSet([0], COLS), None)
        np.testing.assert_allclose(doubled.approximation(), plain.approximation(), atol=1e-14)

    def test_submatrices_are_exact_extractions(self, rng):
        a = rng.standard_normal((6, 7))
        rows, cols = IndexSet([5, 0, 0], ROWS), IndexSet([2, 6], COLS)
        f = _cur(as_matrix(a), rows, cols, None)
        np.testing.assert_array_equal(f.C, a[:, [2, 6]])
        np.testing.assert_array_equal(f.R, a[[5, 0, 0], :])
        np.testing.assert_array_equal(f.U, a[np.ix_([5, 0, 0], [2, 6])])

    def test_out_of_range_index_rejected(self):
        a = as_matrix(np.eye(3))
        with pytest.raises(IndexOutOfRangeError, match="index 3 out of range for axis 'rows'"):
            _cur(a, IndexSet([0, 3], ROWS), IndexSet([1], COLS), None)
        with pytest.raises(IndexOutOfRangeError, match="index 4 out of range for axis 'cols'"):
            _cur(a, IndexSet([0], ROWS), IndexSet([4, 1], COLS), None)

    @pytest.mark.parametrize("rows, cols", [([], [0]), ([0], [])])
    def test_empty_index_set_rejected(self, rows, cols):
        with pytest.raises(IndexSetError, match="at least one row index and one column index"):
            _cur(as_matrix(np.eye(3)), IndexSet(rows, ROWS), IndexSet(cols, COLS), None)

    def test_u_pinv_satisfies_penrose(self, rng):
        a = rank_k(9, 8, 3, rng)
        f = _cur(as_matrix(a), IndexSet([0, 3, 5, 7], ROWS), IndexSet([1, 2, 6], COLS), None)
        u, p = f.U, f.U_pinv
        assert np.linalg.norm(u @ p @ u - u) <= 1e-8 * np.linalg.norm(u)
        assert np.linalg.norm(p @ u @ p - p) <= 1e-8 * np.linalg.norm(p)


class TestCharacterization:
    def test_full_rank_all_true(self, rng):
        a = rng.standard_normal((4, 4))
        rep = verify_characterization(a, IndexSet(range(4), ROWS), IndexSet(range(4), COLS))
        assert rep.all_hold and rep.unanimous

    def test_undersized_selection_all_false(self, rng):
        a = rank_k(5, 5, 2, rng)
        rep = verify_characterization(a, IndexSet([0], ROWS), IndexSet([0], COLS))
        assert rep.unanimous and not any(rep.verdicts)

    def test_exhaustive_small(self, rng):
        # every nonempty (I, J) pair on a rank-2 4x4 matrix agrees unanimously
        a = rank_k(4, 4, 2, rng)
        subsets = [s for r in range(1, 5) for s in itertools.combinations(range(4), r)]
        for rows in subsets:
            for cols in subsets:
                rep = verify_characterization(a, IndexSet(rows, ROWS), IndexSet(cols, COLS))
                assert rep.unanimous
                if rep.all_hold:
                    assert rep.residuals["u_pinv_identity"] <= 1e-8

    def test_u_pinv_identity_when_true(self, rng):
        a = rank_k(7, 6, 3, rng)
        rows, cols = IndexSet([0, 2, 4, 6], ROWS), IndexSet([0, 1, 3, 5], COLS)
        rep = verify_characterization(a, rows, cols)
        if rep.all_hold:
            f = _cur(as_matrix(a), rows, cols, None)
            lhs = f.U_pinv
            rhs = _rank_pinv_cutoff(f.C)[1] @ a @ _rank_pinv_cutoff(f.R)[1]
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)

    def test_repeated_indices_are_ranked_at_the_submatrix_cutoff(self):
        # rank 1 with cutoff 1.7e-13, but sigma_2 = 2.4e-13 for the extracted U of repeated
        # entries; in A's core U has at most A's rank
        a = np.array([[-95.47485609713671, 367.4983980259618],
                      [0.004204068590330321, -0.016182150309457136]])
        for rows, cols in (((1, 1, 0, 0), (1, 1)), ((1, 0), (1,))):
            rep = verify_characterization(a, IndexSet(rows, ROWS), IndexSet(cols, COLS))
            assert rep.unanimous and rep.all_hold == (rep.rank_u == rep.rank_a)
            assert (rep.rank_a, rep.rank_c, rep.rank_r, rep.rank_u) == (1, 1, 1, 1)

    def test_well_posed_rank_two_is_unanimous(self, rng):
        # sigma_2 / sigma_1 = 1e-9, far above A's cutoff 7e-15, so U keeps rank 2; a dense
        # C U^+ R would carry roundoff amplified by 1/sigma_2(U), about 2e-8 here
        p = np.linalg.qr(rng.standard_normal((30, 2)))[0] * [1.0, 1e-9]
        q = np.linalg.qr(rng.standard_normal((20, 2)))[0]
        rep = verify_characterization(p @ q.T, IndexSet(range(0, 30, 3), ROWS),
                                      IndexSet(range(0, 20, 2), COLS))
        assert rep.verdicts == (True,) * 5 and rep.u_pinv_identity
        assert (rep.rank_a, rep.rank_c, rep.rank_r, rep.rank_u) == (2, 2, 2, 2)
        assert all(type(v) is bool for v in (*rep.verdicts, rep.u_pinv_identity))
        assert all(type(r) is float for r in rep.residuals.values())

    def test_zero_matrix_has_rank_zero_and_every_verdict_holds(self):
        rep = verify_characterization(np.zeros((4, 3)), IndexSet([0, 0], ROWS),
                                      IndexSet([2], COLS))
        assert (rep.rank_a, rep.rank_c, rep.rank_r, rep.rank_u) == (0, 0, 0, 0)
        assert rep.all_hold and rep.u_pinv_identity
        assert set(rep.residuals.values()) == {0.0}

    def test_out_of_range_index_rejected(self, rng):
        a = rank_k(6, 5, 2, rng)
        with pytest.raises(IndexOutOfRangeError):
            verify_characterization(a, IndexSet([0, 6], ROWS), IndexSet([1], COLS))
        with pytest.raises(IndexOutOfRangeError):
            verify_characterization(a, IndexSet([0], ROWS), IndexSet([5], COLS))

    def test_swapped_axes_rejected_like_a_cur(self, rng):
        a = rank_k(6, 5, 2, rng)
        with pytest.raises(IndexSetError, match="a row index set and a column index set"):
            verify_characterization(a, IndexSet([2, 3], COLS), IndexSet([0, 1], ROWS))

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
    def test_tol_negative_or_not_finite_rejected(self, rng, tol):
        # as rank_cutoff rejects its own tol: NaN and -1 would fail (ii)-(iv) and inf pass them
        a = rank_k(6, 5, 2, rng)
        with pytest.raises(DomainError, match="tol must be finite"):
            verify_characterization(a, IndexSet([0, 1, 2], ROWS), IndexSet([0, 1, 2], COLS), tol)


class TestRandomizedCur:
    def test_rank_one_single_draw(self, rng):
        a = np.outer(rng.standard_normal(6), rng.standard_normal(5))
        f = randomized_cur(a, *axis_dists(a, "length"), 1, 1,
                           trial_generator(3, 0))
        assert approx_error(a, f) <= 1e-10 * np.linalg.norm(a)

    def test_degenerate_dist_on_zero_column(self, rng):
        a = rank_k(6, 4, 2, rng)
        a[:, 3] = 0.0
        col_dist = ProbDist(np.array([0.0, 0.0, 0.0, 1.0]), COLS, "length")
        f = randomized_cur(a, uniform(6, ROWS), col_dist, 4, 4, trial_generator(4, 0))
        rep = verify_characterization(a, f.I, f.J)
        assert rep.unanimous and not any(rep.verdicts)

    def test_row_draws_independent_of_column_count(self, rng):
        a = rank_k(10, 9, 3, rng)
        rd, cd = axis_dists(a, "length")
        f1 = randomized_cur(a, rd, cd, 5, 3, trial_generator(11, 0))
        f2 = randomized_cur(a, rd, cd, 5, 8, trial_generator(11, 0))
        assert f1.I == f2.I
        f3 = randomized_cur(a, rd, cd, 9, 3, trial_generator(11, 0))
        assert f1.J == f3.J

    def test_dedup_invariance(self, rng):
        a = rank_k(12, 10, 3, rng)
        rd, cd = axis_dists(a, "length")
        plain = randomized_cur(a, rd, cd, 8, 8, trial_generator(5, 1), dedup=False)
        deduped = randomized_cur(a, rd, cd, 8, 8, trial_generator(5, 1), dedup=True)
        tol = 1e-8 * np.linalg.norm(a)
        assert (approx_error(a, plain) <= tol) == (approx_error(a, deduped) <= tol)

    @pytest.mark.parametrize("dedup", [False, True])
    def test_draws_the_indices_of_draw_indices(self, rng, dedup):
        a = rank_k(12, 10, 3, rng)
        rd, cd = axis_dists(a, "length")
        f = randomized_cur(a, rd, cd, 9, 7, trial_generator(8, 2), dedup=dedup)
        assert (f.I, f.J) == draw_indices(rd, cd, 9, 7, trial_generator(8, 2), dedup)

    @pytest.mark.parametrize("m, n, d1, d2, dedup", [
        (30, 20, 100_000, 3, True), (30, 20, 3, 100_000, True),  # the draws peak
        (200, 150, 10_000, 10_000, True),  # C, U and R, and as much again in U's SVD and pinv
        (30, 20, 50_000, 10, False), (30, 20, 10, 50_000, False),  # every draw is kept
        (1000, 5, 50_000, 5, False),  # an index past the 256 cached ints is an int object
    ])
    def test_a_cur_is_counted_at_its_traced_peak(self, monkeypatch, rng, m, n, d1, d2, dedup):
        # refused under a ceiling a tenth below its traced peak, run under one a tenth above
        a = rank_k(m, n, 3, rng)
        dists = axis_dists(a, "length")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            randomized_cur(a, *dists, d1, d2, trial_generator(0, 0), dedup=dedup)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(cur, "_CEILING_BYTES", int(1.1 * peak))
        randomized_cur(a, *dists, d1, d2, trial_generator(0, 0), dedup=dedup)
        monkeypatch.setattr(cur, "_CEILING_BYTES", int(0.9 * peak))
        with pytest.raises(DomainError, match=f"{d1} row and {d2} column draws would hold"):
            randomized_cur(a, *dists, d1, d2, trial_generator(0, 0), dedup=dedup)

    def test_axis_mismatch_rejected(self, rng):
        a = rank_k(6, 5, 2, rng)
        with pytest.raises(DistributionError, match="weigh the rows and the columns"):
            cols = axis_dists(a, "length")[1]
            randomized_cur(a, cols, cols, 2, 2, trial_generator(0, 0))


class TestRandomizedUnanimity:
    def test_ten_thousand_random_instances(self, rng):
        # the five verdicts agree on every randomized (A, I, J) instance
        for _ in range(10_000):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(k, 9))
            n = int(rng.integers(k, 9))
            a = rank_k(m, n, k, rng)
            rows = IndexSet(rng.integers(0, m, size=int(rng.integers(1, m + 1))).tolist(), ROWS)
            cols = IndexSet(rng.integers(0, n, size=int(rng.integers(1, n + 1))).tolist(), COLS)
            rep = verify_characterization(a, rows, cols)
            assert rep.unanimous
            if rep.all_hold:
                assert rep.residuals["u_pinv_identity"] <= 1e-8


class TestApproxError:
    def test_exact_instance(self, rng):
        a = rank_k(8, 7, 2, rng)
        f = _cur(as_matrix(a), IndexSet(range(8), ROWS), IndexSet(range(7), COLS), None)
        assert approx_error(a, f) <= 1e-10 * np.linalg.norm(a)

    def test_rank_deficient_selection_positive_error(self, rng):
        a = rank_k(6, 6, 3, rng)
        f = _cur(as_matrix(a), IndexSet([0], ROWS), IndexSet([0], COLS), None)
        assert approx_error(a, f) > 1e-6

    @pytest.mark.parametrize("scale", [1e170, 1e-170])
    def test_extreme_scale_is_finite(self, rng, scale):
        # the residual's squares overflow at 1e170 and underflow to 0 at 1e-170 unless scaled
        a = scale * rank_k(30, 20, 3, rng)
        f = _cur(as_matrix(a), IndexSet(range(30), ROWS), IndexSet(range(20), COLS), None)
        for err in (*relative_errors(a, f), approx_error(a, f) / scale):
            assert np.isfinite(err) and err <= 1e-8
        assert approx_error(a, f) > 0.0


class TestRelativeErrors:
    def test_in_range_match_plain_norm_ratios(self, rng):
        a = rank_k(20, 16, 4, rng)
        f = randomized_cur(a, *axis_dists(a, "length"), 5, 5,
                           trial_generator(3, 0))
        resid = a - f.approximation()
        rel_2, rel_f = relative_errors(a, f)
        assert rel_2 == pytest.approx(np.linalg.norm(resid, 2) / np.linalg.norm(a, 2),
                                      rel=1e-12, abs=0.0)
        assert rel_f == np.linalg.norm(resid) / np.linalg.norm(a)

    def test_zero_matrix_gives_zero_errors_as_floats(self):
        a = np.zeros((4, 3))
        f = _cur(as_matrix(a), IndexSet((0, 2), ROWS), IndexSet((1,), COLS), None)
        errors = relative_errors(a, f)
        assert errors == (0.0, 0.0) and all(type(err) is float for err in errors)

    def test_spectral_ratio_is_inf_when_only_a_is_zero(self):
        a = np.zeros((3, 3))
        f = _cur(as_matrix(a), IndexSet((0,), ROWS), IndexSet((0,), COLS), None)
        f = CurFactors(I=f.I, J=f.J, C=np.ones((3, 1)), U=f.U, R=np.ones((1, 3)),
                       U_pinv=np.ones((1, 1)))
        assert relative_errors(a, f) == (float("inf"), float("inf"))


class TestResidualNorms:
    # too few columns; every column but two distinct rows, so U has rank 2; every index
    INDEX_SETS = (((0, 3, 3, 9), (1, 2, 7)), ((5, 5, 6, 6, 6), range(20)), (range(30), range(20)))

    def test_match_the_dense_residual(self, rng):
        p, q = rng.standard_normal((30, 4)), rng.standard_normal((20, 4))
        a = p @ q.T
        [svd] = factored_svd(p[None], q[None])
        for rows, cols in self.INDEX_SETS:
            rows, cols = IndexSet(rows, ROWS), IndexSet(cols, COLS)
            f = _cur(as_matrix(a), rows, cols, svd.tolerance_used)
            resid = a - f.approximation()
            [(norms, z)] = _cores_of_a([(svd, rows, cols)])
            np.testing.assert_allclose(norms, (np.linalg.norm(resid, 2), np.linalg.norm(resid)),
                                       rtol=1e-12, atol=1e-12 * np.linalg.norm(a, 2))
            # U^+ R = Q_v z V^T, so z V^T has the Gram matrix of U^+ R
            y, y_core = f.U_pinv @ f.R, z @ svd.right.T
            np.testing.assert_allclose(y_core.T @ y_core, y.T @ y,
                                       rtol=0, atol=1e-12 * np.linalg.norm(y, 2) ** 2)

    def test_u_pinv_is_cut_at_the_given_cutoff_or_at_u_own(self, rng):
        # sigma_2(A) = 1e-9: A's cutoff keeps it, an SVD cut at 1e-6 drops it
        p = np.linalg.qr(rng.standard_normal((30, 2)))[0] * [1.0, 1e-9]
        q = np.linalg.qr(rng.standard_normal((20, 2)))[0]
        a = p @ q.T
        [svd] = factored_svd(p[None], q[None])
        rows, cols = IndexSet(range(0, 30, 3), ROWS), IndexSet(range(0, 20, 2), COLS)
        [(kept, _)], [(dropped, _)] = (_cores_of_a([(f, rows, cols)])
                                       for f in (svd, replace(svd, tolerance_used=1e-6)))
        resid = a - _cur(as_matrix(a), rows, cols, 1e-6).approximation()
        np.testing.assert_allclose(dropped, (np.linalg.norm(resid, 2), np.linalg.norm(resid)),
                                   rtol=1e-6)
        assert dropped[1] > 1e-10
        # the CUR that keeps sigma_2 is exact; in the core its residual is at the
        # roundoff of the factors, where the dense one, amplified by 1/sigma_2(U), is 2e-8
        assert kept[1] < 1e-15

    def test_a_stack_gives_each_cur_its_own_bits(self, rng):
        # one call per stage on the stack where shapes agree, one each where they do not
        p, q = rng.standard_normal((2, 30, 4)), rng.standard_normal((2, 20, 4))
        svds = factored_svd(p, q)
        curs = [(svd, IndexSet(rows, ROWS), IndexSet(cols, COLS))
                for svd, (rows, cols) in zip(svds * 3, self.INDEX_SETS * 2)]
        together = _cores_of_a(curs)
        alone = [_cores_of_a([cur])[0] for cur in curs]
        for (norms, z), (norms_1, z_1) in zip(together, alone):
            assert norms == norms_1 and z.tobytes() == z_1.tobytes()
        same = [cur for cur in curs if len(cur[1]) == 4 and len(cur[2]) == 3]
        assert [_cores_of_a([cur])[0][0] for cur in same] == [n for n, _ in _cores_of_a(same)]
