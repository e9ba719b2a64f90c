import math

import numpy as np
import pytest

from curlowrank.errors import (DomainError, IndexOutOfRangeError, IndexSetError, MatrixInputError,
                              RankDeficientError, ZeroMatrixError)
from curlowrank.linalg import (
    COLS,
    ROWS,
    SKETCH_OVERSAMPLE,
    IndexSet,
    _bases,
    _fix_signs,
    _leading_bases,
    _leading_svd,
    _norms,
    _gram_norm,
    _pinvs,
    _rank_pinv_cutoff,
    _row_norms,
    _take,
    _unit_shift,
    as_matrix,
    compact_svd,
    condition_number,
    factored_norms,
    factored_svd,
    frobenius_norm,
    rank_cutoff,
    spectral_norm,
    stable_rank,
    stable_rank_of,
)

from conftest import noisy_rank_k, rank_k, rank_of


def pinv(a):
    """The pseudoinverse that ``_rank_pinv_cutoff`` forms from one SVD of ``a``."""
    return _rank_pinv_cutoff(as_matrix(a))[1]


class TestCompactSvd:
    def test_diagonal(self):
        f = compact_svd(np.diag([3.0, 4.0]))
        assert f.numerical_rank == 2
        np.testing.assert_allclose(f.singular_values, [4.0, 3.0])

    def test_rank_one_outer(self):
        a = np.outer([1.0, 2.0], [1.0, 1.0])
        f = compact_svd(a)
        assert f.numerical_rank == 1
        assert f.singular_values[0] == pytest.approx(np.sqrt(10.0))

    def test_lowrank_reconstruction(self, rng):
        a = rank_k(8, 6, 3, rng)
        f = compact_svd(a)
        assert f.numerical_rank == 3
        rel = np.linalg.norm(a - (f.left * f.singular_values) @ f.right.T) / np.linalg.norm(a)
        assert rel <= 1e-10

    def test_factor_orthonormality(self, rng):
        for _ in range(10):
            a = rank_k(12, 9, 4, rng)
            f = compact_svd(a)
            k = f.numerical_rank
            assert np.max(np.abs(f.left.T @ f.left - np.eye(k))) <= 1e-10
            assert np.max(np.abs(f.right.T @ f.right - np.eye(k))) <= 1e-10
            assert np.all(np.diff(f.singular_values) <= 0)
            assert np.all(f.singular_values > f.tolerance_used)

    def test_sign_convention_deterministic(self, rng):
        a = rank_k(10, 7, 3, rng)
        f1 = compact_svd(a)
        f2 = compact_svd(a.copy())
        np.testing.assert_array_equal(f1.left, f2.left)
        np.testing.assert_array_equal(f1.right, f2.right)
        # largest-magnitude entry of each left vector is nonnegative
        for j in range(f1.left.shape[1]):
            i = int(np.argmax(np.abs(f1.left[:, j])))
            assert f1.left[i, j] >= 0.0

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrixError):
            compact_svd(np.zeros((3, 3)))
        assert rank_of(np.zeros((3, 3))) == 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])
        with pytest.raises(ValueError):
            as_matrix([[np.inf], [0.0]])

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_rejects_an_empty_side(self, shape):
        with pytest.raises(ValueError, match="at least 1x1"):
            compact_svd(np.zeros(shape))


def _factored(p, q):
    """:func:`factored_svd` of the one product ``p @ q.T``, through a stack of one."""
    return factored_svd(p[None], q[None])[0]


class TestFactoredSvd:
    def test_matches_compact_svd_of_the_product(self, rng):
        p, q = rng.standard_normal((40, 5)), rng.standard_normal((30, 5))
        f, dense = _factored(p, q), compact_svd(p @ q.T)
        assert f.numerical_rank == dense.numerical_rank == 5
        assert f.all_singular_values.shape == (30,) and not np.any(f.all_singular_values[5:])
        np.testing.assert_allclose(f.singular_values, dense.singular_values, rtol=1e-13)
        assert f.tolerance_used == pytest.approx(dense.tolerance_used, rel=1e-13)
        # same sign convention, so the singular vectors themselves agree
        np.testing.assert_allclose(f.left, dense.left, atol=1e-12)
        np.testing.assert_allclose(f.right, dense.right, atol=1e-12)
        norm_f = f.singular_values[0] * math.sqrt(stable_rank_of(f.all_singular_values))
        assert norm_f == pytest.approx(np.linalg.norm(p @ q.T), rel=1e-13)

    def test_rank_deficient_factors(self, rng):
        p, q = rng.standard_normal((12, 3)), rng.standard_normal((9, 3))
        p[:, 2] = p[:, 0] + p[:, 1]
        assert _factored(p, q).numerical_rank == 2

    def test_wide_factors_give_the_product_rank(self, rng):
        p, q = rng.standard_normal((4, 6)), rng.standard_normal((3, 6))
        f = _factored(p, q)
        assert f.numerical_rank == 3 and f.all_singular_values.shape == (3,)

    def test_zero_product_rejected(self, rng):
        with pytest.raises(ZeroMatrixError):
            _factored(np.zeros((5, 2)), rng.standard_normal((4, 2)))
        assert factored_norms(np.zeros((1, 5, 2)), rng.standard_normal((1, 4, 2))) == [(0.0, 0.0)]

    def test_column_counts_must_agree(self, rng):
        with pytest.raises(ValueError):
            _factored(rng.standard_normal((5, 2)), rng.standard_normal((4, 3)))

    def test_takes_only_stacks(self, rng):
        with pytest.raises(ValueError, match="stack"):
            factored_svd(rng.standard_normal((5, 2)), rng.standard_normal((4, 2)))

    def test_zero_rows_of_a_factor_give_exactly_zero_singular_vector_rows(self, rng):
        # so a CUR measured in the core sees the exact zeros that the submatrices hold
        p, q = rng.standard_normal((3, 12, 3)), rng.standard_normal((3, 9, 3))
        p[0, [1, 5]] = 0.0
        q[:, [0, 4, 8]] = 0.0
        for t, f in enumerate(factored_svd(p, q)):
            assert not f.left[~p[t].any(axis=1)].any() and not f.right[[0, 4, 8]].any()
            assert np.all(np.abs(f.left[p[t].any(axis=1)]).sum(axis=1) > 0.0)
            assert np.all(np.abs(f.right[q[t].any(axis=1)]).sum(axis=1) > 0.0)

    def test_norms_match_the_dense_ones(self, rng):
        # each product of a stack has the norms it has alone, near the dense ones
        p, q = rng.standard_normal((3, 25, 6)), rng.standard_normal((3, 18, 6))
        norms = factored_norms(p, q)
        for x, y, got in zip(p, q, norms):
            assert factored_norms(x[None], y[None]) == [got]
            np.testing.assert_allclose(got, (np.linalg.norm(x @ y.T, 2), np.linalg.norm(x @ y.T)),
                                       rtol=1e-13)

    @pytest.mark.parametrize("j", [-900, 900])
    def test_factors_at_opposite_extreme_scales(self, rng, j):
        # each factor lies near an end of the range; their product does not
        p, q = rng.standard_normal((10, 3)), rng.standard_normal((8, 3))
        f = _factored(np.ldexp(p, j), np.ldexp(q, -j))
        np.testing.assert_allclose(f.singular_values, compact_svd(p @ q.T).singular_values,
                                   rtol=1e-13)


def _leverage(basis):
    return np.sum(basis * basis, axis=1)


class TestLeadingSvd:
    def test_matches_the_dense_svd_on_low_rank_plus_noise(self, rng):
        a, k = noisy_rank_k(200, 150, 5, 1e-3, rng), 5
        left, s, right = _leading_svd(a, k)
        dense = compact_svd(a)
        assert left.shape == (200, k) and right.shape == (150, k)
        np.testing.assert_allclose(s, dense.singular_values[:k], rtol=1e-13)
        # the same sign convention, so the vectors themselves agree
        np.testing.assert_allclose(left, dense.left[:, :k], atol=1e-12)
        np.testing.assert_allclose(right, dense.right[:, :k], atol=1e-12)
        for basis, ref in ((left, dense.left[:, :k]), (right, dense.right[:, :k])):
            assert np.max(np.abs(_leverage(basis) - _leverage(ref))) <= 1e-10 * _leverage(ref).max()

    def test_flat_spectrum_fails_the_gap_check(self, rng):
        assert _leading_svd(rng.standard_normal((200, 150)), 5) is None

    def test_rank_below_k_is_declined(self, rng):
        assert _leading_svd(rank_k(200, 150, 3, rng), 5) is None
        assert _leading_svd(rank_k(200, 150, 3, rng), 3) is not None

    def test_size_rule(self, rng):
        k = 4
        width = k + SKETCH_OVERSAMPLE
        assert _leading_svd(rank_k(3 * width, 2 * width - 1, k, rng), k) is None
        assert _leading_svd(rank_k(2 * width, 3 * width, k, rng), k) is not None

    def test_same_bits_whatever_the_rng_states(self, rng):
        a = noisy_rank_k(80, 60, 4, 1e-3, rng)
        first = [x.tobytes() for x in _leading_svd(a, 4)]
        np.random.seed(12345)
        np.random.standard_normal(100)
        rng.standard_normal(100)
        assert [x.tobytes() for x in _leading_svd(a, 4)] == first

    @pytest.mark.parametrize("j", [-900, 900])
    def test_power_of_two_scaling_keeps_the_bases_bits(self, rng, j):
        a = noisy_rank_k(80, 60, 4, 1e-3, rng)
        left, s, right = _leading_svd(a, 4)
        left_j, s_j, right_j = _leading_svd(np.ldexp(a, j), 4)
        assert left_j.tobytes() == left.tobytes() and right_j.tobytes() == right.tobytes()
        assert np.ldexp(s_j, -j).tobytes() == s.tobytes()

    def test_rank_must_be_positive(self, rng):
        with pytest.raises(DomainError, match="got k=0"):
            _leading_bases(rank_k(60, 60, 3, rng), 0)


class TestPseudoinverse:
    def test_diagonal(self):
        np.testing.assert_allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_least_squares_row(self):
        np.testing.assert_allclose(pinv(np.array([[1.0], [1.0]])), [[0.5, 0.5]])

    def test_reproduces_matrix(self, rng):
        a = rank_k(5, 4, 2, rng)
        a_pinv = pinv(a)
        rel = np.linalg.norm(a @ a_pinv @ a - a) / np.linalg.norm(a)
        assert rel <= 1e-8

    def test_penrose_identities(self, rng):
        # all four identities, random shapes up to 50x50
        for m, n, k in [(50, 50, 7), (37, 50, 5), (50, 23, 23), (6, 6, 6)]:
            a = rank_k(m, n, k, rng)
            p = pinv(a)
            scale_a = np.linalg.norm(a)
            scale_p = np.linalg.norm(p)
            assert np.linalg.norm(a @ p @ a - a) <= 1e-8 * scale_a
            assert np.linalg.norm(p @ a @ p - p) <= 1e-8 * scale_p
            assert np.linalg.norm((a @ p).T - a @ p) <= 1e-8 * np.linalg.norm(a @ p)
            assert np.linalg.norm((p @ a).T - p @ a) <= 1e-8 * np.linalg.norm(p @ a)

    def test_zero_matrix_transposed_shape(self):
        p = pinv(np.zeros((3, 5)))
        assert p.shape == (5, 3)
        assert np.all(p == 0.0)

    def test_a_kept_subnormal_singular_value_is_a_matrix_input_error(self):
        # 1 / 5e-324 overflows; where the cutoff drops that value, the pinv is finite
        with pytest.raises(MatrixInputError, match="subnormal"):
            pinv(np.diag([1e-310, 5e-324]))
        rank, p = _rank_pinv_cutoff(np.diag([1.0, 5e-324]))
        assert rank == 1 and p.tolist() == [[1.0, 0.0], [0.0, 0.0]]


class TestStableRank:
    def test_identity(self):
        assert stable_rank(np.eye(5)) == pytest.approx(5.0)

    def test_rank_one(self, rng):
        a = np.outer(rng.standard_normal(6), rng.standard_normal(4))
        assert stable_rank(a) == pytest.approx(1.0)

    def test_diag_2_1(self):
        assert stable_rank(np.diag([2.0, 1.0])) == pytest.approx(1.25)

    def test_zero_rejected(self):
        with pytest.raises(ZeroMatrixError):
            stable_rank(np.zeros((2, 2)))

    def test_scale_invariant(self, rng):
        # squared entries would underflow or overflow at these scales
        a = rank_k(30, 20, 3, rng)
        for scale in (1e-170, 1e170):
            assert stable_rank(scale * a) == pytest.approx(stable_rank(a), rel=1e-12)

    def test_at_most_rank(self, rng):
        for _ in range(25):
            a = rank_k(9, 7, int(rng.integers(1, 6)), rng)
            assert stable_rank(a) <= rank_of(a) + 1e-9

    def test_perturbation_sandwich(self, rng):
        # both inequalities, as stated, on random pairs with ||E||_F < ||A||_F
        for _ in range(50):
            a = rng.standard_normal((8, 6))
            e = rng.standard_normal((8, 6))
            e *= 0.8 * rng.random() * np.linalg.norm(a) / np.linalg.norm(e)
            ratio_f = np.linalg.norm(e) / np.linalg.norm(a)
            sr, sr_tilde = stable_rank(a), stable_rank(a + e)
            lower = sr * ((1 - ratio_f) / (1 + np.linalg.norm(e, 2) / np.linalg.norm(a))) ** 2
            upper = sr * ((1 + ratio_f) / (1 - np.linalg.norm(e, 2) / np.linalg.norm(a, 2))) ** 2
            assert lower - 1e-12 <= sr_tilde <= upper + 1e-12


class TestConditionNumber:
    def test_orthogonal(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        assert condition_number(q) == pytest.approx(1.0, abs=1e-12)

    def test_diag(self):
        assert condition_number(np.diag([4.0, 1.0])) == pytest.approx(4.0)

    def test_minimal_nonzero_sigma(self):
        # the zero singular value is excluded from the ratio
        assert condition_number(np.diag([5.0, 2.0, 0.0])) == pytest.approx(2.5)

    def test_equals_norm_product(self, rng):
        for _ in range(10):
            a = rank_k(12, 10, 4, rng)
            prod = np.linalg.norm(a, 2) * np.linalg.norm(pinv(a), 2)
            assert condition_number(a) == pytest.approx(prod, rel=1e-8)

    def test_zero_rejected(self):
        with pytest.raises(ZeroMatrixError):
            condition_number(np.zeros((4, 2)))

    def test_rank_zero_at_tol_rejected(self):
        with pytest.raises(ZeroMatrixError):
            condition_number(np.diag([4.0, 1.0]), tol=4.0)


class TestSubmatrix:
    def test_row_pick(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(_take(a, IndexSet([1], ROWS)), [[3.0, 4.0]])

    def test_duplicate_rows(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(_take(a, IndexSet([0, 0], ROWS)), [[1.0, 2.0], [1.0, 2.0]])

    def test_column_order_preserved(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(_take(a, IndexSet([1, 0], COLS)), [[2.0, 1.0], [4.0, 3.0]])

    def test_negative_index_rejected(self):
        with pytest.raises(IndexOutOfRangeError):
            IndexSet([-1], ROWS)

    def test_unknown_axis_rejected(self):
        with pytest.raises(IndexSetError, match="axis must be 'rows' or 'cols', got 'diag'"):
            IndexSet([0], "diag")

    def test_extractions_are_new_c_ordered_arrays(self, rng):
        a = rng.standard_normal((5, 4))
        for index_set in (IndexSet([3, 1, 3], ROWS), IndexSet([2, 0, 2], COLS)):
            got = _take(a, index_set)
            assert got.flags.c_contiguous and got.flags.owndata

    def test_composition(self, rng):
        a = rng.standard_normal((7, 9))
        rows = IndexSet([2, 2, 5, 0], ROWS)
        cols = IndexSet([8, 1, 1], COLS)
        via_rows = _take(_take(a, rows), cols)
        via_cols = _take(_take(a, cols), rows)
        np.testing.assert_array_equal(via_rows, via_cols)


class TestFrobeniusNorm:
    def test_in_range_bits_equal_numpy(self, rng):
        for m, n in ((1, 1), (3, 7), (40, 30), (200, 5)):
            for scale in (1.0, 1e-100, 1e100):
                x = scale * rng.standard_normal((m, n))
                assert frobenius_norm(x) == np.linalg.norm(x)

    @pytest.mark.parametrize("scale", [1e170, 1e-170, 1e300, 1e-300])
    def test_extreme_scale(self, rng, scale):
        x = rng.standard_normal((30, 20))
        assert frobenius_norm(scale * x) == pytest.approx(scale * np.linalg.norm(x), rel=1e-14)

    def test_zero_matrix(self):
        assert frobenius_norm(np.zeros((3, 2))) == 0.0


class TestSpectralNorm:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (40, 30), (200, 5)])
    def test_matches_the_svd_norm(self, rng, shape):
        x = rng.standard_normal(shape)
        assert spectral_norm(x) == pytest.approx(np.linalg.norm(x, 2), rel=1e-12, abs=0.0)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -5.0, 1.0])) == 5.0

    @pytest.mark.parametrize("scale", [1e170, 1e-170, 1e300, 1e-300])
    def test_extreme_scale(self, rng, scale):
        x = rng.standard_normal((30, 20))
        assert spectral_norm(scale * x) == pytest.approx(scale * spectral_norm(x), rel=1e-14)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    @pytest.mark.parametrize("shape", [(40, 30), (30, 40), (7, 7)])
    def test_the_gram_rule_on_a_unit_scale_matrix_keeps_the_bits_of_its_scaled_copy(self, rng, shape):
        # spectral_noise takes _gram_norm of E as it is, spectral_norm of a scaled copy
        for scale in (1.0, 2.0, 3.0, 0.3):
            x = scale * rng.standard_normal(shape)
            assert _gram_norm(x) == spectral_norm(x)


class TestRankCutoffTol:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_bad_tol_is_a_domain_error(self, tol):
        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            rank_cutoff(np.array([2.0, 1.0]), (2, 2), tol)

    def test_zero_tol_counts_the_positive_values(self):
        assert rank_cutoff(np.array([2.0, 1e-300, 0.0]), (3, 3), 0.0) == (2, 0.0)


class TestLeadingBases:
    def test_sketch_where_it_certifies(self, rng):
        a = rank_k(80, 60, 4, rng)
        left, _, right = _leading_svd(a, 4)
        got = _leading_bases(a, 4)
        np.testing.assert_array_equal(got[0], left)
        np.testing.assert_array_equal(got[1], right)

    @pytest.mark.parametrize("shape, tol", [((12, 10), None), ((80, 60), 1e-9)],
                             ids=["too-small-for-the-sketch", "tol-given"])
    def test_dense_svd_otherwise(self, rng, shape, tol):
        a = rank_k(*shape, 3, rng)
        f = compact_svd(a, tol)
        got = _leading_bases(a, 3, tol)
        np.testing.assert_array_equal(got[0], f.left[:, :3])
        np.testing.assert_array_equal(got[1], f.right[:, :3])

    def test_rank_deficient(self, rng):
        with pytest.raises(RankDeficientError, match="k=4 exceeds numerical rank 3"):
            _leading_bases(rank_k(12, 10, 3, rng), 4)

    def test_bases_of_a_stacked_svd_below_k_are_rank_deficient(self, rng):
        # the trials take their bases from factored_svd of a stack, at rank k of the config
        p, q = rng.standard_normal((2, 30, 4)), rng.standard_normal((2, 20, 4))
        p[1, :, 3] = 0.0
        full, short = factored_svd(p, q)
        assert (full.numerical_rank, short.numerical_rank) == (4, 3)
        with pytest.raises(RankDeficientError, match="k=4 exceeds numerical rank 3"):
            _bases([full, short], 4)

    def test_rank_above_the_smaller_size_is_a_domain_error(self, rng):
        with pytest.raises(DomainError, match="need 1 <= k <= 3, got k=4"):
            _leading_bases(rank_k(4, 3, 2, rng), 4)


def _fix_signs_loop(w, vt):
    """The per-column sign rule, kept as the reference for the vectorized one."""
    w, vt = w.copy(), vt.copy()
    for j in range(w.shape[1]):
        i = int(np.argmax(np.abs(w[:, j])))
        if w[i, j] < 0.0:
            w[:, j] = -w[:, j]
            vt[j, :] = -vt[j, :]
    return w, vt


def test_fix_signs_matches_per_column_loop(rng):
    # ties in magnitude (first one wins), signed zeros and exact duplicates included
    w = np.round(rng.standard_normal((9, 6)), 1)
    w[:, 0] = [0.5, -0.5, 0.5, -0.5, 0.0, -0.0, 0.1, 0.2, 0.3]
    w[:, 1] = -w[:, 0]
    w[:, 2] = [-0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0]
    vt = rng.standard_normal((6, 4))
    got, want = _fix_signs(w[None], vt[None]), _fix_signs_loop(w, vt)
    for g, r in zip((x[0] for x in got), want):
        np.testing.assert_array_equal(g, r)
        assert np.array_equal(np.signbit(g), np.signbit(r))


class TestStackEqualsAlone:
    """Each record of a stacked call has the bits of the same call on a one-matrix stack, and
    of the per-matrix formula that the stacked one replaced."""

    def test_factored_svd_of_products_of_different_ranks(self, rng):
        # a zero column of q drops a term of p @ q.T, so the records are views sliced at
        # ranks 4, 3, 4 and 1 of stacks as wide as the largest
        p, q = rng.standard_normal((4, 20, 4)), rng.standard_normal((4, 15, 4))
        q[1, :, 2] = 0.0
        q[3, :, 1:] = 0.0
        stacked = factored_svd(p, q)
        assert [f.numerical_rank for f in stacked] == [4, 3, 4, 1]
        for x, y, f in zip(p, q, stacked):
            [alone] = factored_svd(x[None], y[None])
            assert (f.numerical_rank, f.tolerance_used) == (alone.numerical_rank,
                                                           alone.tolerance_used)
            for name in ("left", "singular_values", "right", "all_singular_values"):
                got, want = getattr(f, name), getattr(alone, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tols", [None, [0.0, 1e-3, 0.5, 1e-3]], ids=["default", "given"])
    def test_pinvs_of_full_rank_rank_deficient_and_zero_matrices(self, rng, tols):
        a = rng.standard_normal((4, 6, 5))
        a[1] = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
        a[2] = 0.0
        a[3, :, 0] = 0.0
        stacked = _pinvs(a, tols)
        if tols is None:
            assert [rank for rank, _ in stacked] == [5, 2, 0, 4]
        w, s, vt = np.linalg.svd(a, full_matrices=False)
        for i, (rank, pinv) in enumerate(stacked):
            [(rank_alone, alone)] = _pinvs(a[i:i + 1], None if tols is None else tols[i:i + 1])
            assert rank == rank_alone and pinv.tobytes() == alone.tobytes()
            sliced = (vt[i, :rank].T / s[i, :rank]) @ w[i, :, :rank].T
            assert pinv.tobytes() == sliced.tobytes()
        assert not stacked[2][1].any() and not np.signbit(stacked[2][1]).any()

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_pinvs_reject_a_bad_tol(self, rng, tol):
        with pytest.raises(DomainError, match=f"tol must be finite and >= 0, got {tol}"):
            _pinvs(rng.standard_normal((2, 3, 3)), [0.0, tol])

    def test_norms_match_norm_of_each_spectrum(self, rng):
        # cores of a spread of scales and a zero core, with shifts of their own
        core = rng.standard_normal((6, 12, 12)) * np.logspace(-150, 150, 6)[:, None, None]
        core[3] = 0.0
        shift = rng.integers(-40, 40, 6)
        scales = _unit_shift(core)
        s = np.linalg.svd(np.ldexp(core, scales[:, None, None]), compute_uv=False)
        stacked = _norms(core, shift)
        for i, (got, s_i, j) in enumerate(zip(stacked, s, (scales + shift).tolist())):
            assert _norms(core[i:i + 1], shift[i:i + 1]) == [got]
            want = (math.ldexp(float(s_i[0]), -j), math.ldexp(float(np.linalg.norm(s_i)), -j))
            assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("length", [1, 7, 8, 33, 500])
    def test_row_norms_have_the_bits_of_norm(self, rng, length):
        x = rng.standard_normal((40, length)) * 10.0 ** rng.integers(-100, 100, (40, 1))
        want = np.array([np.linalg.norm(row) for row in x])
        assert _row_norms(x).tobytes() == want.tobytes()
