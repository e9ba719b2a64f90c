import math
import re

import numpy as np
import pytest

from curlowrank.errors import (
    DomainError,
    RankDeficientError,
    ZeroMatrixError,
    ZeroProbabilityDrawError,
)
from curlowrank.harness import trial_generator
from curlowrank.linalg import COLS, ROWS, IndexSet, compact_svd
from curlowrank.sampling import (
    ProbDist,
    axis_dists,
    dedup_indices,
    draw_with_replacement,
    length_dist,
    leverage_dist,
    min_sample_size_rv,
    rescaled_submatrix,
    sample_size_length_via_lev,
    sample_size_leverage,
    uniform_dist,
)

from conftest import noisy_rank_k, rank_k


class TestDistributions:
    def test_uniform(self):
        np.testing.assert_allclose(uniform_dist(4, COLS).weights, [0.25] * 4)
        np.testing.assert_allclose(uniform_dist(1, ROWS).weights, [1.0])
        assert uniform_dist(3, COLS).weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_length_simple(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(length_dist(a, COLS).weights, [0.2, 0.8])

    def test_length_zero_column_gets_exact_zero(self):
        a = np.array([[3.0, 0.0], [4.0, 0.0]])
        w = length_dist(a, COLS).weights
        assert w[0] == 1.0 and w[1] == 0.0

    def test_length_matches_bruteforce(self, rng):
        a = rng.standard_normal((6, 4))
        w = length_dist(a, COLS).weights
        # independent oracle: explicit per-column sums
        brute = np.array([sum(a[i, j] ** 2 for i in range(6)) for j in range(4)])
        brute /= brute.sum()
        np.testing.assert_allclose(w, brute, atol=1e-12)
        w_rows = length_dist(a, ROWS).weights
        brute_r = np.array([sum(a[i, j] ** 2 for j in range(4)) for i in range(6)])
        np.testing.assert_allclose(w_rows, brute_r / brute_r.sum(), atol=1e-12)

    def test_length_rejects_zero_matrix(self):
        with pytest.raises(ZeroMatrixError):
            length_dist(np.zeros((2, 3)), COLS)

    def test_leverage_diag(self):
        np.testing.assert_allclose(leverage_dist(np.diag([3.0, 4.0]), 2, COLS).weights, [0.5, 0.5])

    def test_leverage_rank_one(self):
        a = np.outer([1.0, 1.0], [1.0, 1.0])
        np.testing.assert_allclose(leverage_dist(a, 1, COLS).weights, [0.5, 0.5])

    def test_leverage_matches_svd(self, rng):
        a = rank_k(10, 8, 3, rng)
        w = leverage_dist(a, 3, COLS).weights
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        _, _, vt = np.linalg.svd(a, full_matrices=False)
        np.testing.assert_allclose(w, np.sum(vt[:3, :] ** 2, axis=0) / 3.0, atol=1e-12)

    def test_leverage_rank_deficient(self, rng):
        with pytest.raises(RankDeficientError):
            leverage_dist(rank_k(6, 5, 2, rng), 3, COLS)

    def test_axis_dists_per_scheme(self, rng):
        a = rank_k(10, 8, 3, rng)
        expected = {
            ("uniform", None): (uniform_dist(10, ROWS), uniform_dist(8, COLS)),
            ("length", None): (length_dist(a, ROWS), length_dist(a, COLS)),
            ("leverage", 3): (leverage_dist(a, 3, ROWS), leverage_dist(a, 3, COLS)),
        }
        for (scheme, k), want in expected.items():
            for got, dist in zip(axis_dists(a, scheme, k), want):
                assert got.axis == dist.axis
                np.testing.assert_array_equal(got.weights, dist.weights)

    def test_axis_dists_leverage_needs_k(self, rng):
        with pytest.raises(DomainError):
            axis_dists(rank_k(6, 5, 2, rng), "leverage")
        with pytest.raises(DomainError):
            axis_dists(rank_k(6, 5, 2, rng), "bogus", 2)

    def test_probdist_validation(self):
        with pytest.raises(ValueError):
            ProbDist(np.array([0.5, 0.4]), COLS, "uniform")
        with pytest.raises(ValueError):
            ProbDist(np.array([1.1, -0.1]), COLS, "uniform")


def _bits(dists):
    return [d.weights.tobytes() for d in dists]


class TestCertifiedLeverage:
    """The leverage path without a caller's SVD, against ``compact_svd``'s scores."""

    @staticmethod
    def reference(a, k):
        return axis_dists(a, "leverage", k, svd=compact_svd(a))

    def test_sketch_matches_the_dense_reference(self, rng):
        a = noisy_rank_k(200, 150, 5, 1e-3, rng)
        for got, ref in zip(axis_dists(a, "leverage", 5), self.reference(a, 5)):
            assert got.scheme == ref.scheme == "leverage(5)"
            assert np.max(np.abs(got.weights - ref.weights)) <= 1e-10 * ref.weights.max()

    def test_flat_spectrum_falls_back_to_the_dense_bits(self, rng):
        a = rng.standard_normal((200, 150))
        assert _bits(axis_dists(a, "leverage", 5)) == _bits(self.reference(a, 5))

    def test_rank_deficient_at_sketch_size(self, rng):
        with pytest.raises(RankDeficientError):
            leverage_dist(rank_k(200, 150, 3, rng), 5, COLS)

    def test_matrices_below_the_size_rule_keep_their_bits(self, rng):
        a = noisy_rank_k(40, 29, 5, 1e-3, rng)
        assert _bits(axis_dists(a, "leverage", 5)) == _bits(self.reference(a, 5))

    def test_same_bits_whatever_the_global_rng_state(self, rng):
        a = noisy_rank_k(80, 60, 4, 1e-3, rng)
        first = _bits(axis_dists(a, "leverage", 4))
        np.random.seed(2024)
        np.random.random(10)
        assert _bits(axis_dists(a, "leverage", 4)) == first
        assert _bits(axis_dists(a.copy(), "leverage", 4)) == first


class TestDraws:
    def test_degenerate(self):
        dist = ProbDist(np.array([1.0, 0.0]), COLS, "length")
        idx = draw_with_replacement(dist, 5, trial_generator(0, 0))
        assert tuple(idx) == (0, 0, 0, 0, 0)

    def test_uniform_frequencies(self):
        dist = uniform_dist(2, ROWS)
        idx = draw_with_replacement(dist, 10**5, trial_generator(7, 0))
        freq0 = np.mean(np.asarray(idx.indices) == 0)
        assert abs(freq0 - 0.5) <= 0.01

    def test_weighted_frequencies(self):
        dist = ProbDist(np.array([0.2, 0.8]), COLS, "length")
        idx = np.asarray(draw_with_replacement(dist, 10**5, trial_generator(8, 0)).indices)
        assert abs(np.mean(idx == 0) - 0.2) <= 0.01
        assert abs(np.mean(idx == 1) - 0.8) <= 0.01

    def test_reproducible(self):
        dist = ProbDist(np.array([0.3, 0.5, 0.2]), ROWS, "length")
        a = draw_with_replacement(dist, 64, trial_generator(123, 5))
        b = draw_with_replacement(dist, 64, trial_generator(123, 5))
        assert a == b

    def test_zero_weight_never_drawn(self):
        dist = ProbDist(np.array([0.5, 0.0, 0.5]), COLS, "length")
        idx = np.asarray(draw_with_replacement(dist, 4096, trial_generator(9, 0)).indices)
        assert not np.any(idx == 1)

    def test_d_must_be_positive(self):
        with pytest.raises(DomainError):
            draw_with_replacement(uniform_dist(3, ROWS), 0, trial_generator(0, 0))


class TestDedup:
    def test_first_occurrence_order(self):
        assert tuple(dedup_indices(IndexSet([2, 2, 0, 2, 1], ROWS))) == (2, 0, 1)

    def test_singleton(self):
        assert tuple(dedup_indices(IndexSet([3], COLS))) == (3,)

    def test_idempotent(self, rng):
        idx = IndexSet(rng.integers(0, 6, size=30).tolist(), ROWS)
        once = dedup_indices(idx)
        assert dedup_indices(once) == once


class TestRescaledSubmatrix:
    def test_identity_uniform(self):
        dist = uniform_dist(2, ROWS)
        row = rescaled_submatrix(np.eye(2), IndexSet([0], ROWS), dist, 1)
        np.testing.assert_allclose(row, [[np.sqrt(2.0), 0.0]])

    def test_length_weighted_scale(self):
        a = np.diag([1.0, 2.0])
        dist = length_dist(a, ROWS)  # weights [0.2, 0.8]
        row = rescaled_submatrix(a, IndexSet([1], ROWS), dist, 1)
        # scale ||A||_F / ||A(1,:)|| = sqrt(5)/2
        np.testing.assert_allclose(row, [[0.0, 2.0 * np.sqrt(5.0) / 2.0]])

    def test_zero_probability_draw_rejected(self):
        a = np.array([[3.0, 0.0], [4.0, 0.0]])
        dist = length_dist(a, COLS)
        with pytest.raises(ZeroProbabilityDrawError):
            rescaled_submatrix(a, IndexSet([1], COLS), dist, 1)

    def test_gram_concentration(self):
        rng_a = np.random.default_rng(1)
        a = rng_a.standard_normal((8, 6))
        dist = length_dist(a, ROWS)
        idx = draw_with_replacement(dist, 2000, trial_generator(77, 0))
        rhat = rescaled_submatrix(a, idx, dist, 2000)
        dev = np.linalg.norm(a.T @ a - rhat.T @ rhat, 2)
        assert dev <= 0.1 * np.linalg.norm(a, 2) ** 2

    def test_single_draw_unbiasedness(self):
        # mean of 1e4 independent single-row Gram estimates approximates A^T A
        rng_a = np.random.default_rng(1)
        a = rng_a.standard_normal((8, 6))
        dist = length_dist(a, ROWS)
        gen = trial_generator(42, 0)
        acc = np.zeros((6, 6))
        n = 10_000
        for _ in range(n):
            idx = draw_with_replacement(dist, 1, gen)
            rhat = rescaled_submatrix(a, idx, dist, 1)
            acc += rhat.T @ rhat
        acc /= n
        dev = np.linalg.norm(a.T @ a - acc, 2)
        assert dev <= 0.05 * np.linalg.norm(a, 2) ** 2


class TestColumnAxisRescaling:
    def test_columns_scale_like_rows_of_transpose(self, rng):
        a = rng.standard_normal((5, 7))
        dist = length_dist(a, COLS)
        idx = draw_with_replacement(dist, 6, trial_generator(12, 0))
        got = rescaled_submatrix(a, idx, dist, 6)
        dist_t = length_dist(a.T, ROWS)
        idx_t = IndexSet(idx.indices, ROWS)
        np.testing.assert_allclose(got, rescaled_submatrix(a.T, idx_t, dist_t, 6).T, atol=1e-14)


class TestMinSampleSize:
    def test_x_equals_e(self):
        # r/(eps^4 delta) = e  =>  ceil(e * ln e) = 3
        delta = 0.9
        eps = (1.0 / (math.e * delta)) ** 0.25
        assert min_sample_size_rv(1.0, eps, delta, 1.0) == 3

    def test_frozen_value(self):
        # x = 5 / (0.5^4 * 0.5) = 160
        expected = math.ceil(160.0 * math.log(160.0))
        assert min_sample_size_rv(5.0, 0.5, 0.5, 1.0) == expected == 813

    def test_monotone_in_eps(self):
        prev = None
        for eps in (0.9, 0.7, 0.5, 0.3, 0.1):
            d = min_sample_size_rv(2.0, eps, 0.5, 1.0)
            if prev is not None:
                assert d >= prev
            prev = d

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            min_sample_size_rv(2.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            min_sample_size_rv(2.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            min_sample_size_rv(0.5, 0.5, 0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("call, name", [
        (lambda v: min_sample_size_rv(v, 0.5, 0.5), "stable rank"),
        (lambda v: min_sample_size_rv(2.0, 0.5, 0.5, v), "leading constant"),
        (lambda v: sample_size_length_via_lev(v, 2.0, 2, 0.5), "stable rank"),
        (lambda v: sample_size_length_via_lev(2.0, v, 2, 0.5), "condition number"),
    ], ids=["rv-r", "rv-big_c", "lev-r", "lev-kappa"])
    def test_non_finite_inputs_are_domain_errors(self, call, name, value):
        with pytest.raises(DomainError, match=name):
            call(value)

    @pytest.mark.parametrize("call, named", [
        (lambda: min_sample_size_rv(3.0, 1e-100, 0.1), "eps=1e-100"),  # eps**4 underflows to 0
        (lambda: min_sample_size_rv(1e308, 0.5, 0.1), "r=1e+308"),
        (lambda: min_sample_size_rv(3.0, 0.5, 1e-320), "delta=1e-320"),
        (lambda: sample_size_leverage(3, 1e-320, 0.1), "beta=1e-320"),
        (lambda: sample_size_length_via_lev(3.0, 1e200, 3, 0.1), "kappa=1e+200"),
        (lambda: sample_size_leverage(10**400, 1.0, 0.1), f"k={10**400}"),
    ], ids=["rv-eps", "rv-r", "rv-delta", "leverage-beta", "lev-kappa", "leverage-k"])
    def test_counts_beyond_the_float_range_are_domain_errors(self, call, named):
        with pytest.raises(DomainError, match=re.escape(named) + ".*not a finite integer"):
            call()
