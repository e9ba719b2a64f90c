import hashlib
import math
import re

import numpy as np
import pytest

from curlowrank.errors import (
    DistributionError,
    DomainError,
    IndexSetError,
    RankDeficientError,
    ZeroMatrixError,
    ZeroProbabilityDrawError,
)
from curlowrank import harness, sampling
from curlowrank.harness import ExperimentConfig, trial_generator
from curlowrank.linalg import (
    COLS,
    ROWS,
    IndexSet,
    _leading_bases,
    _leading_svd,
    compact_svd,
    factored_svd,
)
from curlowrank.sampling import (
    SCHEMES,
    ProbDist,
    axis_dists,
    draw_indices,
    draw_with_replacement,
    min_sample_size_rv,
    rescaled_submatrix,
    sample_size_length_via_lev,
    sample_size_leverage,
)

from conftest import factored_weights, noisy_rank_k, rank_k, uniform


class TestDistributions:
    def test_uniform(self):
        rows, cols = axis_dists(np.ones((1, 4)), "uniform")
        np.testing.assert_allclose(cols.weights, [0.25] * 4)
        np.testing.assert_allclose(rows.weights, [1.0])
        cols = axis_dists(np.ones((2, 3)), "uniform")[1]
        assert cols.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_length_simple(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(axis_dists(a, "length")[1].weights, [0.2, 0.8])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_scheme_validates_the_matrix(self, scheme):
        # a nested list is taken as its array; NaN and a 1-D input are rejected alike
        k = 1 if scheme == "leverage" else None
        a = [[3.0, 0.0], [4.0, 1.0]]
        assert _bits(axis_dists(a, scheme, k)) == _bits(axis_dists(np.array(a), scheme, k))
        for bad in ([[np.nan, 1.0]], [1.0, 2.0]):
            with pytest.raises(ValueError, match="finite|2-D"):
                axis_dists(bad, scheme, k)

    def test_length_zero_column_gets_exact_zero(self):
        a = np.array([[3.0, 0.0], [4.0, 0.0]])
        w = axis_dists(a, "length")[1].weights
        assert w[0] == 1.0 and w[1] == 0.0

    def test_length_matches_bruteforce(self, rng):
        a = rng.standard_normal((6, 4))
        rows, cols = axis_dists(a, "length")
        w = cols.weights
        # independent oracle: explicit per-column sums
        brute = np.array([sum(a[i, j] ** 2 for i in range(6)) for j in range(4)])
        brute /= brute.sum()
        np.testing.assert_allclose(w, brute, atol=1e-12)
        w_rows = rows.weights
        brute_r = np.array([sum(a[i, j] ** 2 for j in range(4)) for i in range(6)])
        np.testing.assert_allclose(w_rows, brute_r / brute_r.sum(), atol=1e-12)

    def test_length_rejects_zero_matrix(self):
        with pytest.raises(ZeroMatrixError):
            axis_dists(np.zeros((2, 3)), "length")

    def test_leverage_diag(self):
        cols = axis_dists(np.diag([3.0, 4.0]), "leverage", 2)[1]
        np.testing.assert_allclose(cols.weights, [0.5, 0.5])

    def test_leverage_rank_one(self):
        a = np.outer([1.0, 1.0], [1.0, 1.0])
        np.testing.assert_allclose(axis_dists(a, "leverage", 1)[1].weights, [0.5, 0.5])

    def test_leverage_matches_svd(self, rng):
        a = rank_k(10, 8, 3, rng)
        rows, cols = axis_dists(a, "leverage", 3)
        w = cols.weights
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        u, _, vt = np.linalg.svd(a, full_matrices=False)
        np.testing.assert_allclose(w, np.sum(vt[:3, :] ** 2, axis=0) / 3.0, atol=1e-12)
        np.testing.assert_allclose(rows.weights, np.sum(u[:, :3] ** 2, axis=1) / 3.0, atol=1e-12)

    def test_leverage_rank_deficient(self, rng):
        with pytest.raises(RankDeficientError):
            axis_dists(rank_k(6, 5, 2, rng), "leverage", 3)

    def test_axis_dists_leverage_needs_k(self, rng):
        with pytest.raises(DomainError):
            axis_dists(rank_k(6, 5, 2, rng), "leverage")
        with pytest.raises(DomainError):
            axis_dists(rank_k(6, 5, 2, rng), "bogus", 2)

    def test_probdist_validation(self):
        with pytest.raises(DistributionError, match="must sum to 1"):
            ProbDist(np.array([0.5, 0.4]), COLS, "uniform")
        with pytest.raises(DistributionError, match="finite and nonnegative"):
            ProbDist(np.array([1.1, -0.1]), COLS, "uniform")

    @pytest.mark.parametrize("weights, axis, error, match", [
        ([[0.5, 0.5]], COLS, DistributionError, "1-D vector"),
        ([], ROWS, DistributionError, "1-D vector"),
        ([0.5, 0.5], "diag", IndexSetError, "axis must be"),
    ])
    def test_probdist_rejects_a_bad_shape_or_axis(self, weights, axis, error, match):
        with pytest.raises(error, match=match):
            ProbDist(np.array(weights), axis, "uniform")


def _bits(dists):
    return [d.weights.tobytes() for d in dists]


class TestFactoredLength:
    @pytest.mark.parametrize("kappa", [None, 100.0, 1e6])
    def test_match_the_dense_weights_and_skip_the_zeroed_columns(self, kappa):
        # the weights of the table kinds' test matrices from their factors and SVD, and
        # from the factors alone with A scaled by 2^-500 or 2^500
        cfg = ExperimentConfig(kind="success_prob", m=30, n=40, k=4, kappa=kappa, sparsity=0.5,
                               d_grid=(8,), trials=60)
        trials = [harness._Trial(i, trial_generator(5, i)) for i in range(cfg.trials)]
        for i, t in enumerate(harness._test_matrices(cfg, 8, trials)):
            p, q, f = t.p, t.q, t.svd
            zeroed = ~q.any(axis=1)
            assert zeroed.sum() == 20
            dense = axis_dists(p @ q.T, "length")
            j = (-500, 500)[i % 2]
            for x, y, svd in ((p, q, f), (np.ldexp(p, j), q, None), (p, np.ldexp(q, -j), None)):
                svd = factored_svd(x[None], y[None])[0] if svd is None else svd
                weights = factored_weights(x, y, svd, "length")
                assert np.all(weights[1][zeroed] == 0.0)
                for got, ref in zip(weights, dense):
                    assert np.max(np.abs(got - ref.weights)) <= 1e-14 * ref.weights.max()
            cols = ProbDist(weights[1], COLS, "length")
            drawn = draw_with_replacement(cols, 2000, trial_generator(6, i))
            assert not zeroed[list(drawn)].any()


    def test_uniform_and_leverage_of_the_factors_are_those_of_the_product(self, rng):
        p, q = rng.standard_normal((12, 3)), rng.standard_normal((9, 3))
        [f] = factored_svd(p[None], q[None])
        uniform = factored_weights(p, q, f, "uniform")
        assert _bits(axis_dists(p @ q.T, "uniform")) == [w.tobytes() for w in uniform]
        leverage = factored_weights(p, q, f, "leverage", 3)
        for got, ref in zip(leverage, axis_dists(p @ q.T, "leverage", 3)):
            assert np.max(np.abs(got - ref.weights)) <= 1e-14 * ref.weights.max()
        with pytest.raises(ZeroMatrixError):
            factored_weights(np.zeros((12, 3)), q, f, "length")


def dense_leverage(a, k):
    """The rank-k leverage weights of ``a`` from ``compact_svd`` at the default cutoff: given
    that cutoff, ``_leading_bases`` takes no sketch."""
    tol = compact_svd(a).tolerance_used
    return [np.sum(b * b, axis=1) / float(k) for b in _leading_bases(a, k, tol)]


class TestCertifiedLeverage:
    """The leverage path, sketched where it certifies, against ``compact_svd``'s scores."""

    def test_sketch_matches_the_dense_reference(self, rng):
        a = noisy_rank_k(200, 150, 5, 1e-3, rng)
        for got, ref in zip(axis_dists(a, "leverage", 5), dense_leverage(a, 5)):
            assert got.scheme == "leverage(5)"
            assert np.max(np.abs(got.weights - ref)) <= 1e-10 * ref.max()

    def test_flat_spectrum_falls_back_to_the_dense_bits(self, rng):
        a = rng.standard_normal((200, 150))
        assert _bits(axis_dists(a, "leverage", 5)) == [w.tobytes() for w in dense_leverage(a, 5)]

    def test_rank_deficient_at_sketch_size(self, rng):
        with pytest.raises(RankDeficientError):
            axis_dists(rank_k(200, 150, 3, rng), "leverage", 5)

    def test_matrices_below_the_size_rule_keep_their_bits(self, rng):
        a = noisy_rank_k(40, 29, 5, 1e-3, rng)
        assert _bits(axis_dists(a, "leverage", 5)) == [w.tobytes() for w in dense_leverage(a, 5)]

    def test_same_bits_whatever_the_global_rng_state(self, rng):
        a = noisy_rank_k(80, 60, 4, 1e-3, rng)
        first = _bits(axis_dists(a, "leverage", 4))
        np.random.seed(2024)
        np.random.random(10)
        assert _bits(axis_dists(a, "leverage", 4)) == first
        assert _bits(axis_dists(a.copy(), "leverage", 4)) == first


def _pin_cases():
    """``(a, e, k)``: seeded rank-k matrices, clean and noisy, at 1 and 1e+-150.

    The larger shapes have a zero row and a zero column.  Each matrix comes
    with small noise, unit noise and a spike that dominates one column; no
    digest reads the noise, but its draws fix the matrices that follow.
    """
    rng = np.random.default_rng(2001027740)
    for m, n, k in ((7, 5, 2), (20, 15, 3), (61, 44, 4), (90, 90, 5)):
        for scale in (1.0, 1e150, 1e-150):
            for noisy in (False, True):
                a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
                if noisy:
                    a += 1e-3 * rng.standard_normal((m, n))
                if m > 10:
                    a[rng.integers(m)] = 0.0
                    a[:, rng.integers(n)] = 0.0
                spike = np.zeros((m, n))
                j = int(np.argmax(np.abs(a).sum(axis=0)))
                spike[:, j] = -2.0 * a[:, j]
                for e in (1e-3 * rng.standard_normal((m, n)), rng.standard_normal((m, n)), spike):
                    yield scale * a, scale * e, k


class TestBitPin:
    """Digests of the length and leverage weights (all three leverage paths).

    The digests were taken before the builders were merged into one per
    quantity, so they pin that the merge moved no bit.
    """

    DIGESTS = {
        "length": "4663b7628abf80a3f76f9eb669d7fb4ee6fb601fc822a5c2cfed5d72c6a46248",
        "lev_svd": "58f208bca870b3d5f3da30d70d3f9127d393470c2a61246a379d88927aee7b4e",
        "lev_sketch": "4a20293d0573eca717f249942cf541951a8a1009420dc77e504cf253ee26a594",
        "lev_dense": "97ff956edd430dd5f9c0c848f21168def93e1ecb731deecf72ed21e29d11ed5a",
    }

    def test_digests(self):
        h = {name: hashlib.sha256() for name in self.DIGESTS}
        paths = set()
        for a, _, k in _pin_cases():
            dists = [*axis_dists(a, "length"), *axis_dists(a, "length")]
            h["length"].update(b"".join(_bits(dists)))
            h["lev_svd"].update(b"".join(w.tobytes() for w in dense_leverage(a, k)))
            path = "lev_dense" if _leading_svd(a, k) is None else "lev_sketch"
            h[path].update(b"".join(_bits(axis_dists(a, "leverage", k))))
            paths.add(path)
        assert paths == {"lev_dense", "lev_sketch"}
        assert {name: d.hexdigest() for name, d in h.items()} == self.DIGESTS


class TestDraws:
    def test_degenerate(self):
        dist = ProbDist(np.array([1.0, 0.0]), COLS, "length")
        idx = draw_with_replacement(dist, 5, trial_generator(0, 0))
        assert tuple(idx) == (0, 0, 0, 0, 0)

    def test_uniform_frequencies(self):
        dist = uniform(2, ROWS)
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
            draw_with_replacement(uniform(3, ROWS), 0, trial_generator(0, 0))

    def test_pair_must_be_rows_then_columns(self):
        rows, cols = uniform(3, ROWS), uniform(2, COLS)
        with pytest.raises(IndexSetError, match="a row and a column distribution"):
            draw_indices(cols, rows, 1, 1, trial_generator(0, 0))

    def test_full_cumulative_search_draws_what_the_support_search_draws(self):
        # leading, interior and trailing zeros, and a weight of 1e-20 that leaves the
        # running sum where it was: the search over the full running sum gives the
        # indices of a search over the positive weights alone
        weights = np.array([0.0, 0.0, 0.2, 0.0, 0.3, 1e-20, 0.0, 0.0, 0.5, 0.0, 0.0])
        dist = ProbDist(weights, ROWS, "length")
        support = np.flatnonzero(weights > 0.0)
        cum = np.cumsum(weights[support])
        for seed in range(1000):
            u = np.random.default_rng(seed).random(24) * cum[-1]
            want = support[np.searchsorted(cum, u, side="right")]
            got = draw_with_replacement(dist, 24, np.random.default_rng(seed))
            assert got.indices == tuple(want.tolist())

        class OnTheBoundaries:  # uniforms equal to 0 and to running sums (cum[-1] is 1.0)
            def random(self, d):
                return np.array([0.0, 0.2, 0.5])

        got = draw_with_replacement(dist, 3, OnTheBoundaries())
        assert got.indices == tuple(support[np.searchsorted(cum, [0.0, 0.2, 0.5], "right")])
        assert got.indices == (2, 4, 8)


class TestWeightChecks:
    @pytest.mark.parametrize("bad", [[0.5, 0.6, -0.1], [0.5, np.inf, 0.0], [0.5, np.nan, 0.5],
                                     [0.5, 0.4, 0.1 + 1e-9]])
    def test_a_stack_fails_as_its_bad_vector_fails(self, bad):
        stack = np.array([[0.25, 0.25, 0.5], bad, [1.0, 0.0, 0.0]])
        with pytest.raises(DistributionError, match="finite and nonnegative|sum to 1") as alone:
            ProbDist(np.array(bad), ROWS, "length")
        with pytest.raises(DistributionError) as stacked:
            sampling._check_weights(stack)
        assert str(stacked.value) == str(alone.value)
        sampling._check_weights(stack[[0, 2]])


class TestDedup:
    def test_draws_keep_first_occurrences_in_order(self):
        dists = uniform(6, ROWS), uniform(5, COLS)
        for seed in range(20):
            drawn = draw_indices(*dists, 30, 3, trial_generator(seed, 0))
            kept = draw_indices(*dists, 30, 3, trial_generator(seed, 0), dedup=True)
            for x, y in zip(drawn, kept):
                first = [i for n, i in enumerate(x.indices) if i not in x.indices[:n]]
                assert y.indices == tuple(first) and y.axis == x.axis


class TestRescaledSubmatrix:
    def test_identity_uniform(self):
        dist = uniform(2, ROWS)
        row = rescaled_submatrix(np.eye(2), IndexSet([0], ROWS), dist, 1)
        np.testing.assert_allclose(row, [[np.sqrt(2.0), 0.0]])

    def test_length_weighted_scale(self):
        a = np.diag([1.0, 2.0])
        dist = axis_dists(a, "length")[0]  # weights [0.2, 0.8]
        row = rescaled_submatrix(a, IndexSet([1], ROWS), dist, 1)
        # scale ||A||_F / ||A(1,:)|| = sqrt(5)/2
        np.testing.assert_allclose(row, [[0.0, 2.0 * np.sqrt(5.0) / 2.0]])

    def test_zero_probability_draw_rejected(self):
        a = np.array([[3.0, 0.0], [4.0, 0.0]])
        dist = axis_dists(a, "length")[1]
        with pytest.raises(ZeroProbabilityDrawError):
            rescaled_submatrix(a, IndexSet([1], COLS), dist, 1)

    def test_d_must_be_positive(self):
        with pytest.raises(DomainError, match="d must be >= 1"):
            rescaled_submatrix(np.eye(2), IndexSet([0], ROWS), uniform(2, ROWS), 0)

    def test_index_set_and_distribution_share_an_axis(self):
        with pytest.raises(IndexSetError, match="different axes"):
            rescaled_submatrix(np.eye(2), IndexSet([0], ROWS), uniform(2, COLS), 1)

    def test_gram_concentration(self):
        rng_a = np.random.default_rng(1)
        a = rng_a.standard_normal((8, 6))
        dist = axis_dists(a, "length")[0]
        idx = draw_with_replacement(dist, 2000, trial_generator(77, 0))
        rhat = rescaled_submatrix(a, idx, dist, 2000)
        dev = np.linalg.norm(a.T @ a - rhat.T @ rhat, 2)
        assert dev <= 0.1 * np.linalg.norm(a, 2) ** 2

    def test_single_draw_unbiasedness(self):
        # mean of 1e4 independent single-row Gram estimates approximates A^T A
        rng_a = np.random.default_rng(1)
        a = rng_a.standard_normal((8, 6))
        dist = axis_dists(a, "length")[0]
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
        dist = axis_dists(a, "length")[1]
        idx = draw_with_replacement(dist, 6, trial_generator(12, 0))
        got = rescaled_submatrix(a, idx, dist, 6)
        dist_t = axis_dists(a.T, "length")[0]
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
