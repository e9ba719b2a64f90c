import math
import tracemalloc

import numpy as np
import pytest

from curlowrank.errors import (
    CertificateError,
    DivisionByZeroWeightError,
    DomainError,
    NoiseDominatesError,
)
from curlowrank.cur import verify_characterization
from curlowrank.linalg import COLS, ROWS, IndexSet, condition_number, stable_rank
from curlowrank.sampling import (
    ProbDist,
    StabilityParams,
    _certify,
    epsilon_ceiling,
    length_dist,
    leverage_dist,
    leverage_dominance_ratio,
    noisy_stability_floor,
    sample_size_length_via_lev,
    sample_size_leverage,
    uniform_dist,
    uniform_stability_floor,
)

from conftest import rank_k


class TestUniformFloor:
    def test_identity_all_ones(self):
        params = uniform_stability_floor(np.eye(7))
        assert params.alpha == pytest.approx(1.0)
        assert params.beta == pytest.approx(1.0)
        assert params.gamma == pytest.approx(1.0)

    def test_dominant_row(self, rng):
        # one row carries 99% of the squared mass among m=10 rows
        m, n = 10, 6
        a = np.zeros((m, n))
        a[0, 0] = np.sqrt(0.99)
        for i in range(1, m):
            v = rng.standard_normal(n)
            a[i] = v / np.linalg.norm(v) * np.sqrt(0.01 / (m - 1))
        params = uniform_stability_floor(a)
        assert params.beta == pytest.approx(np.sqrt(0.1 / 0.99), rel=1e-10)

    def test_single_nonzero_entry(self):
        m, n = 9, 5
        a = np.zeros((m, n))
        a[4, 2] = 3.5
        params = uniform_stability_floor(a)
        # the row-side floor collapses to 1/sqrt(m), column side to 1/sqrt(n)
        assert params.beta == pytest.approx(1.0 / np.sqrt(m))
        assert params.alpha == pytest.approx(1.0 / np.sqrt(n))
        # zero rows/columns carry the conventional floor 1
        assert params.beta_per_row[0] == 1.0
        assert params.alpha_per_col[0] == 1.0

    def test_certifies_uniform(self, rng):
        a = rank_k(8, 11, 3, rng)
        params = uniform_stability_floor(a)
        p_col = length_dist(a, COLS).weights
        q_row = length_dist(a, ROWS).weights
        assert np.all(1.0 / 11 >= params.alpha_per_col**2 * p_col - 1e-12)
        assert np.all(1.0 / 8 >= params.beta_per_row**2 * q_row - 1e-12)


def _noisy_floors_loop(a, e):
    """``(beta_per_row, alpha_per_col)`` by a per-index loop: the reference for the array form."""
    denom = 1.0 + float(np.linalg.norm(e)) / float(np.linalg.norm(a))
    out = []
    for axis, name in ((1, ROWS), (0, COLS)):
        floors = np.ones(a.shape[1 - axis])
        for i, (an, en) in enumerate(zip(np.linalg.norm(a, axis=axis), np.linalg.norm(e, axis=axis))):
            if an == 0.0:
                continue
            if en >= an:
                raise NoiseDominatesError(name, i)
            floors[i] = (1.0 - en / an) / denom
        out.append(floors)
    return tuple(out)


class TestNoisyFloor:
    def test_matches_loop_reference(self, rng):
        named = set()
        for trial in range(40):
            a = rank_k(9, 7, 3, rng)
            a[rng.integers(9)] = 0.0
            a[:, rng.integers(7)] = 0.0
            e = 0.05 * rng.standard_normal(a.shape)
            if trial % 2:  # one dominated index, on either axis
                i = int(rng.integers(7))
                if trial % 4 == 1:
                    e[i] += 2.0 * a[i] + 0.5
                else:
                    e[:, i] += 2.0 * a[:, i] + 0.5
            try:
                want = _noisy_floors_loop(a, e)
            except NoiseDominatesError as ref:
                with pytest.raises(NoiseDominatesError) as exc:
                    noisy_stability_floor(a, e)
                assert (exc.value.axis, exc.value.index) == (ref.axis, ref.index)
                named.add(ref.axis)
                continue
            params = noisy_stability_floor(a, e)
            np.testing.assert_array_equal(params.beta_per_row, want[0])
            np.testing.assert_array_equal(params.alpha_per_col, want[1])
            assert 0.0 < params.alpha <= 1.0 and 0.0 < params.beta <= 1.0
        assert named == {ROWS, COLS}

    def test_rows_named_before_columns(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        e = np.zeros_like(a)
        e[2, 0] = 2.0  # dominates row 2 and column 0
        with pytest.raises(NoiseDominatesError) as exc:
            noisy_stability_floor(a, e)
        assert (exc.value.axis, exc.value.index) == (ROWS, 2)

    def test_zero_noise_gives_ones(self, rng):
        a = rank_k(6, 5, 2, rng)
        params = noisy_stability_floor(a, np.zeros_like(a))
        assert np.all(params.alpha_per_col == 1.0)
        assert np.all(params.beta_per_row == 1.0)

    def test_proportional_noise(self, rng):
        # E = 0.1 A gives every ratio 0.1, so each floor is 0.9/1.1
        a = rank_k(7, 6, 3, rng)
        params = noisy_stability_floor(a, 0.1 * a)
        np.testing.assert_allclose(params.beta_per_row, 0.9 / 1.1, rtol=1e-12)
        np.testing.assert_allclose(params.alpha_per_col, 0.9 / 1.1, rtol=1e-12)

    def test_certifies_noisy_lengths(self, rng):
        # the length distribution of A+E dominates beta^2 times that of A
        for _ in range(10):
            a = rank_k(9, 7, 3, rng)
            e = rng.standard_normal(a.shape)
            e *= 0.3 * min(np.linalg.norm(a, axis=1).min(), np.linalg.norm(a, axis=0).min()) / np.linalg.norm(e, 2)
            params = noisy_stability_floor(a, e)
            q_tilde = length_dist(a + e, ROWS).weights
            q_row = length_dist(a, ROWS).weights
            assert np.all(q_tilde >= params.beta_per_row**2 * q_row - 1e-12)
            p_tilde = length_dist(a + e, COLS).weights
            p_col = length_dist(a, COLS).weights
            assert np.all(p_tilde >= params.alpha_per_col**2 * p_col - 1e-12)

    def test_zero_row_convention(self):
        a = np.array([[0.0, 0.0], [1.0, 2.0]])
        e = np.array([[0.1, 0.0], [0.0, 0.0]])
        params = noisy_stability_floor(a, e)
        assert params.beta_per_row[0] == 1.0

    @pytest.mark.parametrize("big", [1e200, 1.7e308])
    def test_large_noise_where_a_is_zero(self, big):
        # E's norms are taken at E's own scale: 1e200 squared would overflow
        a = np.diag([1.0, 0.0])
        e = np.zeros((2, 2))
        e[1, 1] = big
        params = noisy_stability_floor(a, e)
        for floors in (params.beta_per_row, params.alpha_per_col):
            np.testing.assert_allclose(floors, [1.0 / (1.0 + big), 1.0], rtol=1e-15)

    def test_floor_underflowing_to_zero_is_noise_dominated(self):
        # ||E||_F / ||A||_F = 1e310 leaves the live row's floor at 0
        a = np.diag([1e-300, 0.0])
        e = np.zeros((2, 2))
        e[1, 1] = 1e10
        with pytest.raises(NoiseDominatesError) as exc:
            noisy_stability_floor(a, e)
        assert (exc.value.axis, exc.value.index) == (ROWS, 0)

    def test_noise_dominates(self):
        a = np.array([[1.0, 0.0], [0.0, 0.01]])
        e = np.array([[0.0, 0.0], [0.0, 0.02]])
        with pytest.raises(NoiseDominatesError) as exc:
            noisy_stability_floor(a, e)
        assert exc.value.index == 1

    def test_sum_beyond_the_float_range_certifies(self):
        # A + E = 1.9e308 overflows, so the certificate forms it at a power-of-two scale
        a = np.full((3, 2), 1.2e308)
        params = noisy_stability_floor(a, a / 1.2 * 0.7)
        for floors in (params.beta_per_row, params.alpha_per_col):
            np.testing.assert_allclose(floors, 0.5 / 1.9, rtol=1e-14)

    def test_holds_two_m_by_n_arrays_beyond_its_inputs(self, rng):
        m, n = 400, 300
        a = rank_k(m, n, 5, rng)
        e = 1e-3 * rng.standard_normal((m, n))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            noisy_stability_floor(a, e)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # two m-by-n float64 arrays, plus vectors over the rows and columns
        assert peak <= 2 * a.nbytes + 16 * 8 * (m + n)


class TestCertificate:
    def test_floors_that_do_not_certify_raise(self, rng):
        a = rank_k(6, 5, 2, rng)
        reference = (length_dist(a, ROWS).weights, length_dist(a, COLS).weights)
        uniform = (np.full(6, 1.0 / 6), np.full(5, 1.0 / 5))
        params = StabilityParams(alpha_per_col=np.full(5, 2.0), beta_per_row=np.full(6, 2.0))
        with pytest.raises(CertificateError, match="row 0"):
            _certify(params, reference, uniform)
        assert _certify(uniform_stability_floor(a), reference, uniform).beta > 0.0

    def test_floors_are_stored_once(self):
        params = StabilityParams(alpha_per_col=np.array([0.5, 0.25]), beta_per_row=np.array([0.75]))
        assert (params.alpha, params.beta, params.gamma) == (0.25, 0.75, 0.25)
        with pytest.raises(ValueError, match="strictly positive"):
            StabilityParams(alpha_per_col=np.array([0.5, 0.0]), beta_per_row=np.array([0.75]))


class TestEpsilonCeiling:
    def test_orthogonal_with_floors(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        params = uniform_stability_floor(np.eye(5))
        assert epsilon_ceiling(q, params, delta=0.5) == pytest.approx(1.0)

    def test_without_floors(self):
        assert epsilon_ceiling(np.diag([4.0, 1.0])) == pytest.approx(0.25)

    def test_small_gamma(self):
        params = StabilityParams(
            alpha_per_col=np.array([0.02]),
            beta_per_row=np.array([0.5]),
        )
        a = np.diag([2.0, 1.0])
        expected = min(0.5, 0.9 ** -0.25 * math.sqrt(2 * 0.02))
        assert epsilon_ceiling(a, params, delta=0.9) == pytest.approx(expected)

    def test_missing_delta(self):
        params = uniform_stability_floor(np.eye(3))
        with pytest.raises(DomainError):
            epsilon_ceiling(np.eye(3), params)

    def test_order_relation(self, rng):
        # whenever eps < 1/kappa, r / eps^4 >= k
        for _ in range(20):
            k = int(rng.integers(1, 5))
            a = rank_k(12, 9, k, rng)
            eps = 0.9999 * epsilon_ceiling(a)
            assert stable_rank(a) / eps**4 >= k


class TestLeverageDominance:
    def test_equal_dists(self, rng):
        a = rank_k(8, 6, 2, rng)
        lev = leverage_dist(a, 2, COLS)
        assert leverage_dominance_ratio(lev, lev) == pytest.approx(1.0)

    def test_two_point(self):
        p_tilde = uniform_dist(2, COLS)
        p_lev = ProbDist(np.array([0.75, 0.25]), COLS, "leverage(1)")
        assert leverage_dominance_ratio(p_tilde, p_lev) == pytest.approx(1.5)

    def test_zero_weight_rejected(self):
        p_tilde = ProbDist(np.array([1.0, 0.0]), COLS, "length")
        p_lev = ProbDist(np.array([0.5, 0.5]), COLS, "leverage(1)")
        with pytest.raises(DivisionByZeroWeightError):
            leverage_dominance_ratio(p_tilde, p_lev)

    def test_length_ratio_bound(self, rng):
        # c(length dist) <= r * kappa^2 / k on exact rank-k matrices
        for _ in range(20):
            k = int(rng.integers(1, 5))
            a = rank_k(10, 8, k, rng)
            c = leverage_dominance_ratio(length_dist(a, COLS), leverage_dist(a, k, COLS))
            bound = stable_rank(a) * condition_number(a) ** 2 / k
            assert c <= bound * (1 + 1e-10)


class TestDominanceInequalities:
    def test_leverage_dominates_length(self, rng):
        # p_lev >= (r/k) p_col entrywise
        for _ in range(40):
            k = int(rng.integers(1, 6))
            a = rank_k(11, 9, k, rng)
            r = stable_rank(a)
            p_col = length_dist(a, COLS).weights
            p_lev = leverage_dist(a, k, COLS).weights
            assert np.all(p_lev >= (r / k) * p_col - 1e-10)

    def test_length_dominates_leverage(self, rng):
        # p_col >= (k / (r kappa^2)) p_lev entrywise
        for _ in range(40):
            k = int(rng.integers(1, 6))
            a = rank_k(11, 9, k, rng)
            r = stable_rank(a)
            kap = condition_number(a)
            p_col = length_dist(a, COLS).weights
            p_lev = leverage_dist(a, k, COLS).weights
            assert np.all(p_col >= (k / (r * kap**2)) * p_lev - 1e-10)


class TestSampleSizes:
    def test_leverage_frozen(self):
        assert sample_size_leverage(1, 1.0, 1.0 - 1e-12) == 14
        assert sample_size_leverage(10, 1.0, 0.5) == math.ceil(80 * (math.log(20) + 2.0)) == 400

    def test_leverage_beta_scaling(self):
        base = 8.0 * (math.log(4) + 2.0) * 2
        assert sample_size_leverage(2, 1.0, 0.5) == math.ceil(base)
        assert sample_size_leverage(2, 0.5, 0.5) == math.ceil(2 * base)

    def test_length_via_lev_reduces_to_leverage(self):
        # kappa = 1 and r = k collapse the bound to the beta = 1 leverage one
        for k in (1, 2, 5, 9):
            assert sample_size_length_via_lev(float(k), 1.0, k, 0.4) == sample_size_leverage(k, 1.0, 0.4)

    def test_kappa_quadruples(self):
        raw = 8.0 * 2.0 * 3.0**2 * (math.log(8) + 2.0)
        assert sample_size_length_via_lev(2.0, 3.0, 4, 0.5) == math.ceil(raw)
        assert sample_size_length_via_lev(2.0, 6.0, 4, 0.5) == math.ceil(4 * raw)

    def test_frozen_value(self):
        assert sample_size_length_via_lev(3.0, 5.0, 3, 0.5) == math.ceil(600 * (math.log(6) + 2.0)) == 2276

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sample_size_leverage(0, 1.0, 0.5)
        with pytest.raises(DomainError):
            sample_size_leverage(2, 1.5, 0.5)
        with pytest.raises(DomainError):
            sample_size_length_via_lev(2.0, 0.5, 2, 0.5)


@pytest.mark.parametrize("scale", [1e-170, 1e170])
def test_extreme_scale_gives_unscaled_results(rng, scale):
    # squared entries of A near 1e170 or 1e-170 leave the float range unless scaled first
    a = rank_k(30, 20, 3, rng)
    a[4] = 0.0
    a[:, 7] = 0.0
    e = 1e-3 * rng.standard_normal(a.shape)
    for axis in (ROWS, COLS):
        np.testing.assert_allclose(length_dist(scale * a, axis).weights,
                                   length_dist(a, axis).weights, rtol=1e-14)
    for got, want in ((uniform_stability_floor(scale * a), uniform_stability_floor(a)),
                      (noisy_stability_floor(scale * a, scale * e), noisy_stability_floor(a, e))):
        np.testing.assert_allclose(got.beta_per_row, want.beta_per_row, rtol=1e-14)
        np.testing.assert_allclose(got.alpha_per_col, want.alpha_per_col, rtol=1e-14)
    report = verify_characterization(scale * a, IndexSet(range(30), ROWS), IndexSet(range(20), COLS))
    assert report.all_hold and report.u_pinv_identity
