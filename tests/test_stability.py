import math
import tracemalloc

import numpy as np
import pytest

from curlowrank.errors import CertificateError, DomainError
from curlowrank.cur import verify_characterization
from curlowrank.linalg import COLS, ROWS, IndexSet, condition_number, stable_rank
from curlowrank.sampling import (
    _certify,
    _length_weights,
    _noisy_floors,
    _squared_lengths,
    axis_dists,
    sample_size_length_via_lev,
    sample_size_leverage,
)

from conftest import first_nonpositive_floor, noisy_floors_loop, rank_k


def floors_of(a, e):
    """The noise trial's floors ``(rows, cols)`` for A and E: :func:`_noisy_floors` of their
    squared lengths and Frobenius norms, or of those of each matrix of the stacks A and E."""
    norms = (np.array([np.linalg.norm(x) for x in y]) if y.ndim == 3 else np.linalg.norm(y)
             for y in (a, e))
    return _noisy_floors(_squared_lengths(a), _squared_lengths(e), *norms)


def certified_floors(a, e):
    """:func:`floors_of` A and E, checked by :func:`_certify` against the length weights of
    A + E."""
    floors = floors_of(a, e)
    _certify(floors, _length_weights(*_squared_lengths(a)),
             _length_weights(*_squared_lengths(a + e)))
    return floors


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
            want, dominated = noisy_floors_loop(a, e)
            if dominated is not None:
                assert first_nonpositive_floor(floors_of(a, e)) == dominated
                named.add(dominated[0])
                continue
            got = certified_floors(a, e)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            for floors in got:
                assert np.all((0.0 < floors) & (floors <= 1.0))
        assert named == {ROWS, COLS}

    def test_a_stack_has_each_matrix_floors_alone(self, rng):
        # a live matrix, a dominated one between live ones, one whose A has a zero row, and
        # E scaled to 1e150 and to 1e-150: each matrix's floors have the bits of the loop
        # reference on it alone, and a matrix has a floor that is not > 0 exactly where the
        # reference finds a dominated index, the first such floor, rows before columns
        a = np.stack([rank_k(9, 7, 3, rng) for _ in range(6)])
        e = 0.05 * rng.standard_normal(a.shape)
        e[1, :, 4] += 2.0 * a[1, :, 4] + 0.5
        a[3, 2] = 0.0
        e[4] *= 1e150 / np.linalg.norm(e[4], 2)
        e[5] *= 1e-150 / np.linalg.norm(e[5], 2)
        floors = floors_of(a, e)
        dominated = []
        for t in range(len(a)):
            want, index = noisy_floors_loop(a[t], e[t])
            alone = (floors[0][t], floors[1][t])
            assert [x.tobytes() for x in alone] == [x.tobytes() for x in want]
            assert first_nonpositive_floor(alone) == index
            dominated.append(index is not None)
        assert dominated == [False, True, False, False, True, False]
        assert floors[0][3, 2] == 1.0 and all(np.all(f[5] == 1.0) for f in floors)

    def test_rows_named_before_columns(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        e = np.zeros_like(a)
        e[2, 0] = 2.0  # dominates row 2 and column 0
        assert first_nonpositive_floor(floors_of(a, e)) == (ROWS, 2)

    def test_zero_noise_gives_ones(self, rng):
        a = rank_k(6, 5, 2, rng)
        rows, cols = certified_floors(a, np.zeros_like(a))
        assert np.all(cols == 1.0)
        assert np.all(rows == 1.0)

    def test_proportional_noise(self, rng):
        # E = 0.1 A gives every ratio 0.1, so each floor is 0.9/1.1
        a = rank_k(7, 6, 3, rng)
        rows, cols = certified_floors(a, 0.1 * a)
        np.testing.assert_allclose(rows, 0.9 / 1.1, rtol=1e-12)
        np.testing.assert_allclose(cols, 0.9 / 1.1, rtol=1e-12)

    def test_certifies_noisy_lengths(self, rng):
        # the length distribution of A+E dominates beta^2 times that of A
        for _ in range(10):
            a = rank_k(9, 7, 3, rng)
            e = rng.standard_normal(a.shape)
            e *= 0.3 * min(np.linalg.norm(a, axis=1).min(), np.linalg.norm(a, axis=0).min()) / np.linalg.norm(e, 2)
            beta, alpha = certified_floors(a, e)
            q_tilde, p_tilde = (d.weights for d in axis_dists(a + e, "length"))
            q_row, p_col = (d.weights for d in axis_dists(a, "length"))
            assert np.all(q_tilde >= beta**2 * q_row - 1e-12)
            assert np.all(p_tilde >= alpha**2 * p_col - 1e-12)

    def test_zero_row_convention(self):
        a = np.array([[0.0, 0.0], [1.0, 2.0]])
        e = np.array([[0.1, 0.0], [0.0, 0.0]])
        rows, _ = certified_floors(a, e)
        assert rows[0] == 1.0

    def test_floor_underflowing_to_zero_is_noise_dominated(self):
        # ||E||_F / ||A||_F = 1e310 leaves the live row's floor at 0
        a = np.diag([1e-160, 0.0])
        e = np.zeros((2, 2))
        e[1, 1] = 1e150
        assert first_nonpositive_floor(floors_of(a, e)) == (ROWS, 0)

    def test_noise_dominates(self):
        a = np.array([[1.0, 0.0], [0.0, 0.01]])
        e = np.array([[0.0, 0.0], [0.0, 0.02]])
        assert first_nonpositive_floor(floors_of(a, e))[1] == 1

    def test_holds_no_m_by_n_array_beyond_its_inputs(self, rng):
        m, n = 400, 300
        a = rank_k(m, n, 5, rng)
        e = 1e-3 * rng.standard_normal((m, n))
        stack = rng.standard_normal((20, 50, 40))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lengths = _squared_lengths(a), _squared_lengths(e)
            _noisy_floors(*lengths, np.linalg.norm(a), np.linalg.norm(e))
            peak = tracemalloc.get_traced_memory()[1] - base
            del lengths
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rows, cols = _squared_lengths(stack)
            stack_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # one 64-row block of squares, plus vectors over the rows and columns
        assert peak <= 64 * n * 8 + 16 * 8 * (m + n) < a.nbytes
        # a stack's block is 64 rows of the whole stack, not 64 of each matrix (all 50 here),
        # and each matrix's sums keep the bits of its sums alone
        assert stack_peak <= 64 * 40 * 8 + 2 * 8 * 20 * (50 + 40) < stack.nbytes
        for x, x_rows, x_cols in zip(stack, rows, cols):
            assert x_rows.tobytes() == (x * x).sum(axis=1).tobytes()
            assert x_cols.tobytes() == (x * x).sum(axis=0).tobytes()


class TestCertificate:
    def test_floors_that_do_not_certify_raise(self, rng):
        a = rank_k(6, 5, 2, rng)
        reference = tuple(d.weights for d in axis_dists(a, "length"))
        uniform = (np.full(6, 1.0 / 6), np.full(5, 1.0 / 5))
        with pytest.raises(CertificateError, match="row 0"):
            _certify((np.full(6, 2.0), np.full(5, 2.0)), reference, uniform)
        # a uniform weight 1/m is at least (1 / (m q_i)) q_i
        _certify([np.sqrt(1.0 / (w.size * w)) for w in reference], reference, uniform)

    def test_a_stack_names_the_index_its_failing_matrix_names_alone(self, rng):
        # matrix 0 fails only at column 3 and matrix 1 at rows 4 and 1 and column 0: the
        # stack names row 1, as matrix 1 does alone, since rows come before columns
        a = np.stack([rank_k(6, 5, 2, rng) for _ in range(2)])
        reference = _length_weights(*_squared_lengths(a))
        rows, cols = (np.full(x.shape, 0.5) for x in reference)
        cols[0, 3] = 1e3
        rows[1, [4, 1]] = 1e3
        cols[1, 0] = 1e3
        for members, named in (([0], "col 3"), ([1], "row 1"), ([0, 1], "row 1")):
            pair = [x[members] for x in reference]
            with pytest.raises(CertificateError, match=f"certify {named}$"):
                _certify((rows[members], cols[members]), pair, pair)


class TestDominanceInequalities:
    def test_order_relation(self, rng):
        # whenever eps < 1/kappa, r / eps^4 >= k
        for _ in range(20):
            k = int(rng.integers(1, 5))
            a = rank_k(12, 9, k, rng)
            eps = 0.9999 / condition_number(a)
            assert stable_rank(a) / eps**4 >= k

    def test_length_ratio_bound(self, rng):
        # max_j p_lev_j / p_col_j <= r * kappa^2 / k on exact rank-k matrices
        for _ in range(20):
            k = int(rng.integers(1, 5))
            a = rank_k(10, 8, k, rng)
            p_col = axis_dists(a, "length")[1].weights
            p_lev = axis_dists(a, "leverage", k)[1].weights
            live = p_lev > 0.0
            bound = stable_rank(a) * condition_number(a) ** 2 / k
            assert np.max(p_lev[live] / p_col[live]) <= bound * (1 + 1e-10)

    def test_leverage_dominates_length(self, rng):
        # p_lev >= (r/k) p_col entrywise
        for _ in range(40):
            k = int(rng.integers(1, 6))
            a = rank_k(11, 9, k, rng)
            r = stable_rank(a)
            p_col = axis_dists(a, "length")[1].weights
            p_lev = axis_dists(a, "leverage", k)[1].weights
            assert np.all(p_lev >= (r / k) * p_col - 1e-10)

    def test_length_dominates_leverage(self, rng):
        # p_col >= (k / (r kappa^2)) p_lev entrywise
        for _ in range(40):
            k = int(rng.integers(1, 6))
            a = rank_k(11, 9, k, rng)
            r = stable_rank(a)
            kap = condition_number(a)
            p_col = axis_dists(a, "length")[1].weights
            p_lev = axis_dists(a, "leverage", k)[1].weights
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
    for got, want in zip(axis_dists(scale * a, "length"), axis_dists(a, "length")):
        np.testing.assert_allclose(got.weights, want.weights, rtol=1e-14)
    report = verify_characterization(scale * a, IndexSet(range(30), ROWS), IndexSet(range(20), COLS))
    assert report.all_hold and report.u_pinv_identity
