import numpy as np
import pytest

from curlowrank.cur import _cur, approx_error
from curlowrank.deim import deim_cur, deim_noise_certificate, deim_select
from curlowrank.errors import DomainError, RankDeficientError
from curlowrank.harness import spectral_noise
from curlowrank.linalg import COLS, ROWS, _leading_svd, as_matrix, compact_svd

from conftest import orthonormal, rank_k


def reference_selection(v, ell):
    """Independent step-by-step oracle using the explicit projection operator."""
    n = v.shape[0]
    picks = [int(np.argmax(np.abs(v[:, 0])))]
    for j in range(1, ell):
        p_mat = np.eye(n)[:, picks]  # n x (j)
        v_prev = v[:, :j]
        proj = v_prev @ np.linalg.inv(p_mat.T @ v_prev) @ p_mat.T
        r = v[:, j] - proj @ v[:, j]
        picks.append(int(np.argmax(np.abs(r))))
    return picks


class TestDeimSelect:
    def test_argmax_first_vector(self):
        v = np.array([[0.1], [0.9], [0.3]])
        sel = deim_select(v, 1)
        assert tuple(sel.indices) == (1,)
        assert sel.residual_maxima == (0.9,)

    def test_identity_basis(self):
        v = np.eye(6)[:, :4]
        sel = deim_select(v, 4)
        assert tuple(sel.indices) == (0, 1, 2, 3)

    def test_matches_reference(self, rng):
        for _ in range(20):
            v = orthonormal(8, 3, rng)
            assert tuple(deim_select(v, 3).indices) == tuple(reference_selection(v, 3))
        for _ in range(5):
            v = orthonormal(25, 6, rng)
            assert tuple(deim_select(v, 6).indices) == tuple(reference_selection(v, 6))

    def test_no_repeats_and_positive_maxima(self, rng):
        for _ in range(20):
            v = orthonormal(15, 5, rng)
            sel = deim_select(v, 5)
            assert len(set(sel.indices)) == 5
            assert all(m > 0.0 for m in sel.residual_maxima)

    def test_permutation_equivariance(self, rng):
        # row i of v[perm] is row perm[i] of v, so selections map back through perm
        v = orthonormal(10, 4, rng)
        perm = rng.permutation(10)
        base = list(deim_select(v, 4).indices)
        permuted = list(deim_select(v[perm], 4).indices)
        assert [int(perm[i]) for i in permuted] == base

    def test_selected_block_well_conditioned(self, rng):
        # the chosen rows satisfy sigma_min(V(p,:)) >= sqrt(3/(n*ell)) / 2^ell
        for _ in range(20):
            n, ell = 30, 4
            v = orthonormal(n, ell, rng)
            sel = deim_select(v, ell)
            block = v[list(sel.indices), :]
            smin = np.linalg.svd(block, compute_uv=False)[-1]
            assert smin >= np.sqrt(3.0 / (n * ell)) / 2.0**ell

    def test_ell_bounds(self, rng):
        v = orthonormal(6, 2, rng)
        with pytest.raises(DomainError):
            deim_select(v, 3)
        with pytest.raises(DomainError):
            deim_select(v, 0)


class TestDeimCur:
    def test_rank_one(self, rng):
        a = np.outer(rng.standard_normal(7), rng.standard_normal(5))
        f = deim_cur(a, 1)
        assert len(f.I) == len(f.J) == 1
        assert approx_error(a, f) <= 1e-10 * np.linalg.norm(a)

    def test_rank_three(self, rng):
        a = rank_k(30, 25, 3, rng)
        f = deim_cur(a, 3)
        assert approx_error(a, f) <= 1e-8 * np.linalg.norm(a)

    def test_diagonal(self):
        a = np.diag([5.0, 3.0, 1.0])
        f = deim_cur(a, 3)
        assert sorted(f.I) == [0, 1, 2]
        assert sorted(f.J) == [0, 1, 2]
        assert approx_error(a, f) <= 1e-12 * np.linalg.norm(a)

    def test_rank_deficient_rejected(self, rng):
        with pytest.raises(RankDeficientError):
            deim_cur(rank_k(8, 6, 2, rng), 3)

    def test_rank_deficient_rejected_at_sketch_size(self, rng):
        # the sketch declines, and the dense fallback names the rank
        with pytest.raises(RankDeficientError, match="numerical rank 2"):
            deim_cur(rank_k(80, 60, 2, rng), 3)

    def test_sketched_bases_pick_the_dense_indices(self, rng):
        a = rank_k(120, 90, 6, rng)
        assert _leading_svd(a, 6) is not None
        got, ref = deim_cur(a, 6), deim_cur(a, 6, svd=compact_svd(a))
        assert (got.I, got.J) == (ref.I, ref.J)
        assert approx_error(a, got) <= 1e-8 * np.linalg.norm(a)

    def test_tol_takes_the_dense_svd_at_that_cutoff(self, rng):
        a = rank_k(120, 90, 6, rng)
        got, ref = deim_cur(a, 6, tol=1e-6), deim_cur(a, 6, svd=compact_svd(a, 1e-6))
        assert (got.I, got.J) == (ref.I, ref.J)

    @pytest.mark.parametrize("k", [0, -2])
    def test_nonpositive_k_is_a_domain_error(self, rng, k):
        # a negative k would otherwise slice the basis from its end
        with pytest.raises(DomainError, match=f"k={k}"):
            deim_cur(rank_k(20, 12, 3, rng), k)

    def test_exact_recovery_sweep(self, rng):
        for _ in range(30):
            k = int(rng.integers(1, 7))
            m = int(rng.integers(k + 2, 41))
            n = int(rng.integers(k + 2, 41))
            a = rank_k(m, n, k, rng)
            assert approx_error(a, deim_cur(a, k)) <= 1e-8 * np.linalg.norm(a)


class TestNoiseCertificate:
    def test_zero_noise(self, rng):
        a = rank_k(6, 5, 2, rng)
        cert = deim_noise_certificate(a, 2, 0.0)
        assert cert.holds and cert.threshold == 0.0
        cert0 = deim_noise_certificate(a, 3, 0.0)
        assert not cert0.holds  # sigma_3 vanishes

    def test_threshold_small_case(self):
        a = np.eye(3)
        cert = deim_noise_certificate(a, 1, 0.01)
        # 1 + 2^1 * sqrt(3*1/3) = 3
        assert cert.threshold == pytest.approx(0.03)

    def test_end_to_end_recovery(self, rng):
        a = rank_k(20, 20, 2, rng)
        f = compact_svd(a)
        a = (f.left * (f.singular_values / f.singular_values[-1])) @ f.right.T  # sigma_2 = 1
        e = spectral_noise(a.shape, 1e-3, rng)
        a_tilde = a + e
        cert = deim_noise_certificate(a_tilde, 2, 1e-3)
        assert cert.holds
        tilde_f = compact_svd(a_tilde)
        cols = deim_select(tilde_f.right[:, :2], 2, axis=COLS).indices
        rows = deim_select(tilde_f.left[:, :2], 2, axis=ROWS).indices
        clean = _cur(as_matrix(a), rows, cols, None)
        assert approx_error(a, clean) <= 1e-6 * np.linalg.norm(a)

    def test_certificate_soundness_sweep(self, rng):
        # whenever the certificate holds, selection on the noisy matrix recovers A
        held = 0
        for _ in range(40):
            k = int(rng.integers(1, 4))
            a = rank_k(15, 12, k, rng)
            a /= np.linalg.norm(a, 2)
            sigma = 10.0 ** rng.uniform(-6, -2)
            e = spectral_noise(a.shape, sigma, rng)
            cert = deim_noise_certificate(a + e, k, sigma)
            if not cert.holds:
                continue
            held += 1
            f = compact_svd(a + e)
            cols = deim_select(f.right[:, :k], k, axis=COLS).indices
            rows = deim_select(f.left[:, :k], k, axis=ROWS).indices
            clean = _cur(as_matrix(a), rows, cols, None)
            assert approx_error(a, clean) <= 1e-6 * np.linalg.norm(a)
        assert held > 5  # the sweep actually exercised the certified branch

    def test_domain_errors(self, rng):
        a = rank_k(4, 4, 2, rng)
        with pytest.raises(DomainError):
            deim_noise_certificate(a, 0, 0.1)
        with pytest.raises(DomainError):
            deim_noise_certificate(a, 1, -0.1)

    @pytest.mark.parametrize("e_bound", [np.nan, np.inf])
    def test_non_finite_noise_bound_is_a_domain_error(self, rng, e_bound):
        with pytest.raises(DomainError):
            deim_noise_certificate(rank_k(4, 4, 2, rng), 1, e_bound)

    def test_k_beyond_the_smaller_side_is_a_domain_error(self, rng):
        with pytest.raises(DomainError):
            deim_noise_certificate(rank_k(6, 4, 2, rng), 5, 0.0)

    def test_threshold_past_the_float_range_fails_instead_of_raising(self):
        # 2^1025 overflows: the threshold reads inf, or 0.0 without noise
        a = np.eye(1025)
        cert = deim_noise_certificate(a, 1025, 1e-300)
        assert cert.threshold == np.inf and cert.margin == -np.inf and not cert.holds
        cert0 = deim_noise_certificate(a, 1025, 0.0)
        assert cert0.threshold == 0.0 and cert0.margin == 1.0 and cert0.holds
