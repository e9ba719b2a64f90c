import numpy as np
import pytest

from curlowrank.cur import approx_error
from curlowrank.deim import deim_cur, deim_select
from curlowrank.errors import DomainError, RankDeficientError
from curlowrank.linalg import COLS, ROWS, IndexSet, _leading_svd, compact_svd

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


def dense_selection(f, k):
    """``(rows, cols)`` that greedy selection picks from the rank-k bases of the SVD ``f``."""
    return deim_select(f.left[:, :k], k, ROWS), deim_select(f.right[:, :k], k, COLS)


class TestDeimSelect:
    def test_argmax_first_vector(self):
        v = np.array([[0.1], [0.9], [0.3]])
        assert deim_select(v, 1) == IndexSet([1], ROWS)

    def test_identity_basis(self):
        v = np.eye(6)[:, :4]
        assert tuple(deim_select(v, 4)) == (0, 1, 2, 3)

    def test_matches_reference(self, rng):
        for _ in range(20):
            v = orthonormal(8, 3, rng)
            assert list(deim_select(v, 3)) == reference_selection(v, 3)
        for _ in range(5):
            v = orthonormal(25, 6, rng)
            assert list(deim_select(v, 6)) == reference_selection(v, 6)

    def test_no_repeats(self, rng):
        for _ in range(20):
            v = orthonormal(15, 5, rng)
            assert len(set(deim_select(v, 5))) == 5

    def test_permutation_equivariance(self, rng):
        # row i of v[perm] is row perm[i] of v, so selections map back through perm
        v = orthonormal(10, 4, rng)
        perm = rng.permutation(10)
        base = list(deim_select(v, 4))
        permuted = list(deim_select(v[perm], 4))
        assert [int(perm[i]) for i in permuted] == base

    def test_selected_block_well_conditioned(self, rng):
        # the chosen rows satisfy sigma_min(V(p,:)) >= sqrt(3/(n*ell)) / 2^ell
        for _ in range(20):
            n, ell = 30, 4
            v = orthonormal(n, ell, rng)
            block = v[list(deim_select(v, ell)), :]
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
        got = deim_cur(a, 6)
        assert (got.I, got.J) == dense_selection(compact_svd(a), 6)
        assert approx_error(a, got) <= 1e-8 * np.linalg.norm(a)

    def test_tol_takes_the_dense_svd_at_that_cutoff(self, rng):
        a = rank_k(120, 90, 6, rng)
        got = deim_cur(a, 6, tol=1e-6)
        assert (got.I, got.J) == dense_selection(compact_svd(a, 1e-6), 6)

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
