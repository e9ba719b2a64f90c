import numpy as np
import pytest

from curlowrank.harness import lowrank_gaussian


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


def rank_k(m, n, k, rng, kappa=None):
    """Exactly-rank-k Gaussian-factor test matrix."""
    return lowrank_gaussian(m, n, k, rng, kappa)


def noisy_rank_k(m, n, k, sigma, rng):
    """A rank-k Gaussian-factor matrix plus i.i.d. noise of spectral norm ``sigma * sigma_k``."""
    a = rank_k(m, n, k, rng)
    e = rng.standard_normal((m, n))
    return a + e * (sigma * np.linalg.svd(a, compute_uv=False)[k - 1] / np.linalg.norm(e, 2))


def orthonormal(n, k, rng):
    """Random n-by-k matrix with orthonormal columns."""
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q
