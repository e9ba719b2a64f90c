import numpy as np
import pytest

from curlowrank import sampling
from curlowrank.cluster import subspace_factors
from curlowrank.harness import lowrank_gaussian
from curlowrank.linalg import rank_cutoff, singular_values


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


def factored_weights(p, q, svd, scheme, k=None):
    """The row and column weights the trials build for ``p @ q.T`` from its compact SVD ``svd``:
    the stacked builder on a stack of one."""
    return [w[0] for w in sampling._stacked_weights(p[None], q[None], [svd], scheme, k)]


def orthonormal(n, k, rng):
    """Random n-by-k matrix with orthonormal columns."""
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q


def rank_of(a):
    """The numerical rank of ``a`` at the package's cutoff, 0 for a zero matrix."""
    return rank_cutoff(singular_values(a), np.shape(a))[0]


def union_of_subspaces(spec, rng):
    """One union-of-subspaces data matrix ``p @ q.T`` drawn from ``rng``, and its labels."""
    p, q, labels = subspace_factors(spec, [rng])
    return p[0] @ q[0].T, labels[0]
