import numpy as np
import pytest

from curlowrank import sampling
from curlowrank.cluster import subspace_factors
from curlowrank.harness import lowrank_gaussian
from curlowrank.linalg import COLS, ROWS, rank_cutoff, singular_values
from curlowrank.sampling import ProbDist


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


def uniform(n, axis):
    """Uniform weights ``1/n`` over the ``n`` indices of ``axis``."""
    return ProbDist(np.full(n, 1.0 / n), axis, "uniform")


def factored_weights(p, q, svd, scheme, k=None):
    """The row and column weights the trials build for ``p @ q.T`` from its compact SVD ``svd``:
    the builder on a factored stack of one."""
    return [w[0] for w in sampling._weights(scheme, k, factors=(p[None], q[None], [svd]))]


def noisy_floors_loop(a, e):
    """The noisy stability floors ``(rows, cols)`` of A and E by a per-index loop, the reference
    for ``sampling._noisy_floors``, and the first index, rows before columns, whose row or column
    of E is at least as long as A's, as ``(axis, index)``, or None where no index is dominated.
    A dominated index keeps the floor the formula gives it, which is not positive."""
    with np.errstate(over="ignore", invalid="ignore"):
        denom = 1.0 + float(np.linalg.norm(e)) / float(np.linalg.norm(a))
        out, dominated = [], None
        for axis, name in ((1, ROWS), (0, COLS)):
            floors = np.ones(a.shape[1 - axis])
            norms = zip(np.linalg.norm(a, axis=axis), np.linalg.norm(e, axis=axis))
            for i, (an, en) in enumerate(norms):
                if an == 0.0:
                    continue
                if en >= an and dominated is None:
                    dominated = (name, i)
                floors[i] = (1.0 - en / an) / denom
            out.append(floors)
    return tuple(out), dominated


def first_nonpositive_floor(floors):
    """``(axis, index)`` of the first floor of a ``(rows, cols)`` pair, rows before columns, that
    is not > 0 (NaN included), or None: the index whose noise dominates it."""
    for name, axis in zip((ROWS, COLS), floors):
        bad = np.flatnonzero(~(axis > 0.0))
        if bad.size:
            return name, int(bad[0])
    return None


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
