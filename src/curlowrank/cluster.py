"""Union-of-subspaces data generation and clustering through an exact CUR factorization.

Data columns drawn from a union of independent linear subspaces can be
clustered from any exact CUR decomposition ``A = C U^+ R``: with
``Y = U^+ R`` and ``Q = |Y^T Y|``, cross-subspace entries of Q vanish, so
the connected components of Q's support are the subspaces.  The labels are
read from the support itself.  The paper's walk closure ``Q^D``, with D the
largest subspace dimension, lies between the support and its transitive
closure, so it has the same components and hence the same labels for every
walk length.  Exact recovery is partition equality (:func:`same_partition`);
it needs d + 1 points in each subspace of dim d >= 2, as d points are a basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cur import CurFactors
from .errors import DomainError

# Entries of Q below this fraction of its largest entry count as zero (rounding guard).
SUPPORT_RTOL = 1e-10


@dataclass(frozen=True)
class SubspaceSpec:
    """Generation parameters: ambient dim, per-subspace dims and point counts (> d if d > 1)."""

    ambient_dim: int
    dims: tuple
    points: tuple

    def __post_init__(self):
        if len(self.dims) != len(self.points):
            raise DomainError("dims and points lists must have equal length")
        if len(self.dims) == 0:
            raise DomainError("need at least one subspace")
        if any(d < 1 for d in self.dims) or any(p < 1 for p in self.points):
            raise DomainError("subspace dims and point counts must be >= 1")
        if sum(self.dims) > self.ambient_dim:
            raise DomainError(
                f"sum of subspace dims {sum(self.dims)} exceeds ambient dim {self.ambient_dim}"
            )
        if any(d >= 2 and p <= d for d, p in zip(self.dims, self.points)):
            raise DomainError("a subspace of dim d >= 2 needs d + 1 points: d are a basis")


@dataclass(frozen=True, eq=False)
class ClusterLabels:
    """Integer label per data column; names only matter up to permutation."""

    labels: np.ndarray


def subspace_factors(spec: SubspaceSpec, rng) -> tuple:
    """``(p, q, labels)`` of :func:`generate_union_of_subspaces`: its matrix is ``p @ q.T``.

    ``p`` stacks the orthonormal bases (m-by-K, K the sum of the dims), ``q`` the shuffled
    columns' block coefficients (N-by-K).  A list of generators gives each one's, stacked and
    drawn in one generator's order, from one QR of each subspace's stack of Gaussian blocks.
    """
    rngs = rng if isinstance(rng, list) else [rng]
    draws = [[(g.standard_normal((spec.ambient_dim, d)), g.standard_normal((d, n)))
              for d, n in zip(spec.dims, spec.points)] for g in rngs]
    perms = [g.permutation(sum(spec.points)) for g in rngs]
    p = np.concatenate([np.linalg.qr(np.stack([trial[i][0] for trial in draws]))[0]
                        for i in range(len(spec.dims))], axis=2)
    labels = np.repeat(np.arange(len(spec.dims), dtype=np.int64), spec.points)
    q = np.zeros((len(rngs), labels.size, p.shape[2]))
    block = labels[:, None] == np.repeat(np.arange(len(spec.dims)), spec.dims)
    q[:, block] = [np.concatenate([coef.T.ravel() for _, coef in trial]) for trial in draws]
    q = np.stack([q_t[perm] for q_t, perm in zip(q, perms)])
    truths = [ClusterLabels(labels[perm]) for perm in perms]
    return (p, q, truths) if isinstance(rng, list) else (p[0], q[0], truths[0])


def generate_union_of_subspaces(spec: SubspaceSpec, rng):
    """Draw a data matrix whose columns come from independent random subspaces.

    Bases are orthonormalized Gaussian blocks (independent with probability
    one since the dims fit in the ambient space); points are Gaussian
    coefficient combinations of each basis (generic with probability one).
    Columns are shuffled; the returned labels name each column's subspace.
    It is ``p @ q.T`` of :func:`subspace_factors`; no rank is checked here.
    """
    p, q, truth = subspace_factors(spec, rng)
    return p @ q.T, truth


def clustering_matrix(factors: CurFactors) -> np.ndarray:
    """Boolean co-membership support of the coefficient Gram matrix of a CUR.

    ``Q = |(U^+ R)^T (U^+ R)|`` is thresholded at ``SUPPORT_RTOL * max|Q|``
    to guard rounding, and the diagonal is forced on.
    """
    y = factors.U_pinv @ factors.R
    q = np.abs(y.T @ y)
    peak = float(q.max())
    support = q >= SUPPORT_RTOL * peak if peak > 0.0 else np.zeros_like(q, dtype=bool)
    np.fill_diagonal(support, True)
    return support


def labels_from_clustering_matrix(w) -> ClusterLabels:
    """Connected components of the pattern's undirected graph, numbered by smallest member."""
    adj = np.asarray(w) != 0
    adj = adj | adj.T
    labels = np.full(adj.shape[0], -1, dtype=np.int64)
    count = 0
    while (labels < 0).any():
        frontier = np.arange(labels.size) == np.argmax(labels < 0)
        while frontier.any():
            labels[frontier] = count
            frontier = adj[frontier].any(axis=0) & (labels < 0)
        count += 1
    return ClusterLabels(labels)


def same_partition(pred: ClusterLabels, truth: ClusterLabels) -> bool:
    """Whether both labelings group the columns into the same clusters, names aside.

    They do exactly when the confusion support is a bijection: there are as
    many distinct ``(pred, truth)`` label pairs as distinct labels on each side.
    Each side's labels are first renamed ``0..count-1``, so the pair code
    ``pred * count + truth`` is one distinct integer per pair for any labels.
    """
    if pred.labels.shape != truth.labels.shape:
        raise ValueError("label vectors must have equal length")
    pred_names, pred_ids = np.unique(pred.labels, return_inverse=True)
    truth_names, truth_ids = np.unique(truth.labels, return_inverse=True)
    count = pred_names.size
    if truth_names.size != count:
        return False
    return np.unique(pred_ids * count + truth_ids).size == count
