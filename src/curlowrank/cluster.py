"""Union-of-subspaces data generation and clustering through an exact CUR factorization.

Data columns drawn from a union of independent linear subspaces can be
clustered from any exact CUR decomposition ``A = C U^+ R``: with
``Y = U^+ R`` and ``Q = |Y^T Y|``, cross-subspace entries of Q vanish, so
the connected components of Q's support are the subspaces.  The labels are
read from the support itself, and Y need not be formed: any factor of
Y's Gram matrix gives the same Q.  For an exact CUR of ``A = W S V^T``,
``Q = |V (V_J^T V_J)^{-1} V^T|`` whatever the rows (Aldroubi, Hamm, Koku and
Sekmen, 2019).  The paper's walk closure ``Q^D``, with D the
largest subspace dimension, lies between the support and its transitive
closure, so it has the same components and hence the same labels for every
walk length.  Exact recovery is partition equality, which
:func:`recovers_partition` decides in three steps: a supported pair across two
subspaces merges them; else fully supported blocks are the components; else
the component search decides.  Step 2 covers an exact CUR, whose Q is block
diagonal with dense blocks for generic data, unless it drew exactly a basis
(d >= 2 columns) of a subspace: Q is diagonal on those.  Recovery needs d + 1
points in each subspace of dim d >= 2.
Labels are int64 vectors, one per data column; names only matter up to permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def subspace_factors(spec: SubspaceSpec, rngs) -> tuple:
    """``(p, q, labels)`` of one data matrix ``p @ q.T`` per generator in the list ``rngs``.

    Bases are orthonormalized Gaussian blocks (independent with probability one, as
    the dims fit in the ambient space), one QR per subspace for the whole stack, and
    points are generic Gaussian combinations of each basis.  ``p`` stacks the bases
    (T-by-m-by-K, K the sum of the dims), ``q`` the shuffled columns' coefficients
    (T-by-N-by-K), and ``labels`` (T-by-N) names each column's subspace.  Each stream
    is read in the order of one generator alone.  No rank is checked here.
    """
    draws = [[(g.standard_normal((spec.ambient_dim, d)), g.standard_normal((d, n)))
              for d, n in zip(spec.dims, spec.points)] for g in rngs]
    perms = np.stack([g.permutation(sum(spec.points)) for g in rngs])
    p = np.concatenate([np.linalg.qr(np.stack([trial[i][0] for trial in draws]))[0]
                        for i in range(len(spec.dims))], axis=2)
    labels = np.repeat(np.arange(len(spec.dims), dtype=np.int64), spec.points)
    q = np.zeros((len(rngs), labels.size, p.shape[2]))
    block = labels[:, None] == np.repeat(np.arange(len(spec.dims)), spec.dims)
    q[:, block] = [np.concatenate([coef.T.ravel() for _, coef in trial]) for trial in draws]
    return p, np.stack([q_t[perm] for q_t, perm in zip(q, perms)]), labels[perms]


def clustering_matrix(y) -> np.ndarray:
    """Boolean co-membership support of the Gram matrix of the coefficients ``y`` of a CUR.

    ``y`` is ``U^+ R``, or any factor with the same Gram matrix, such as ``Z V^T``
    where ``U^+ R = Q Z V^T`` with orthonormal columns in Q.  ``Q = |y^T y|`` is
    thresholded at ``SUPPORT_RTOL * max|Q|`` to guard rounding, and the diagonal
    is forced on.
    """
    q = y.T @ y
    np.abs(q, out=q)  # in place: one N-by-N array, not two, per call
    peak = float(q.max())
    support = q >= SUPPORT_RTOL * peak if peak > 0.0 else np.zeros_like(q, dtype=bool)
    np.fill_diagonal(support, True)
    return support


def labels_from_clustering_matrix(w) -> np.ndarray:
    """Connected components of the pattern's undirected graph: int64 labels, by smallest member."""
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
    return labels


def same_partition(pred, truth) -> bool:
    """Whether the label vectors group the columns into the same clusters, names aside.

    They do exactly when the confusion support is a bijection: there are as
    many distinct ``(pred, truth)`` label pairs as distinct labels on each side.
    Each side's labels are first renamed ``0..count-1``, so the pair code
    ``pred * count + truth`` is one distinct integer per pair for any labels.
    """
    if np.shape(pred) != np.shape(truth):
        raise DomainError("label vectors must have equal length")
    pred_names, pred_ids = np.unique(pred, return_inverse=True)
    truth_names, truth_ids = np.unique(truth, return_inverse=True)
    count = pred_names.size
    if truth_names.size != count:
        return False
    return np.unique(pred_ids * count + truth_ids).size == count


def recovers_partition(support, truth) -> bool:
    """``same_partition(labels_from_clustering_matrix(support), truth)``, searching last.

    With no supported pair across two true clusters, the components refine
    them; if every pair within each is supported, each is a clique and so a component.
    """
    support, truth = np.asarray(support, dtype=bool), np.asarray(truth)
    same = truth[:, None] == truth
    if (support > same).any():
        return False
    if (support >= same).all():
        return True
    return same_partition(labels_from_clustering_matrix(support), truth)
