"""Union-of-subspaces data generation and clustering through an exact CUR factorization.

Data columns drawn from a union of independent linear subspaces can be
clustered from any exact CUR decomposition ``A = C U^+ R``: with
``Y = U^+ R`` and ``Q = |Y^T Y|``, cross-subspace entries of Q vanish, so
walks of length up to the largest subspace dimension in Q's support graph
connect exactly the same-subspace pairs.  The walk closure is computed over
the boolean semiring on Q's support (only the zero pattern matters; numeric
powers of Q can drift to overflow/underflow without changing it).  The
closure lies between the support and its transitive closure, so its
connected components, and hence the cluster labels, are those of the
support itself for every walk length.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .cur import CurFactors
from .errors import DomainError, TooManyClustersError
from .linalg import numerical_rank

_SPEC_KEYS = ("ambient_dim", "dims", "points", "seed")


@dataclass(frozen=True)
class SubspaceSpec:
    """Generation parameters: ambient dimension, per-subspace dims and point counts."""

    ambient_dim: int
    dims: tuple
    points: tuple
    seed: int | None = None

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
        if any(p < d for d, p in zip(self.dims, self.points)):
            raise DomainError("each subspace needs at least dim many points")


def parse_model_spec(text) -> SubspaceSpec:
    """Parse a plain ``key = value`` block into a :class:`SubspaceSpec`.

    Recognized keys: ambient_dim (int), dims (comma list), points (comma
    list), seed (optional int).  Blank lines and ``#`` comments are skipped.
    """
    found = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SPEC_KEYS:
            raise DomainError(f"line {lineno}: unknown key {key!r}")
        try:
            if key in ("ambient_dim", "seed"):
                found[key] = int(value)
            else:
                found[key] = tuple(int(tok) for tok in value.split(",") if tok.strip())
        except ValueError as exc:
            raise DomainError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    for key in ("ambient_dim", "dims", "points"):
        if key not in found:
            raise DomainError(f"missing required key {key!r}")
    return SubspaceSpec(**found)


@dataclass(frozen=True, eq=False)
class SubspaceModel:
    """Ground truth of a generated dataset."""

    ambient_dim: int
    subspace_dims: tuple
    bases: tuple
    points_per_subspace: tuple
    ground_truth: np.ndarray

    @property
    def d_max(self) -> int:
        return max(self.subspace_dims)

    @property
    def total_rank(self) -> int:
        return sum(self.subspace_dims)


def generate_union_of_subspaces(spec: SubspaceSpec, rng, max_redraws=8):
    """Draw a data matrix whose columns come from independent random subspaces.

    Bases are orthonormalized Gaussian blocks (independent with probability
    one since the dims fit in the ambient space); points are Gaussian
    coefficient combinations of each basis (generic with probability one).
    Columns are shuffled, with the assignment recorded in the model.  The
    measure-zero event of a stacked matrix below full rank ``sum(dims)``
    triggers a redraw; full rank implies every block has full rank (Weyl).
    """
    m = spec.ambient_dim
    n = sum(spec.points)
    labels = np.repeat(np.arange(len(spec.dims), dtype=np.int64), spec.points)
    for _ in range(max_redraws):
        bases = []
        blocks = []
        for d, p in zip(spec.dims, spec.points):
            q, _ = np.linalg.qr(rng.standard_normal((m, d)))
            bases.append(q)
            blocks.append(q @ rng.standard_normal((d, p)))
        a = np.hstack(blocks)
        if numerical_rank(a) < sum(spec.dims):
            continue
        perm = rng.permutation(n)
        model = SubspaceModel(
            ambient_dim=m,
            subspace_dims=tuple(spec.dims),
            bases=tuple(bases),
            points_per_subspace=tuple(spec.points),
            ground_truth=labels[perm],
        )
        return np.ascontiguousarray(a[:, perm]), model
    raise RuntimeError("failed to draw a generic independent-subspace model")


def clustering_matrix(factors: CurFactors, d_max, zero_tol=1e-10) -> np.ndarray:
    """0/1 co-membership pattern from the coefficient Gram matrix of a CUR.

    ``Q = |(U^+ R)^T (U^+ R)|`` is thresholded at ``zero_tol * max|Q|`` to
    guard rounding, the diagonal is forced on, and walks of length up to
    ``d_max`` are closed over the boolean semiring.
    """
    if d_max < 1:
        raise DomainError(f"d_max must be >= 1, got {d_max}")
    y = factors.U_pinv @ factors.R
    q = np.abs(y.T @ y)
    peak = float(q.max())
    support = q >= zero_tol * peak if peak > 0.0 else np.zeros_like(q, dtype=bool)
    np.fill_diagonal(support, True)
    step = support.astype(np.int64)
    reach = step
    for _ in range(int(d_max) - 1):
        reach = (reach @ step > 0).astype(np.int64)
    return reach


@dataclass(frozen=True, eq=False)
class ClusterLabels:
    """Integer label per data column; names only matter up to permutation."""

    labels: np.ndarray
    num_clusters: int


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
    return ClusterLabels(labels=labels, num_clusters=count)


def clustering_accuracy(pred: ClusterLabels, truth: ClusterLabels) -> float:
    """Best agreement fraction over all relabelings of the predicted clusters.

    Exhaustive over label permutations of the ell-by-ell confusion matrix, so
    at most 8 clusters are supported.
    """
    if pred.labels.shape != truth.labels.shape:
        raise ValueError("label vectors must have equal length")
    ell = max(pred.num_clusters, truth.num_clusters)
    if ell > 8:
        raise TooManyClustersError(f"permutation matching supports <= 8 clusters, got {ell}")
    confusion = np.zeros((ell, ell), dtype=np.int64)
    np.add.at(confusion, (pred.labels, truth.labels), 1)
    perms = np.array(list(permutations(range(ell))), dtype=np.intp)
    best = int(confusion[np.arange(ell), perms].sum(axis=1).max())
    return best / pred.labels.size
