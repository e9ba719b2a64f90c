from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curlowrank.cluster import (
    SubspaceSpec,
    clustering_matrix,
    labels_from_clustering_matrix,
    same_partition,
)
from curlowrank.cur import build_cur, randomized_cur, verify_characterization
from curlowrank.errors import DomainError
from curlowrank.harness import ExperimentConfig, run_experiment, trial_generator
from curlowrank.linalg import COLS, ROWS, IndexSet
from curlowrank.sampling import SCHEMES, length_dist

from conftest import rank_of, union_of_subspaces


class TestSpec:
    def test_dims_must_fit(self):
        with pytest.raises(DomainError):
            SubspaceSpec(4, (2, 3), (5, 5))
        with pytest.raises(DomainError):
            SubspaceSpec(8, (3,), (2,))  # fewer points than dim

    @pytest.mark.parametrize("dims, points", [((2, 2), (2, 2)), ((3,), (3,)), ((2, 3), (2, 9))])
    def test_basis_of_points_rejected(self, dims, points):
        # d >= 2 points spanning their d-dim subspace are a basis: no grouping is identifiable
        with pytest.raises(DomainError, match="d \\+ 1 points"):
            SubspaceSpec(12, dims, points)
        SubspaceSpec(12, dims, tuple(p + (p == d) for d, p in zip(dims, points)))

    def test_single_point_line_accepted(self):
        assert SubspaceSpec(3, (1, 1, 1), (1, 1, 1)).points == (1, 1, 1)


def walk_closure(support, length):
    """Boolean walks of up to ``length`` steps on a reflexive support: the pattern of Q^length."""
    step = np.asarray(support, dtype=np.int64)
    reach = step
    for _ in range(length - 1):
        reach = (reach @ step > 0).astype(np.int64)
    return reach


class TestGeneration:
    def test_single_subspace_rank(self):
        a, truth = union_of_subspaces(SubspaceSpec(4, (2,), (5,)), trial_generator(1, 0))
        assert a.shape == (4, 5)
        assert rank_of(a) == 2
        assert np.unique(truth).size == 1
        assert truth.tolist() == [0] * 5

    def test_total_rank(self):
        spec = SubspaceSpec(20, (2, 3, 4), (10, 10, 10))
        a, truth = union_of_subspaces(spec, trial_generator(2, 0))
        assert a.shape == (20, 30)
        assert rank_of(a) == sum(spec.dims) == 9
        assert np.unique(truth).size == 3
        counts = np.bincount(truth)
        assert counts.tolist() == [10, 10, 10]

    def test_genericity_spot_check(self):
        spec = SubspaceSpec(20, (2, 3, 4), (10, 10, 10))
        rng = trial_generator(3, 0)
        a, truth = union_of_subspaces(spec, rng)
        for label, d in enumerate(spec.dims):
            members = np.flatnonzero(truth == label)
            for _ in range(10):
                pick = rng.choice(members, size=d, replace=False)
                assert np.linalg.matrix_rank(a[:, pick]) == d


class TestClusteringMatrix:
    def test_single_subspace_all_ones(self):
        a, _ = union_of_subspaces(SubspaceSpec(6, (2,), (7,)), trial_generator(4, 0))
        f = build_cur(a, IndexSet(range(6), ROWS), IndexSet(range(7), COLS))
        w = clustering_matrix(f.U_pinv @ f.R)
        assert w.dtype == bool
        assert np.all(w)

    def test_orthogonal_lines_block_pattern(self):
        # axis-aligned data: two orthogonal lines in R^4
        a = np.array([
            [1.0, 2.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 3.0, -2.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
        ])
        f = build_cur(a, IndexSet([0, 2], ROWS), IndexSet([0, 3], COLS))
        w = clustering_matrix(f.U_pinv @ f.R)
        expected = np.zeros((5, 5), dtype=bool)
        expected[:3, :3] = True
        expected[3:, 3:] = True
        np.testing.assert_array_equal(w, expected)

    def test_matches_numeric_power_on_tiny_instance(self):
        spec = SubspaceSpec(6, (1, 2), (3, 4))
        a, _ = union_of_subspaces(spec, trial_generator(5, 0))
        f = build_cur(a, IndexSet(range(6), ROWS), IndexSet(range(7), COLS))
        y = f.U_pinv @ f.R
        w = walk_closure(clustering_matrix(y), max(spec.dims))
        q = np.abs(y.T @ y)
        q[q < 1e-10 * q.max()] = 0.0
        numeric = np.linalg.matrix_power(q + np.eye(7) * q.max(), max(spec.dims))
        np.testing.assert_array_equal(w, (numeric > 1e-8 * numeric.max()).astype(np.int64))

    def test_symmetric_and_reflexive(self):
        spec = SubspaceSpec(10, (2, 3), (6, 7))
        a, _ = union_of_subspaces(spec, trial_generator(8, 0))
        f = build_cur(a, IndexSet(range(10), ROWS), IndexSet(range(13), COLS))
        w = clustering_matrix(f.U_pinv @ f.R)
        np.testing.assert_array_equal(w, w.T)
        assert np.all(np.diag(w))

    def test_column_permutation_equivariance(self):
        spec = SubspaceSpec(9, (2, 2), (5, 6))
        rng = trial_generator(9, 0)
        a, _ = union_of_subspaces(spec, rng)
        perm = rng.permutation(11)
        full_rows, full_cols = IndexSet(range(9), ROWS), IndexSet(range(11), COLS)
        f, f_perm = build_cur(a, full_rows, full_cols), build_cur(a[:, perm], full_rows, full_cols)
        w = clustering_matrix(f.U_pinv @ f.R)
        w_perm = clustering_matrix(f_perm.U_pinv @ f_perm.R)
        np.testing.assert_array_equal(w_perm, w[np.ix_(perm, perm)])


class TestLabels:
    def test_identity_pattern(self):
        labels = labels_from_clustering_matrix(np.eye(4, dtype=np.int64))
        assert np.unique(labels).size == 4

    def test_all_ones(self):
        labels = labels_from_clustering_matrix(np.ones((5, 5), dtype=np.int64))
        assert np.unique(labels).size == 1

    def test_block_pattern(self):
        w = np.zeros((7, 7), dtype=np.int64)
        w[:3, :3] = 1
        w[3:, 3:] = 1
        labels = labels_from_clustering_matrix(w)
        assert np.unique(labels).size == 2
        assert labels.dtype == np.int64 and labels.tolist() == [0, 0, 0, 1, 1, 1, 1]

    @staticmethod
    def reference_labels(w):
        """Union-find over the nonzero pattern, components numbered by smallest member."""
        n = w.shape[0]
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in zip(*np.nonzero(w)):
            ri, rj = find(int(i)), find(int(j))
            if ri != rj:
                parent[rj] = ri
        names = {}
        labels = [names.setdefault(find(i), len(names)) for i in range(n)]
        return labels, len(names)

    def assert_matches_reference(self, w):
        got = labels_from_clustering_matrix(w)
        assert (got.tolist(), np.unique(got).size) == self.reference_labels(w)

    def test_random_symmetric_patterns_match_union_find(self):
        rng = trial_generator(4343, 0)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            w = rng.random((n, n)) < rng.uniform(0.0, 0.15)
            w = (w | w.T).astype(np.int64)
            np.fill_diagonal(w, rng.integers(0, 2))
            isolated = rng.random(n) < 0.2
            w[isolated, :] = 0
            w[:, isolated] = 0
            self.assert_matches_reference(w)

    def test_long_path_matches_union_find(self):
        n = 300
        order = trial_generator(4344, 0).permutation(n)
        w = np.zeros((n, n), dtype=np.int64)
        w[order[:-1], order[1:]] = 1
        w |= w.T
        self.assert_matches_reference(w)
        assert np.unique(labels_from_clustering_matrix(w)).size == 1


class TestAccuracy:
    """Exact recovery: ``same_partition`` is the relabeling search's accuracy of 1.0."""

    def test_identical(self):
        x = np.array([0, 1, 1, 2])
        assert same_partition(x, x)

    def test_renamed(self):
        pred = np.array([2, 0, 0, 1])
        truth = np.array([0, 1, 1, 2])
        assert same_partition(pred, truth)

    def test_partial(self):
        pred = np.array([0, 0, 1, 1])
        truth = np.array([0, 1, 1, 1])
        assert not same_partition(pred, truth)

    def test_merged_and_split(self):
        merged = np.array([0, 0, 0, 0, 1])
        truth = np.array([0, 0, 1, 1, 2])
        split = np.array([0, 1, 2, 3, 4])
        assert not same_partition(merged, truth) and not same_partition(truth, merged)
        assert not same_partition(split, truth) and not same_partition(truth, split)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            same_partition(np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64))

    def test_twelve_clusters_relabeled(self):
        rng = trial_generator(4241, 0)
        truth = rng.permutation(np.repeat(np.arange(12), 3))
        pred = rng.permutation(12)[truth]
        assert same_partition(pred, truth)
        moved = pred.copy()
        moved[0] = (moved[0] + 1) % 12
        assert not same_partition(moved, truth)

    def test_labels_anywhere_in_the_integer_range(self):
        # a naive pair code pred * (max(truth) + 1) + truth maps (1, -1) and (0, 1) to one code
        assert same_partition(np.array([1, 0]), np.array([-1, 1]))
        top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
        big = np.array([top, bottom, top - 1, top], dtype=np.int64)
        small = np.array([0, 1, 2, 0], dtype=np.int8)
        assert same_partition(big, small) and same_partition(small, big)
        assert not same_partition(big, np.array([0, 1, 1, 0], dtype=np.int8))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_stacked_pair_definition(self, data):
        """Equal to counting distinct stacked (pred, truth) columns, for signed labels of any width."""
        n = data.draw(st.integers(0, 30))
        pred_ids = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        renamed = data.draw(st.booleans())  # then truth renames pred: the partitions agree
        truth_ids = pred_ids if renamed else data.draw(
            st.lists(st.integers(0, 4), min_size=n, max_size=n))
        pred, truth = (self.named(data, ids) for ids in (pred_ids, truth_ids))
        pairs = np.unique(np.stack([pred, truth]), axis=1).shape[1]
        want = pairs == np.unique(pred).size == np.unique(truth).size
        assert same_partition(pred, truth) == want
        assert want or not renamed

    @staticmethod
    def named(data, ids):
        """``ids`` mapped to five distinct labels of a signed dtype, the ends of its range likely."""
        info = np.iinfo(data.draw(st.sampled_from((np.int8, np.int16, np.int32, np.int64))))
        edges = st.sampled_from((info.min, info.min + 1, -1, 0, info.max - 1, info.max))
        names = data.draw(st.lists(st.one_of(edges, st.integers(info.min, info.max)),
                                   min_size=5, max_size=5, unique=True))
        return np.array([names[i] for i in ids], dtype=info.dtype)

    @staticmethod
    def reference_accuracy(pred, truth):
        """The permutation search over full label vectors."""
        ell = int(max(pred.max(), truth.max())) + 1
        n = pred.size
        best = 0.0
        for perm in permutations(range(ell)):
            mapped = np.asarray(perm)[pred]
            best = max(best, float(np.count_nonzero(mapped == truth)) / n)
        return best

    def test_confusion_matrix_matches_reference(self):
        rng = trial_generator(4242, 0)
        for ell_pred in [*range(1, 9)] * 2:
            n = int(rng.integers(1, 40))
            ell_truth = int(rng.integers(1, 9))
            pred = rng.integers(0, ell_pred, size=n)
            truth = rng.integers(0, ell_truth, size=n)
            assert same_partition(pred, truth) == (self.reference_accuracy(pred, truth) == 1.0)
            renamed = (pred + 1) % ell_pred
            assert same_partition(renamed, pred) and self.reference_accuracy(renamed, pred) == 1.0


@st.composite
def subspace_specs(draw, max_subspaces=4):
    """Valid specs: a subspace of dim d >= 2 gets at least d + 1 points, a line at least one."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=max_subspaces))
    points = [d + draw(st.integers(int(d >= 2), 5)) for d in dims]
    ambient = sum(dims) + draw(st.integers(0, 4))
    return SubspaceSpec(ambient, tuple(dims), tuple(points))


@settings(max_examples=20, deadline=None)
@given(spec=subspace_specs(), seed=st.integers(0, 2**32 - 1), draws=st.integers(1, 30))
def test_labels_do_not_depend_on_walk_length(spec, seed, draws):
    # the walk closure lies between the support and its transitive closure,
    # so its components do not depend on the walk length, exact CUR or not
    rng = trial_generator(seed, 0)
    a, _ = union_of_subspaces(spec, rng)
    f = randomized_cur(a, length_dist(a, ROWS), length_dist(a, COLS), draws, draws, rng)
    support = clustering_matrix(f.U_pinv @ f.R)
    want = labels_from_clustering_matrix(support)
    for d in range(2, max(spec.dims) + 1):
        got = labels_from_clustering_matrix(walk_closure(support, d))
        np.testing.assert_array_equal(got, want)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(spec=subspace_specs(max_subspaces=12), seed=st.integers(0, 2**32 - 1),
       scheme=st.sampled_from(SCHEMES))
@example(spec=SubspaceSpec(24, (2, 3, 1) * 4, (3, 4, 1) * 4), seed=0, scheme="length")
def test_exact_cur_recovers_the_partition(spec, seed, scheme):
    # the clustering theorem: every exact CUR of a union of independent subspaces
    # gives the true partition, for any number of subspaces
    cfg = ExperimentConfig(kind="clustering", m=spec.ambient_dim, dims=spec.dims,
                           points=spec.points, scheme=scheme, trials=3, master_seed=seed)
    group = run_experiment(cfg)[1]["groups"][0]
    assert group["exact_and_perfect"] == group["exact_curs"]


class TestEndToEnd:
    def test_exact_cur_implies_perfect_clustering(self):
        spec = SubspaceSpec(12, (2, 2, 3), (6, 6, 8))
        exact_seen = 0
        for trial in range(30):
            rng = trial_generator(1000, trial)
            a, truth = union_of_subspaces(spec, rng)
            f = randomized_cur(a, length_dist(a, ROWS), length_dist(a, COLS), 40, 40, rng)
            report = verify_characterization(a, f.I, f.J)
            if not report.all_hold:
                continue
            exact_seen += 1
            pred = labels_from_clustering_matrix(clustering_matrix(f.U_pinv @ f.R))
            assert same_partition(pred, truth)
        assert exact_seen >= 25

    def test_affine_subspaces_via_homogeneous_coordinates(self):
        # two shifted (affine) lines in R^4 become 2-dim linear subspaces in R^5
        rng = trial_generator(77, 0)
        base1, dir1 = rng.standard_normal(4), rng.standard_normal(4)
        base2, dir2 = rng.standard_normal(4), rng.standard_normal(4)
        pts1 = np.stack([base1 + t * dir1 for t in rng.standard_normal(6)], axis=1)
        pts2 = np.stack([base2 + t * dir2 for t in rng.standard_normal(6)], axis=1)
        data = np.hstack([pts1, pts2])
        truth = np.array([0] * 6 + [1] * 6)
        lifted = np.vstack([data, np.ones((1, 12))])
        f = randomized_cur(lifted, length_dist(lifted, ROWS), length_dist(lifted, COLS),
                           20, 20, rng)
        report = verify_characterization(lifted, f.I, f.J)
        assert report.all_hold
        pred = labels_from_clustering_matrix(clustering_matrix(f.U_pinv @ f.R))
        assert same_partition(pred, truth)
