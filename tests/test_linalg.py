import numpy as np
import pytest

from curlowrank.errors import IndexOutOfRangeError, ZeroMatrixError
from curlowrank.linalg import (
    COLS,
    ROWS,
    IndexSet,
    as_matrix,
    compact_svd,
    condition_number,
    numerical_rank,
    pseudoinverse,
    stable_rank,
    submatrix,
)

from conftest import rank_k


class TestCompactSvd:
    def test_diagonal(self):
        f = compact_svd(np.diag([3.0, 4.0]))
        assert f.numerical_rank == 2
        np.testing.assert_allclose(f.singular_values, [4.0, 3.0])

    def test_rank_one_outer(self):
        a = np.outer([1.0, 2.0], [1.0, 1.0])
        f = compact_svd(a)
        assert f.numerical_rank == 1
        assert f.singular_values[0] == pytest.approx(np.sqrt(10.0))

    def test_lowrank_reconstruction(self, rng):
        a = rank_k(8, 6, 3, rng)
        f = compact_svd(a)
        assert f.numerical_rank == 3
        rel = np.linalg.norm(a - f.reconstruct()) / np.linalg.norm(a)
        assert rel <= 1e-10

    def test_factor_orthonormality(self, rng):
        for _ in range(10):
            a = rank_k(12, 9, 4, rng)
            f = compact_svd(a)
            k = f.numerical_rank
            assert np.max(np.abs(f.left.T @ f.left - np.eye(k))) <= 1e-10
            assert np.max(np.abs(f.right.T @ f.right - np.eye(k))) <= 1e-10
            assert np.all(np.diff(f.singular_values) <= 0)
            assert np.all(f.singular_values > f.tolerance_used)

    def test_sign_convention_deterministic(self, rng):
        a = rank_k(10, 7, 3, rng)
        f1 = compact_svd(a)
        f2 = compact_svd(a.copy())
        np.testing.assert_array_equal(f1.left, f2.left)
        np.testing.assert_array_equal(f1.right, f2.right)
        # largest-magnitude entry of each left vector is nonnegative
        for j in range(f1.left.shape[1]):
            i = int(np.argmax(np.abs(f1.left[:, j])))
            assert f1.left[i, j] >= 0.0

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrixError):
            compact_svd(np.zeros((3, 3)))
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])
        with pytest.raises(ValueError):
            as_matrix([[np.inf], [0.0]])


class TestPseudoinverse:
    def test_diagonal(self):
        np.testing.assert_allclose(pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_least_squares_row(self):
        np.testing.assert_allclose(pseudoinverse(np.array([[1.0], [1.0]])), [[0.5, 0.5]])

    def test_reproduces_matrix(self, rng):
        a = rank_k(5, 4, 2, rng)
        pinv = pseudoinverse(a)
        rel = np.linalg.norm(a @ pinv @ a - a) / np.linalg.norm(a)
        assert rel <= 1e-8

    def test_penrose_identities(self, rng):
        # all four identities, random shapes up to 50x50
        for m, n, k in [(50, 50, 7), (37, 50, 5), (50, 23, 23), (6, 6, 6)]:
            a = rank_k(m, n, k, rng)
            p = pseudoinverse(a)
            scale_a = np.linalg.norm(a)
            scale_p = np.linalg.norm(p)
            assert np.linalg.norm(a @ p @ a - a) <= 1e-8 * scale_a
            assert np.linalg.norm(p @ a @ p - p) <= 1e-8 * scale_p
            assert np.linalg.norm((a @ p).T - a @ p) <= 1e-8 * np.linalg.norm(a @ p)
            assert np.linalg.norm((p @ a).T - p @ a) <= 1e-8 * np.linalg.norm(p @ a)

    def test_zero_matrix_transposed_shape(self):
        p = pseudoinverse(np.zeros((3, 5)))
        assert p.shape == (5, 3)
        assert np.all(p == 0.0)


class TestStableRank:
    def test_identity(self):
        assert stable_rank(np.eye(5)) == pytest.approx(5.0)

    def test_rank_one(self, rng):
        a = np.outer(rng.standard_normal(6), rng.standard_normal(4))
        assert stable_rank(a) == pytest.approx(1.0)

    def test_diag_2_1(self):
        assert stable_rank(np.diag([2.0, 1.0])) == pytest.approx(1.25)

    def test_zero_rejected(self):
        with pytest.raises(ZeroMatrixError):
            stable_rank(np.zeros((2, 2)))

    def test_scale_invariant(self, rng):
        # squared entries would underflow or overflow at these scales
        a = rank_k(30, 20, 3, rng)
        for scale in (1e-170, 1e170):
            assert stable_rank(scale * a) == pytest.approx(stable_rank(a), rel=1e-12)

    def test_at_most_rank(self, rng):
        for _ in range(25):
            a = rank_k(9, 7, int(rng.integers(1, 6)), rng)
            assert stable_rank(a) <= numerical_rank(a) + 1e-9

    def test_perturbation_sandwich(self, rng):
        # both inequalities, as stated, on random pairs with ||E||_F < ||A||_F
        for _ in range(50):
            a = rng.standard_normal((8, 6))
            e = rng.standard_normal((8, 6))
            e *= 0.8 * rng.random() * np.linalg.norm(a) / np.linalg.norm(e)
            ratio_f = np.linalg.norm(e) / np.linalg.norm(a)
            sr, sr_tilde = stable_rank(a), stable_rank(a + e)
            lower = sr * ((1 - ratio_f) / (1 + np.linalg.norm(e, 2) / np.linalg.norm(a))) ** 2
            upper = sr * ((1 + ratio_f) / (1 - np.linalg.norm(e, 2) / np.linalg.norm(a, 2))) ** 2
            assert lower - 1e-12 <= sr_tilde <= upper + 1e-12


class TestConditionNumber:
    def test_orthogonal(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        assert condition_number(q) == pytest.approx(1.0, abs=1e-12)

    def test_diag(self):
        assert condition_number(np.diag([4.0, 1.0])) == pytest.approx(4.0)

    def test_minimal_nonzero_sigma(self):
        # the zero singular value is excluded from the ratio
        assert condition_number(np.diag([5.0, 2.0, 0.0])) == pytest.approx(2.5)

    def test_equals_norm_product(self, rng):
        for _ in range(10):
            a = rank_k(12, 10, 4, rng)
            prod = np.linalg.norm(a, 2) * np.linalg.norm(pseudoinverse(a), 2)
            assert condition_number(a) == pytest.approx(prod, rel=1e-8)

    def test_zero_rejected(self):
        with pytest.raises(ZeroMatrixError):
            condition_number(np.zeros((4, 2)))


class TestSubmatrix:
    def test_row_pick(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(submatrix(a, IndexSet([1], ROWS)), [[3.0, 4.0]])

    def test_duplicate_rows(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(submatrix(a, IndexSet([0, 0], ROWS)), [[1.0, 2.0], [1.0, 2.0]])

    def test_column_order_preserved(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(submatrix(a, IndexSet([1, 0], COLS)), [[2.0, 1.0], [4.0, 3.0]])

    def test_out_of_range(self):
        a = np.eye(3)
        with pytest.raises(IndexOutOfRangeError):
            submatrix(a, IndexSet([3], ROWS))
        with pytest.raises(IndexOutOfRangeError):
            IndexSet([-1], ROWS)

    def test_composition(self, rng):
        a = rng.standard_normal((7, 9))
        rows = IndexSet([2, 2, 5, 0], ROWS)
        cols = IndexSet([8, 1, 1], COLS)
        via_rows = submatrix(submatrix(a, rows), cols)
        via_cols = submatrix(submatrix(a, cols), rows)
        np.testing.assert_array_equal(via_rows, via_cols)
