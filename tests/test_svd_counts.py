"""Pins the number of dense SVDs per call: each matrix is factored once.

The counter wraps ``np.linalg.svd`` as the package calls it; the SVDs that
``np.linalg.norm(x, 2)`` takes internally are not counted.
"""

import numpy as np
import pytest

from curlowrank.cli import cli_main
from curlowrank.cur import verify_characterization
from curlowrank.harness import ExperimentConfig, lowrank_gaussian, run_experiment, trial_generator
from curlowrank.linalg import COLS, ROWS, IndexSet
from curlowrank.mmio import write_matrix
from curlowrank.sampling import axis_dists


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    real = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.fixture
def a():
    return lowrank_gaussian(12, 10, 3, trial_generator(77, 0))


def test_verify_characterization_factors_a_c_r_u_once_each(a, svd_calls):
    rows, cols = IndexSet((0, 2, 5, 7), ROWS), IndexSet((1, 3, 4), COLS)
    assert verify_characterization(a, rows, cols).all_hold
    assert sorted(svd_calls) == sorted([(12, 10), (12, 3), (4, 10), (4, 3)])


def test_zero_submatrices_take_one_svd_each(a, svd_calls):
    a = a.copy()
    a[:, 0] = 0.0
    report = verify_characterization(a, IndexSet((1,), ROWS), IndexSet((0,), COLS))
    assert (report.rank_c, report.rank_u, report.holds_i) == (0, 0, False)
    assert len(svd_calls) == 4


def test_leverage_axis_dists_take_one_svd(a, svd_calls):
    rows, cols = axis_dists(a, "leverage", 3)
    assert (rows.size, cols.size) == (12, 10)
    assert svd_calls == [(12, 10)]


def test_cli_svd_takes_one_svd(a, tmp_path, svd_calls, capsys):
    path = tmp_path / "a.mtx"
    write_matrix(a, path)
    assert cli_main(["svd", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "numerical_rank: 3" in out and "condition_number:" in out
    assert svd_calls == [(12, 10)]


def test_clustering_trial_factors_each_matrix_once(svd_calls):
    # the generator's rank check of the stacked data, then A, C, R and U once each
    cfg = ExperimentConfig(kind="clustering", m=20, dims=(2, 3, 4), points=(10, 10, 10),
                           d_grid=(16,), trials=1)
    records, _ = run_experiment(cfg)
    assert len(records) == 1
    assert sorted(svd_calls) == sorted([(20, 30), (20, 30), (20, 16), (16, 30), (16, 16)])
