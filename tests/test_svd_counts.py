"""Pins the number of dense SVDs per call: each matrix is factored once.

The counter wraps ``np.linalg.svd`` as the package calls it; the SVDs that
``np.linalg.norm(x, 2)`` takes internally are not counted by it.  The
trials and the file commands are pinned with a second counter that records
both ``np.linalg.svd`` and the spectral ``np.linalg.norm(x, 2)`` of a matrix,
and the table trials once more with a counter of ``np.linalg.qr``.  A table
grid point stacks its trials' small factorizations, one call per stage, so
their count does not grow with the number of trials; a clustering grid
point factors its data matrices the same way.  Only the noise trial extracts
submatrices or holds an m-by-n array, which ``tracemalloc`` pins.
"""

import tracemalloc

import numpy as np
import pytest

from curlowrank import cur, harness

from curlowrank.cli import cli_main
from curlowrank.cluster import SubspaceSpec
from curlowrank.cur import verify_characterization
from curlowrank.harness import ExperimentConfig, lowrank_gaussian, run_experiment, trial_generator
from curlowrank.linalg import (
    COLS,
    ROWS,
    SKETCH_OVERSAMPLE,
    IndexSet,
    condition_number,
    stable_rank,
)
from curlowrank.mmio import write_matrix
from curlowrank.sampling import axis_dists, draw_indices

from conftest import run_rows, union_of_subspaces


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
def spectral_calls(monkeypatch):
    """``(name, shape)`` of each ``np.linalg.svd`` and matrix ``np.linalg.norm(x, 2)`` call."""
    calls = []
    svd, norm = np.linalg.svd, np.linalg.norm

    def counting_svd(a, *args, **kwargs):
        calls.append(("svd", np.shape(a)))
        return svd(a, *args, **kwargs)

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            calls.append(("norm2", np.shape(x)))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    return calls


@pytest.fixture
def a():
    return lowrank_gaussian(12, 10, 3, trial_generator(77, 0))


def test_verify_characterization_factors_only_a(a, svd_calls):
    # one SVD of the m-by-n input; every other factored matrix is at most k by max(|I|, |J|)
    rows, cols = IndexSet((0, 2, 5, 7), ROWS), IndexSet((1, 3, 4), COLS)
    assert verify_characterization(a, rows, cols).all_hold
    assert svd_calls.count((12, 10)) == 1
    assert all(max(shape) <= 4 and min(shape) <= 3 for shape in svd_calls if shape != (12, 10))


def test_zero_submatrices_factor_only_a(a, svd_calls):
    a = a.copy()
    a[:, 0] = 0.0
    report = verify_characterization(a, IndexSet((1,), ROWS), IndexSet((0,), COLS))
    assert (report.rank_c, report.rank_u, report.holds_i) == (0, 0, False)
    assert svd_calls.count((12, 10)) == 1
    assert all(max(shape) <= 3 for shape in svd_calls if shape != (12, 10))


def test_leverage_axis_dists_take_one_svd(a, svd_calls):
    rows, cols = axis_dists(a, "leverage", 3)
    assert (rows.size, cols.size) == (12, 10)
    assert svd_calls == [(12, 10)]


@pytest.fixture
def uv_calls(monkeypatch):
    """``(shape, compute_uv)`` of each ``np.linalg.svd`` call."""
    calls = []
    real = np.linalg.svd

    def counting(x, *args, **kwargs):
        calls.append((np.shape(x), kwargs.get("compute_uv", True)))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_cli_svd_takes_one_svd(a, tmp_path, uv_calls, capsys):
    path = tmp_path / "a.mtx"
    write_matrix(a, path)
    assert cli_main(["svd", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "numerical_rank: 3" in out and "condition_number:" in out
    assert uv_calls == [((12, 10), False)]


@pytest.mark.parametrize("spectral", [stable_rank, condition_number],
                         ids=lambda f: f.__name__)
def test_spectral_scalars_take_one_svd_without_vectors(a, uv_calls, spectral):
    assert spectral(a) > 0.0
    assert uv_calls == [((12, 10), False)]


CLUSTERING = dict(kind="clustering", m=20, dims=(2, 3, 4), points=(10, 10, 10), d_grid=(16,),
                  trials=1)


def test_clustering_trial_factors_each_matrix_once(uv_calls):
    # A once, through one SVD of the grid point's stack of 9 x 9 cores; then every U
    # and every residual through one SVD each of the stack of their 9 x 9 cores, with
    # and without vectors: no trial takes an SVD larger than K x K, and the stacks do
    # not depend on how many distinct indices each trial drew
    distinct = []
    for i in range(3):
        rng = trial_generator(0, i)
        a, _ = union_of_subspaces(SubspaceSpec(20, (2, 3, 4), (10, 10, 10)), rng)
        rows, cols = draw_indices(*axis_dists(a, "length", 9), 16, 16, rng, dedup=True)
        distinct.append((len(rows), len(cols)))
    assert len(set(distinct)) > 1
    uv_calls.clear()
    records, _ = run_rows(ExperimentConfig(**{**CLUSTERING, "trials": 3}))
    assert len(records) == 3
    assert uv_calls == [((3, 9, 9), True), ((3, 9, 9), True), ((3, 9, 9), False)]


@pytest.mark.parametrize("scheme", ["length", "leverage"])
def test_clustering_trial_takes_no_svd_or_spectral_norm_of_the_residual(scheme, spectral_calls):
    # nor of A: the data is kept as its thin factors, the leverage scores come from the
    # grid point's SVD of them, and every norm is read from a k x k core
    records, _ = run_rows(ExperimentConfig(**CLUSTERING, scheme=scheme))
    assert len(records) == 1
    assert spectral_calls and [call for call in spectral_calls if max(call[1]) >= 20] == []


M, N = 60, 50
TABLE_TRIALS = {
    "leverage": dict(kind="success_prob", scheme="leverage", d_grid=(12,)),
    "length_kappa": dict(kind="success_prob", scheme="length", kappa=100.0, d_grid=(12,)),
    "uniform": dict(kind="success_prob", scheme="uniform", d_grid=(12,)),
    "deim": dict(kind="deim_check"),
}


def _of_a_size(calls):
    """The calls on a matrix with a side as long as A's shorter one."""
    return [call for call in calls if max(call[1]) >= min(M, N)]


@pytest.mark.parametrize("name", sorted(TABLE_TRIALS))
def test_table_trials_factor_no_m_by_n_matrix(name, spectral_calls):
    records, _ = run_rows(ExperimentConfig(m=M, n=N, k=4, trials=2, **TABLE_TRIALS[name]))
    assert len(records) == 2
    assert spectral_calls and _of_a_size(spectral_calls) == []


def test_noise_trial_factors_no_m_by_n_matrix(spectral_calls):
    cfg = ExperimentConfig(kind="noise_stability", m=M, n=N, k=4, sigma=1e-3, scheme="leverage",
                           d_grid=(12,), trials=1)
    records, _ = run_rows(cfg)
    assert len(records) == 1
    # ||E||_2 comes from a Gram eigenvalue, and the leverage scores of A + E from the
    # sketch's Rayleigh-Ritz SVD of a (k + 10) x n matrix, the only SVD of A's width
    assert _of_a_size(spectral_calls) == [("svd", (4 + SKETCH_OVERSAMPLE, N))]


def test_cli_leverage_cur_distributions_take_no_m_by_n_svd(tmp_path, svd_calls, capsys):
    path = tmp_path / "a.mtx"
    write_matrix(lowrank_gaussian(M, N, 5, trial_generator(78, 0)), path)
    assert cli_main(["cur", "--in", str(path), "--scheme", "leverage", "--k", "5",
                     "--d1", "10", "--d2", "10"]) == 0
    assert "scheme: leverage(5)/leverage(5)" in capsys.readouterr().out
    assert (M, N) not in svd_calls and (5 + SKETCH_OVERSAMPLE, N) in svd_calls


@pytest.mark.parametrize("argv", [
    ["cur", "--scheme", "length", "--d1", "10", "--d2", "10"],
    ["cur", "--scheme", "leverage", "--k", "5", "--d1", "10", "--d2", "10"],
    ["deim", "--k", "5"],
], ids=["cur-length", "cur-leverage", "deim"])
def test_cli_cur_and_deim_take_no_svd_of_the_input(argv, tmp_path, spectral_calls, capsys):
    path = tmp_path / "a.mtx"
    write_matrix(lowrank_gaussian(M, N, 5, trial_generator(78, 0)), path)
    assert cli_main([argv[0], "--in", str(path), *argv[1:]]) == 0
    assert "rel_err_F: " in capsys.readouterr().out
    assert spectral_calls and (M, N) not in [shape for _, shape in spectral_calls]


@pytest.fixture
def qr_calls(monkeypatch):
    """The shape of each ``np.linalg.qr`` call."""
    calls = []
    real = np.linalg.qr

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    return calls


# a grid point of three trials factors its three test matrices through one QR of each
# factor stack, however many trials it holds, and measures their CURs of A through one
# QR of the stack of each CUR's rows of W S and of V (d x k each)
FACTORED_SVD_QRS = [(3, 50, 4), (3, 40, 4)]
QR_TRIALS = {
    # the length weights of A come from A's factors and SVD by products alone
    "length": (dict(kind="success_prob", scheme="length", d_grid=(12,)),
               FACTORED_SVD_QRS + [(3, 12, 4)] * 2),
    # kappa reshapes the spectrum through one more factored SVD of the factor stacks
    "leverage_kappa": (dict(kind="success_prob", scheme="leverage", kappa=100.0, d_grid=(12,)),
                       FACTORED_SVD_QRS * 2 + [(3, 12, 4)] * 2),
    "deim": (dict(kind="deim_check"), FACTORED_SVD_QRS + [(3, 4, 4)] * 2),
    # the noisy CUR's residual is the thin product [p, C] [q, -(U^+ R).T].T, of width k + d,
    # orthogonalized through one QR of each factor stack of the grid point's chunk
    "noise_length": (dict(kind="noise_stability", scheme="length", sigma=1e-3, d_grid=(12,)),
                     FACTORED_SVD_QRS + [(3, 50, 16), (3, 40, 16)] + [(3, 12, 4)] * 2),
}


@pytest.mark.parametrize("name", sorted(QR_TRIALS))
def test_table_trials_orthogonalize_only_thin_stacks(name, qr_calls):
    # a CUR of A is measured in A's k x k core, from the R factors of its d x k stacks;
    # no QR is taken of an m x n matrix or of a submatrix of one
    fields, expected = QR_TRIALS[name]
    records, _ = run_rows(ExperimentConfig(m=50, n=40, k=4, trials=3, **fields))
    assert len(records) == 3
    assert qr_calls == expected


# (shape, compute_uv) of each matrix in the SVDs of a 50 x 40, k = 4 grid point at d = 12:
# the core of A's factors (twice with kappa), U's k x k core and the residual's k x k core
SVD_STAGES = {
    "length": (dict(kind="success_prob", scheme="length", d_grid=(12,)),
               [((4, 4), True), ((4, 4), True), ((4, 4), False)]),
    "leverage_kappa": (dict(kind="success_prob", scheme="leverage", kappa=100.0, d_grid=(12,)),
                       [((4, 4), True), ((4, 4), True), ((4, 4), True), ((4, 4), False)]),
    "deim": (dict(kind="deim_check"), [((4, 4), True), ((4, 4), True), ((4, 4), False)]),
}


@pytest.mark.parametrize("name", sorted(SVD_STAGES))
@pytest.mark.parametrize("trials", [1, 3])
def test_table_grid_point_takes_one_stacked_svd_per_stage(name, trials, uv_calls):
    fields, expected = SVD_STAGES[name]
    records, _ = run_rows(ExperimentConfig(m=50, n=40, k=4, trials=trials, **fields))
    assert len(records) == trials
    assert uv_calls == [((trials, *shape), uv) for shape, uv in expected]


# One grid point of each trial path at a size where an m x n array (6.4 MB for the
# tables, 14.4 MB for the clustering data) outweighs everything else a trial holds.
BIG = dict(m=1000, n=800, k=4, trials=2)
BIG_TRIALS = {
    **{name: dict(BIG, **fields) for name, fields in TABLE_TRIALS.items()},
    "length_sparse": dict(BIG, kind="success_prob", scheme="length", sparsity=0.5, d_grid=(12,)),
    "clustering": dict(kind="clustering", m=6000, dims=(2, 2, 2), points=(100, 100, 100),
                       d_grid=(40,), trials=2),
    "noise": dict(BIG, kind="noise_stability", sigma=1e-3, scheme="length", d_grid=(12,)),
}


@pytest.mark.parametrize("name", sorted(BIG_TRIALS))
def test_only_the_noise_trial_extracts_submatrices_or_forms_an_m_by_n_array(name, monkeypatch):
    extracted = []
    real = cur._extract

    def recording(a, rows, cols):
        extracted.append(a.shape)
        return real(a, rows, cols)

    monkeypatch.setattr(cur, "_extract", recording)
    monkeypatch.setattr(harness, "_extract", recording)
    cfg = ExperimentConfig(**BIG_TRIALS[name])
    size = 8 * cfg.m * (cfg.n or sum(cfg.points))
    run_experiment(cfg)  # the first run also allocates the package's lazily built caches
    extracted.clear()
    tracemalloc.start()
    try:
        assert len(run_rows(cfg)[0]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if name == "noise":
        assert extracted == [(cfg.m, cfg.n)] * 2 and peak >= size
    else:
        assert extracted == [] and peak < size / 2
