"""Golden pins: sha256 of the full CSV bytes for fixed configs and seeds.

Unlike the rerun checks elsewhere, these digests are fixed across commits, so
a refactor that changes any output byte fails here.  The bytes are fixed for
a given numpy/BLAS build and thread count; every matrix is kept at most
50x40, a size at which the bytes also agree across BLAS thread counts.
"""

import hashlib

import pytest

from curlowrank.cli import cli_main
from curlowrank.harness import ExperimentConfig, emit_csv, run_experiment

CASES = {
    "success_length": (
        dict(kind="success_prob", m=50, n=40, k=4, scheme="length", d_grid=(4, 8), trials=12,
             master_seed=301),
        "26cfc2bf4284e450d999651ad1d6f63464edfc988e4c9590f7cdcd03b4878512",
    ),
    "success_leverage_kappa": (
        dict(kind="success_prob", m=40, n=30, k=3, scheme="leverage", kappa=50.0, d_grid=(4,),
             trials=10, master_seed=302),
        "8b54b3fa23567eca8164033761539c9c5aa4f229e399ae56ac0755ab4db3769f",
    ),
    "success_uniform_sparse_dedup": (
        dict(kind="success_prob", m=30, n=40, k=3, scheme="uniform", sparsity=0.5, dedup=True,
             d_grid=(6,), trials=10, master_seed=303),
        "a4e6d7c584976b863e00ee39a5ef4ec72177f45cd459b4b33aa2556e8235200d",
    ),
    "noise_two_points": (
        dict(kind="noise_stability", m=12, n=10, k=3, sigma=0.1, scheme="length",
             d_grid=(4, 8), trials=8, master_seed=304),
        "a8136c577d16f31cb55e92f05e8b29c6d97a6ae979e8fa736b5707713a731854",
    ),
    "deim": (
        dict(kind="deim_check", m=50, n=40, k=4, trials=8, master_seed=305),
        "bddc9b102de302eed63feb2973237fbcc45de06cbf54a1e260aed89e487b0fc9",
    ),
    "clustering": (
        dict(kind="clustering", m=20, dims=(2, 3, 4), points=(10, 10, 10), scheme="length",
             d_grid=(16,), trials=8, master_seed=306),
        "2bd3f2efb844ca5422b968faffae9ea034b856ff7f042d7b1b5c5dbcb3ea009d",
    ),
}


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_experiment_csv_digest(name, tmp_path):
    fields, digest = CASES[name]
    path = tmp_path / f"{name}.csv"
    emit_csv(*run_experiment(ExperimentConfig(**fields)), path)
    assert sha(path) == digest


def test_cli_experiment_config_digest(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("kind = success_prob\nm = 24\nn = 20\nk = 3\nscheme = length\n"
                      "d_grid = 3, 6\ntrials = 10\nmaster_seed = 307\n")
    out = tmp_path / "exp.csv"
    assert cli_main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    assert sha(out) == "cbf0684fa77219c9c4b97ffa647415ab54246ea62ebda75002cab2dcacd8f436"


def test_cli_cluster_spec_digest(tmp_path, capsys):
    spec = tmp_path / "model.txt"
    spec.write_text("ambient_dim = 16\ndims = 2, 3\npoints = 9, 12\nseed = 308\n")
    out = tmp_path / "cluster.csv"
    assert cli_main(["cluster", "--spec", str(spec), "--d", "10", "--trials", "6",
                     "--out", str(out)]) == 0
    assert sha(out) == "06e3916fe700999467a7a10595c8ca764575db1abb146ec80f8f9f570366d694"
