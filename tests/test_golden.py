"""Golden pins: sha256 of the full CSV bytes for fixed configs and seeds.

Unlike the rerun checks elsewhere, these digests are fixed across commits, so
a refactor that changes any output byte fails here.  The determinism contract
has three layers:

- Drawn indices, success flags and the integer summary fields are fixed
  across BLAS kernels and thread counts.  Each case has a second digest over
  those fields only (the ``trial,scheme,d1,d2,success`` columns and the
  integer summary fields), and these, with the summary rebuilt from the rows,
  also pass under ``OPENBLAS_CORETYPE=Haswell``, as CI checks.
- Float bits are fixed per numpy version, BLAS build, runtime BLAS kernel
  (the one OpenBLAS picks for the CPU, or ``OPENBLAS_CORETYPE`` names) and
  thread count.  Under ``OPENBLAS_CORETYPE=Haswell`` on an AVX-512 host the
  15 bit digests here (CSV bytes and generated subspaces) fail.
- Within one kernel, every matrix is kept at most 50x40, a size at which the
  bytes also agree across one and two BLAS threads.

A change that moves the last bits of the float columns on purpose must still
leave every drawn index and every success flag where it was.

The noise kind is pinned under each scheme, with ``dedup``, with ``kappa``, and
with some but not all trials skipped.  A chunk of one noise trial runs the same
code as a chunk of many (``harness._noisy_curs``), so no case needs a matrix
above 50x40 to reach it.

The union-of-subspaces generator's matrix and labels are pinned by their own
digests, so a change to how the data is built cannot hide behind the CSV's
float columns.
"""

import hashlib

import numpy as np
import pytest

from curlowrank import harness
from curlowrank.cli import cli_main
from curlowrank.cluster import SubspaceSpec, subspace_factors
from curlowrank.harness import ExperimentConfig, run_experiment, trial_generator

from conftest import run_rows

CASES = {
    "success_length": (
        dict(kind="success_prob", m=50, n=40, k=4, scheme="length", d_grid=(4, 8), trials=12,
             master_seed=301),
        "11b922b8eeea44c488e3e3ed3c2875ef84c55b3caa38f88533e6002fba8dd2a4",
    ),
    "success_leverage_kappa": (
        dict(kind="success_prob", m=40, n=30, k=3, scheme="leverage", kappa=50.0, d_grid=(4,),
             trials=10, master_seed=302),
        "d992f7a128e31ffbbda59abf10da0333375268c770eef4eeb9e02156828dd7f0",
    ),
    "success_uniform_sparse_dedup": (
        dict(kind="success_prob", m=30, n=40, k=3, scheme="uniform", sparsity=0.5, dedup=True,
             d_grid=(6,), trials=10, master_seed=303),
        "0e4b52d670567c46afd579f30b375331ca63d6b5e85c66a2fd9cefb99f3c4508",
    ),
    "noise_two_points": (
        dict(kind="noise_stability", m=12, n=10, k=3, sigma=0.1, scheme="length",
             d_grid=(4, 8), trials=8, master_seed=304),
        "4636201dbf1622e604b5eb03eff4c96875fa2083ba37a4054e0fcc225823d61c",
    ),
    "noise_uniform": (
        dict(kind="noise_stability", m=50, n=40, k=4, sigma=0.05, scheme="uniform",
             d_grid=(4, 8), trials=12, master_seed=307),
        "2ebc5dd3fe80bd61ed09c2fa2b50460036af0e9fbe0266a9c5fd2717237b797b",
    ),
    "noise_leverage": (
        dict(kind="noise_stability", m=50, n=40, k=4, sigma=0.05, scheme="leverage",
             d_grid=(4, 8), trials=12, master_seed=308),
        "17c0d199cacea4750957a68372a3c0a636d0cc532a076363ecb770d1815c65f5",
    ),
    "noise_uniform_dedup": (
        dict(kind="noise_stability", m=40, n=30, k=3, sigma=0.02, scheme="uniform", dedup=True,
             d_grid=(5,), trials=10, master_seed=309),
        "8ee483489696842e797cccfa46f9f33ba21bebed6fd739079db484ae56a55b07",
    ),
    "noise_leverage_kappa": (
        dict(kind="noise_stability", m=40, n=30, k=3, sigma=0.02, scheme="leverage", kappa=20.0,
             d_grid=(5,), trials=10, master_seed=310),
        "8f9675bce1990b8f26a7e96ca843fc09c788efe1515b1faa96152d69b53b192f",
    ),
    "deim": (
        dict(kind="deim_check", m=50, n=40, k=4, trials=8, master_seed=305),
        "5673f6e6ef6f1a886f925c9a34e0a36fa94c7b6452f8b61b7ac4589daf0c3f92",
    ),
    "clustering": (
        dict(kind="clustering", m=20, dims=(2, 3, 4), points=(10, 10, 10), scheme="length",
             d_grid=(16,), trials=8, master_seed=306),
        "efc0fb96e70e22ce033af46d97a981b7f378ae0f1e1aa16c8d71b59828bcf9f2",
    ),
    "clustering_leverage": (
        dict(kind="clustering", m=20, dims=(2, 3, 4), points=(10, 10, 10), scheme="leverage",
             d_grid=(16,), trials=8, master_seed=311),
        "d4323322fc1391e7be3fb50b85c919258a06f656edc9a514d12a4a1d83e9e7c9",
    ),
}


# Integer and label fields of the summary lines; the float summaries are left out.
FLAG_FIELDS = ("kind", "scheme", "d1", "d2", "trials", "completed", "skipped", "successes",
               "exact_curs", "exact_and_perfect", "first_trial")

FLAG_DIGESTS = {
    "success_length": "dc80ea17b3d6413fc1c7750eb58090c277cfc1e873712a982212b5f109c33693",
    "success_leverage_kappa": "67db557c6ddc6a9885323acc180922433319ffae83a0fe1f118abf7bc620ae09",
    "success_uniform_sparse_dedup": "e6a3114b339e321e85ef04b62309d3294c8179feba4397e059b871ca596f6a38",
    "noise_two_points": "0cec659f3b485bc89dd0ac9837c6bed02bd13dbf60e818590dc06b1cd1eea6a2",
    "noise_uniform": "11a423c08933b514e0d86c785520c6cfc5249796fe29b71806eb3f98971b2618",
    "noise_leverage": "51d7e2f33b7af2ff2b03e273a28cacac95e327a6aa0ddd07039171004ec8f66c",
    "noise_uniform_dedup": "bbccb877324ea1883bd6994e8aea27f5e9ffa52ba8b9c3585bb155e83577f14b",
    "noise_leverage_kappa": "0a52ed81b6a9432d45f97862bd5d2b47915c9b7713ef51c1daa3f28efb1685de",
    "deim": "fa928a8c1dc40e87e5d906f60408f2150835a9f05f9451e8e1c70e178755f65f",
    "clustering": "dd67fcf1aa8ea410332cde9fe06e5925f640d8d02dc1e4d94bde1e2e8a9eb836",
    "clustering_leverage": "aca0c884f726ef0255b1167e00cd7b011feb4a667259d6b86b9cb39652d51171",
    "cli_experiment_config": "d2b16f30a1a2c1f13ac47dfd7fdb289162b07b16b369ee138121ea2909cafe54",
    "cli_cluster_spec": "48e9a5362061beb040c3aa1fec487f8731f32ca1ea98ec227b5713be4f6bb34c",
}


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def flag_sha(path):
    """sha256 of the trial rows' first five columns and the integer summary fields."""
    kept = []
    for line in path.read_text().splitlines():
        if line == "# summary":
            continue
        if line.startswith("# "):
            group = dict(part.split("=", 1) for part in line[2:].split(" "))
            kept.append(" ".join(f"{key}={group[key]}" for key in FLAG_FIELDS if key in group))
        else:
            kept.append(",".join(line.split(",")[:5]))
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def run_csv(fields, path):
    run_experiment(ExperimentConfig(**fields, out_path=str(path)))
    return path


@pytest.mark.parametrize("name", sorted(CASES))
def test_experiment_csv_digest(name, tmp_path):
    fields, digest = CASES[name]
    assert sha(run_csv(fields, tmp_path / f"{name}.csv")) == digest


@pytest.mark.parametrize("name", sorted(CASES))
def test_experiment_flag_digest(name, tmp_path):
    assert flag_sha(run_csv(CASES[name][0], tmp_path / f"{name}.csv")) == FLAG_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_summary_is_a_function_of_the_rows(name, tmp_path):
    # the reducer rebuilds the summary block from the rows read back and the config
    cfg = ExperimentConfig(**CASES[name][0])
    path = tmp_path / "run.csv"
    rows, _ = run_rows(cfg, path)
    groups = []
    for gi, d in enumerate(cfg.resolved_d_grid()):
        first = gi * cfg.trials
        done = [r[4:7] for r in rows if first <= r.trial < first + cfg.trials]
        groups.append(harness._group(cfg, d, first, iter(done)))
    text = path.read_text()
    assert text[text.index("# summary\n"):] == harness._summary_text({"groups": groups})


def test_cli_experiment_config_digest(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("kind = success_prob\nm = 24\nn = 20\nk = 3\nscheme = length\n"
                      "d_grid = 3, 6\ntrials = 10\nmaster_seed = 307\n")
    out = tmp_path / "exp.csv"
    assert cli_main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    assert flag_sha(out) == FLAG_DIGESTS["cli_experiment_config"]
    assert sha(out) == "3e248f3f66ad60551792b0b1bb5193ff4f581e6bc9d000795f816da66234e232"


def test_cli_cluster_spec_digest(tmp_path, capsys):
    spec = tmp_path / "model.txt"
    spec.write_text("ambient_dim = 16\ndims = 2, 3\npoints = 9, 12\nseed = 308\n")
    out = tmp_path / "cluster.csv"
    assert cli_main(["cluster", "--spec", str(spec), "--d", "10", "--trials", "6",
                     "--out", str(out)]) == 0
    assert flag_sha(out) == FLAG_DIGESTS["cli_cluster_spec"]
    assert sha(out) == "b456b1cbd9b40c4b9e63271a4b441b6ce13f7cd6e74b8e72c617415c9199d9dd"


# sha256 of the generated data matrix's bytes and of its labels' bytes; the second
# spec has lines among its subspaces and an ambient dim of exactly sum(dims)
SUBSPACE_DIGESTS = {
    "three_blocks": (
        SubspaceSpec(20, (2, 3, 4), (10, 10, 10)), 309,
        "f14238aebeb6aa478bc2cc5a1de6a994e2e91e15f9d9d29496b60b69eda2eccf",
        "88b87da181cee69988fb280a779e87a8623ddb7ef5373f2f9e3ac7ea43394899",
    ),
    "lines_tight": (
        SubspaceSpec(6, (1, 1, 4), (2, 1, 7)), 310,
        "5229432177c401abc7e6f4ef05d3edcd17f6b43e36456920484851007a0b96c0",
        "485d235a60900069ebdc958de0bcbc31d7239166697f41fc973f772c975f5e2f",
    ),
}


@pytest.mark.parametrize("name", sorted(SUBSPACE_DIGESTS))
def test_generated_subspaces_digest(name):
    spec, seed, matrix_digest, labels_digest = SUBSPACE_DIGESTS[name]
    p, q, truth = subspace_factors(spec, [trial_generator(seed, 0)])
    a = p[0] @ q[0].T
    assert (a.dtype, truth.dtype) == (np.float64, np.int64) and a.flags.c_contiguous
    assert hashlib.sha256(a.tobytes()).hexdigest() == matrix_digest
    assert hashlib.sha256(truth[0].tobytes()).hexdigest() == labels_digest
