import hashlib

import numpy as np
import pytest

from curlowrank.cli import cli_main
from curlowrank.harness import lowrank_gaussian
from curlowrank.mmio import write_matrix
from curlowrank.sampling import min_sample_size_rv, sample_size_length_via_lev, sample_size_leverage


@pytest.fixture
def matrix_file(tmp_path, rng):
    a = lowrank_gaussian(12, 10, 3, rng)
    path = tmp_path / "a.mtx"
    write_matrix(a, path)
    return path


def test_no_arguments_prints_usage(capsys):
    assert cli_main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag(capsys):
    assert cli_main(["svd", "--bogus"]) == 2


def test_unknown_command(capsys):
    assert cli_main(["frobnicate"]) == 2


def test_missing_file_is_runtime_error(capsys, tmp_path):
    assert cli_main(["svd", "--in", str(tmp_path / "nope.mtx")]) == 1


def test_svd_reports_rank(matrix_file, capsys):
    assert cli_main(["svd", "--in", str(matrix_file)]) == 0
    out = capsys.readouterr().out
    assert "numerical_rank: 3" in out
    assert "stable_rank:" in out


def test_sample_size_matches_library(capsys):
    assert cli_main(["sample-size", "--r", "5", "--eps", "0.5", "--delta", "0.5", "--c", "1"]) == 0
    out = capsys.readouterr().out
    assert f"replacement_sampling_d: {min_sample_size_rv(5, 0.5, 0.5, 1.0)}" in out

    assert cli_main(["sample-size", "--r", "3", "--eps", "0.5", "--delta", "0.5",
                     "--k", "3", "--kappa", "5"]) == 0
    out = capsys.readouterr().out
    assert f"leverage_dominated_d: {sample_size_leverage(3, 1.0, 0.5)}" in out
    assert f"length_via_leverage_d: {sample_size_length_via_lev(3, 5.0, 3, 0.5)}" in out


def test_sample_size_domain_error_exits_2(capsys):
    assert cli_main(["sample-size", "--r", "5", "--eps", "1.5", "--delta", "0.5"]) == 2


@pytest.mark.parametrize("flag, value, name", [
    ("--r", "nan", "stable rank"),
    ("--r", "inf", "stable rank"),
    ("--c", "nan", "leading constant"),
    ("--c", "inf", "leading constant"),
    ("--kappa", "inf", "condition number"),
])
def test_sample_size_non_finite_exits_2(capsys, flag, value, name):
    assert cli_main(["sample-size", "--r", "3", "--eps", "0.5", "--delta", "0.5", "--k", "3",
                     "--kappa", "5", flag, value]) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("args, named", [
    (["--r", "3", "--eps", "1e-100", "--delta", "0.1"], "eps=1e-100"),
    (["--r", "1e308", "--eps", "0.5", "--delta", "0.1"], "r=1e+308"),
    (["--r", "3", "--eps", "0.5", "--delta", "1e-320"], "delta=1e-320"),
    (["--r", "3", "--eps", "0.5", "--delta", "0.1", "--k", "3", "--beta", "1e-320"],
     "beta=1e-320"),
    (["--r", "3", "--eps", "0.5", "--delta", "0.1", "--k", str(10**400)], f"k={10**400}"),
])
def test_sample_size_count_beyond_the_float_range_exits_2(capsys, args, named):
    assert cli_main(["sample-size", *args]) == 2
    err = capsys.readouterr().err
    assert named in err and "not a finite integer" in err


def test_sample_size_takes_no_seed_or_tol(capsys):
    for flag in ("--tol", "--seed"):
        assert cli_main(["sample-size", "--r", "5", "--eps", "0.5", "--delta", "0.5",
                         flag, "1"]) == 2


def test_deim_on_exact_rank_file(matrix_file, capsys):
    assert cli_main(["deim", "--in", str(matrix_file), "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "rows:" in out and "cols:" in out
    resid = float(out.strip().splitlines()[-1].split(":")[1])
    assert resid <= 1e-8


def test_deim_error_is_finite_at_extreme_scale(tmp_path, rng, capsys):
    # the squares of 1e170-sized entries overflow unless the norm is scaled first
    path = tmp_path / "big.mtx"
    write_matrix(1e170 * lowrank_gaussian(12, 10, 3, rng), path)
    assert cli_main(["deim", "--in", str(path), "--k", "3"]) == 0
    resid = float(capsys.readouterr().out.strip().splitlines()[-1].split(":")[1])
    assert np.isfinite(resid) and resid <= 1e-8


@pytest.mark.parametrize("k", ["0", "-2"])
def test_deim_nonpositive_k_exits_2(matrix_file, capsys, k):
    assert cli_main(["deim", "--in", str(matrix_file), "--k", k]) == 2
    assert f"k={k}" in capsys.readouterr().err


def test_cur_subcommand(matrix_file, capsys):
    assert cli_main(["cur", "--in", str(matrix_file), "--scheme", "length",
                     "--d1", "8", "--d2", "8", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "rel_err_F:" in out
    assert "scheme: length/length" in out


def test_experiment_from_config_deterministic(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "kind = success_prob\n"
        "m = 20\n"
        "n = 16\n"
        "k = 3\n"
        "scheme = length\n"
        "d_grid = 8\n"
        "trials = 12\n"
        "master_seed = 44\n"
    )
    digests = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert cli_main(["experiment", "--config", str(config), "--out", str(out)]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    assert "success_rate" in capsys.readouterr().out


def test_flags_override_config_file(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("kind = success_prob\nm = 20\nn = 16\nk = 3\nd_grid = 8\n"
                      "trials = 12\nmaster_seed = 44\n")
    out = tmp_path / "exp.csv"
    assert cli_main(["experiment", "--config", str(config), "--trials", "3",
                     "--scheme", "uniform", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
    assert len(rows) == 3 and all(",uniform," in l for l in rows)
    assert "trials=3" in capsys.readouterr().out


@pytest.mark.parametrize("text, flags", [
    ("kind = success_prob\nm = 12\nn = 10\nk = 2\n", ["--d", "6"]),
    ("m = 12\nn = 10\nk = 2\nd_grid = 6\n", ["--kind", "success_prob"]),
    ("kind = deim_check\nm = 12\nn = 10\nk = 2\nscheme = uniform\n",
     ["--kind", "success_prob", "--d", "6"]),
], ids=["d-grid-from-flag", "kind-from-flag", "kind-overridden"])
def test_config_file_is_validated_after_the_flags(tmp_path, capsys, text, flags):
    # a file that is incomplete or wrong on its own, completed by the flags
    config = tmp_path / "exp.cfg"
    config.write_text(text + "trials = 2\n")
    out = tmp_path / "exp.csv"
    assert cli_main(["experiment", "--config", str(config), "--out", str(out), *flags]) == 0
    rows = [l for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
    assert len(rows) == 2 and all(l.split(",")[2] == "6" for l in rows)
    assert "kind=success_prob" in capsys.readouterr().out


def test_experiment_inline_flags(tmp_path):
    out = tmp_path / "inline.csv"
    code = cli_main(["experiment", "--kind", "deim_check", "--m", "12", "--n", "10",
                     "--k", "2", "--trials", "4", "--seed", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("trial,")
    assert len([l for l in lines if not l.startswith("#")]) == 5  # header + 4 trials


def test_experiment_bad_config_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("kind = success_prob\nm = 8\nn = 8\nk = 99\nd_grid = 4\n")
    assert cli_main(["experiment", "--config", str(config)]) == 2


def test_experiment_field_the_kind_never_reads_exits_2(capsys):
    assert cli_main(["experiment", "--kind", "deim_check", "--m", "12", "--n", "10", "--k", "2",
                     "--scheme", "uniform", "--trials", "2"]) == 2
    assert "scheme" in capsys.readouterr().err


def test_experiment_kappa_below_one_exits_2(capsys):
    assert cli_main(["experiment", "--kind", "success_prob", "--m", "8", "--n", "8", "--k", "2",
                     "--d", "4", "--trials", "2", "--kappa", "0"]) == 2
    assert "kappa" in capsys.readouterr().err


def test_cur_of_zero_matrix_reports_zero_errors(tmp_path, capsys):
    path = tmp_path / "zero.mtx"
    write_matrix(np.zeros((5, 4)), path)
    assert cli_main(["cur", "--in", str(path), "--scheme", "uniform",
                     "--d1", "3", "--d2", "3"]) == 0
    out = capsys.readouterr().out
    assert "rel_err_F: 0\n" in out and "rel_err_2: 0\n" in out


def test_svd_of_zero_matrix_reports_rank_0(tmp_path, capsys):
    path = tmp_path / "zero.mtx"
    write_matrix(np.zeros((4, 3)), path)
    assert cli_main(["svd", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "shape: 4 3\nnumerical_rank: 0\n"


def test_cluster_from_spec_file(tmp_path, capsys):
    spec = tmp_path / "model.txt"
    spec.write_text("ambient_dim = 12\ndims = 2,2\npoints = 6,6\nseed = 3\n")
    assert cli_main(["cluster", "--spec", str(spec), "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "success_rate" in out


def test_cur_leverage_requires_k(matrix_file, capsys):
    assert cli_main(["cur", "--in", str(matrix_file), "--scheme", "leverage",
                     "--d1", "6", "--d2", "6"]) == 2


def test_cluster_flags_override_spec(tmp_path, capsys):
    spec = tmp_path / "model.txt"
    spec.write_text("ambient_dim = 12\ndims = 2,2\npoints = 6,6\nseed = 3\n")
    assert cli_main(["cluster", "--spec", str(spec), "--points", "5,7", "--d", "9",
                     "--trials", "2"]) == 0
    assert "d1=9 d2=9 trials=2" in capsys.readouterr().out


def test_cluster_spec_seed_matches_seed_flag(tmp_path, capsys):
    spec = tmp_path / "model.txt"
    spec.write_text("# comment\nambient_dim = 12\ndims = 2, 2\npoints = 6,6\nseed = 3\n")
    from_spec, from_flags = tmp_path / "spec.csv", tmp_path / "flags.csv"
    assert cli_main(["cluster", "--spec", str(spec), "--trials", "4",
                     "--out", str(from_spec)]) == 0
    assert cli_main(["cluster", "--ambient", "12", "--dims", "2,2", "--points", "6,6",
                     "--seed", "3", "--trials", "4", "--out", str(from_flags)]) == 0
    assert from_spec.read_bytes() == from_flags.read_bytes()


@pytest.mark.parametrize("text, field", [
    ("ambient_dim = 20\ndims = 2\n", "spec"),
    ("ambient = 20\ndims = 2\npoints = 5\n", "ambient"),
    ("ambient_dim twenty\n", None),
    ("ambient_dim = 20\ndims = 2\npoints = 5\ntrials = 3\n", "trials"),
], ids=["points-missing", "unknown-key", "not-key-value", "config-key"])
def test_cluster_bad_spec_exits_2(tmp_path, capsys, text, field):
    spec = tmp_path / "model.txt"
    spec.write_text(text)
    assert cli_main(["cluster", "--spec", str(spec), "--trials", "2"]) == 2
    err = capsys.readouterr().err
    assert f"field '{field}'" in err if field else "line 1" in err


@pytest.mark.parametrize("word", ["ture", "yes please"])
def test_experiment_config_bool_typo_exits_2(tmp_path, capsys, word):
    config = tmp_path / "typo.cfg"
    config.write_text(f"kind = success_prob\nm = 8\nn = 8\nk = 2\nd_grid = 4\ntrials = 2\n"
                      f"dedup = {word}\n")
    assert cli_main(["experiment", "--config", str(config)]) == 2
    assert "field 'dedup'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, field", [
    ("--tol", "nan", "tol"),
    ("--sigma", "nan", "sigma"),
    ("--sigma", "inf", "sigma"),
    ("--c", "nan", "big_c"),
])
def test_experiment_non_finite_float_exits_2(capsys, flag, value, field):
    assert cli_main(["experiment", "--kind", "noise_stability", "--m", "8", "--n", "8",
                     "--k", "2", "--eps", "0.5", "--delta", "0.5", "--trials", "2",
                     flag, value]) == 2
    assert f"field '{field}'" in capsys.readouterr().err


def test_cluster_rejects_removed_d_max_flag(capsys):
    assert cli_main(["cluster", "--ambient", "10", "--dims", "1,2", "--points", "4,5",
                     "--d-max", "2", "--trials", "3"]) == 2


def test_cluster_inline(capsys):
    assert cli_main(["cluster", "--ambient", "10", "--dims", "1,2", "--points", "4,5",
                     "--trials", "3", "--seed", "2"]) == 0
    assert "success_rate" in capsys.readouterr().out


@pytest.mark.parametrize("count, code", [(8, 0), (9, 2)])
def test_cluster_subspace_limit(tmp_path, capsys, count, code):
    out = tmp_path / "limit.csv"
    assert cli_main(["cluster", "--ambient", "12", "--dims", ",".join(["1"] * count),
                     "--points", ",".join(["3"] * count), "--trials", "2",
                     "--out", str(out)]) == code
    assert out.exists() == (code == 0)
    assert ("field 'dims'" in capsys.readouterr().err) == (code == 2)
