import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import curlowrank
from curlowrank import cli
from curlowrank.cli import cli_main
from curlowrank.errors import ConfigError, MatrixInputError
from curlowrank.harness import lowrank_gaussian
from curlowrank.linalg import singular_values
from curlowrank.mmio import read_matrix, write_matrix
from curlowrank.sampling import min_sample_size_rv, sample_size_length_via_lev, sample_size_leverage


@pytest.fixture
def matrix_file(tmp_path, rng):
    a = lowrank_gaussian(12, 10, 3, rng)
    path = tmp_path / "a.mtx"
    write_matrix(a, path)
    return path


def _error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    return err


def test_no_arguments_prints_usage(capsys):
    assert cli_main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_main_exits_with_the_code_of_the_process_arguments(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["curlowrank", "sample-size", "--r", "5", "--eps", "0.5",
                                      "--delta", "0.5"])
    with pytest.raises(SystemExit) as exc:
        curlowrank.cli.main()
    assert exc.value.code == 0
    assert f"replacement_sampling_d: {min_sample_size_rv(5, 0.5, 0.5, 1.0)}" in capsys.readouterr().out


def test_unknown_flag(capsys):
    assert cli_main(["svd", "--bogus"]) == 2


def test_unknown_command(capsys):
    assert cli_main(["frobnicate"]) == 2


def test_missing_file_is_runtime_error(capsys, tmp_path):
    assert cli_main(["svd", "--in", str(tmp_path / "nope.mtx")]) == 1


@pytest.mark.parametrize("dims", ["0 5", "-2 -3"])
def test_svd_of_a_file_with_a_size_below_one_exits_1(tmp_path, capsys, dims):
    path = tmp_path / "bad.mtx"
    path.write_text(f"%%MatrixMarket matrix array real general\n{dims}\n" + "1.0\n" * 6)
    assert cli_main(["svd", "--in", str(path)]) == 1
    assert "bad dimensions line" in capsys.readouterr().err


# A 2-by-2 file that is wrong in its header, its entry count, an entry's spelling or an
# entry's value.
BAD_FILES = {
    "coordinate_header": "%%MatrixMarket matrix coordinate real general\n2 2\n1.0\n2.0\n3.0\n4.0\n",
    "short_body": "%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n",
    "non_numeric_entry": "%%MatrixMarket matrix array real general\n2 2\n1.0\nabc\n3.0\n4.0\n",
    "nan_entry": "%%MatrixMarket matrix array real general\n2 2\n1.0\nnan\n3.0\n4.0\n",
}


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_svd_of_a_bad_matrix_file_is_a_matrix_input_error_and_exits_1(tmp_path, capsys, name):
    path = tmp_path / "bad.mtx"
    path.write_text(BAD_FILES[name])
    with pytest.raises(MatrixInputError):  # what the svd command calls
        singular_values(read_matrix(path))
    assert cli_main(["svd", "--in", str(path)]) == 1
    _error_line(capsys)


@pytest.mark.parametrize("where", ["header", "body"])
def test_svd_of_a_file_that_is_not_utf8_exits_1(tmp_path, capsys, where):
    header, body = b"%%MatrixMarket matrix array real general\n", b"1 1\n2.0\n"
    path = tmp_path / "latin1.mtx"
    path.write_bytes(header.replace(b"\n", b"\xff\n") + body if where == "header"
                     else header + body.replace(b"2.0", b"2.0\xff"))
    assert cli_main(["svd", "--in", str(path)]) == 1
    assert "not a UTF-8 text file" in _error_line(capsys)


@pytest.mark.parametrize("command, flag", [("experiment", "--config"), ("cluster", "--spec")])
def test_a_config_or_spec_file_that_is_not_utf8_exits_2(tmp_path, capsys, command, flag):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# caf\xe9\nkind = deim_check\n")
    with pytest.raises(ConfigError, match="not a UTF-8 text file"):
        cli._key_values(path, flag[2:])
    assert cli_main([command, flag, str(path)]) == 2
    assert f"field '{flag[2:]}': not a UTF-8 text file" in _error_line(capsys)


def test_a_directory_as_input_exits_1(tmp_path, capsys):
    assert cli_main(["svd", "--in", str(tmp_path)]) == 1
    _error_line(capsys)


@pytest.mark.parametrize("command", [["cur", "--d1", "2", "--d2", "2"], ["deim", "--k", "1"]])
def test_a_matrix_whose_kept_singular_value_is_subnormal_exits_1(tmp_path, capsys, command):
    path = tmp_path / "tiny.mtx"
    write_matrix(np.diag([1e-310, 5e-324]), path)
    assert cli_main([command[0], "--in", str(path), *command[1:]]) == 1
    assert "subnormal" in _error_line(capsys)


def test_an_exception_outside_errors_py_is_a_bug_and_propagates(matrix_file, monkeypatch):
    def broken(path):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "read_matrix", broken)
    with pytest.raises(KeyError, match="bug"):
        cli_main(["svd", "--in", str(matrix_file)])


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


@pytest.fixture
def rank_2_file(tmp_path, rng):
    path = tmp_path / "rank2.mtx"
    write_matrix(lowrank_gaussian(4, 3, 2, rng), path)
    return path


LEVERAGE_CUR = ["cur", "--scheme", "leverage", "--d1", "4", "--d2", "4"]


@pytest.mark.parametrize("command", [["deim", "--k", "5"], [*LEVERAGE_CUR, "--k", "7"]])
def test_rank_above_the_smaller_size_exits_2(rank_2_file, capsys, command):
    assert cli_main([*command, "--in", str(rank_2_file)]) == 2
    assert "need 1 <= k <= 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["deim", "--k", "3"], [*LEVERAGE_CUR, "--k", "3"]])
def test_rank_above_the_numerical_rank_exits_1(rank_2_file, capsys, command):
    assert cli_main([*command, "--in", str(rank_2_file)]) == 1
    assert "exceeds numerical rank 2" in capsys.readouterr().err


FILE_COMMANDS = {
    "svd": [],
    "cur": ["--scheme", "length", "--d1", "8", "--d2", "8"],
    "deim": ["--k", "3"],
}


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_file_command_bad_tol_exits_2(matrix_file, capsys, command, tol):
    assert cli_main([command, "--in", str(matrix_file), *FILE_COMMANDS[command],
                     "--tol", tol]) == 2
    assert "tol must be finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["experiment", "--kind", "deim_check", "--m", "12", "--n", "10", "--k", "2", "--trials", "2",
      "--seed", "-1"], "field 'master_seed'"),
    (["cluster", "--ambient", "12", "--dims", "2,2", "--points", "6,6", "--trials", "2",
      "--seed", "-3"], "field 'master_seed'"),
    (["cluster", "--spec", "{spec}", "--trials", "2"], "field 'master_seed'"),
    (["cur", "--in", "{matrix}", *FILE_COMMANDS["cur"], "--seed", "-1"], "seed must be >= 0"),
], ids=["experiment", "cluster", "cluster-spec", "cur"])
def test_negative_seed_exits_2(tmp_path, matrix_file, capsys, argv, message):
    spec = tmp_path / "model.txt"
    spec.write_text("ambient_dim = 12\ndims = 2,2\npoints = 6,6\nseed = -3\n")
    assert cli_main([arg.format(spec=spec, matrix=matrix_file) for arg in argv]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_file_command_zero_tol_runs(matrix_file, capsys, command):
    assert cli_main([command, "--in", str(matrix_file), *FILE_COMMANDS[command],
                     "--tol", "0"]) == 0


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


@pytest.mark.parametrize("kind", [["--kind", "deim_check"],
                                  ["--kind", "success_prob", "--scheme", "leverage", "--d", "4"]],
                         ids=["deim", "leverage"])
def test_experiment_kappa_past_the_rank_cutoff_exits_2(capsys, kind):
    # 8e14 * 6 * eps >= 1 puts sigma_k at or below the cutoff max(m, n) * eps * sigma_1;
    # a tol of 1e-15 keeps both kappas within kappa * tol <= 1
    args = ["experiment", *kind, "--m", "6", "--n", "5", "--k", "3", "--trials", "3",
            "--tol", "1e-15"]
    assert cli_main([*args, "--kappa", "8e14"]) == 2
    assert "kappa" in capsys.readouterr().err
    assert cli_main([*args, "--kappa", "7e14"]) == 0
    assert "trials=3" in capsys.readouterr().out


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


@pytest.mark.parametrize("dims, points, field", [("2,,1", "6,6", "dims"),
                                                  ("2,1", "6,6,", "points")])
def test_cluster_list_flag_with_an_empty_item_exits_2(capsys, dims, points, field):
    assert cli_main(["cluster", "--ambient", "12", "--dims", dims, "--points", points,
                     "--trials", "2"]) == 2
    assert f"field '{field}'" in capsys.readouterr().err


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


@pytest.mark.parametrize("command, text, where", [
    ("--config", "kind = success_prob\nm = 50\nn = 40\nk = 2\nd_grid = 4\nm = 30\n",
     "line 6: field 'm'"),
    ("--spec", "ambient_dim = 12\ndims = 2,2\npoints = 6,6\nambient_dim = 16\n",
     "line 4: field 'ambient_dim'"),
], ids=["config", "spec"])
def test_key_repeated_in_a_file_exits_2(tmp_path, capsys, command, text, where):
    path = tmp_path / "twice.txt"
    path.write_text(text)
    name = "experiment" if command == "--config" else "cluster"
    assert cli_main([name, command, str(path), "--trials", "2"]) == 2
    assert f"{where}: given twice" in capsys.readouterr().err


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


@pytest.mark.parametrize("side", ["m", "n"])
def test_experiment_empty_matrix_side_exits_2_naming_it(capsys, side):
    sizes = {"m": "8", "n": "8", side: "0"}
    assert cli_main(["experiment", "--kind", "success_prob", "--m", sizes["m"], "--n", sizes["n"],
                     "--k", "2", "--d", "4", "--trials", "2"]) == 2
    assert f"field '{side}'" in capsys.readouterr().err


def test_cluster_rejects_removed_d_max_flag(capsys):
    assert cli_main(["cluster", "--ambient", "10", "--dims", "1,2", "--points", "4,5",
                     "--d-max", "2", "--trials", "3"]) == 2


def test_cluster_inline(capsys):
    assert cli_main(["cluster", "--ambient", "10", "--dims", "1,2", "--points", "4,5",
                     "--trials", "3", "--seed", "2"]) == 0
    assert "success_rate" in capsys.readouterr().out


@pytest.mark.parametrize("count", [9, 12])
def test_cluster_subspace_limit(tmp_path, capsys, count):
    # any number of subspaces runs, and every exact CUR recovers the partition
    out = tmp_path / "limit.csv"
    assert cli_main(["cluster", "--ambient", "12", "--dims", ",".join(["1"] * count),
                     "--points", ",".join(["3"] * count), "--trials", "2",
                     "--out", str(out)]) == 0
    summary = dict(part.split("=") for part in out.read_text().splitlines()[-1][2:].split(" "))
    assert int(summary["exact_curs"]) > 0
    assert summary["exact_and_perfect"] == summary["exact_curs"]


@pytest.mark.parametrize("ambient, dims, points", [
    ("4", "2,2", "2,2"), ("6", "3", "3"), ("12", "2,3", "2,9"),
])
def test_cluster_rejects_a_basis_of_points(capsys, ambient, dims, points):
    # d >= 2 points of a d-dim subspace are a basis, so its cluster is not identifiable
    assert cli_main(["cluster", "--ambient", ambient, "--dims", dims, "--points", points,
                     "--trials", "2"]) == 2
    assert "needs d + 1 points" in capsys.readouterr().err


def test_cluster_rejects_dedup_flag(capsys):
    # the clustering trial always drops repeated indices
    assert cli_main(["cluster", "--ambient", "10", "--dims", "1,2", "--points", "4,5",
                     "--dedup", "--trials", "2"]) == 2


def test_clustering_config_rejects_dedup(tmp_path, capsys):
    config = tmp_path / "cluster.cfg"
    config.write_text("kind = clustering\nm = 10\ndims = 1,2\npoints = 4,5\ntrials = 2\n"
                      "dedup = 1\n")
    assert cli_main(["experiment", "--config", str(config)]) == 2
    assert "field 'dedup'" in capsys.readouterr().err


EXPERIMENT = ["experiment", "--kind", "success_prob", "--m", "20", "--n", "16", "--k", "3",
              "--scheme", "length", "--d", "8", "--trials", "6", "--seed", "9"]


def _alone(argv):
    """``(exit code, stdout)`` of ``argv`` in a fresh interpreter, whose parser no other call used."""
    src = os.path.dirname(os.path.dirname(curlowrank.__file__))
    done = subprocess.run([sys.executable, "-c", "from curlowrank.cli import main; main()", *argv],
                          capture_output=True, text=True, check=False,
                          env={**os.environ, "PYTHONPATH": src})
    return done.returncode, done.stdout


def test_flags_of_one_call_do_not_reach_the_next(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    plain = [*EXPERIMENT, "--out", str(out)]
    assert _alone(plain)[0] == 0
    want = out.read_bytes()
    assert cli_main([*plain, "--dedup", "--sparsity", "0.5"]) == 0
    assert out.read_bytes() != want
    assert cli_main(plain) == 0
    assert out.read_bytes() == want


def test_a_usage_error_leaves_the_next_call_intact(capsys):
    code, want = _alone(EXPERIMENT)
    assert code == 0 and "success_rate" in want
    assert cli_main([*EXPERIMENT, "--dedup", "--trials", "many"]) == 2
    assert "invalid int value" in capsys.readouterr().err
    assert cli_main(EXPERIMENT) == 0
    assert capsys.readouterr().out == want
