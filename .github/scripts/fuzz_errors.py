"""Fail when a bad input raises anything but a class of curlowrank.errors.

Four parts, each with a fixed seed or fixed cases, with every warning raised
as an error:

- 500 random experiment configs, given as the strings of a config file, go
  through ``config_from_mapping`` and, where they are valid, ``run_experiment``.
  Each is a valid config of one of the four kinds at sizes 1-40, with sigma
  from 0 to 1e300 and kappa up to 1e12, and half of them then get one bad or
  extreme field: sigma inf, nan or -1, kappa 1e15, bad seeds, draw counts
  and lists among them.  A config whose trial would hold more than the
  package's ceiling (``eps = 1e-3`` or ``d_grid = 10000000000``) must be a
  ConfigError when it is built; one of more than 200 draws under the ceiling
  is validated but not run.
- ``ExperimentConfig`` built from Python values of the wrong type for their
  field's annotation (floats for ints, bools for numbers, strings, lists,
  ints past the float range) must be a ConfigError naming that field.
- Draw counts no run can hold (1e13 draws and more) given to
  ``draw_with_replacement``, ``draw_indices`` and ``randomized_cur`` must be
  a DomainError, raised before anything is drawn.
- The ``svd``, ``cur`` and ``deim`` commands run on malformed and extreme
  ``.mtx`` files, files that are not UTF-8 among them, and the ``experiment``
  and ``cluster`` commands on config and spec files that are not UTF-8.  Each
  call must exit 0, or exit 1 or 2 with one ``error:`` line; a config or spec
  file that is not UTF-8 must exit 2.

Any other exception stops the run with its traceback.  Run from the
repository root, with the package installed or ``PYTHONPATH=src``:

    python .github/scripts/fuzz_errors.py
"""

import collections
import contextlib
import io
import random
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from curlowrank import errors
from curlowrank.cli import cli_main
from curlowrank.cur import randomized_cur
from curlowrank.harness import KINDS, ExperimentConfig, config_from_mapping, run_experiment
from curlowrank.sampling import SCHEMES, axis_dists, draw_indices, draw_with_replacement

SEED = 20260
CONFIGS = 500
TYPED = tuple(c for c in vars(errors).values() if isinstance(c, type))

# Values a valid config may hold: the extremes of sigma and kappa included.
SIGMAS = ["0", "1e-300", "1e-150", "1e-3", "1", "1e150", "1e300"]
KAPPAS = ["1", "1.5", "1e4", "1e8", "1e12"]
# Values that are bad for each field, or extreme past what a config admits.
BAD = {
    "kind": ["bogus", ""], "m": ["0", "-1", "x", "1e3"], "n": ["0", "-5", "2.5"],
    "k": ["0", "41", "-2"], "sigma": ["inf", "nan", "-1", "1e309"], "scheme": ["lev", ""],
    "d_grid": ["0", "-3", "", "2,,4", "3, 8,", "1, 40", "500", "10000000000"],
    "eps": ["0", "1", "1e-3", "nan"],
    "delta": ["1e-320", "1", "0"], "big_c": ["1e300", "-1", "0", "inf"],
    "trials": ["0", "-1", "1.5"], "master_seed": ["-1", "1.5", "seven", str(2**130)],
    "kappa": ["0.5", "1e15", "inf", "1e300"], "sparsity": ["1", "-0.1", "0.99"],
    "tol": ["0", "-1", "1", "1e-300", "nan"], "dedup": ["maybe"],
    "dims": ["0,1", "2,,1", "x", "41", "3"], "points": ["1", "2,1", "", "0"],
}


def random_config(rng):
    """The string fields of one config file: a valid config of a random kind at sizes 1-40 and
    extreme values, then, in half of them, one field set to a bad or extreme value."""
    kind = rng.choice(KINDS)
    fields = {"kind": kind, "trials": str(rng.randint(1, 3)),
              "master_seed": str(rng.choice([0, 7, 2**70]))}
    if kind == "clustering":
        dims = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        points = [d + rng.randint(1, 3) if d > 1 else rng.randint(1, 3) for d in dims]
        fields.update(m=str(rng.randint(sum(dims), 40)), dims=",".join(map(str, dims)),
                      points=",".join(map(str, points)), scheme=rng.choice(SCHEMES))
        if rng.random() < 0.5:
            fields["d_grid"] = str(rng.randint(1, 40))
    else:
        m, n = rng.randint(1, 40), rng.randint(1, 40)
        fields.update(m=str(m), n=str(n), k=str(rng.randint(1, min(m, n))))
        if rng.random() < 0.5:
            fields["kappa"] = rng.choice(KAPPAS)
        if rng.random() < 0.3:
            fields["tol"] = rng.choice(["1e-8", "1e-12", "1e-4"])
    if kind in ("success_prob", "noise_stability"):
        fields["scheme"] = rng.choice(SCHEMES)
        if rng.random() < 0.7:
            fields["d_grid"] = ", ".join(str(rng.randint(1, 40)) for _ in range(rng.randint(1, 3)))
        else:
            fields.update(eps=rng.choice(["0.9", "0.95"]), delta=rng.choice(["0.9", "0.99"]))
        fields["dedup"] = rng.choice(["yes", "no"])
        if rng.random() < 0.3:
            fields["sparsity"] = rng.choice(["0.3", "0.5"])
    if kind == "noise_stability":
        fields["sigma"] = rng.choice(SIGMAS)
    if rng.random() < 0.5:
        name = rng.choice(sorted(BAD))
        fields[name] = rng.choice(BAD[name])
    return fields


def fuzz_configs(outcomes):
    rng = random.Random(SEED)
    for _ in range(CONFIGS):
        mapping = random_config(rng)
        try:
            cfg = config_from_mapping(mapping)
            # a valid config of more than 200 draws is validated but not run, to keep the fuzz fast
            if max(cfg.resolved_d_grid()) > 200:
                outcomes["config: valid, over 200 draws, not run"] += 1
                continue
            run_experiment(cfg)
            outcomes["config: ran"] += 1
        except errors.ConfigError as exc:
            # eps = 1e-3 (1e13 draws or more) or d_grid = 1e10 is refused when it is built
            over = ", over the trial ceiling" if "would hold" in str(exc) else ""
            outcomes["config: ConfigError" + over] += 1
        except TYPED as exc:
            outcomes[f"config: {type(exc).__name__}"] += 1
        except BaseException:
            print(f"untyped exception for config {mapping!r}", file=sys.stderr)
            raise


# Python values of the wrong type for each field, set one at a time on a valid config.
WRONG_TYPES = {
    "kind": [None, 3], "m": [10.0, True, "8", None], "n": [6.5, np.float64(6.0)],
    "k": [2.0, False], "trials": [2.5, True, [2], np.True_], "master_seed": [1.5, False, "3"],
    "d_grid": [(3.5,), [4], (4, True), 4, ("4",)], "sigma": [True, "0.5", 10**400, 1j],
    "eps": [np.inf], "big_c": [-(10**400)], "kappa": ["10"], "sparsity": [None],
    "tol": [float("nan")], "dedup": ["no", 1, None, np.True_], "out_path": [5],
    "dims": [(2, 2.0), [2, 2], "2,2"], "points": [(6, True), (6, 6.5)],
}


def fuzz_types(outcomes):
    bases = {"success_prob": dict(kind="success_prob", m=8, n=6, k=2, d_grid=(4,)),
             "clustering": dict(kind="clustering", m=12, dims=(2, 2), points=(6, 6))}
    for name, values in WRONG_TYPES.items():
        base = bases["clustering" if name in ("dims", "points") else "success_prob"]
        for value in values:
            try:
                ExperimentConfig(**{**base, name: value})
            except errors.ConfigError as exc:
                if exc.field != name:
                    raise SystemExit(f"{name}={value!r}: the ConfigError names {exc.field!r}")
                outcomes["type: ConfigError"] += 1
                continue
            except BaseException:
                print(f"untyped exception for {name}={value!r}", file=sys.stderr)
                raise
            raise SystemExit(f"{name}={value!r} of the wrong type was accepted")


def fuzz_draws(outcomes):
    a = np.arange(1.0, 601.0).reshape(30, 20)
    rows, cols = axis_dists(a, "length")
    for d in (10**13, 2**62, 10**30):
        for draw in (lambda g: draw_with_replacement(rows, d, g),
                     lambda g: draw_indices(rows, cols, 3, d, g),
                     lambda g: draw_indices(rows, cols, d, 3, g, dedup=True),
                     lambda g: randomized_cur(a, rows, cols, d, d, g, dedup=True)):
            try:
                draw(np.random.default_rng(0))
            except errors.DomainError:
                outcomes["draws: DomainError"] += 1
                continue
            except BaseException:
                print(f"untyped exception for {d} draws", file=sys.stderr)
                raise
            raise SystemExit(f"{d} draws were not refused")


HEADER = b"%%MatrixMarket matrix array real general\n"

# Each file's bytes; the commands below run on every one.
FILES = {
    "coordinate_header": b"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n",
    "complex_header": b"%%MatrixMarket matrix array complex general\n1 1\n1.0 0.0\n",
    "empty_file": b"",
    "header_only": HEADER,
    "short_body": HEADER + b"2 2\n1.0\n2.0\n3.0\n",
    "long_body": HEADER + b"1 1\n1.0\n2.0\n",
    "two_per_line": HEADER + b"2 1\n1.0 2.0\n",
    "non_numeric": HEADER + b"1 2\n1.0\nabc\n",
    "nan_entry": HEADER + b"1 2\n1.0\nnan\n",
    "inf_entry": HEADER + b"1 2\n1.0\n-inf\n",
    "zero_size": HEADER + b"0 2\n",
    "negative_size": HEADER + b"-1 -1\n",
    "fractional_size": HEADER + b"2.5 2\n1\n2\n3\n4\n5\n",
    "one_size": HEADER + b"2\n1.0\n2.0\n",
    "huge_size": HEADER + b"99999999999999999999 1\n1.0\n",
    "not_utf8_header": HEADER.replace(b"\n", b"\xff\n") + b"1 1\n1.0\n",
    "not_utf8_comment": HEADER + b"% caf\xe9\n1 1\n1.0\n",
    "not_utf8_entry": HEADER + b"1 2\n1.0\n2.0\xff\n",
    "not_utf8_far_entry": HEADER + b"3000 1\n" + b"1.5\n" * 2999 + b"\xfe\n",
    "binary": bytes(range(256)) * 4,
    "zero_matrix": HEADER + b"2 2\n0\n0\n0\n0\n",
    "one_by_one": HEADER + b"1 1\n3.0\n",
    "huge_entries": HEADER + b"2 2\n1e300\n-1e300\n1e300\n1e300\n",
    "tiny_entries": HEADER + b"2 2\n1e-310\n0\n0\n5e-324\n",
    "rank_one_3x3": HEADER + b"3 3\n1\n2\n3\n2\n4\n6\n3\n6\n9\n",
}

COMMANDS = [
    ["svd"],
    ["svd", "--tol", "0"],
    ["cur", "--d1", "2", "--d2", "2"],
    ["cur", "--scheme", "uniform", "--d1", "1", "--d2", "3", "--dedup"],
    ["cur", "--scheme", "leverage", "--k", "1", "--d1", "4", "--d2", "4"],
    ["cur", "--scheme", "leverage", "--k", "3", "--d1", "4", "--d2", "4", "--tol", "1e-3"],
    ["deim", "--k", "1"],
    ["deim", "--k", "2", "--tol", "0"],
]

# Config and spec files that are not UTF-8 text, and the commands that read them.
TEXT_FILES = [
    ("experiment", "--config", b"kind = deim_check\nm = 8\nn = 8\nk = 2\n# caf\xe9\n"),
    ("experiment", "--config", b"\xff\xfekind = success_prob\n"),
    ("cluster", "--spec", b"ambient_dim = 6\ndims = 1,1\npoints = 2,2 \xff\n"),
]


def run_command(argv, outcomes, label):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except BaseException:
        print(f"untyped exception for {label}: {argv!r}", file=sys.stderr)
        raise
    lines = err.getvalue().splitlines()
    if code not in (0, 1, 2) or (code and (len(lines) != 1 or not lines[0].startswith("error: "))):
        raise SystemExit(f"{label}: {argv!r} exited {code} with stderr {err.getvalue()!r}")
    outcomes[f"file: exit {code}"] += 1
    return code


def fuzz_files(outcomes, work):
    for name, data in FILES.items():
        path = work / f"{name}.mtx"
        path.write_bytes(data)
        for command in COMMANDS:
            run_command([command[0], "--in", str(path), *command[1:]], outcomes, name)
    run_command(["svd", "--in", str(work)], outcomes, "directory")
    for i, (command, flag, data) in enumerate(TEXT_FILES):
        path = work / f"text_{i}.txt"
        path.write_bytes(data)
        if run_command([command, flag, str(path)], outcomes, f"{flag[2:]} file") != 2:
            raise SystemExit(f"a {flag[2:]} file that is not UTF-8 did not exit 2")


def main():
    warnings.simplefilter("error")
    outcomes = collections.Counter()
    fuzz_configs(outcomes)
    fuzz_types(outcomes)
    fuzz_draws(outcomes)
    with tempfile.TemporaryDirectory() as work:
        fuzz_files(outcomes, Path(work))
    for key, count in sorted(outcomes.items()):
        print(f"{key}: {count}")
    print(f"no untyped exception in {sum(outcomes.values())} cases")


if __name__ == "__main__":
    main()
