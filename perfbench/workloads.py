"""Workloads of the curlowrank benchmark: the CLI calls they make and the checks on each output.

A workload is a fixed rotation of ``cli_main`` calls.  The benchmark writes
every input the program reads (config files, model specs, ``.mtx``
matrices) and passes each call its own ``--seed``, derived from the workload
seed and the call index, so the program sees only generated inputs.
``--timing`` stays off, so every CSV is a pure function of its inputs.

Every call is checked.  ``Outcome.digest_text`` keeps only the integer and
flag fields of the output (``trial,scheme,d1,d2,success``, the integer
summary fields, and the index/rank lines of file commands): the float
columns are left out because their last digits change with the BLAS build
and thread count.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

CSV_HEADER = "trial,scheme,d1,d2,success,rel_err_2,rel_err_F,ms"
TOL = 1e-8
# Summary fields that are integers or labels; the float summaries are left out of the digest.
DIGEST_FIELDS = ("kind", "scheme", "d1", "d2", "trials", "completed", "skipped",
                 "successes", "exact_curs", "exact_and_perfect", "first_trial")


def call_seed(workload_seed, stream, index) -> int:
    """Master seed of one call, a pure function of the workload seed and the call index."""
    digest = hashlib.sha256(f"{workload_seed}/{stream}/{index}".encode()).digest()
    return int.from_bytes(digest[:7], "big")


@dataclass
class Outcome:
    """Result of checking one call's output."""

    errors: list
    digest_text: str = ""
    trials: int = 0
    completed: int = 0
    exact: int = 0
    exact_trials: int = 0


# ---------------------------------------------------------------- experiment tables
def parse_table(text):
    """Split an ``emit_csv`` file into typed trial rows and summary groups (string values)."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or wrong CSV header")
    rows, groups = [], []
    in_summary = False
    for line in lines[1:]:
        if line == "# summary":
            in_summary = True
            continue
        if in_summary:
            if not line.startswith("# "):
                raise ValueError(f"bad summary line {line!r}")
            groups.append(dict(part.split("=", 1) for part in line[2:].split(" ")))
            continue
        trial, scheme, d1, d2, success, rel2, relf, ms = line.split(",")
        if success not in ("0", "1"):
            raise ValueError(f"bad success flag {success!r}")
        rows.append((int(trial), scheme, int(d1), int(d2), success == "1",
                     float(rel2), float(relf), float(ms)))
    if not in_summary:
        raise ValueError("missing summary block")
    return rows, groups


def _flag_digest(rows, groups):
    parts = [f"{r[0]},{r[1]},{r[2]},{r[3]},{int(r[4])}" for r in rows]
    for g in groups:
        parts.append(" ".join(f"{k}={g[k]}" for k in DIGEST_FIELDS if k in g))
    return "\n".join(parts)


@dataclass(frozen=True)
class TableCall:
    """One ``experiment`` call: a config file plus ``--seed`` and ``--out``."""

    label: str
    config: dict

    @property
    def kind(self):
        return self.config["kind"]

    @property
    def grid(self):
        if self.kind == "deim_check":
            return (self.config["k"],)
        return tuple(self.config["d_grid"])

    @property
    def ops(self):
        return self.config["trials"] * len(self.grid)

    @property
    def largest_array(self):
        return self.config["m"] * self.config["n"] * 8

    def write_inputs(self, work):
        lines = []
        for key, val in self.config.items():
            if isinstance(val, tuple):
                val = ",".join(str(v) for v in val)
            lines.append(f"{key} = {val}")
        with open(os.path.join(work, f"{self.label}.cfg"), "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def argv(self, work, seed):
        return ["experiment", "--config", os.path.join(work, f"{self.label}.cfg"),
                "--seed", str(seed), "--out", self.out_path(work)]

    def out_path(self, work):
        return os.path.join(work, f"{self.label}.csv")

    def check(self, work, stdout):
        with open(self.out_path(work)) as fh:
            rows, groups = parse_table(fh.read())
        cfg = self.config
        trials = cfg["trials"]
        scheme = "deim" if self.kind == "deim_check" else cfg["scheme"]
        errors = []
        if len(groups) != len(self.grid):
            errors.append(f"{len(groups)} summary groups for a grid of {len(self.grid)}")
        if len(stdout.splitlines()) != len(self.grid):
            errors.append("printed summary does not have one line per grid point")
        completed = 0
        successes = 0
        for gi, (group, d) in enumerate(zip(groups, self.grid)):
            first = int(group.get("first_trial", gi * trials))
            mine = [r for r in rows if first <= r[0] < first + trials]
            done = int(group.get("completed", trials))
            skipped = int(group.get("skipped", 0))
            if int(group["trials"]) != trials or done + skipped != trials:
                errors.append(f"group {gi}: completed {done} + skipped {skipped} != trials {trials}")
            if len(mine) != done:
                errors.append(f"group {gi}: {len(mine)} rows for {done} completed trials")
            if int(group["successes"]) != sum(r[4] for r in mine):
                errors.append(f"group {gi}: summary successes disagree with the rows")
            if int(group["d1"]) != d or int(group["d2"]) != d:
                errors.append(f"group {gi}: draw counts differ from the grid value {d}")
            completed += done
            successes += int(group["successes"])
        if len(rows) != completed:
            errors.append(f"{len(rows)} rows for {completed} completed trials")
        for r in rows:
            if r[1] != scheme or r[7] != 0.0:
                errors.append(f"trial {r[0]}: scheme {r[1]!r} or nonzero time column")
            if not (math.isfinite(r[5]) and math.isfinite(r[6])):
                errors.append(f"trial {r[0]}: non-finite error")
            # success is defined as rel_err_F <= tol only for these kinds: noise rows
            # carry the noisy-factor error, clustering success is perfect accuracy
            if self.kind in ("success_prob", "deim_check") and r[4] != (r[6] <= TOL):
                errors.append(f"trial {r[0]}: success flag disagrees with rel_err_F")
            if self.kind == "deim_check" and not r[4]:
                errors.append(f"trial {r[0]}: deterministic selection was not exact")
        return Outcome(errors, _flag_digest(rows, groups), trials=trials * len(self.grid),
                       completed=completed, exact=successes, exact_trials=completed)


@dataclass(frozen=True)
class ClusterCall:
    """One ``cluster`` call on a union-of-subspaces model spec, length scheme, default d."""

    label: str
    ambient: int
    dims: tuple
    points: tuple
    trials: int

    @property
    def ops(self):
        return self.trials

    @property
    def largest_array(self):
        n = sum(self.points)
        return max(self.ambient * n, n * n) * 8

    def write_inputs(self, work):
        with open(os.path.join(work, f"{self.label}.spec"), "w") as fh:
            fh.write(f"ambient_dim = {self.ambient}\n"
                     f"dims = {','.join(map(str, self.dims))}\n"
                     f"points = {','.join(map(str, self.points))}\n")

    def out_path(self, work):
        return os.path.join(work, f"{self.label}.csv")

    def argv(self, work, seed):
        return ["cluster", "--spec", os.path.join(work, f"{self.label}.spec"),
                "--scheme", "length", "--trials", str(self.trials),
                "--seed", str(seed), "--out", self.out_path(work)]

    def check(self, work, stdout):
        with open(self.out_path(work)) as fh:
            rows, groups = parse_table(fh.read())
        errors = []
        if len(groups) != 1:
            return Outcome([f"{len(groups)} summary groups, expected 1"])
        g = groups[0]
        if len(rows) != self.trials or int(g["trials"]) != self.trials:
            errors.append(f"{len(rows)} rows for {self.trials} trials")
        if [r[0] for r in rows] != list(range(len(rows))):
            errors.append("trial indices are not 0..trials-1")
        if int(g["successes"]) != sum(r[4] for r in rows):
            errors.append("summary successes disagree with the rows")
        if g["exact_and_perfect"] != g["exact_curs"]:
            errors.append("an exact CUR did not cluster perfectly")
        if any(r[1] != "length" or r[7] != 0.0 for r in rows):
            errors.append("wrong scheme or nonzero time column")
        return Outcome(errors, _flag_digest(rows, groups), trials=self.trials,
                       completed=len(rows), exact=int(g["exact_curs"]), exact_trials=self.trials)


# ---------------------------------------------------------------- file commands
def _fields(text):
    out = {}
    for line in text.splitlines():
        key, _, val = line.partition(": ")
        out[key] = val
    return out


@dataclass(frozen=True)
class MatrixFile:
    """A rank-``k`` ``m x n`` Gaussian-factor matrix written with ``mmio.write_matrix``."""

    name: str
    m: int
    n: int
    k: int

    def write(self, work, rng):
        from curlowrank.mmio import write_matrix

        a = rng.standard_normal((self.m, self.k)) @ rng.standard_normal((self.n, self.k)).T
        write_matrix(a, os.path.join(work, self.name))


@dataclass(frozen=True)
class FileCall:
    """One ``svd``/``cur``/``deim`` command on a matrix file, output to ``--out``."""

    label: str
    command: str
    matrix: MatrixFile
    scheme: str | None = None
    d: int = 0

    ops = 1

    @property
    def largest_array(self):
        return self.matrix.m * self.matrix.n * 8

    def write_inputs(self, work):
        pass  # the matrix files are written once per workload

    def out_path(self, work):
        return os.path.join(work, f"{self.label}.out")

    def argv(self, work, seed):
        args = [self.command, "--in", os.path.join(work, self.matrix.name),
                "--out", self.out_path(work), "--seed", str(seed)]
        if self.command == "cur":
            args += ["--scheme", self.scheme, "--d1", str(self.d), "--d2", str(self.d)]
        if self.command == "deim" or self.scheme == "leverage":
            args += ["--k", str(self.matrix.k)]
        return args

    def check(self, work, stdout):
        with open(self.out_path(work)) as fh:
            f = _fields(fh.read())
        mat = self.matrix
        errors = []
        if self.command == "svd":
            if f.get("shape") != f"{mat.m} {mat.n}" or f.get("numerical_rank") != str(mat.k):
                errors.append(f"svd reports {f.get('shape')!r} rank {f.get('numerical_rank')!r}")
            if len(f.get("singular_values", "").split()) != min(mat.m, mat.n):
                errors.append("svd does not list the full spectrum")
            return Outcome(errors, f"{f.get('shape')}\n{f.get('numerical_rank')}")
        rows = [int(t) for t in f.get("rows", "").split()]
        cols = [int(t) for t in f.get("cols", "").split()]
        want = self.d if self.command == "cur" else mat.k
        if len(rows) != want or len(cols) != want:
            errors.append(f"{len(rows)} rows and {len(cols)} cols, expected {want}")
        if any(not 0 <= i < mat.m for i in rows) or any(not 0 <= j < mat.n for j in cols):
            errors.append("index out of range")
        rel_f = float(f.get("rel_err_F", "nan"))
        if not math.isfinite(rel_f):
            errors.append("rel_err_F missing or not finite")
        if self.command == "deim" and not rel_f <= TOL:
            errors.append(f"deim rel_err_F {rel_f} > {TOL}")
        head = f"scheme={f.get('scheme', 'deim')}\n"
        return Outcome(errors, head + f"rows={f.get('rows')}\ncols={f.get('cols')}",
                       trials=1, completed=1, exact=int(rel_f <= TOL), exact_trials=1)


# ---------------------------------------------------------------- workloads
@dataclass(frozen=True)
class Workload:
    """A rotation of calls and the matrix files they read; why each exists is in BENCHMARK.json."""

    calls: tuple
    files: tuple = ()
    # Time calls at reference speed (see bench.py); off where large BLAS calls
    # dominate, since they do not drift with the reference kernel.
    speed_corrected: bool = True

    def write_inputs(self, work, seed):
        rng = np.random.default_rng([seed, 7])  # inputs use their own stream of the workload seed
        for f in self.files:
            f.write(work, rng)
        for call in self.calls:
            call.write_inputs(work)

    @property
    def largest_array_bytes(self):
        return max(call.largest_array for call in self.calls)


def _table(label, kind, m, n, k, trials, **extra):
    config = {"kind": kind, "m": m, "n": n, "k": k, "trials": trials, **extra}
    return TableCall(label, config)


def tables_small(tiny=False):
    m, n, k, t = (50, 40, 4, 2 if tiny else 20)
    return Workload((
        _table("len", "success_prob", m, n, k, t, scheme="length", d_grid=(8, 12, 16)),
        _table("unif-sparse", "success_prob", m, n, k, t, scheme="uniform",
               sparsity=0.5, d_grid=(16,)),
        _table("lev", "success_prob", m, n, k, t, scheme="leverage", d_grid=(16,)),
        _table("noise-len", "noise_stability", m, n, k, t, scheme="length",
               sigma=1e-3, d_grid=(16,)),
        _table("deim", "deim_check", m, n, k, t),
    ))


def tables_large(tiny=False):
    m, n, k, d = (60, 50, 5, 20) if tiny else (1000, 800, 10, 40)
    return Workload((
        _table("lev", "success_prob", m, n, k, 1, scheme="leverage", d_grid=(d,)),
        _table("len-kappa", "success_prob", m, n, k, 1, scheme="length",
               kappa=100.0, d_grid=(d,)),
        _table("deim", "deim_check", m, n, k, 1),
        _table("noise-lev", "noise_stability", m, n, k, 1, scheme="leverage",
               sigma=1e-3, d_grid=(d,)),
    ), speed_corrected=False)


def cluster_mid(tiny=False):
    if tiny:
        models = ((12, (2, 3), (8, 8)), (12, (2, 2, 3), (6, 6, 6)))
        trials = 2
    else:
        models = ((60, (2, 3, 4, 5, 6), (30,) * 5), (40, (2, 2, 3, 3, 4, 4, 5), (20,) * 7))
        trials = 5
    return Workload(tuple(
        ClusterCall(f"model{i}", amb, dims, pts, trials)
        for i, (amb, dims, pts) in enumerate(models)))


def file_cli(tiny=False):
    if tiny:
        files = (MatrixFile("a.mtx", 30, 20, 3), MatrixFile("b.mtx", 40, 30, 4))
    else:
        files = (MatrixFile("a.mtx", 300, 200, 12), MatrixFile("b.mtx", 600, 500, 10))
    calls = []
    for f in files:
        stem = f.name.split(".")[0]
        calls += [
            FileCall(f"{stem}-svd", "svd", f),
            FileCall(f"{stem}-cur-len", "cur", f, "length", 5 * f.k),
            FileCall(f"{stem}-cur-lev", "cur", f, "leverage", 5 * f.k),
            FileCall(f"{stem}-deim", "deim", f),
        ]
    return Workload(tuple(calls), files)


WORKLOADS = {
    "tables-small": tables_small,
    "tables-large": tables_large,
    "cluster-mid": cluster_mid,
    "file-cli": file_cli,
}
