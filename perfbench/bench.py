"""Closed-loop driver: set up a workload, time its CLI calls, check them, optionally trace.

One process, one client: each ``cli_main`` call starts only after the
previous one has finished and been checked.  The timed loop always runs
whole rotations of the workload's calls, so every run has the same mix of
configs.

* ``setup_s`` is the import time of the benchmark process plus the median
  of ``SETUP_REPS`` repetitions of the per-run set-up (write the inputs, one
  untimed warm-up call per config).
* Host speed.  On a shared machine the speed of Python code and of small
  numpy calls drifts by a fifth or more within seconds, and differently
  from one run to the next; large BLAS calls hardly move.  So a fixed
  reference kernel (``reference_ns``, small numpy SVDs that share no code
  with the program) is timed after every call, and on workloads whose calls
  are dominated by that kind of work (``Workload.speed_corrected``) each
  call's wall time is scaled by ``REF_MS`` over the median reference time
  of its rotation: the time the call would take on a host that runs the
  reference in ``REF_MS``.  On ``tables-large`` the scaling added more
  spread than it removed, so its times are wall times.  The uncorrected
  figures and the reference time are printed for every workload.
* ``ops_per_s`` is the operations of the timed loop over the summed
  (corrected) time of its calls; an operation is a Monte Carlo trial, or one
  command in ``file-cli``.  Checking between calls is not timed.
* ``call_ms_p50`` is the geometric mean of the per-config median
  (corrected) call times, so a change to any one config moves it.  The
  plain median of all calls would sit on the edge between two configs'
  clusters and jump with single calls.
* With tracing on, the same calls (same seeds) run again under the tracer
  after the untraced loop, without the reference kernel, and their flag
  digests must match.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .tracer import Tracer
from .workloads import WORKLOADS, Outcome, call_seed

DEFAULT_SEED = 0
SETUP_REPS = 3
# The reference kernel's median on the 2-vCPU Xeon VM the benchmark was tuned
# on; it only fixes the unit of the corrected times.
REF_MS = 1.5
_REF_MATRIX = np.random.default_rng(0).standard_normal((40, 30))
WORK_DIR = ".perfbench_work"
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


@dataclass
class Tally:
    """Attempted and failed calls, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def add(self, where, outcome):
        self.attempted += 1
        if outcome.errors:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{where}: {'; '.join(outcome.errors[:3])}")

    def fail(self, message):
        """Count a failed run-level check (golden digest, tracer safety) as a failed call."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)


def execute(cli, call, work, seed):
    """Run one call in-process; return its wall time in ns and the checked outcome."""
    out, err = io.StringIO(), io.StringIO()
    argv = call.argv(work, seed)
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = cli.cli_main(argv)
        except Exception as exc:  # noqa: BLE001 - a raising call is a failed call
            code = repr(exc)
        ns = time.perf_counter_ns() - start
    if code != 0:
        return ns, Outcome([f"exit {code}: {err.getvalue().strip()[-300:]}"])
    try:
        return ns, call.check(work, out.getvalue())
    except (OSError, ValueError, KeyError) as exc:
        return ns, Outcome([f"unreadable output: {exc!r}"])


def reference_ns():
    """Wall time of the reference kernel, which reads the host's current speed."""
    start = time.perf_counter_ns()
    for _ in range(6):
        np.linalg.svd(_REF_MATRIX)
        _REF_MATRIX.sum(axis=0)
    return time.perf_counter_ns() - start


def at_reference_speed(times, refs, n_calls):
    """Scale each call's time by REF_MS over the median reference time of its rotation."""
    out = []
    for start in range(0, len(times), n_calls):
        scale = REF_MS * 1e6 / statistics.median(refs[start:start + n_calls])
        out += [t * scale for t in times[start:start + n_calls]]
    return out


def call_ms_p50(times, n_calls):
    """Geometric mean of the per-config median call times, in ms."""
    medians = [statistics.median(times[i::n_calls]) / 1e6 for i in range(n_calls)]
    return statistics.geometric_mean(medians)


def timed_loop(cli, wl, work, seed, tally, seconds=None, count=None, tracer=None):
    """Whole rotations of the workload's calls until ``seconds`` pass or ``count`` calls ran.

    Untraced, the reference kernel is timed after every call; the tracer
    would count its SVDs, so traced loops leave it out.
    """
    times, outcomes, refs = [], [], []
    start = time.perf_counter()
    while True:
        for call in wl.calls:
            index = len(times)
            if tracer is not None:
                tracer.call_id = index
            ns, outcome = execute(cli, call, work, call_seed(seed, "timed", index))
            tally.add(f"{call.label}#{index}", outcome)
            times.append(ns)
            outcomes.append(outcome)
            if tracer is None:
                refs.append(reference_ns())
        if count is not None and len(times) >= count:
            return times, outcomes, refs
        if count is None and time.perf_counter() - start >= seconds:
            return times, outcomes, refs


def rotation_digest(outcomes, n_calls):
    """sha256 of the flag fields of the first rotation of calls."""
    text = "\n\n".join(o.digest_text for o in outcomes[:n_calls])
    return hashlib.sha256(text.encode()).hexdigest()


def run(cli, name, seed, seconds, trace, root, started, tiny=False):
    """Run one workload; return a result dict with ``metrics``, the manifest and the checks."""
    wl = WORKLOADS[name](tiny)
    base = os.path.join(root, WORK_DIR)
    work = os.path.join(base, f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    tally = Tally()
    try:
        imports_s = time.perf_counter() - started
        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.write_inputs(work, seed)
            for i, call in enumerate(wl.calls):
                tally.add(f"warm-up {call.label}", execute(cli, call, work, call_seed(seed, "warmup", i))[1])
            reps.append(time.perf_counter() - t0)
        input_bytes = {f.name: os.path.getsize(os.path.join(work, f.name)) for f in wl.files}

        times, outcomes, refs = timed_loop(cli, wl, work, seed, tally, seconds=seconds)
        n_calls = len(wl.calls)
        corrected = at_reference_speed(times, refs, n_calls)
        gated = corrected if wl.speed_corrected else times
        ops = sum(wl.calls[i % len(wl.calls)].ops for i in range(len(times)))
        digest = rotation_digest(outcomes, len(wl.calls))
        golden = None
        if seed == DEFAULT_SEED and not tiny:
            with open(GOLDEN_PATH) as fh:
                golden = json.load(fh).get(name)
            if digest != golden:
                tally.fail(f"flag digest {digest} differs from the committed {golden}")

        result = {
            "workload": name,
            "seed": seed,
            "trace": trace,
            "calls": len(times),
            "ops": ops,
            "flag_digest": digest,
            "golden_checked": seed == DEFAULT_SEED and not tiny,
            "call_ms_tail": tail_percentile(times),
            "speed_corrected": wl.speed_corrected,
            "reference_ms_p50": statistics.median(refs) / 1e6,
            "wall": {"ops_per_s": ops / (sum(times) / 1e9), "call_ms_p50": call_ms_p50(times, n_calls)},
            "at_reference_speed": {"ops_per_s": ops / (sum(corrected) / 1e9),
                                   "call_ms_p50": call_ms_p50(corrected, n_calls)},
            "imports_s": imports_s,
            "setup_reps_s": reps,
            "call_ms": {call.label: [t / 1e6 for t in times[i::len(wl.calls)]]
                        for i, call in enumerate(wl.calls)},
            "manifest": manifest(root, wl, seed, tiny, input_bytes),
        }
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced_times, traced, _ = timed_loop(cli, wl, work, seed, tally,
                                                     count=len(times), tracer=tracer)
            finally:
                tracer.uninstall()
            if not tracer.restored():
                tally.fail("tracer left a patched attribute behind")
            if [o.digest_text for o in traced] != [o.digest_text for o in outcomes]:
                tally.fail("traced run's flag digest differs from the untraced run's")
            result["metrics"] = metrics.layer_metrics(tracer, ops, traced, sum(traced_times), sum(times))
            result["spans"] = len(tracer.names)
            tracer.write_spans(os.path.join(base, f"spans-{name}.tsv"))
        else:
            result["metrics"] = {
                "ops_per_s": ops / (sum(gated) / 1e9),
                "call_ms_p50": call_ms_p50(gated, n_calls),
                "setup_s": imports_s + statistics.median(reps),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        result["attempted"] = tally.attempted
        result["failed"] = tally.failed
        result["errors"] = tally.errors
        result["correct"] = tally.failed == 0
        with open(os.path.join(base, f"result-{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
            json.dump(result, fh, indent=1)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def tail_percentile(times):
    """Highest of p50/p75/p90/p99/p99.9 with at least ten samples above it (information only)."""
    n = len(times)
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            rank = min(n, math.ceil(p / 100.0 * n))
            return {"p": p, "ms": sorted(times)[rank - 1] / 1e6, "n": n}
    return {"p": None, "ms": None, "n": n}


# ---------------------------------------------------------------- environment manifest
def manifest(root, wl, seed, tiny, input_bytes):
    l3 = _l3_bytes()
    largest = wl.largest_array_bytes
    return {
        "git_commit": _git_commit(root),
        "workload_seed": seed,
        "tiny": tiny,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l3_bytes": l3,
        "largest_input_array_bytes_computed": largest,
        "largest_input_array_over_l3": largest / l3 if l3 else None,
        "input_file_bytes": input_bytes,
    }


def _git_commit(root):
    """HEAD of the checkout, or None outside a git repository (no search above ``root``)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas():
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version")}
    except (KeyError, TypeError, ValueError):
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _l3_bytes():
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


# ---------------------------------------------------------------- report
def report(result):
    """Print every metric by name with its unit, then the one-line JSON result last."""
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['calls']} calls, {result['ops']} ops")
    print("manifest " + json.dumps(result["manifest"], sort_keys=True))
    values = result["metrics"]
    if result["trace"]:
        table = [(name, unit, moves) for name, unit, _, moves in metrics.PER_LAYER]
    else:
        table = [(name, unit, "") for name, unit, _ in metrics.END_TO_END]
    for name, unit, note in table:
        extra = f"  [moves: {note}]" if note else ""
        print(f"{name} {values[name]!r} {unit}{extra}")
    if not result["trace"]:
        tail = result["call_ms_tail"]
        tail_text = (f"p{tail['p']:g} {tail['ms']!r} ms" if tail["p"] is not None
                     else "fewer than 20 calls, no percentile has 10 samples beyond it")
        print(f"call_ms samples {tail['n']}; {tail_text} of wall time (information only)")
        basis = "at reference speed" if result["speed_corrected"] else "wall time"
        print(f"gated ops_per_s and call_ms_p50 are {basis}; reference kernel p50 "
              f"{result['reference_ms_p50']!r} ms (REF_MS {REF_MS!r}); information only: "
              + "; ".join(f"{kind} {k} {v!r}" for kind in ("wall", "at_reference_speed")
                          for k, v in result[kind].items()))
    rate = result["failed"] / result["attempted"]
    print(f"error_rate {rate!r} ({result['failed']} of {result['attempted']} calls failed)")
    for error in result["errors"]:
        print(f"error: {error}")
    units = {name: unit for name, unit, *_ in (*metrics.END_TO_END, *metrics.PER_LAYER)}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name, *_ in table},
    }))
