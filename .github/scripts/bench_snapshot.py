"""Write a benchmark snapshot, ``BENCH_<n>.json``, from repeated runs of ``perfbench/run.py``.

    python .github/scripts/bench_snapshot.py 1 [--out PATH]

Runs the benchmark command of ``BENCHMARK.json`` in this checkout once per
seed of :data:`SEEDS` for each workload, ``run_seconds`` each, so that every
snapshot is taken at the same seeds, which it records.  The file holds, per
workload, the median and interquartile range of each end-to-end metric,
every run's values, and the manifest line that perfbench printed (its first
run's).  It also holds the checkout's git commit, and whether tracked files
differed from it.  Exits 1 without a file when a run fails or reports
``"correct": false``.  Three 20 s runs of each of four workloads take about
five minutes.

It also runs each table and clustering config of ``perfbench/workloads.py``
once per seed in this process, with BLAS pinned to one thread as perfbench
pins it, and records the harness's stage timer: for each config the median
over the seeds of each stage's milliseconds per trial, its ``emit`` (the
writing of each chunk's rows, here to the null device) and ``reduce`` steps
included, where a trial is one that entered the first stage.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEEDS = (9001, 9002, 9003)


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _run(command, workload, seed, seconds) -> tuple:
    """``(manifest, {metric: value})`` of one benchmark run."""
    out = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    manifest = json.loads(next(l for l in lines if l.startswith("manifest "))[len("manifest "):])
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: the benchmark reports incorrect output")
    return manifest, {name: m["value"] for name, m in result["metrics"].items()}


def _stage_times(workloads) -> dict:
    """``{workload: {config label: {stage: median ms per trial}}}`` for the table and
    clustering configs of each workload, each run once untimed and then once per seed."""
    from curlowrank.harness import ExperimentConfig, _run_trials
    from perfbench.workloads import WORKLOADS, ClusterCall, TableCall

    def config(call, seed):
        if isinstance(call, TableCall):
            return ExperimentConfig(master_seed=seed, **call.config)
        return ExperimentConfig(kind="clustering", m=call.ambient, dims=call.dims,
                                points=call.points, scheme="length", trials=call.trials,
                                master_seed=seed)

    def per_trial(cfg):
        clock, grid = {}, cfg.resolved_d_grid()
        with open(os.devnull, "w") as out:
            for gi, d in enumerate(grid):
                _run_trials(cfg, d, range(gi * cfg.trials, (gi + 1) * cfg.trials), clock, out)
        return {name: ns / 1e6 / (cfg.trials * len(grid)) for name, ns in clock.items()}

    times = {}
    for workload in workloads:
        calls = [c for c in WORKLOADS[workload]().calls if isinstance(c, (TableCall, ClusterCall))]
        for call in calls:
            per_trial(config(call, 0))  # lazy imports and first-call set-up
            runs = [per_trial(config(call, seed)) for seed in SEEDS]
            times.setdefault(workload, {})[call.label] = {
                name: statistics.median(run[name] for run in runs) for name in runs[0]}
    return times


def _spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("index", type=int, help="n of the BENCH_<n>.json to write")
    parser.add_argument("--out", default=None, help="output path (default: BENCH_<n>.json here)")
    args = parser.parse_args(argv)
    if args.index < 0:
        parser.error("index must be >= 0")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before this process imports numpy
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    seconds = bench["run_seconds"]
    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [_run(bench["command"], workload, seed, seconds) for seed in SEEDS]
        workloads[workload] = {
            "manifest": runs[0][0],
            "metrics": {m["name"]: {"unit": m["unit"], "better": m["better"],
                                    **_spread([values[m["name"]] for _, values in runs])}
                        for m in bench["end_to_end"]},
        }
        print(workload, {name: round(m["median"], 3)
                         for name, m in workloads[workload]["metrics"].items()}, file=sys.stderr)
    snapshot = {
        "git_commit": _git("rev-parse", "HEAD"),
        "tracked_files_modified": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "command": bench["command"],
        "seconds_per_run": seconds,
        "seeds": list(SEEDS),
        "workloads": workloads,
        "stage_ms_per_trial": _stage_times(workloads),
    }
    path = args.out or os.path.join(ROOT, f"BENCH_{args.index}.json")
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
