"""Tests of the benchmark itself: tiny smoke runs, the output checks, the tracer's clean-up.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _p in (str(ROOT / "src"), str(ROOT)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import curlowrank  # noqa: E402
import curlowrank.cli as cli  # noqa: E402
from perfbench import bench, metrics  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _run(tmp_path, name, trace):
    return bench.run(cli, name, seed=3, seconds=0, trace=trace, root=str(tmp_path),
                     started=time.perf_counter(), tiny=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_runs_clean(tmp_path, capsys, name, trace):
    result = _run(tmp_path, name, trace)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["attempted"] >= len(WORKLOADS[name](True).calls)
    wanted = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(result["metrics"]) == {m[0] for m in wanted}
    assert all(np.isfinite(v) for v in result["metrics"].values())
    bench.report(result)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m[0] for m in wanted}


def _flip_first_success_flag(path):
    lines = Path(path).read_text().splitlines()
    fields = lines[1].split(",")
    fields[4] = "0" if fields[4] == "1" else "1"
    lines[1] = ",".join(fields)
    Path(path).write_text("\n".join(lines) + "\n")


def test_flipped_success_flag_counts_as_failed_call(tmp_path, monkeypatch):
    real = cli.cli_main

    def corrupting(argv):
        code = real(argv)
        _flip_first_success_flag(argv[argv.index("--out") + 1])
        return code

    monkeypatch.setattr(cli, "cli_main", corrupting)
    result = _run(tmp_path, "tables-small", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert any("success" in e for e in result["errors"])


def test_failed_run_level_check_counts_in_error_rate(tmp_path, monkeypatch, capsys):
    real = bench.rotation_digest
    monkeypatch.setattr(bench, "DEFAULT_SEED", 3)  # check the tiny run against the golden digest
    monkeypatch.setattr(bench, "rotation_digest", lambda *a: "0" * len(real(*a)))
    result = bench.run(cli, "tables-small", seed=3, seconds=0, trace=0, root=str(tmp_path),
                       started=time.perf_counter())
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] > 1
    assert any("flag digest" in e for e in result["errors"])
    bench.report(result)
    assert "error_rate 0.0 " not in capsys.readouterr().out


def test_reference_speed_scales_each_rotation_by_its_median_reference():
    unit = bench.REF_MS * 1e6
    refs = [unit, 3 * unit, unit / 2, unit / 2]  # rotation medians: 2 units, then half a unit
    assert bench.at_reference_speed([10, 20, 30, 40], refs, 2) == pytest.approx([5, 10, 60, 80])
    assert bench.call_ms_p50([1e6, 4e6, 3e6, 12e6], 2) == pytest.approx(4.0)  # gmean(2, 8)


def test_tracer_restores_every_patched_attribute():
    originals = {
        (curlowrank.cur, "randomized_cur"): curlowrank.cur.randomized_cur,
        (curlowrank.harness, "randomized_cur"): curlowrank.harness.randomized_cur,
        (curlowrank.mmio, "as_matrix"): curlowrank.mmio.as_matrix,
        (curlowrank, "compact_svd"): curlowrank.compact_svd,
        (np.linalg, "svd"): np.linalg.svd,
    }
    tracer = Tracer()
    tracer.install()
    try:
        patched = {(h, a) for h, a, _, _ in tracer.patched}
        assert set(originals) <= patched
        for (holder, attr), original in originals.items():
            assert getattr(holder, attr) is not original
        assert not tracer.restored()
    finally:
        tracer.uninstall()
    assert tracer.restored()
    for holder, attr, original, _ in tracer.patched:
        assert getattr(holder, attr) is original
    for (holder, attr), original in originals.items():
        assert getattr(holder, attr) is original


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in doc["workloads"]]
    assert listed == [name for name in WORKLOADS if name in listed]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [m[:3] for m in metrics.PER_LAYER]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables-small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
