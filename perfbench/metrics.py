"""Names, units and predictions of the benchmark's metrics, and the per-layer computation.

Each per-layer metric names the end-to-end metric and workload it should
move, written down before any optimisation is measured against it.
"""

from __future__ import annotations

from .tracer import LAYERS

END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("call_ms_p50", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

_FILE = "ops_per_s on file-cli"
_LAYER_MOVES = {
    "cli": "call_ms_p50 on tables-small",
    "harness": "ops_per_s on tables-small",
    "cluster": "ops_per_s on cluster-mid",
    "deim": "ops_per_s on tables-large",
    "cur": "ops_per_s on tables-large",
    "sampling": "ops_per_s on tables-small",
    "linalg": "ops_per_s on tables-large",
    "mmio": _FILE,
}
_SVD = "ops_per_s on tables-large; no change predicted on tables-small"
_OVERHEAD = "ops_per_s and call_ms_p50 on tables-small; no change predicted on tables-large"
INCLUSIVE = {
    "linalg.compact_svd": "ops_per_s on tables-large",
    "linalg.pseudoinverse": "ops_per_s on tables-large",
    "sampling.leverage_dist": "ops_per_s on tables-large",
    "cur.approx_error": "ops_per_s on tables-large",
    "deim.deim_cur": "ops_per_s on tables-large",
    "harness.lowrank_gaussian": "ops_per_s on tables-large",
    "sampling.length_dist": "ops_per_s on tables-small",
    "sampling.noisy_stability_floor": "ops_per_s on tables-small",
    "harness.spectral_noise": "ops_per_s on tables-small",
    "cur.verify_characterization": "ops_per_s on cluster-mid",
    "cluster.clustering_matrix": "ops_per_s on cluster-mid",
    "cluster.labels_from_clustering_matrix": "ops_per_s on cluster-mid",
    "cluster.clustering_accuracy": "ops_per_s on cluster-mid",
    "cluster.generate_union_of_subspaces": "ops_per_s on cluster-mid",
    "harness.emit_csv": "ops_per_s on tables-small, tables-large and cluster-mid",
    "mmio.read_matrix": _FILE,
}

# (name, unit, better, end-to-end metric and workload it should move)
PER_LAYER = (
    *((f"{layer}.self_ms_per_op", "ms/op", "lower", moves) for layer, moves in _LAYER_MOVES.items()),
    *((f"{layer}.calls_per_op", "calls/op", "lower", moves) for layer, moves in _LAYER_MOVES.items()),
    ("linalg.svd_calls_per_op", "calls/op", "lower", _SVD),
    ("linalg.svd_gflop_per_op", "GFLOP/op", "lower", _SVD + " (computed from shapes)"),
    ("linalg.as_matrix.calls_per_op", "calls/op", "lower", _OVERHEAD),
    ("harness.trial_generator.ms_per_op", "ms/op", "lower", _OVERHEAD),
    ("sampling.draw_with_replacement.ms_per_op", "ms/op", "lower", _OVERHEAD),
    *((f"{fn}.ms_per_op", "ms/op", "lower", moves) for fn, moves in INCLUSIVE.items()),
    ("mmio.read_matrix.mb_per_s", "MB/s", "higher", _FILE),
    ("sampling.unique_draw_frac", "frac", "higher",
     "useful work: unique drawn indices over drawn indices, all sampling workloads"),
    ("cur.exact_frac", "frac", "higher",
     "useful work: exact trials over trials; a speed-up must leave it unchanged"),
    ("harness.completed_frac", "frac", "higher",
     "ops_per_s on tables-small and tables-large: skipped noise trials waste generation work"),
    ("trace_overhead_frac", "frac", "lower", "none: the tracer's own cost on each workload"),
)


def layer_metrics(tracer, ops, outcomes, traced_ns, untraced_ns):
    """Every PER_LAYER value for one traced replay of ``ops`` operations.

    A layer or function the workload never calls reads 0.
    """
    layer_self, layer_calls, fn_total, fn_calls = tracer.aggregate()
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_ms_per_op"] = layer_self[layer] / 1e6 / ops
        values[f"{layer}.calls_per_op"] = layer_calls[layer] / ops
    values["linalg.svd_calls_per_op"] = tracer.svd_calls / ops
    values["linalg.svd_gflop_per_op"] = tracer.svd_flops / 1e9 / ops
    values["linalg.as_matrix.calls_per_op"] = fn_calls.get("linalg.as_matrix", 0) / ops
    for fn in ("harness.trial_generator", "sampling.draw_with_replacement", *INCLUSIVE):
        values[f"{fn}.ms_per_op"] = fn_total.get(fn, 0) / 1e6 / ops
    read_ns = fn_total.get("mmio.read_matrix", 0)
    values["mmio.read_matrix.mb_per_s"] = tracer.read_bytes / 1e6 / (read_ns / 1e9) if read_ns else 0.0
    values["sampling.unique_draw_frac"] = tracer.unique_draws / tracer.draws if tracer.draws else 0.0
    exact_trials = sum(o.exact_trials for o in outcomes)
    values["cur.exact_frac"] = sum(o.exact for o in outcomes) / exact_trials if exact_trials else 0.0
    trials = sum(o.trials for o in outcomes)
    values["harness.completed_frac"] = sum(o.completed for o in outcomes) / trials if trials else 0.0
    values["trace_overhead_frac"] = traced_ns / untraced_ns - 1.0
    return values
