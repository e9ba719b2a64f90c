"""Benchmark of the curlowrank package: trial throughput per workload, plus a per-module trace.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload tables-small --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replay of the same calls.  The last line of standard
output is the JSON result.  The benchmark's own tests::

    python3 -m pytest perfbench/tests
"""
