"""Run one workload of the curlowrank benchmark from the root of a checkout.

    python3 perfbench/run.py --workload tables-small --seed 0 --seconds 10 --trace 0

Workloads: tables-small, tables-large, cluster-mid and file-cli.  The
program is imported from ``src/`` of the same checkout; the BLAS thread
count is pinned to 1 in this process before numpy is imported.  Exits 2
without a result when the program cannot be imported.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="curlowrank benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        import curlowrank.cli as cli
    except ImportError as exc:
        print(f"error: cannot import curlowrank from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: curlowrank was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    from perfbench.bench import report, run

    result = run(cli, args.workload, args.seed, args.seconds, args.trace, ROOT, STARTED)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
