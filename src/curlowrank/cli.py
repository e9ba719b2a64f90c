"""Command-line interface: factorizations, sample-size calculators, experiments.

Exit codes: 0 on success, 2 on usage/configuration errors, 1 on runtime
failures.  All matrix files use the Matrix Market "array real general"
format; experiment results land in CSV with a trailing ``# summary`` block.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .cur import approx_error, randomized_cur, relative_errors
from .deim import deim_cur
from .errors import ConfigError, DomainError
from .harness import (
    CONFIG_FIELDS,
    KINDS,
    config_from_mapping,
    emit_csv,
    read_key_values,
    run_experiment,
    trial_generator,
)
from .linalg import condition_of, frobenius_norm, rank_cutoff, singular_values, stable_rank_of
from .mmio import read_matrix
from .sampling import (
    SCHEMES,
    axis_dists,
    min_sample_size_rv,
    sample_size_length_via_lev,
    sample_size_leverage,
)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _common_flags(sub):
    sub.add_argument("--seed", type=int, default=0, help="master seed for any randomness")
    sub.add_argument("--tol", type=float, default=None,
                     help="rank cutoff override, finite and >= 0")
    sub.add_argument("--out", default=None, help="output file (default: stdout, or CSV path)")


def _cmd_svd(args):
    a = read_matrix(args.infile)
    s = singular_values(a)
    rank = rank_cutoff(s, a.shape, args.tol)[0]
    lines = [f"shape: {a.shape[0]} {a.shape[1]}", f"numerical_rank: {rank}"]
    if rank:
        sigmas = " ".join(format(sigma, ".17g") for sigma in s)
        lines += [f"singular_values: {sigmas}", f"stable_rank: {stable_rank_of(s):.17g}",
                  f"condition_number: {condition_of(s[:rank]):.17g}"]
    _emit(lines, args.out)
    return 0


def _cmd_cur(args):
    a = read_matrix(args.infile)
    rng = trial_generator(args.seed, 0)
    row_dist, col_dist = axis_dists(a, args.scheme, args.k)
    factors = randomized_cur(a, row_dist, col_dist, args.d1, args.d2, rng,
                             dedup=args.dedup, tol=args.tol)
    rel_2, rel_f = relative_errors(a, factors)
    _emit([
        f"scheme: {row_dist.scheme}/{col_dist.scheme}",
        "rows: " + " ".join(str(i) for i in factors.I),
        "cols: " + " ".join(str(j) for j in factors.J),
        f"rel_err_F: {rel_f:.17g}",
        f"rel_err_2: {rel_2:.17g}",
    ], args.out)
    return 0


def _cmd_deim(args):
    a = read_matrix(args.infile)
    factors = deim_cur(a, args.k, args.tol)
    rel_f = approx_error(a, factors) / frobenius_norm(a)
    _emit([
        "rows: " + " ".join(str(i) for i in factors.I),
        "cols: " + " ".join(str(j) for j in factors.J),
        f"rel_err_F: {rel_f:.17g}",
    ], args.out)
    return 0


def _cmd_sample_size(args):
    lines = [
        f"replacement_sampling_d: {min_sample_size_rv(args.r, args.eps, args.delta, args.c)}"
    ]
    if args.k is not None:
        lines.append(
            f"leverage_dominated_d: {sample_size_leverage(args.k, args.beta, args.delta)}"
        )
        if args.kappa is not None:
            lines.append(
                "length_via_leverage_d: "
                f"{sample_size_length_via_lev(args.r, args.kappa, args.k, args.delta)}"
            )
    _emit(lines, args.out)
    return 0


def _summary_lines(summary):
    return [" ".join(f"{key}={val:.6g}" if isinstance(val, float) else f"{key}={val}"
                     for key, val in group.items())
            for group in summary["groups"]]


def _given_fields(args):
    """Config fields of the flags actually given (their parsers suppress defaults)."""
    return {key: tuple(val) if isinstance(val, list) else val
            for key, val in vars(args).items() if key in CONFIG_FIELDS}


def _run(cfg):
    records, summary = run_experiment(cfg)
    if cfg.out_path:
        emit_csv(records, summary, cfg.out_path)
    _emit(_summary_lines(summary), None)
    return 0


def _cmd_experiment(args):
    values = {}
    if "config" in args:
        with open(args.config) as fh:
            values = read_key_values(fh.read())
    values.update(_given_fields(args))
    return _run(config_from_mapping(values))


# The keys of a model spec file and the config fields they set.
_SPEC_FIELDS = {"ambient_dim": "m", "dims": "dims", "points": "points", "seed": "master_seed"}


def _cmd_cluster(args):
    values = {"kind": "clustering"}
    if "spec" in args:
        with open(args.spec) as fh:
            for key, value in read_key_values(fh.read()).items():
                if key not in _SPEC_FIELDS:
                    raise ConfigError(f"not a model spec key; use one of {tuple(_SPEC_FIELDS)}",
                                      field=key)
                values[_SPEC_FIELDS[key]] = value
    values.update(_given_fields(args))
    if not {"m", "dims", "points"} <= values.keys():
        raise ConfigError("give ambient_dim (--ambient), dims and points in --spec or as flags",
                          field="spec")
    return _run(config_from_mapping(values))


def _config_flags(sub):
    """Flags shared by the experiment commands; each ``dest`` is a config field."""
    sub.add_argument("--scheme", choices=SCHEMES)
    sub.add_argument("--trials", type=int)
    sub.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    sub.add_argument("--tol", type=float, help="exactness tolerance")
    sub.add_argument("--out", dest="out_path", help="CSV output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curlowrank",
        description="Exact CUR decompositions of low-rank matrices via sampling.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("svd", help="print rank, spectrum, stable rank, condition number")
    p.add_argument("--in", dest="infile", required=True, help="matrix file (.mtx)")
    _common_flags(p)
    p.set_defaults(func=_cmd_svd)

    p = sub.add_parser("cur", help="sample a CUR decomposition of a matrix file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--scheme", choices=SCHEMES, default="length")
    p.add_argument("--d1", type=int, required=True, help="row draws")
    p.add_argument("--d2", type=int, required=True, help="column draws")
    p.add_argument("--k", type=int, default=None, help="leverage truncation rank")
    p.add_argument("--dedup", action="store_true", help="drop repeated indices")
    _common_flags(p)
    p.set_defaults(func=_cmd_cur)

    p = sub.add_parser("deim", help="deterministic greedy index selection")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    _common_flags(p)
    p.set_defaults(func=_cmd_deim)

    p = sub.add_parser("sample-size", help="print the sampling-count formulas")
    p.add_argument("--r", type=float, required=True, help="stable rank")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--c", type=float, default=1.0, help="leading constant")
    p.add_argument("--k", type=int, default=None, help="rank (enables the leverage bounds)")
    p.add_argument("--beta", type=float, default=1.0, help="leverage dominance floor")
    p.add_argument("--kappa", type=float, default=None, help="condition number")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=_cmd_sample_size)

    # Only the flags actually given reach the config, so ExperimentConfig
    # holds every default and the given flags override a --config file.
    quiet = argparse.SUPPRESS
    p = sub.add_parser("experiment", argument_default=quiet,
                       help="run a Monte Carlo experiment, write CSV")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--kind", choices=KINDS)
    for name in ("m", "n", "k"):
        p.add_argument(f"--{name}", type=int)
    for name in ("sigma", "eps", "delta", "kappa"):
        p.add_argument(f"--{name}", type=float)
    p.add_argument("--d", dest="d_grid", type=int, nargs="+", help="draw-count grid")
    p.add_argument("--c", dest="big_c", type=float, help="leading constant")
    p.add_argument("--sparsity", type=float, help="fraction of columns zeroed")
    p.add_argument("--dedup", action="store_true", help="drop repeated indices")
    p.add_argument("--timing", action="store_true",
                   help="record wall time per trial (breaks byte reproducibility)")
    _config_flags(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("cluster", argument_default=quiet,
                       help="union-of-subspaces clustering experiment")
    p.add_argument("--spec", help="model spec file (key=value block)")
    p.add_argument("--ambient", dest="m", type=int)
    p.add_argument("--dims", help="comma list of subspace dims")
    p.add_argument("--points", help="comma list of points per subspace")
    p.add_argument("--d", dest="d_grid", type=int, nargs=1, help="draw count per axis")
    _config_flags(p)
    p.set_defaults(func=_cmd_cluster)

    return parser


# Parsing builds a fresh namespace and keeps no state on the parser, so one
# parser serves every call in the process.
_shared_parser = functools.cache(build_parser)


def cli_main(argv=None) -> int:
    """Entry point returning an exit code instead of raising SystemExit."""
    if argv is None:
        argv = sys.argv[1:]
    parser = _shared_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
