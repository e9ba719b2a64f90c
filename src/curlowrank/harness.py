"""Seeded Monte Carlo experiment runner with CSV output.

Every experiment kind runs through one trial loop, grid point by grid point,
and a per-kind reducer writes the summary.  A grid point runs stage-major:
all its trials enter the first stage, and each stage maps the live trials to
the next.  Every kind stacks its small LAPACK calls, one per stage: every
data matrix's factors are factored at once, each trial then draws its indices
(a dominated noise trial drops out here), and a last stage measures every
CUR of A in A's k-by-k core; shapes that differ (under ``dedup``) loop inside it.
Each trial draws from its own Philox stream keyed by ``(master_seed,
trial_index)``, in the order it would alone, and a stacked call gives each
matrix the bits of a call on it alone, so trials are independent,
reorderable, and individually reproducible.  An exception in any trial
aborts the run, though a different trial's error may surface first.  For a
given numpy/BLAS build and thread count, a config plus a master seed
determines every output byte; the integer and flag columns are also fixed
across BLAS thread counts.  Per-trial wall time is recorded only when
``timing`` is enabled, since measured clocks would break byte-level
reproducibility; it is the trial's own time in the per-trial stages plus an
equal share of each stacked stage it joined.

Test matrices are Gaussian-factor products ``A = G1 @ G2^T`` (exactly rank
k almost surely); an optional ``kappa`` reshapes the spectrum geometrically
to hit a target condition number, ``sparsity`` zeroes a fraction of columns
(rows of ``G2``) to exercise the uniform-vs-length sampling gap, and noise is
an i.i.d. Gaussian matrix rescaled so its spectral norm matches the requested
level against ``||A||_2 = 1``.

Every kind keeps A as its factors ``p @ q.T`` and takes its spectrum, its
length weights and leverage scores and each CUR of A from them: U, its
pseudoinverse, the residual and the clustering kind's coefficients all live
in A's k-by-k core (``cur._cores_of_a``), so no C, U or R is extracted.  Only
the noise trial forms m-by-n arrays: A and ``A + E``, which it draws from.  Its
noisy CUR is not in A's row and column space, so its norms come from
``linalg.factored_norms`` of its thin factors; the leverage scores of
``A + E`` come from the certified sketch of ``linalg.leading_bases`` and
``||E||_2`` from the largest eigenvalue of E's smaller Gram matrix, so no
kind factors an m-by-n matrix.  What passes between stages is A's factors
and compact SVD and the index sets.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .cluster import (
    SubspaceSpec,
    clustering_matrix,
    labels_from_clustering_matrix,
    same_partition,
    subspace_factors,
)
from .cur import EXACTNESS_TOL, _cores_of_a, randomized_cur
from .deim import _deim_indices
from .errors import ConfigError, NoiseDominatesError
from .linalg import _EPS, factored_norms, factored_svd
from .sampling import (
    LENGTH,
    SCHEMES,
    _certify,
    _noisy_floors,
    axis_dists,
    draw_indices,
    min_sample_size_rv,
)

KINDS = ("success_prob", "noise_stability", "deim_check", "clustering")

CSV_HEADER = "trial,scheme,d1,d2,success,rel_err_2,rel_err_F,ms"


@dataclass(frozen=True)
class TrialRecord:
    """One Monte Carlo outcome; ``success`` means the CUR was exact at the config tolerance."""

    trial_index: int
    scheme: str
    d1: int
    d2: int
    success: bool
    rel_error_spectral: float
    rel_error_frobenius: float
    wall_time_ms: float


# The fields each kind never reads; a config giving one a non-default value is rejected.
_UNREAD = {
    "success_prob": ("sigma", "dims", "points"),
    "noise_stability": ("dims", "points"),
    "deim_check": ("scheme", "sigma", "d_grid", "eps", "delta", "big_c", "sparsity", "dedup",
                   "dims", "points"),
    "clustering": ("n", "k", "sigma", "eps", "delta", "big_c", "kappa", "sparsity", "dedup"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see :func:`config_from_text` for the file form."""

    kind: str
    m: int = 0
    n: int = 0
    k: int = 0
    sigma: float = 0.0
    scheme: str = "length"
    d_grid: tuple | None = None
    eps: float | None = None
    delta: float | None = None
    big_c: float = 1.0
    trials: int = 100
    master_seed: int = 0
    out_path: str | None = None
    kappa: float | None = None
    sparsity: float = 0.0
    tol: float = EXACTNESS_TOL
    dedup: bool = False
    timing: bool = False
    dims: tuple | None = None
    points: tuple | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"must be one of {KINDS}", field="kind")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _UNREAD[self.kind] and value != f.default:
                raise ConfigError(f"{self.kind} does not read this field; leave it out",
                                  field=f.name)
            set_float = _FIELD_CONVERTERS[f.name] is float and value is not None
            if set_float and not math.isfinite(value):
                raise ConfigError("must be finite", field=f.name)
        if self.scheme not in SCHEMES:
            raise ConfigError(f"must be one of {SCHEMES}", field="scheme")
        if self.trials < 1:
            raise ConfigError("must be >= 1", field="trials")
        if self.sigma < 0.0:
            raise ConfigError("must be >= 0", field="sigma")
        if not (0.0 <= self.sparsity < 1.0):
            raise ConfigError("must lie in [0, 1)", field="sparsity")
        if self.kappa is not None and not self.kappa >= 1.0:
            raise ConfigError("condition number must be >= 1", field="kappa")
        if self.kappa is not None and self.kappa > 1.0 and self.k == 1:
            raise ConfigError("a rank-1 matrix has condition number 1", field="kappa")
        if self.kappa is not None and self.kappa * max(self.m, self.n) * _EPS >= 1.0:
            raise ConfigError("must satisfy kappa * max(m, n) * eps < 1", field="kappa")
        if self.tol <= 0.0:
            raise ConfigError("must be positive", field="tol")
        if self.d_grid is not None:
            if not self.d_grid or min(self.d_grid) < 1:
                raise ConfigError("grid must be nonempty with values >= 1", field="d_grid")
            if self.kind == "clustering" and len(self.d_grid) > 1:
                raise ConfigError("clustering takes a single draw count", field="d_grid")
        if self.kind == "clustering":
            if self.dims is None or self.points is None:
                raise ConfigError("clustering needs dims and points", field="dims")
            if self.m < 1:
                raise ConfigError("ambient dimension must be >= 1", field="m")
            SubspaceSpec(self.m, tuple(self.dims), tuple(self.points))
        else:
            if self.m < 1 or self.n < 1:
                raise ConfigError("matrix sizes must be >= 1", field="m")
            if not (1 <= self.k <= min(self.m, self.n)):
                raise ConfigError("rank must satisfy 1 <= k <= min(m, n)", field="k")
            if self.n - round(self.sparsity * self.n) < self.k:
                raise ConfigError("too many zeroed columns for the target rank", field="sparsity")
        if self.d_grid is None and self.kind in ("success_prob", "noise_stability"):
            if self.eps is None or self.delta is None:
                raise ConfigError("give d_grid or both eps and delta", field="d_grid")

    def resolved_d_grid(self) -> tuple:
        """The draw-count grid, computing it from (eps, delta, big_c) when absent.

        The sample-size formula is evaluated at the nominal stable rank
        ``r = k`` (the attainable maximum for a rank-k matrix).
        """
        if self.d_grid is not None:
            return tuple(int(d) for d in self.d_grid)
        if self.kind == "deim_check":
            return (int(self.k),)
        if self.kind == "clustering":
            k = sum(self.dims)
            return (max(k, math.ceil(4.0 * k * math.log(k))) if k > 1 else 1,)
        return (min_sample_size_rv(float(self.k), self.eps, self.delta, self.big_c),)


def _to_bool(text) -> bool:
    word = text.strip().lower()
    if word not in ("1", "0", "true", "false", "yes", "no", "on", "off"):
        raise ValueError("expected one of 1/0/true/false/yes/no/on/off")
    return word in ("1", "true", "yes", "on")


def _to_ints(text) -> tuple:
    return tuple(int(tok) for tok in text.split(","))


# How a string value becomes each field's annotated type (``float | None`` reads as float).
_CONVERTERS = {"str": str, "int": int, "float": float, "bool": _to_bool, "tuple": _to_ints}
_FIELD_CONVERTERS = {f.name: _CONVERTERS[f.type.split(" | ")[0]] for f in fields(ExperimentConfig)}
CONFIG_FIELDS = frozenset(_FIELD_CONVERTERS)


def config_from_mapping(mapping) -> ExperimentConfig:
    """Build a config from a plain dict of strings or values; names checked strictly."""
    converted = {}
    for key, value in mapping.items():
        if key not in CONFIG_FIELDS:
            raise ConfigError("unknown field", field=key)
        if isinstance(value, str):
            try:
                value = _FIELD_CONVERTERS[key](value)
            except ValueError as exc:
                raise ConfigError(f"bad value {value!r}", field=key) from exc
        converted[key] = value
    if "kind" not in converted:
        raise ConfigError("required", field="kind")
    return ExperimentConfig(**converted)


def read_key_values(text) -> dict:
    """The ``key = value`` lines of ``text`` (``#`` comments allowed), each key at most once."""
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {raw!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in mapping:
            raise ConfigError("given twice", field=key, line=lineno)
        mapping[key] = value.strip()
    return mapping


def config_from_text(text) -> ExperimentConfig:
    """Parse a ``key = value`` block (``#`` comments allowed) into a config."""
    return config_from_mapping(read_key_values(text))


def trial_generator(master_seed, trial_index) -> np.random.Generator:
    """Philox stream for one trial, independent across trial indices."""
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(trial_index),))
    return np.random.Generator(np.random.Philox(ss))


def lowrank_factors(m, n, k, rngs, kappa=None) -> tuple:
    """Stacks ``(p, q)`` of :func:`lowrank_gaussian`'s factors, one ``p @ q.T`` per generator.

    Each generator of the list ``rngs`` draws its own factors from its own
    stream, and the ``kappa`` reshape factors the stacks at once.
    """
    draws = [(g.standard_normal((m, k)), g.standard_normal((n, k))) for g in rngs]
    p, q = np.stack([x for x, _ in draws]), np.stack([y for _, y in draws])
    if kappa is not None and k > 1:
        decay = float(kappa) ** (-np.arange(k) / (k - 1.0))
        svds = factored_svd(p, q)
        p = np.stack([f.left * (f.singular_values[0] * decay) for f in svds])
        q = np.stack([f.right for f in svds])
    return p, q


def lowrank_gaussian(m, n, k, rng, kappa=None) -> np.ndarray:
    """Rank-k Gaussian-factor matrix, optionally reshaped to condition number ``kappa``."""
    p, q = lowrank_factors(m, n, k, [rng], kappa)
    return p[0] @ q[0].T


def zero_out_columns(a, fraction, rng) -> np.ndarray:
    """Zero a random ``fraction`` of columns (sparse-column stress case)."""
    a = a.copy()
    n = a.shape[1]
    count = int(round(fraction * n))
    if count > 0:
        cols = rng.choice(n, size=count, replace=False)
        a[:, cols] = 0.0
    return a


def spectral_noise(shape, sigma, rng) -> np.ndarray:
    """I.i.d. Gaussian noise rescaled so ``||E||_2`` equals ``sigma`` to within 1e-12 relative.

    ``||E||_2`` is the square root of the largest eigenvalue of the smaller
    Gram matrix, ``E^T E`` or ``E E^T``: one BLAS-3 product and a symmetric
    eigensolve instead of an SVD of E.  The largest eigenvalue of a positive
    semidefinite matrix is accurate relative to itself, so this agrees with
    the singular value to a few ulp.  The raw Gaussian block is always drawn,
    so stream consumption does not depend on ``sigma``; ``sigma = 0`` gives
    exact zeros.
    """
    e = rng.standard_normal(shape)
    if sigma == 0.0:
        return np.zeros(shape)
    # linalg.spectral_norm gives the same bits, but its scaled m-by-n copy of E
    # raised the peak memory of 1000-by-800 noise trials by about 4 MiB (measured)
    gram = e.T @ e if e.shape[0] >= e.shape[1] else e @ e.T
    e *= float(sigma) / math.sqrt(np.linalg.eigvalsh(gram)[-1])
    return e


@dataclass
class _Trial:
    """A trial in flight: its index, stream and clock, and the state one stage hands the next."""

    index: int
    rng: np.random.Generator
    seconds: float = 0.0
    state: object = None


# A stacked stage maps (cfg, trials) to the new state of every live trial; a per-trial
# stage maps (cfg, d, rng, state) to one trial's new state, or to None for a skipped
# trial.  The last stage leaves the trial's CSV row: (success, rel_err_2, rel_err_F).
def _test_matrices(cfg, trials):
    """Each trial's ``(p, q, svd)``: the factors of its test matrix ``p @ q.T``, and its SVD."""
    rngs = [t.rng for t in trials]
    p, q = lowrank_factors(cfg.m, cfg.n, cfg.k, rngs, cfg.kappa)
    if cfg.sparsity > 0.0:  # zero columns of A are zero rows of q
        q = np.stack([zero_out_columns(x.T, cfg.sparsity, rng).T for x, rng in zip(q, rngs)])
    return list(zip(p, q, factored_svd(p, q)))


# The per-trial stage of each kind leaves (svd, rows, cols, tail): A's SVD, the drawn
# index sets, and for the noise trial the absolute norms of its own noisy CUR, for the
# clustering trial its true labels, else None.
def _success_trial(cfg, d, rng, state):
    p, q, f = state
    dists = axis_dists((p, q), cfg.scheme, cfg.k, f)
    return (f, *draw_indices(*dists, d, d, rng, cfg.dedup), None)


def _noise_trial(cfg, d, rng, state):
    """Draw indices from ``A + E``, test exactness on the clean ``A`` underneath.

    The row carries the noisy CUR's errors relative to A; a trial whose noise
    dominates a row or column is skipped.
    ``A + E`` is formed once, in E's buffer, and its length distributions
    both certify the stability floors and, under the length scheme, feed the
    draws.
    """
    p, q, f = state
    s_1 = f.singular_values[0]
    p = p / s_1  # now ||A||_2 = 1, and ||A||_F^2 is the stable rank
    f = replace(f, singular_values=f.singular_values / s_1,
                all_singular_values=f.all_singular_values / s_1)
    a = p @ q.T
    e = spectral_noise(a.shape, cfg.sigma, rng)
    try:
        floors, weights = _noisy_floors(a, e)
    except NoiseDominatesError:
        return None
    a_tilde = np.add(a, e, out=e)
    length = axis_dists(a_tilde, LENGTH)
    _certify(floors, weights, [dist.weights for dist in length])
    dists = length if cfg.scheme == LENGTH else axis_dists(a_tilde, cfg.scheme, cfg.k)
    noisy = randomized_cur(a_tilde, *dists, d, d, rng, dedup=cfg.dedup)
    norms = factored_norms(np.hstack([p, noisy.C]), np.hstack([q, -(noisy.U_pinv @ noisy.R).T]))
    return f, noisy.I, noisy.J, norms


def _deim_trial(cfg, d, rng, state):
    f = state[2]
    return (f, *_deim_indices(None, cfg.k, None, f), None)


def _subspace_data(cfg, trials):
    """Each trial's ``(p, q, truth, svd)``: its data's factors, labels and SVD of ``p @ q.T``."""
    spec = SubspaceSpec(cfg.m, tuple(cfg.dims), tuple(cfg.points))
    p, q, truths = subspace_factors(spec, [t.rng for t in trials])
    return list(zip(p, q, truths, factored_svd(p, q)))


def _clustering_trial(cfg, d, rng, state):
    """Draw a CUR of distinct indices: neither exactness nor the clusters depend on repeats."""
    p, q, truth, f = state
    dists = axis_dists((p, q), cfg.scheme, q.shape[1], f)
    return (f, *draw_indices(*dists, d, d, rng, dedup=True), truth)


def _measure(cfg, trials):
    """Each trial's CSV row, from its CUR of A measured in A's k-by-k core.

    ``U^+`` is cut at U's own cutoff in the table kinds, and at A's in the
    clustering kind, where U's own would keep the roundoff singular value of a
    near-singular U.  A CUR is exact when ``rel_err_F <= tol``: that is a table
    row's success, and a row whose trial measured its own CUR (the noise
    trial's) prints those norms over A's.  A clustering row's success is exact
    recovery of the partition from the support of ``|(U^+ R)^T (U^+ R)|``.
    """
    states = [t.state for t in trials]
    clustering = cfg.kind == "clustering"
    measured = _cores_of_a([(f, rows, cols, f.tolerance_used if clustering else None)
                            for f, rows, cols, _ in states])
    outcomes = []
    for (f, _, _, tail), ((err_2, err_f), z) in zip(states, measured):
        s_1, norm_f = float(f.singular_values[0]), f.frobenius_norm()
        if clustering:
            pred = labels_from_clustering_matrix(clustering_matrix(z @ f.right.T))
            outcomes.append((same_partition(pred, tail), err_2 / s_1, err_f / norm_f))
        else:
            row_2, row_f = tail or (err_2, err_f)
            outcomes.append((err_f / norm_f <= cfg.tol, row_2 / s_1, row_f / norm_f))
    return outcomes


# Each reducer maps the run's (d, first_trial, records) per grid point to the summary,
# {"groups": [...]} with one group per grid point: a function of the rows and the config.
def _rate_group(cfg, d, done):
    successes = sum(r.success for r in done)
    return {"kind": cfg.kind, "scheme": _scheme(cfg), "d1": d, "d2": d, "trials": cfg.trials,
            "successes": successes, "success_rate": successes / cfg.trials}


def _success_summary(cfg, runs):
    groups = []
    for d, first, done in runs:
        err_sum = 0.0  # summed in trial order, which the CSV bytes depend on
        for r in done:
            err_sum += r.rel_error_frobenius
        groups.append({**_rate_group(cfg, d, done), "mean_rel_err_F": err_sum / cfg.trials,
                       "first_trial": first})
    return {"groups": groups}


def _median(values) -> float:
    """``np.median`` of nonempty values, by a sort: the first ``np.median`` imports ``numpy.ma``."""
    ordered, mid = sorted(values), len(values) // 2
    return float(ordered[mid] if len(values) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def _noise_summary(cfg, runs):
    """Skipped trials count against no rate; the error-to-noise median is over the rows."""
    groups = []
    for d, first, done in runs:
        successes = sum(r.success for r in done)
        ratios = [r.rel_error_spectral / cfg.sigma for r in done] if cfg.sigma > 0.0 else []
        groups.append({"kind": cfg.kind, "scheme": cfg.scheme, "d1": d, "d2": d,
                       "sigma": cfg.sigma, "trials": cfg.trials, "completed": len(done),
                       "skipped": cfg.trials - len(done), "successes": successes,
                       "success_rate": successes / len(done) if done else float("nan"),
                       "median_err_to_noise": _median(ratios) if ratios else float("nan"),
                       "first_trial": first})
    return {"groups": groups}


def _deim_summary(cfg, runs):
    return {"groups": [_rate_group(cfg, d, done) for d, _, done in runs]}


def _clustering_summary(cfg, runs):
    """Also counts the exact CURs, ``rel_err_F <= tol``, and those that clustered perfectly."""
    groups = []
    for d, _, done in runs:
        exact = [r.success for r in done if r.rel_error_frobenius <= cfg.tol]
        groups.append({**_rate_group(cfg, d, done), "exact_curs": len(exact),
                       "exact_and_perfect": sum(exact)})
    return {"groups": groups}


_KINDS = {
    "success_prob": ((_test_matrices, _success_trial, _measure), _success_summary),
    "noise_stability": ((_test_matrices, _noise_trial, _measure), _noise_summary),
    "deim_check": ((_test_matrices, _deim_trial, _measure), _deim_summary),
    "clustering": ((_subspace_data, _clustering_trial, _measure), _clustering_summary),
}
_STACKED = (_test_matrices, _measure, _subspace_data)


def _scheme(cfg):
    return "deim" if cfg.kind == "deim_check" else cfg.scheme


def _run_trials(cfg, d, indices):
    """The records of the trials ``indices`` at draw count ``d``, run stage-major."""
    now = time.perf_counter if cfg.timing else (lambda: 0.0)
    live = [_Trial(i, trial_generator(cfg.master_seed, i)) for i in indices]
    for stage in _KINDS[cfg.kind][0]:
        if not live:
            break
        if stage in _STACKED:
            t0 = now()
            states = stage(cfg, live)
            share = (now() - t0) / len(live)
            for t, state in zip(live, states):
                t.state, t.seconds = state, t.seconds + share
            continue
        for t in live:
            t0 = now()
            t.state = stage(cfg, d, t.rng, t.state)
            t.seconds += now() - t0
        live = [t for t in live if t.state is not None]
    return [TrialRecord(t.index, _scheme(cfg), d, d, *t.state, t.seconds * 1e3) for t in live]


def run_experiment(cfg: ExperimentConfig):
    """Run ``cfg.trials`` trials per grid point; return ``(records, summary)``.

    Trial indices run on across grid points, and each trial draws from its
    own stream :func:`trial_generator` ``(master_seed, trial_index)``.  The
    summary holds one aggregate ``groups`` row per grid point.
    """
    records = []
    runs = []
    for gi, d in enumerate(cfg.resolved_d_grid()):
        first = gi * cfg.trials
        done = _run_trials(cfg, d, range(first, first + cfg.trials))
        records += done
        runs.append((d, first, done))
    return records, _KINDS[cfg.kind][1](cfg, runs)


def _format_value(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def emit_csv(records, summary, path) -> None:
    """Write trial rows plus a ``# summary`` comment block, deterministically formatted."""
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(f"{r.trial_index},{r.scheme},{r.d1},{r.d2},{'1' if r.success else '0'},"
                     f"{float(r.rel_error_spectral):.17g},{float(r.rel_error_frobenius):.17g},"
                     f"{float(r.wall_time_ms):.17g}\n")
        fh.write("# summary\n")
        for group in summary["groups"]:
            parts = [f"{key}={_format_value(val)}" for key, val in group.items()]
            fh.write("# " + " ".join(parts) + "\n")
