"""Seeded Monte Carlo experiment runner with CSV output.

Every experiment kind runs through one trial loop, grid point by grid point,
and a per-kind reducer writes each grid point's group of the summary.  A grid
point runs stage-major: all its trials enter the first stage, and each stage
fills its named fields of the live trials in one pass over their stacked
arrays and returns the trials that go on: every data matrix is factored at
once; every trial's sampling weights are built at once, and each trial only
draws from its own stream (DEIM selects on the stack of bases); and every CUR
of A is measured in A's k-by-k core, shapes that differ (under ``dedup``)
looping inside.  A trial's records, its SVD, pseudoinverses, blocks and
norms, are views into its stage's stacked arrays, so no stage loops over its
matrices but to hand them out.  The noise kind's middle stage, which holds
m-by-n arrays, stacks its trials in chunks that fit :data:`_NOISE_CHUNK_BYTES`,
draws each E straight into its chunk's stack, and does not return a dominated
trial, one with a stability floor that is not positive.  Each trial draws from
its own Philox stream keyed by ``(master_seed, trial_index)``, in the order it
would alone, and a stacked call gives each matrix the bits of a call on it
alone, so trials are independent, reorderable, and individually reproducible.  An
exception in any trial aborts the run, though a different trial's error may
surface first.  For a given numpy/BLAS build and thread count, a config plus a
master seed determines every output byte; the integer and flag columns are also
fixed across BLAS thread counts.  A stage timer sums the nanoseconds of each
stage of a grid point (:func:`_run_trials`); per-trial wall time, an equal
share of each stage, is recorded only when ``timing`` is enabled, since
measured clocks would break byte-level reproducibility.

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
the noise trial forms m-by-n arrays: E, whose Gram matrix it drops before it
forms A, then ``A + E`` in E's buffer, which it draws from; its floors, from
the unshifted sums of squares of A and E, need no shift (``_noisy_chunk``).  Its
noisy CUR is not in A's row and column space, so its norms come from
``linalg.factored_norms`` of its thin factors; the leverage scores of
``A + E`` come from the certified sketch of ``linalg._leading_bases`` and
``||E||_2`` from the largest eigenvalue of E's smaller Gram matrix, so no
kind factors an m-by-n matrix.  What passes between stages is A's factors
and compact SVD and the index sets, as fields of the trial (``_Trial``).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .cluster import SubspaceSpec, clustering_matrix, recovers_partition, subspace_factors
# perfbench's tracer patches this module's randomized_cur binding, which nothing here calls
from .cur import EXACTNESS_TOL, _cores_of_a, _extract, _stacked, randomized_cur  # noqa: F401
from .deim import _deim_indices
from .errors import ConfigError, DomainError
from .linalg import (_EPS, IndexSet, SvdFactors, _as_stack, _leading_bases, _nonnegative, _pinvs,
                     _row_norms, factored_norms, factored_svd)
from .sampling import (
    LENGTH,
    SCHEMES,
    UNIFORM,
    _certify,
    _check_weights,
    _draw_pair,
    _length_weights,
    _noisy_floors,
    _squared_lengths,
    _stacked_weights,
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
        if isinstance(self.master_seed, bool) or not isinstance(self.master_seed, int):
            raise ConfigError("must be an integer", field="master_seed")
        if self.master_seed < 0:
            raise ConfigError("must be >= 0", field="master_seed")
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
        if self.kappa is not None and self.kappa * self.tol > 1.0:  # sigma_k would hide below tol
            raise ConfigError("must satisfy kappa * tol <= 1", field="kappa")
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
            if self.m < 1:
                raise ConfigError("matrix sizes must be >= 1", field="m")
            if self.n < 1:
                raise ConfigError("matrix sizes must be >= 1", field="n")
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


# numpy's SeedSequence hash (``hashmix``, ``mix`` and ``mix_entropy`` of uint32 words) in plain
# integers; numpy's compatibility policy (NEP 19) keeps it fixed, and tests pin it bit for bit
_MASK, _MULT_A = 0xFFFFFFFF, 0x931E8875


def _absorb(pool, h, n) -> tuple:
    """``(pool, h)`` after ``mix_entropy`` mixes each 32-bit word of the integer ``n >= 0``, low
    word first as SeedSequence reads an integer, into every word of ``pool``."""
    while True:
        w, n, mixed = n & _MASK, n >> 32, []
        for x in pool:
            v = (w ^ h) * (h := h * _MULT_A & _MASK) & _MASK
            x = (0xCA01F9DD * x - 0x4973F715 * (v ^ v >> 16)) & _MASK
            mixed.append(x ^ x >> 16)
        pool = mixed
        if not n:
            return pool, h


@functools.lru_cache(maxsize=16)
def _seed_pool(seed) -> tuple:
    """``(pool, h)`` after ``mix_entropy`` of ``seed``'s words, padded with zeros to four as numpy
    pads them (gh-16539) before a spawn key; memoized, since a run's trials share one seed."""
    pool, h = [], 0x43B0D7E5
    for shift in (0, 32, 64, 96):
        w = ((seed >> shift & _MASK) ^ h) * (h := h * _MULT_A & _MASK) & _MASK
        pool.append(w ^ w >> 16)
    for src in range(4):  # each word into each other word, in place
        for dst in range(4):
            if src != dst:
                v = (pool[src] ^ h) * (h := h * _MULT_A & _MASK) & _MASK
                x = (0xCA01F9DD * pool[dst] - 0x4973F715 * (v ^ v >> 16)) & _MASK
                pool[dst] = x ^ x >> 16
    if seed >> 128:  # the words past the fourth
        pool, h = _absorb(pool, h, seed >> 128)
    # numpy.random loads with the first stream, not at import: its bit_generator takes 11-16 ms
    np.random.bit_generator.ISpawnableSeedSequence.register(_Stream)
    return tuple(pool), h


class _Stream:
    """The SeedSequence of a mixed ``(pool, h)`` for numpy's ``Philox`` and ``spawn``: child ``c``
    mixes in the words of ``c``, as ``SeedSequence.spawn`` appends ``c`` to the spawn key."""

    __slots__ = ("pool", "h", "n_children_spawned")

    def __init__(self, pool, h, n_children_spawned=0):
        self.pool, self.h, self.n_children_spawned = pool, h, n_children_spawned

    def __reduce__(self):
        return _loaded_stream, (self.pool, self.h, self.n_children_spawned)

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        """``SeedSequence.generate_state``; a dtype other than uint32 or uint64 is a DomainError."""
        dtype = np.dtype(dtype)
        wide = dtype == np.uint64
        if not wide and dtype != np.uint32:
            raise DomainError(f"dtype must be uint32 or uint64, got {dtype}")
        h, out = 0x8B51F9DD, []
        for i in range(n_words << wide):
            v = (self.pool[i & 3] ^ h) * (h := h * 0x58F38DED & _MASK) & _MASK
            v ^= v >> 16
            if wide and i & 1:  # a uint64 is two uint32 words, the low one first
                out[-1] |= v << 32
            else:
                out.append(v)
        return np.array(out, dtype)

    def spawn(self, n_children) -> list:
        first = self.n_children_spawned
        self.n_children_spawned += n_children
        return [_Stream(*_absorb(self.pool, self.h, c)) for c in range(first, first + n_children)]


def _loaded_stream(*state) -> _Stream:
    """An unpickled :class:`_Stream`: a process that loads one before it mixes a seed must
    register the class, as :func:`_seed_pool` does, for numpy to spawn from it."""
    np.random.bit_generator.ISpawnableSeedSequence.register(_Stream)
    return _Stream(*state)


def _count(value, name) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise DomainError(f"{name} must be >= 0, got {value}")
    return int(value)


def trial_generator(master_seed, trial_index) -> np.random.Generator:
    """The Philox stream of ``SeedSequence(master_seed, spawn_key=(trial_index,))`` for one
    trial, bit for bit, independent across trial indices; a seed or index that is negative,
    a bool or not an integer is a DomainError."""
    pool, h = _seed_pool(_count(master_seed, "seed"))
    stream = _Stream(*_absorb(pool, h, _count(trial_index, "trial index")))
    return np.random.Generator(np.random.Philox(stream))


def lowrank_factors(m, n, k, rngs, kappa=None) -> tuple:
    """Stacks ``(p, q)`` of :func:`lowrank_gaussian`'s factors, one ``p @ q.T`` per generator.

    Each generator of the list ``rngs`` draws its own factors from its own
    stream, and the ``kappa`` reshape factors the stacks at once.  A ``k`` outside
    ``1..min(m, n)`` or a ``kappa`` that is not finite and >= 1 is a DomainError.
    """
    if not 1 <= k <= min(m, n):
        raise DomainError(f"rank must satisfy 1 <= k <= min(m, n), got k={k}")
    if kappa is not None and not 1.0 <= kappa < math.inf:
        raise DomainError(f"condition number must be finite and >= 1, got {kappa}")
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
    """Zero a random ``fraction`` of columns (sparse-column stress case); a ``fraction``
    outside [0, 1] is a DomainError."""
    if not 0.0 <= fraction <= 1.0:
        raise DomainError(f"fraction must lie in [0, 1], got {fraction}")
    a = a.copy()
    n = a.shape[1]
    count = int(round(fraction * n))
    if count > 0:
        cols = rng.choice(n, size=count, replace=False)
        a[:, cols] = 0.0
    return a


def spectral_noise(shape, sigma, rngs) -> np.ndarray:
    """The stack of i.i.d. Gaussian noise matrices, one of ``shape`` per generator of the list
    ``rngs``, each rescaled so its ``||E||_2`` equals ``sigma`` to within 1e-12 relative.

    Each generator draws its own block straight into the stack, with the bits
    of a fresh draw.  ``||E||_2`` is the square root of the largest eigenvalue
    of the block's smaller Gram matrix, ``E^T E`` or ``E E^T``: one BLAS-3
    product and a symmetric eigensolve instead of an SVD of E.  The largest
    eigenvalue of a positive semidefinite matrix is accurate relative to
    itself, so this agrees with the singular value to a few ulp.  The raw
    Gaussian blocks are always drawn, so stream consumption does not depend on
    ``sigma``; ``sigma = 0`` gives exact zeros, and a ``sigma`` that is
    negative or not finite is a DomainError.
    """
    sigma = _nonnegative(sigma, "sigma")
    e = np.empty((len(rngs), *shape))
    for x, rng in zip(e, rngs):
        rng.standard_normal(out=x)
        if sigma == 0.0:
            x.fill(0.0)
            continue
        # linalg.spectral_norm gives the same bits, but its scaled m-by-n copy of E
        # raised the peak memory of 1000-by-800 noise trials by about 4 MiB (measured)
        gram = x.T @ x if x.shape[0] >= x.shape[1] else x @ x.T
        x *= sigma / math.sqrt(np.linalg.eigvalsh(gram)[-1])
    return e


@dataclass
class _Trial:
    """A trial in flight: its index, stream and share of stage time, and the fields its stages
    fill."""

    index: int
    rng: np.random.Generator
    ns: float = 0.0
    p: np.ndarray | None = None
    q: np.ndarray | None = None
    svd: SvdFactors | None = None
    labels: np.ndarray | None = None
    rows: IndexSet | None = None
    cols: IndexSet | None = None
    noisy_norms: tuple | None = None
    row: tuple | None = None


# A stage fills its fields of the live trials in one pass over their stacked arrays and
# returns the trials that go on; a dominated noise trial is dropped.  The first stage
# fills p and q, the factors of the data ``p @ q.T``, svd, its compact SVD, and the
# clustering trial's true labels; the middle stage the index sets rows and cols, and the
# noise trial's noisy_norms, the norms of its own noisy CUR, as it rescales p and svd to
# ||A||_2 = 1; the last stage, _measure, the CSV row: (success, rel_err_2, rel_err_F).
def _test_matrices(cfg, d, trials):
    rngs = [t.rng for t in trials]
    p, q = lowrank_factors(cfg.m, cfg.n, cfg.k, rngs, cfg.kappa)
    if cfg.sparsity > 0.0:  # zero columns of A are zero rows of q
        q = np.stack([zero_out_columns(x.T, cfg.sparsity, rng).T for x, rng in zip(q, rngs)])
    for t, x, y, f in zip(trials, p, q, factored_svd(p, q)):
        t.p, t.q, t.svd = x, y, f
    return trials


def _subspace_data(cfg, d, trials):
    spec = SubspaceSpec(cfg.m, tuple(cfg.dims), tuple(cfg.points))
    p, q, truths = subspace_factors(spec, [t.rng for t in trials])
    for t, x, y, f, labels in zip(trials, p, q, factored_svd(p, q), truths):
        t.p, t.q, t.svd, t.labels = x, y, f, labels
    return trials


def _draws(cfg, d, trials):
    """Every trial's weights at once, then its own draws; a clustering CUR drops repeats, on
    which neither exactness nor the clusters depend."""
    k = trials[0].q.shape[1] if cfg.kind == "clustering" else cfg.k
    weights = _stacked_weights([t.p for t in trials], [t.q for t in trials],
                               [t.svd for t in trials], cfg.scheme, k)
    cums = [np.cumsum(w, axis=1, out=w) for w in weights]
    dedup = cfg.dedup or cfg.kind == "clustering"
    for t, rows, cols in zip(trials, *cums):
        t.rows, t.cols = _draw_pair(rows, cols, d, d, t.rng, dedup)
    return trials


def _deim_selections(cfg, d, trials):
    for t, (rows, cols) in zip(trials, _deim_indices([t.svd for t in trials], cfg.k)):
        t.rows, t.cols = rows, cols
    return trials


# The bytes of the stack of m-by-n arrays that one chunk of noise trials holds: 32 trials
# at 50-by-40, and one at 300-by-200 and above, where a trial holds what it holds alone.
_NOISE_CHUNK_BYTES = 512 * 1024


def _noisy_curs(cfg, d, trials):
    """:func:`_noisy_chunk` of the trials, as many at a time as fit :data:`_NOISE_CHUNK_BYTES`."""
    size = max(1, _NOISE_CHUNK_BYTES // (8 * cfg.m * cfg.n))
    return [t for i in range(0, len(trials), size)
            for t in _noisy_chunk(cfg, d, trials[i:i + size])]


def _noisy_chunk(cfg, d, trials):
    """Draw each trial's indices from ``A + E``, test exactness on the clean ``A`` underneath.

    The trial keeps the norms of its noisy CUR's residual against A; a trial
    whose noise dominates a row or column, one with a floor that is not
    positive, is dropped.  Each trial draws its E, scaled through its Gram
    matrix, and its indices from its own stream; the rest is done on the
    stacks of the chunk's matrices.  Every E is drawn straight into one stack
    before any A is formed, so a chunk of one trial holds E, its Gram matrix
    and at most one other m-by-n array at a time.  The floors come from the
    row and column sums of squares of the stacks of A and E, and ``A + E`` is
    formed in E's buffer, where its sums give the length weights that both
    certify the floors and, under the length scheme, feed the draws.  No
    power-of-two shift is needed: ``||A||_2 = 1``, so no square of A
    overflows, an E whose squares overflow has ``||E||_F = inf``, which leaves
    every floor 0 or NaN and drops the trial, and an E whose squares underflow
    is below 1e-150 of A, where every floor rounds to 1 either way.
    """
    scale = np.array([t.svd.singular_values[0] for t in trials])  # now ||A||_2 = 1
    p = np.stack([t.p for t in trials]) / scale[:, None, None]
    spectra = np.stack([t.svd.all_singular_values for t in trials]) / scale[:, None]
    tols = np.array([t.svd.tolerance_used for t in trials]) / scale
    for t, x, y, tol in zip(trials, p, spectra, tols.tolist()):
        t.p, t.svd = x, replace(t.svd, singular_values=y[:t.svd.numerical_rank],
                                all_singular_values=y, tolerance_used=tol)
    e = spectral_noise((cfg.m, cfg.n), cfg.sigma, [t.rng for t in trials])
    q = np.stack([t.q for t in trials])
    a = p @ np.swapaxes(q, 1, 2)
    with np.errstate(over="ignore"):  # E's squares overflow only in a dominated trial
        lengths = _squared_lengths(a), _squared_lengths(e)
        floors = _noisy_floors(*lengths, *(_row_norms(x.reshape(len(x), -1)) for x in (a, e)))
    live = np.logical_and(*((f > 0.0).all(axis=1) for f in floors))  # a NaN floor fails
    if not live.any():
        return []
    if not live.all():
        trials = [t for t, keep in zip(trials, live) if keep]
        p, q, a, e = (x[live] for x in (p, q, a, e))
    a_tilde = _as_stack(np.add(a, e, out=e))
    del a
    weights = _length_weights(*_squared_lengths(a_tilde))
    _certify([f[live] for f in floors], _length_weights(*(x[live] for x in lengths[0])), weights)
    if cfg.scheme == UNIFORM:
        weights = [np.full((len(a_tilde), size), 1.0 / size) for size in a_tilde.shape[1:]]
    elif cfg.scheme != LENGTH:  # each leverage axis summed as sampling.axis_dists sums it
        bases = zip(*(_leading_bases(x, cfg.k) for x in a_tilde))
        weights = [np.stack([np.sum(b * b, axis=1) for b in axis]) / float(cfg.k)
                   for axis in bases]
    for w in weights:
        _check_weights(w)
    for t, rows, cols in zip(trials, *(np.cumsum(w, axis=1) for w in weights)):
        t.rows, t.cols = _draw_pair(rows, cols, d, d, t.rng, cfg.dedup)
    cs, us, rs = zip(*(_extract(x, t.rows, t.cols) for x, t in zip(a_tilde, trials)))
    pinvs = _stacked(_pinvs, us)
    norms = _stacked(factored_norms, [np.hstack([x, c]) for x, c in zip(p, cs)],
                     [np.hstack([y, -(pinv @ r).T]) for y, (_, pinv), r in zip(q, pinvs, rs)])
    for t, norm in zip(trials, norms):
        t.noisy_norms = norm
    return trials


def _measure(cfg, d, trials):
    """Each trial's CSV row, from its CUR of A measured in A's k-by-k core.

    ``U^+`` is cut at A's cutoff in every kind, the cutoff of the verifier's ranks.
    A CUR is exact when ``rel_err_F <= tol``: that is a table row's success, and a
    row whose trial measured its own CUR (the noise trial's) prints those norms
    over A's.  A clustering row's success is exact recovery of the partition from
    the support of ``|(U^+ R)^T (U^+ R)|``: its true blocks decide it unless one
    has a missing pair (``recovers_partition``).
    """
    measured = _cores_of_a([(t.svd, t.rows, t.cols) for t in trials])
    spectra = np.stack([t.svd.all_singular_values for t in trials])
    sigmas = spectra[:, 0]  # ||A||_F = sigma_1 sqrt(stable rank), so no square overflows
    norms_f = sigmas * np.sqrt(np.sum((spectra / sigmas[:, None]) ** 2, axis=1))
    for t, ((err_2, err_f), z), s_1, norm_f in zip(trials, measured, sigmas.tolist(),
                                                   norms_f.tolist()):
        if cfg.kind == "clustering":
            success = recovers_partition(clustering_matrix(z @ t.svd.right.T), t.labels)
        else:
            success = err_f / norm_f <= cfg.tol
        if t.noisy_norms is not None:
            err_2, err_f = t.noisy_norms
        t.row = (success, err_2 / s_1, err_f / norm_f)
    return trials


# Each reducer maps a grid point's (d, first_trial, records) to its group of the summary
# {"groups": [...]}: a function of the rows and the config.
def _rate_group(cfg, d, first, done):
    successes = sum(r.success for r in done)
    return {"kind": cfg.kind, "scheme": _scheme(cfg), "d1": d, "d2": d, "trials": cfg.trials,
            "successes": successes, "success_rate": successes / cfg.trials}


def _success_group(cfg, d, first, done):
    err_sum = 0.0  # summed in trial order, which the CSV bytes depend on
    for r in done:
        err_sum += r.rel_error_frobenius
    return {**_rate_group(cfg, d, first, done), "mean_rel_err_F": err_sum / cfg.trials,
            "first_trial": first}


def _median(values) -> float:
    """``np.median`` of nonempty values, by a sort: the first ``np.median`` imports ``numpy.ma``."""
    ordered, mid = sorted(values), len(values) // 2
    return float(ordered[mid] if len(values) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def _noise_group(cfg, d, first, done):
    """Skipped trials count against no rate; the error-to-noise median is over the rows."""
    successes = sum(r.success for r in done)
    ratios = [r.rel_error_spectral / cfg.sigma for r in done] if cfg.sigma > 0.0 else []
    return {"kind": cfg.kind, "scheme": cfg.scheme, "d1": d, "d2": d, "sigma": cfg.sigma,
            "trials": cfg.trials, "completed": len(done), "skipped": cfg.trials - len(done),
            "successes": successes,
            "success_rate": successes / len(done) if done else float("nan"),
            "median_err_to_noise": _median(ratios) if ratios else float("nan"),
            "first_trial": first}


def _clustering_group(cfg, d, first, done):
    """Also counts the exact CURs, ``rel_err_F <= tol``, and those that clustered perfectly."""
    exact = [r.success for r in done if r.rel_error_frobenius <= cfg.tol]
    return {**_rate_group(cfg, d, first, done), "exact_curs": len(exact),
            "exact_and_perfect": sum(exact)}


_KINDS = {
    "success_prob": ((_test_matrices, _draws, _measure), _success_group),
    "noise_stability": ((_test_matrices, _noisy_curs, _measure), _noise_group),
    "deim_check": ((_test_matrices, _deim_selections, _measure), _rate_group),
    "clustering": ((_subspace_data, _draws, _measure), _clustering_group),
}


def _scheme(cfg):
    return "deim" if cfg.kind == "deim_check" else cfg.scheme


def _lap(clock, name, start) -> int:
    """Add the nanoseconds since ``start`` to ``clock[name]`` and return them."""
    ns = time.perf_counter_ns() - start
    clock[name] = clock.get(name, 0) + ns
    return ns


def _run_trials(cfg, d, indices, clock):
    """``(records, group)``: the trials ``indices`` at draw count ``d``, run stage-major, and
    their group of the summary.  ``clock`` gains the nanoseconds of each stage, by name, of
    ``emit`` (the records) and of ``reduce`` (the group); a record's ``ms`` is its equal
    share of each stage it joined where ``cfg.timing`` is set, else 0."""
    live = [_Trial(i, trial_generator(cfg.master_seed, i)) for i in indices]
    for stage in _KINDS[cfg.kind][0]:
        if not live:
            break
        start, joined = time.perf_counter_ns(), len(live)
        live = stage(cfg, d, live)
        share = _lap(clock, stage.__name__, start) / joined
        for t in live:
            t.ns += share
    start = time.perf_counter_ns()
    records = [TrialRecord(t.index, _scheme(cfg), d, d, *t.row, t.ns / 1e6 if cfg.timing else 0.0)
               for t in live]
    _lap(clock, "emit", start)
    start = time.perf_counter_ns()
    group = _KINDS[cfg.kind][1](cfg, d, indices[0], records)
    _lap(clock, "reduce", start)
    return records, group


def run_experiment(cfg: ExperimentConfig):
    """Run ``cfg.trials`` trials per grid point; return ``(records, summary)``.

    Trial indices run on across grid points, and each trial draws from its
    own stream :func:`trial_generator` ``(master_seed, trial_index)``.  The
    summary holds one aggregate ``groups`` row per grid point.
    """
    records, groups, clock = [], [], {}
    for gi, d in enumerate(cfg.resolved_d_grid()):
        done, group = _run_trials(cfg, d, range(gi * cfg.trials, (gi + 1) * cfg.trials), clock)
        records += done
        groups.append(group)
    return records, {"groups": groups}


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
