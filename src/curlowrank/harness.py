"""Seeded Monte Carlo experiment runner with CSV output.

Every experiment kind runs through one trial loop, grid point by grid point,
and a per-kind reducer writes each grid point's group of the summary.  A grid
point runs its trials in chunks that fit :data:`_CHUNK_BYTES`, draws included
(:func:`_trial_bytes`), each chunk stage-major: all its trials enter the first
stage, and each stage fills its named fields of the live trials in one pass
over their stacked arrays and returns the trials that go on: every data
matrix is factored at once; every trial's sampling weights are built at once,
and each trial only draws from its own stream (DEIM selects on the stack of
bases); and every CUR of A is measured in A's k-by-k core, shapes that differ
(under ``dedup``) looping inside.  A trial's records, its SVD,
pseudoinverses, blocks and norms, are views into its stage's stacked arrays,
so no stage loops over its matrices but to hand them out.  The noise kind's
middle stage draws each E straight into its chunk's stack and does not
return a dominated trial, one with a stability floor that is not positive.
Each trial draws from its own Philox stream keyed by ``(master_seed,
trial_index)``, in the order it would alone, and a stacked call gives each
matrix the bits of a call on it alone, so trials are independent,
reorderable, and individually reproducible.  A chunk's CSV rows are written
and folded into the summary as it ends, so no row outlives its chunk.  An
exception in any trial aborts the run, leaving the rows of the chunks before
it and no ``# summary``, though another trial's error may surface first.  For
a given numpy version, BLAS build, runtime BLAS kernel and thread count, a
config plus a master seed determines every output byte; the integer and flag
columns are also fixed across BLAS kernels and thread counts.  A stage timer
sums the nanoseconds of each stage of a grid point over its chunks
(:func:`_rows`); no clock reaches the rows, whose ``ms`` column is always 0.

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
the unshifted sums of squares of A and E, need no shift (``_noisy_curs``).  Its
noisy CUR is not in A's row and column space, so its norms come from
``linalg.factored_norms`` of its thin factors; the leverage scores of
``A + E`` come from the certified sketch of its top-k singular bases and
``||E||_2`` from the largest eigenvalue of E's smaller Gram matrix, so no
kind factors an m-by-n matrix.  What passes between stages is A's factors
and compact SVD and the index sets, as fields of the trial (``_Trial``).
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .cluster import SubspaceSpec, clustering_matrix, recovers_partition, subspace_factors
# perfbench's tracer patches this module's randomized_cur binding, which nothing here calls
from .cur import EXACTNESS_TOL, _cores_of_a, _extract, _stacked, randomized_cur  # noqa: F401
from .deim import _deim_indices
from .errors import ConfigError, DomainError
from .linalg import (_EPS, IndexSet, SvdFactors, _as_stack, _gram_norm, _nonnegative, _pinvs,
                     _row_norms, factored_norms, factored_svd)
from .sampling import (
    _CEILING_BYTES,
    _INPUT_RANGES,
    SCHEMES,
    _certify,
    _draw_pair,
    _length_weights,
    _noisy_floors,
    _squared_lengths,
    _weights,
    min_sample_size_rv,
)

KINDS = ("success_prob", "noise_stability", "deim_check", "clustering")

CSV_HEADER = "trial,scheme,d1,d2,success,rel_err_2,rel_err_F,ms"


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
    """Validated experiment description; :func:`read_key_values` reads its file form."""

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
    dims: tuple | None = None
    points: tuple | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"must be one of {KINDS}", field="kind")
        for f in fields(self):
            value = getattr(self, f.name)
            _, admits, name = _FIELD_TYPES[f.name]
            if not (admits(value) or value is None and f.type.endswith("None")):
                raise ConfigError(f"must be {name}, got {value!r}", field=f.name)
            if f.name in _UNREAD[self.kind] and value != f.default:
                raise ConfigError(f"{self.kind} does not read this field; leave it out",
                                  field=f.name)
        if self.scheme not in SCHEMES:
            raise ConfigError(f"must be one of {SCHEMES}", field="scheme")
        if self.trials < 1:
            raise ConfigError("must be >= 1", field="trials")
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
            try:
                SubspaceSpec(self.m, self.dims, self.points)
            except DomainError as exc:
                raise ConfigError(str(exc), field="dims") from exc
        else:
            for side in ("m", "n"):
                if getattr(self, side) < 1:
                    raise ConfigError("matrix sizes must be >= 1", field=side)
            if not (1 <= self.k <= min(self.m, self.n)):
                raise ConfigError("rank must satisfy 1 <= k <= min(m, n)", field="k")
            if self.n - round(self.sparsity * self.n) < self.k:
                raise ConfigError("too many zeroed columns for the target rank", field="sparsity")
        if self.d_grid is None and self.kind in ("success_prob", "noise_stability"):
            if self.eps is None or self.delta is None:
                raise ConfigError("give d_grid or both eps and delta", field="d_grid")
        try:
            d = max(self.resolved_d_grid())
        except DomainError as exc:  # eps, delta or big_c out of range, or a count past the floats
            bad = [f for f in ("eps", "delta", "big_c")
                   if not _INPUT_RANGES[f][0](getattr(self, f))]
            raise ConfigError(str(exc), field=(bad or ["eps"])[0]) from exc
        if _trial_bytes(self, d) > _CEILING_BYTES:
            raise ConfigError(f"a trial at {d} draws would hold over {_CEILING_BYTES} bytes",
                              field="d_grid" if self.eps is None else "eps")

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


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# Each annotated type's converter of config text (``float | None`` reads as float), the Python
# values it admits (``| None`` admits None too) and their name in an error.
_TYPES = {
    "str": (str, lambda v: isinstance(v, str), "a str"),
    "int": (int, _is_int, "an integer"),
    "float": (float, lambda v: isinstance(v, (float, np.floating)) and math.isfinite(v)
              or _is_int(v) and -sys.float_info.max <= v <= sys.float_info.max, "a finite number"),
    "bool": (_to_bool, lambda v: isinstance(v, bool), "a bool"),
    "tuple": (lambda text: tuple(map(int, text.split(","))),
              lambda v: isinstance(v, tuple) and all(map(_is_int, v)), "a tuple of integers"),
}
_FIELD_TYPES = {f.name: _TYPES[f.type.split(" | ")[0]] for f in fields(ExperimentConfig)}
CONFIG_FIELDS = frozenset(_FIELD_TYPES)


def config_from_mapping(mapping) -> ExperimentConfig:
    """Build a config from a plain dict of strings or values; names checked strictly."""
    converted = {}
    for key, value in mapping.items():
        if key not in CONFIG_FIELDS:
            raise ConfigError("unknown field", field=key)
        if isinstance(value, str):
            try:
                value = _FIELD_TYPES[key][0](value)
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
    """``(pool, h)`` after ``mix_entropy`` of ``seed``'s words: numpy's pool, and the hash constant
    after 16 steps and 4 more per word past the fourth; memoized, as a run's trials share a seed."""
    # numpy.random loads with the first stream, not at import: its bit_generator takes 11-16 ms
    np.random.bit_generator.ISpawnableSeedSequence.register(_Stream)
    h = 0x43B0D7E5 * pow(_MULT_A, 16 + 4 * max(0, (seed.bit_length() + 31) // 32 - 4), 1 << 32)
    return tuple(np.random.SeedSequence(seed).pool.tolist()), h & _MASK


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


def spectral_noise(shape, sigma, rngs) -> np.ndarray:
    """The stack of i.i.d. Gaussian noise matrices, one of ``shape`` per generator of the list
    ``rngs``, each rescaled so its ``||E||_2`` equals ``sigma`` to within 1e-12 relative.

    Each generator draws its own block straight into the stack, with the bits of a fresh draw,
    and ``||E||_2`` is ``linalg._gram_norm`` of the block as it is, with no m-by-n copy: no
    square of a standard Gaussian entry over- or underflows.  The raw Gaussian blocks are
    always drawn, so stream consumption does not depend on ``sigma``; ``sigma = 0`` gives
    exact zeros, and a ``sigma`` that is negative or not finite is a DomainError.
    """
    sigma = _nonnegative(sigma, "sigma")
    e = np.empty((len(rngs), *shape))
    for x, rng in zip(e, rngs):
        rng.standard_normal(out=x)
        if sigma == 0.0:
            x.fill(0.0)
            continue
        x *= sigma / _gram_norm(x)
    return e


@dataclass
class _Trial:
    """A trial in flight: its index and stream, and the fields its stages fill."""

    index: int
    rng: np.random.Generator
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
        for x, rng in zip(q, rngs):
            x[rng.choice(cfg.n, size=round(cfg.sparsity * cfg.n), replace=False)] = 0.0
    for t, x, y, f in zip(trials, p, q, factored_svd(p, q)):
        t.p, t.q, t.svd = x, y, f
    return trials


def _subspace_data(cfg, d, trials):
    spec = SubspaceSpec(cfg.m, tuple(cfg.dims), tuple(cfg.points))
    p, q, truths = subspace_factors(spec, [t.rng for t in trials])
    for t, x, y, f, labels in zip(trials, p, q, factored_svd(p, q), truths):
        t.p, t.q, t.svd, t.labels = x, y, f, labels
    return trials


def _draw_each(trials, weights, d, dedup) -> None:
    """Each trial's rows and cols: ``d`` draws per axis from its member of the weight stacks."""
    for t, rows, cols in zip(trials, *(np.cumsum(w, axis=1, out=w) for w in weights)):
        t.rows, t.cols = _draw_pair(rows, cols, d, d, t.rng, dedup)


def _draws(cfg, d, trials):
    """Every trial's weights at once, from its factors, then its own draws; a clustering CUR
    drops repeats, on which neither exactness nor the clusters depend."""
    k = trials[0].q.shape[1] if cfg.kind == "clustering" else cfg.k
    factors = [t.p for t in trials], [t.q for t in trials], [t.svd for t in trials]
    _draw_each(trials, _weights(cfg.scheme, k, factors=factors), d,
               cfg.dedup or cfg.kind == "clustering")
    return trials


def _deim_selections(cfg, d, trials):
    for t, (rows, cols) in zip(trials, _deim_indices([t.svd for t in trials], cfg.k)):
        t.rows, t.cols = rows, cols
    return trials


def _noisy_curs(cfg, d, trials):
    """Draw each trial's indices from ``A + E``, test exactness on the clean ``A`` underneath.

    The trial keeps the norms of its noisy CUR's residual against A; a trial
    whose noise dominates a row or column, one with a floor that is not
    positive, is dropped.  Each trial draws its E, scaled through its Gram
    matrix, and its indices from its own stream; the rest is done on the
    stacks of the chunk's matrices.  Every E is drawn straight into one stack
    before any A is formed, so a chunk of one trial holds E, its Gram matrix
    and at most one other m-by-n array at a time.  The floors come from the
    row and column sums of squares of the stacks of A and E, and the sums of
    ``A + E``, formed in E's buffer, certify them and weigh its draws.  No
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
    tilde_sums = _squared_lengths(a_tilde)
    _certify([f[live] for f in floors], _length_weights(*(x[live] for x in lengths[0])),
             _length_weights(*tilde_sums))
    _draw_each(trials, _weights(cfg.scheme, cfg.k, dense=a_tilde, lengths=tilde_sums), d, cfg.dedup)
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


def _median(values) -> float:
    """``np.median`` of nonempty values, by a sort: the first ``np.median`` imports ``numpy.ma``."""
    ordered, mid = sorted(values), len(values) // 2
    return float(ordered[mid] if len(values) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def _group(cfg, d, first, rows) -> dict:
    """A grid point's group of the summary, folded in one pass over its rows, an iterable of
    ``(success, rel_err_2, rel_err_F)`` in trial order; only the noise median keeps a float a
    row.  Clustering also counts the exact CURs, ``rel_err_F <= tol``, and the perfect ones."""
    noise = cfg.kind == "noise_stability"
    completed, successes, exact, perfect, err_sum, ratios = 0, 0, 0, 0, 0.0, []
    for success, err_2, err_f in rows:
        completed += 1
        successes += success
        err_sum += err_f  # in trial order, which the CSV bytes depend on
        if err_f <= cfg.tol:
            exact += 1
            perfect += success
        if noise and cfg.sigma > 0.0:
            ratios.append(err_2 / cfg.sigma)
    group = {"kind": cfg.kind, "scheme": _scheme(cfg), "d1": d, "d2": d}
    if noise:  # a skipped trial counts against no rate
        return {**group, "sigma": cfg.sigma, "trials": cfg.trials, "completed": completed,
                "skipped": cfg.trials - completed, "successes": successes,
                "success_rate": successes / completed if completed else math.nan,
                "median_err_to_noise": _median(ratios) if ratios else math.nan,
                "first_trial": first}
    group.update(trials=cfg.trials, successes=successes, success_rate=successes / cfg.trials)
    if cfg.kind == "success_prob":
        group.update(mean_rel_err_F=err_sum / cfg.trials, first_trial=first)
    if cfg.kind == "clustering":
        group.update(exact_curs=exact, exact_and_perfect=perfect)
    return group


_STAGES = {
    "success_prob": (_test_matrices, _draws, _measure),
    "noise_stability": (_test_matrices, _noisy_curs, _measure),
    "deim_check": (_test_matrices, _deim_selections, _measure),
    "clustering": (_subspace_data, _draws, _measure),
}


def _scheme(cfg):
    return "deim" if cfg.kind == "deim_check" else cfg.scheme


def _lap(clock, name, start) -> None:
    """Add the nanoseconds since ``start`` to ``clock[name]``."""
    clock[name] = clock.get(name, 0) + time.perf_counter_ns() - start


# The bytes of one chunk's per-trial arrays: 24 noise trials at 50-by-40 and 16 draws, and one
# at 300-by-200 and above, where a noise trial holds what it holds alone.
_CHUNK_BYTES = 2 * 1024 * 1024


def _trial_bytes(cfg, d) -> int:
    """The bytes one trial at ``d`` draws holds, to within a tenth of tracemalloc's count: its
    factor pair and 3k + 11 floats a draw, the indices and gathers of A's bases; a noise trial
    adds E, A, E's Gram matrix, twice its noisy C and R and six times its U, d1 by d2 (each
    ``min(d, side)`` under ``dedup``, else d), with U's stacked SVD and pseudoinverse."""
    if cfg.kind == "clustering":
        m, n, k = cfg.m, sum(cfg.points), sum(cfg.dims)
    else:
        m, n, k = cfg.m, cfg.n, cfg.k
    floats = (m + n) * k + d * (3 * k + 11)
    if cfg.kind == "noise_stability":
        d1, d2 = (min(d, m), min(d, n)) if cfg.dedup else (d, d)
        floats += 2 * m * n + min(m, n) ** 2 + 2 * (m * d2 + d1 * n) + 6 * d1 * d2
    return 8 * floats


def _chunk_size(cfg, d) -> int:
    """How many of a grid point's trials run at once: as many as fit :data:`_CHUNK_BYTES`, and at
    least one."""
    return max(1, _CHUNK_BYTES // _trial_bytes(cfg, d))


def _rows(cfg, d, indices, clock, out):
    """The rows ``(success, rel_err_2, rel_err_F)`` of the trials ``indices`` at ``d`` draws, run
    stage-major a chunk at a time, each chunk's CSV lines written to ``out`` (if given) and
    flushed as it ends.  ``clock`` gains the nanoseconds of each stage, by name, of ``emit``
    (the writing) and of ``reduce`` (the fold of a chunk's rows), summed over the chunks."""
    size, scheme = _chunk_size(cfg, d), _scheme(cfg)
    for first in range(0, len(indices), size):
        live = [_Trial(i, trial_generator(cfg.master_seed, i)) for i in indices[first:first + size]]
        for stage in _STAGES[cfg.kind]:
            if not live:
                break
            start = time.perf_counter_ns()
            live = stage(cfg, d, live)
            _lap(clock, stage.__name__, start)
        start = time.perf_counter_ns()
        if out is not None:
            out.write("".join(f"{t.index},{scheme},{d},{d},{'1' if t.row[0] else '0'},"
                              f"{t.row[1]:.17g},{t.row[2]:.17g},0\n" for t in live))
            out.flush()  # so a killed run keeps the rows of every chunk that ended
        _lap(clock, "emit", start)
        start = time.perf_counter_ns()
        yield from (t.row for t in live)
        _lap(clock, "reduce", start)


def _run_trials(cfg, d, indices, clock, out=None) -> dict:
    """The summary group (:func:`_group`) of the trials ``indices`` at ``d`` draws, folded from
    their rows as :func:`_rows` runs the trials and writes each chunk's rows to ``out``."""
    return _group(cfg, d, indices[0], _rows(cfg, d, indices, clock, out))


def _summary(cfg, out) -> dict:
    clock, trials = {}, cfg.trials
    return {"groups": [_run_trials(cfg, d, range(gi * trials, (gi + 1) * trials), clock, out)
                       for gi, d in enumerate(cfg.resolved_d_grid())]}


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run ``cfg.trials`` trials per grid point; return the summary, one aggregate ``groups``
    row per grid point.

    Trial indices run on across grid points, and each trial draws from its
    own stream :func:`trial_generator` ``(master_seed, trial_index)``.  With
    ``cfg.out_path`` set, the file is opened before the first trial runs and
    gets the CSV header, each chunk's rows as the chunk ends and then the
    ``# summary`` block, so a file without that block is an interrupted run.
    """
    if not cfg.out_path:
        return _summary(cfg, None)
    with open(cfg.out_path, "w", newline="") as out:
        out.write(CSV_HEADER + "\n")
        summary = _summary(cfg, out)
        out.write(_summary_text(summary))
    return summary


def _format_value(value) -> str:
    return format(float(value), ".17g") if isinstance(value, (float, np.floating)) else str(value)


def _summary_text(summary) -> str:
    """The CSV's ``# summary`` block: a comment line of ``key=value`` fields per group."""
    lines = ["# summary"] + ["# " + " ".join(f"{key}={_format_value(v)}" for key, v in g.items())
                             for g in summary["groups"]]
    return "\n".join(lines) + "\n"
