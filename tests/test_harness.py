import functools
import hashlib
import io
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curlowrank import cur, deim, harness, sampling
from curlowrank.cur import EXACTNESS_TOL, _cur, relative_errors
from curlowrank.deim import deim_select
from curlowrank.errors import (
    ConfigError,
    DomainError,
    RankDeficientError,
    SingularInterpolationError,
    ZeroMatrixError,
)
from curlowrank.harness import (
    CSV_HEADER,
    ExperimentConfig,
    config_from_mapping,
    lowrank_factors,
    lowrank_gaussian,
    read_key_values,
    run_experiment,
    spectral_noise,
    trial_generator,
)
from curlowrank.linalg import COLS, ROWS, as_matrix, factored_svd, rank_cutoff
from curlowrank.sampling import SCHEMES, ProbDist, axis_dists, draw_indices

from conftest import factored_weights, run_rows


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestConfig:
    def test_from_text(self):
        cfg = config_from_mapping(read_key_values(
            "kind = success_prob\n"
            "m = 20\n"
            "n = 16\n"
            "k = 3\n"
            "scheme = length\n"
            "d_grid = 6, 8\n"
            "trials = 10\n"
            "master_seed = 5\n"
        ))
        assert cfg.kind == "success_prob"
        assert cfg.d_grid == (6, 8)
        assert cfg.master_seed == 5

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping({"kind": "success_prob", "m": 4, "n": 4, "k": 1,
                                 "d_grid": (2,), "bogus": 1})
        assert "bogus" in str(exc.value)

    def test_bad_line_reported(self):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(read_key_values("kind = success_prob\nno equals sign here\n"))
        assert "line 2" in str(exc.value)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"kind": "nope"})
        with pytest.raises(ConfigError):
            config_from_mapping({"kind": "success_prob", "m": 8, "n": 8, "k": 9, "d_grid": (4,)})
        with pytest.raises(ConfigError):
            config_from_mapping({"kind": "success_prob", "m": 8, "n": 8, "k": 2})  # no d source
        with pytest.raises(ConfigError):
            config_from_mapping({"kind": "clustering", "m": 10})  # dims/points missing

    def test_deim_rejects_grid(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(kind="deim_check", m=15, n=12, k=3, d_grid=(3,))
        assert exc.value.field == "d_grid"

    def test_clustering_rejects_multi_point_grid(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(kind="clustering", m=12, dims=(2, 2), points=(6, 6), d_grid=(8, 12))
        assert exc.value.field == "d_grid"
        ExperimentConfig(kind="clustering", m=12, dims=(2, 2), points=(6, 6), d_grid=(8,))

    def test_deim_rejects_sparsity(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(kind="deim_check", m=15, n=12, k=3, sparsity=0.5)
        assert exc.value.field == "sparsity"

    @pytest.mark.parametrize("kind, values, field", [
        ("success_prob", {"scheme": "bogus"}, "scheme"),
        ("success_prob", {"trials": 0}, "trials"),
        ("noise_stability", {"sigma": -0.5}, "sigma"),
        ("success_prob", {"sparsity": 1.0}, "sparsity"),
        ("success_prob", {"sparsity": -0.25}, "sparsity"),
        ("success_prob", {"tol": 0.0}, "tol"),
        ("success_prob", {"d_grid": (4, 0)}, "d_grid"),
        ("success_prob", {"m": 0}, "m"),
        ("success_prob", {"n": 0}, "n"),
        ("clustering", {"m": 0, "n": None, "k": None, "dims": (1,), "points": (2,)}, "m"),
        ("success_prob", {"master_seed": -1}, "master_seed"),
        ("success_prob", {"master_seed": 1.5}, "master_seed"),
        ("success_prob", {"master_seed": True}, "master_seed"),
        ("success_prob", {"master_seed": "3"}, "master_seed"),
        ("success_prob", {"trials": 2.5}, "trials"),
        ("success_prob", {"trials": True}, "trials"),
        ("success_prob", {"m": 10.0}, "m"),
        ("success_prob", {"k": 2.0}, "k"),
        ("success_prob", {"d_grid": (3.5,)}, "d_grid"),
        ("success_prob", {"d_grid": [4]}, "d_grid"),
        ("success_prob", {"d_grid": (4, True)}, "d_grid"),
        ("success_prob", {"dedup": "no"}, "dedup"),
        ("success_prob", {"dedup": 1}, "dedup"),
        ("noise_stability", {"sigma": True}, "sigma"),
        ("noise_stability", {"sigma": "0.5"}, "sigma"),
        ("noise_stability", {"sigma": 10**400}, "sigma"),
        ("success_prob", {"kappa": np.float64("inf")}, "kappa"),
        ("success_prob", {"out_path": 5}, "out_path"),
        ("clustering", {"m": 12, "n": None, "k": None, "dims": (2, 2.0), "points": (6, 6)},
         "dims"),
    ])
    def test_each_range_rule_names_its_field(self, kind, values, field):
        base = {"m": 8, "n": 6, "k": 2, "d_grid": (4,)}
        given = {name: v for name, v in {**base, **values}.items() if v is not None}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(kind=kind, **given)
        assert exc.value.field == field

    @pytest.mark.parametrize("values, field, message", [
        (dict(kind="success_prob", eps=0.9, delta=1e-320), "eps", "is not a finite integer"),
        (dict(kind="success_prob", eps=1.0, delta=0.5), "eps", "eps must lie in (0, 1)"),
        (dict(kind="noise_stability", eps=0.9, delta=0.5, big_c=0.0), "big_c",
         "leading constant must be finite and positive"),
        (dict(kind="clustering", m=12, dims=(2, 3), points=(6,)), "dims",
         "dims and points lists must have equal length"),
    ])
    def test_a_sample_size_or_subspace_rule_names_its_field(self, values, field, message):
        # these rules live in sampling and cluster, whose DomainError names no field
        sizes = {} if values["kind"] == "clustering" else {"m": 8, "n": 6, "k": 2}
        with pytest.raises(ConfigError, match=re.escape(message)) as exc:
            ExperimentConfig(**sizes, **values)
        assert exc.value.field == field

    @pytest.mark.parametrize("values, name", [
        ({"trials": 2.5}, "an integer, got 2.5"), ({"dedup": "no"}, "a bool, got 'no'"),
        ({"tol": float("nan")}, "a finite number, got nan"),
        ({"d_grid": (3.5,)}, "a tuple of integers, got (3.5,)"),
    ])
    def test_a_value_of_the_wrong_type_names_what_its_field_admits(self, values, name):
        with pytest.raises(ConfigError, match=re.escape(f"must be {name}")):
            ExperimentConfig(**{"kind": "success_prob", "m": 8, "n": 6, "k": 2, "d_grid": (4,),
                                **values})

    def test_numpy_numbers_are_admitted_and_run_as_python_numbers(self):
        plain = dict(kind="success_prob", m=12, n=10, k=2, d_grid=(4, 6), trials=2,
                     master_seed=3, kappa=10.0)
        numpy = dict(plain, m=np.int64(12), n=np.uint16(10), k=np.int8(2),
                     d_grid=(np.int64(4), 6), trials=np.int32(2), master_seed=np.uint64(3),
                     kappa=np.float32(10.0))
        assert run_rows(ExperimentConfig(**numpy)) == run_rows(ExperimentConfig(**plain))

    def test_mapping_without_kind_rejected(self):
        with pytest.raises(ConfigError, match="required") as exc:
            config_from_mapping({"m": "8", "n": "6", "k": "2", "d_grid": "4"})
        assert exc.value.field == "kind"

    @pytest.mark.parametrize("sparsity, k, survivors", [
        (0.9, 1, 1),  # (1 - 0.9) * 10 is 0.9999999999999998, yet one column survives
        (0.549, 5, 5),
        (0.6, 5, 4),
    ])
    def test_sparsity_accepted_while_k_columns_survive(self, sparsity, k, survivors):
        cfg = dict(kind="success_prob", m=12, n=10, k=k, sparsity=sparsity, d_grid=(6,), trials=1)
        # a zeroed column of A is a zero row of q; a rank-1 config counts the survivors
        rank_one = ExperimentConfig(**{**cfg, "k": 1})
        [t] = harness._test_matrices(rank_one, 6, [harness._Trial(0, trial_generator(0, 0))])
        assert np.count_nonzero(t.q.any(axis=1)) == survivors
        if survivors < k:
            with pytest.raises(ConfigError) as exc:
                ExperimentConfig(**cfg)
            assert exc.value.field == "sparsity"
        else:
            assert len(run_rows(ExperimentConfig(**cfg))[0]) == 1

    @pytest.mark.parametrize("kind, field, value", [
        ("clustering", "kappa", 10.0),
        ("clustering", "dedup", True),
        ("deim_check", "scheme", "uniform"),
        ("success_prob", "sigma", 1e-3),
    ])
    def test_rejects_fields_the_kind_never_reads(self, kind, field, value):
        base = {"clustering": dict(m=12, dims=(2, 2), points=(6, 6)),
                "deim_check": dict(m=15, n=12, k=3),
                "success_prob": dict(m=15, n=12, k=3, d_grid=(6,))}[kind]
        ExperimentConfig(kind=kind, **base)
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(kind=kind, **base, **{field: value})
        assert exc.value.field == field

    @pytest.mark.parametrize("kappa", [0.5, 0.0, -2.0, float("nan")])
    def test_kappa_below_one_rejected(self, kappa):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(kind="success_prob", m=8, n=8, k=2, d_grid=(4,), kappa=kappa)
        assert exc.value.field == "kappa"
        ExperimentConfig(kind="success_prob", m=8, n=8, k=2, d_grid=(4,), kappa=1.0)

    def test_kappa_with_rank_one_rejected(self):
        # a rank-1 matrix has condition number 1, so any other kappa would be ignored
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(kind="success_prob", m=8, n=8, k=1, d_grid=(4,), kappa=100.0)
        assert exc.value.field == "kappa"
        ExperimentConfig(kind="success_prob", m=8, n=8, k=1, d_grid=(4,), kappa=1.0)

    @pytest.mark.parametrize("kind", ["success_prob", "noise_stability", "deim_check"])
    def test_kappa_beyond_one_over_tol_rejected(self, kind):
        # a sigma_k below tol * ||A||_2 hides from the residual test: kappa * tol <= 1
        base = dict(kind=kind, m=8, n=8, k=2) | ({} if kind == "deim_check" else {"d_grid": (4,)})
        for kappa, tol in ((1e8 * 1.001, 1e-8), (1e5, 1e-4), (3.0, 0.5)):
            with pytest.raises(ConfigError) as exc:
                ExperimentConfig(**base, kappa=kappa, tol=tol)
            assert exc.value.field == "kappa"
        for kappa, tol in ((1e8, 1e-8), (1e4, 1e-4), (2.0, 0.5)):
            ExperimentConfig(**base, kappa=kappa, tol=tol)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError) as exc:
            text = "kind = success_prob\nm = 8\nn = 8\nk = 2\nd_grid =\n"
            config_from_mapping(read_key_values(text))
        assert exc.value.field == "d_grid"

    @pytest.mark.parametrize("text, field", [
        ("kind = success_prob\nm = 8\nn = 8\nk = 2\nd_grid = 2,,4\n", "d_grid"),
        ("kind = success_prob\nm = 8\nn = 8\nk = 2\nd_grid = 2, 4,\n", "d_grid"),
        ("kind = clustering\nm = 12\ndims = 2,,1\npoints = 6,6\n", "dims"),
        ("kind = clustering\nm = 12\ndims = 2,1\npoints = ,6,6\n", "points"),
    ], ids=["grid-inner", "grid-trailing", "dims", "points-leading"])
    def test_empty_list_item_rejected(self, text, field):
        # an empty item is an error, not a shorter list: "2,,1" is not (2, 1)
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(read_key_values(text))
        assert exc.value.field == field

    def test_tol_defaults_to_the_exactness_tolerance(self):
        assert ExperimentConfig(kind="deim_check", m=8, n=8, k=2).tol == EXACTNESS_TOL

    def test_d_from_formula(self):
        cfg = config_from_mapping({"kind": "success_prob", "m": 30, "n": 30, "k": 2,
                                   "eps": "0.5", "delta": "0.5", "trials": 1})
        x = 2.0 / (0.5**4 * 0.5)
        assert cfg.resolved_d_grid() == (math.ceil(x * math.log(x)),)

    @pytest.mark.parametrize("word, value", [
        ("1", True), ("0", False), ("true", True), ("False", False),
        ("YES", True), ("no", False), (" On ", True), ("off", False),
    ])
    def test_bool_words(self, word, value):
        cfg = config_from_mapping(read_key_values(f"kind = success_prob\nm = 8\nn = 8\nk = 2\n"
                                                  f"d_grid = 4\ndedup = {word}\n"))
        assert cfg.dedup is value

    @pytest.mark.parametrize("word", ["ture", "yes please", "2", "", "y"])
    def test_other_bool_values_rejected(self, word):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping({"kind": "success_prob", "m": 8, "n": 8, "k": 2,
                                 "d_grid": (4,), "dedup": word})
        assert exc.value.field == "dedup"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["sigma", "eps", "delta", "big_c", "kappa", "sparsity",
                                       "tol"])
    def test_non_finite_floats_rejected(self, field, value):
        base = {"kind": "noise_stability", "m": 8, "n": 8, "k": 2, "eps": "0.5", "delta": "0.5"}
        config_from_mapping(base)
        with pytest.raises(ConfigError) as exc:
            config_from_mapping({**base, field: value})
        assert exc.value.field == field
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**{**base, "eps": 0.5, "delta": 0.5, field: float(value)})
        assert exc.value.field == field

    @pytest.mark.parametrize("field, value", [("eps", 5.0), ("delta", 0.0), ("big_c", -1.0)])
    def test_a_sample_size_input_out_of_range_is_refused_when_built(self, field, value):
        with pytest.raises(ConfigError, match=f"got {value}") as exc:
            ExperimentConfig(kind="success_prob", m=10, n=10, k=2,
                             **{"eps": 0.5, "delta": 0.5, field: value})
        assert exc.value.field == field

    def test_a_grid_point_over_the_ceiling_is_refused_when_built(self):
        # a 10-by-10 rank-2 trial holds 8 (40 + 17 d) bytes; the largest d that fits builds
        d = (sampling._CEILING_BYTES // 8 - 40) // 17
        cfg = dict(kind="success_prob", m=10, n=10, k=2)
        fits = ExperimentConfig(**cfg, d_grid=(4, d))
        assert harness._trial_bytes(fits, d + 1) > sampling._CEILING_BYTES
        with pytest.raises(ConfigError, match="would hold") as exc:
            ExperimentConfig(**cfg, d_grid=(4, d + 1))
        assert exc.value.field == "d_grid"
        with pytest.raises(ConfigError, match="would hold") as exc:
            ExperimentConfig(**cfg, eps=0.001, delta=0.5)
        assert exc.value.field == "eps"


class TestGenerators:
    def test_rank_and_shape(self, rng):
        a = lowrank_gaussian(12, 9, 4, rng)
        assert a.shape == (12, 9)
        assert np.linalg.matrix_rank(a) == 4

    def test_kappa_target(self, rng):
        a = lowrank_gaussian(20, 15, 5, rng, kappa=37.0)
        s = np.linalg.svd(a, compute_uv=False)[:5]
        assert s[0] / s[4] == pytest.approx(37.0, rel=1e-10)

    @pytest.mark.parametrize("kappa", [None, 37.0])
    def test_factors_multiply_to_the_matrix(self, kappa):
        # a list of generators stacks each one's factors, with the bits of each one alone
        p, q = lowrank_factors(20, 15, 5, [trial_generator(4, i) for i in range(3)], kappa)
        assert (p.shape, q.shape) == ((3, 20, 5), (3, 15, 5))
        for i in range(3):
            a = lowrank_gaussian(20, 15, 5, trial_generator(4, i), kappa)
            np.testing.assert_array_equal(p[i] @ q[i].T, a)

    def test_zero_columns(self):
        cfg = ExperimentConfig(kind="success_prob", m=10, n=20, k=3, sparsity=0.8, d_grid=(6,))
        trials = [harness._Trial(i, trial_generator(0, i)) for i in range(3)]
        for t in harness._test_matrices(cfg, 6, trials):
            assert int(np.sum(np.all(t.q == 0.0, axis=1))) == 16
            assert int(np.sum(np.all(t.p @ t.q.T == 0.0, axis=0))) == 16

    @pytest.mark.parametrize("k, kappa", [(10, None), (5, None), (0, None), (-1, None),
                                          (2, 0.5), (2, 0.0), (2, math.inf), (2, math.nan)])
    def test_factors_outside_their_range_raise(self, k, kappa):
        # lowrank_gaussian(5, 4, 10, rng) would be rank 4, k = 0 the zero matrix
        with pytest.raises(DomainError):
            lowrank_factors(5, 4, k, [trial_generator(0, 0)], kappa)
        with pytest.raises(DomainError):
            lowrank_gaussian(5, 4, k, trial_generator(0, 0), kappa)

    def test_noise_norm(self, rng):
        (e,) = spectral_noise((9, 7), 1e-3, [rng])
        assert np.linalg.norm(e, 2) == pytest.approx(1e-3, rel=1e-12)
        assert np.all(spectral_noise((4, 4), 0.0, [rng]) == 0.0)

    def test_trial_streams_are_stable(self):
        a = trial_generator(9, 4).standard_normal(8)
        b = trial_generator(9, 4).standard_normal(8)
        c = trial_generator(9, 5).standard_normal(8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


def numpy_stream(seed, index):
    """numpy's own Philox stream of ``(seed, index)``, which :func:`trial_generator` transcribes."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,))))


def assert_same_stream(ours, theirs):
    """The two generators hold one Philox key and counter and give the same draws of each kind."""
    for name in ("key", "counter"):
        np.testing.assert_array_equal(ours.bit_generator.state["state"][name],
                                      theirs.bit_generator.state["state"][name])
    np.testing.assert_array_equal(ours.standard_normal(7), theirs.standard_normal(7))
    np.testing.assert_array_equal(ours.random(5), theirs.random(5))
    np.testing.assert_array_equal(ours.permutation(11), theirs.permutation(11))
    np.testing.assert_array_equal(ours.choice(13, size=6, replace=False),
                                  theirs.choice(13, size=6, replace=False))


# 2**128 + 11 has five words and 2**200 + 12345 seven, the seeds here that numpy does not pad
# to four; 2**32 + 3 is a two-word spawn key; the 62-bit seeds are drawn once, from a fixed
# generator
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 11, 2**200 + 12345,
                *np.random.default_rng(35).integers(0, 2**62, 3).tolist()]
STREAM_INDICES = [0, 1, 2**32 + 3]


class TestTrialStreams:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("index", STREAM_INDICES)
    def test_a_stream_and_its_children_are_numpys_bit_for_bit(self, seed, index):
        ours, theirs = trial_generator(seed, index), numpy_stream(seed, index)
        # the first spawn(2) gives the children (i, 0) and (i, 1), the second (i, 2) and (i, 3)
        for _ in range(2):
            for child, numpy_child in zip(ours.spawn(2), theirs.spawn(2)):
                (grandchild,), (numpy_grandchild,) = child.spawn(1), numpy_child.spawn(1)
                assert_same_stream(grandchild, numpy_grandchild)
                assert_same_stream(child, numpy_child)
        assert_same_stream(ours, theirs)

    def test_streams_of_a_memoized_seed_are_numpys(self):
        # the first stream mixes the seed's words, and the others take them from the memo
        harness._seed_pool.cache_clear()
        for i in range(3, 9):
            assert_same_stream(trial_generator(2**64 + 7, i), numpy_stream(2**64 + 7, i))
        assert harness._seed_pool.cache_info()[:2] == (5, 1)

    def test_every_trial_stream_comes_from_trial_generator(self, monkeypatch):
        # one stream path, so a trace of trial_generator sees every trial's stream
        calls, real = [], harness.trial_generator
        monkeypatch.setattr(harness, "trial_generator", lambda *key: calls.append(key) or real(*key))
        cfg = ExperimentConfig(kind="success_prob", m=12, n=10, k=2, scheme="length",
                               d_grid=(4, 6), trials=3, master_seed=2**64 + 7)
        run_experiment(cfg)
        assert calls == [(2**64 + 7, i) for i in range(6)]

    @pytest.mark.parametrize("n_words", [1, 2, 4, 5])
    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64, "uint64"])
    @pytest.mark.parametrize("seed, index", [(0, 0), (2**64 + 7, 2**32 + 3), (2**128 + 11, 1)])
    def test_generate_state_is_seedsequences(self, n_words, dtype, seed, index):
        got = trial_generator(seed, index).bit_generator.seed_seq.generate_state(n_words, dtype)
        want = np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(n_words, dtype)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint16, ">u8"])
    def test_generate_state_rejects_other_dtypes(self, dtype):
        with pytest.raises(DomainError, match="dtype must be uint32 or uint64"):
            trial_generator(0, 0).bit_generator.seed_seq.generate_state(2, dtype)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**200), index=st.integers(0, 2**80))
    def test_every_seed_and_index_is_numpys(self, seed, index):
        ours, theirs = trial_generator(seed, index), numpy_stream(seed, index)
        for child, numpy_child in zip(ours.spawn(2), theirs.spawn(2)):
            assert_same_stream(child, numpy_child)
        assert_same_stream(ours, theirs)

    def test_numpy_integers_are_integers(self):
        assert_same_stream(trial_generator(np.int64(9), np.uint8(4)), trial_generator(9, 4))

    @pytest.mark.parametrize("seed, index, match", [
        (1.5, 0, "seed must be an integer"), (True, 0, "seed must be an integer"),
        ("3", 0, "seed must be an integer"), (np.float64(2.0), 0, "seed must be an integer"),
        (-1, 0, "seed must be >= 0"), (0, 2.7, "trial index must be an integer"),
        (0, False, "trial index must be an integer"), (0, -1, "trial index must be >= 0"),
    ])
    def test_a_bad_seed_or_index_raises(self, seed, index, match):
        with pytest.raises(DomainError, match=match):
            trial_generator(seed, index)

    def test_a_stream_loaded_in_a_fresh_process_still_spawns(self, tmp_path):
        # the loading process has mixed no seed, so unpickling must register the class itself
        rng = trial_generator(2**64 + 7, 3)
        rng.spawn(2)
        path = tmp_path / "rng.pickle"
        path.write_bytes(pickle.dumps(rng))
        code = ("import pickle, sys; rng = pickle.loads(open(sys.argv[1], 'rb').read()); "
                "print(*(child.random() for child in rng.spawn(2)))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code, str(path)], check=True, env=env,
                             capture_output=True, text=True).stdout.split()
        children = numpy_stream(2**64 + 7, 3).spawn(4)[2:]
        assert [float(x) for x in out] == [child.random() for child in children]

    def test_importing_the_cli_loads_no_numpy_random(self):
        # numpy.random costs 11-16 ms to import, so it loads with the first trial stream
        code = ("import sys, curlowrank.cli; "
                "assert not [m for m in sys.modules if m.startswith('numpy.random')], 'loaded'; "
                "curlowrank.harness.trial_generator(0, 0); "
                "assert 'numpy.random.bit_generator' in sys.modules")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


# ||E||_2 = sigma holds to this relative tolerance; the observed error is about 1e-15
NOISE_NORM_RTOL = 1e-12


class TestSpectralNoise:
    @pytest.mark.parametrize("shape", [(40, 25), (25, 40), (30, 30), (1, 17), (17, 1)])
    @pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e150, 1e-150])
    def test_spectral_norm_is_sigma(self, shape, sigma):
        e = spectral_noise(shape, sigma, [trial_generator(12, 0), trial_generator(12, 1)])
        assert e.shape == (2, *shape)
        for x in e:
            assert np.linalg.norm(x, 2) == pytest.approx(sigma, rel=NOISE_NORM_RTOL)

    def test_zero_sigma_gives_exact_zeros(self):
        e = spectral_noise((6, 4), 0.0, [trial_generator(13, 0), trial_generator(13, 1)])
        assert e.tobytes() == np.zeros((2, 6, 4)).tobytes()

    @pytest.mark.parametrize("sigma", [np.nan, -1.0, np.inf])
    def test_sigma_negative_or_not_finite_rejected(self, sigma):
        # NaN would give an all-NaN E and -1 the negated E
        with pytest.raises(DomainError, match="sigma must be finite"):
            spectral_noise((6, 4), sigma, [trial_generator(13, 0)])

    @pytest.mark.parametrize("sigma", [0.0, 1e-3, 10.0])
    def test_next_draw_does_not_depend_on_sigma(self, sigma):
        # each stream stands where one draw of its own block leaves it
        rngs = [trial_generator(14, 0), trial_generator(14, 1)]
        refs = [trial_generator(14, 0), trial_generator(14, 1)]
        spectral_noise((9, 7), sigma, rngs)
        for rng, ref in zip(rngs, refs):
            ref.standard_normal((9, 7))
            assert rng.standard_normal(5).tobytes() == ref.standard_normal(5).tobytes()


class TestSuccessExperiment:
    CFG = ExperimentConfig(kind="success_prob", m=20, n=16, k=3, scheme="length",
                           d_grid=(8,), trials=20, master_seed=99)

    def test_rank_one_always_succeeds(self):
        cfg = ExperimentConfig(kind="success_prob", m=10, n=8, k=1, scheme="length",
                               d_grid=(1,), trials=25, master_seed=1)
        summary = run_experiment(cfg)
        assert summary["groups"][0]["success_rate"] == 1.0

    def test_records_match_contract(self):
        records, _ = run_rows(self.CFG)
        assert len(records) == 20
        for r in records:
            assert r.d1 == r.d2 == 8
            if r.success:
                assert r.rel_err_F <= 1e-8

    def test_trial_isolation(self):
        # a shorter run reproduces the exact prefix of a longer one
        short = ExperimentConfig(kind="success_prob", m=20, n=16, k=3, scheme="length",
                                 d_grid=(8,), trials=5, master_seed=99)
        long_records, _ = run_rows(self.CFG)
        short_records, _ = run_rows(short)
        assert short_records == long_records[:5]

    def test_monotone_in_d(self):
        cfg = ExperimentConfig(kind="success_prob", m=20, n=16, k=3, scheme="uniform",
                               d_grid=(3, 4, 6, 9, 14), trials=500, master_seed=31)
        summary = run_experiment(cfg)
        rates = [g["success_rate"] for g in summary["groups"]]
        for lo, hi in zip(rates, rates[1:]):
            assert hi >= lo - 0.03

    def test_length_beats_uniform_on_sparse(self):
        base = dict(kind="success_prob", m=20, n=20, k=2, d_grid=(6,), trials=200,
                    master_seed=17, sparsity=0.7)
        s_len = run_experiment(ExperimentConfig(scheme="length", **base))
        s_uni = run_experiment(ExperimentConfig(scheme="uniform", **base))
        assert s_len["groups"][0]["success_rate"] > s_uni["groups"][0]["success_rate"]


class TestNoiseExperiment:
    def test_zero_sigma_matches_success_flags(self):
        common = dict(m=18, n=14, k=3, scheme="length", d_grid=(9,), trials=25, master_seed=7)
        noise_records, _ = run_rows(
            ExperimentConfig(kind="noise_stability", sigma=0.0, **common))
        succ_records, _ = run_rows(
            ExperimentConfig(kind="success_prob", **common))
        assert [r.success for r in noise_records] == [r.success for r in succ_records]

    def test_uniform_scheme_ignores_noise(self):
        common = dict(kind="noise_stability", m=18, n=14, k=3, scheme="uniform",
                      d_grid=(9,), trials=40, master_seed=8)
        rec_small, _ = run_rows(ExperimentConfig(sigma=1e-6, **common))
        rec_large, _ = run_rows(ExperimentConfig(sigma=1e-2, **common))
        assert [r.success for r in rec_small] == [r.success for r in rec_large]

    def test_length_scheme_takes_one_length_pass_of_a_plus_e(self, monkeypatch):
        # one pass over the stack of A and one over that of E for the floors, one over the
        # stack of A + E for both the certificate and the draws, for the whole grid point
        calls = []
        real = sampling._squared_lengths

        def counting(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(sampling, "_squared_lengths", counting)
        monkeypatch.setattr(harness, "_squared_lengths", counting)
        cfg = ExperimentConfig(kind="noise_stability", m=40, n=30, k=3, sigma=1e-3,
                               scheme="length", d_grid=(9,), trials=3, master_seed=15)
        records, _ = run_rows(cfg)
        assert len(records) == 3
        assert calls == [(3, 40, 30)] * 3

    @pytest.mark.parametrize("sigma", [1e-3, 0.1])
    def test_success_is_exactness_of_the_clean_cur(self, sigma, monkeypatch):
        # the trial reads success in A's core, with A's SVD rescaled as A is to ||A||_2 = 1;
        # the clean A is the one whose floors were taken, the indices the noisy CUR's.
        # A chunk takes the lengths of its stacks of A and of E, then the floors of those
        # stacks, so the A whose floors are all > 0 are the live trials', in trial order,
        # and the live trials extract their noisy CURs in that order
        seen, live, picks = [], [], []
        lengths, floors, extract = harness._squared_lengths, harness._noisy_floors, harness._extract

        def recording_lengths(a):
            seen.append(a.copy())
            return lengths(a)

        def recording_floors(*args):
            rows, cols = params = floors(*args)
            keep = (rows > 0.0).all(axis=1) & (cols > 0.0).all(axis=1)
            live.extend(seen[-2][keep])
            return params

        def recording_extract(a, rows, cols):
            picks.append((rows, cols))
            return extract(a, rows, cols)

        monkeypatch.setattr(harness, "_squared_lengths", recording_lengths)
        monkeypatch.setattr(harness, "_noisy_floors", recording_floors)
        monkeypatch.setattr(harness, "_extract", recording_extract)
        flags = []
        for seed in range(3):
            live.clear()
            picks.clear()
            cfg = ExperimentConfig(kind="noise_stability", m=40, n=30, k=3, sigma=sigma,
                                   scheme="length", d_grid=(3, 6), trials=6, master_seed=seed)
            records, _ = run_rows(cfg)
            assert len(records) == len(live) == len(picks) > 0
            clean = [(a, *pick) for a, pick in zip(live, picks)]
            expected = [relative_errors(a, _cur(as_matrix(a), rows, cols, None))[1] <= cfg.tol
                        for a, rows, cols in clean]
            assert [r.success for r in records] == expected
            flags += expected
        assert any(flags) and not all(flags)

    def test_dominating_noise_counts_as_skip(self):
        cfg = ExperimentConfig(kind="noise_stability", m=2, n=2, k=1, sigma=1e6,
                               scheme="uniform", d_grid=(2,), trials=4, master_seed=10)
        records, summary = run_rows(cfg)
        assert summary["groups"][0]["skipped"] == 4
        assert records == []

    def test_median_err_to_noise_is_numpys_median(self):
        # the summary's sort-based median has np.median's bits, and a run imports no numpy.ma
        rng = trial_generator(4545, 0)
        for n in [*range(1, 40), 0, 0]:
            values = (rng.standard_normal(n) * 10.0 ** rng.integers(-200, 200, n)).tolist()
            values = values or [float("nan")] * int(rng.integers(1, 5))
            assert repr(harness._median(values)) == repr(float(np.median(values)))
        code = ("import sys; from curlowrank.harness import ExperimentConfig, run_experiment; "
                "cfg = ExperimentConfig(kind='noise_stability', m=12, n=10, k=3, sigma=0.1, "
                "d_grid=(4,), trials=3); "
                "assert run_experiment(cfg)['groups'][0]['median_err_to_noise'] > 0; "
                "assert 'numpy.ma' not in sys.modules")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


# Configs whose grid point runs its trials through stacked calls; dedup makes U ragged,
# noise at 0.1 skips half of the trials, some between live ones, and at 1e6 all of them,
# kappa adds a stacked reshape.  A clustering grid point factors its data matrices at
# once; the second model has lines among its subspaces and an ambient dim of exactly
# sum(dims).
TABLE = dict(m=30, n=24, k=4)
STACKED_CONFIGS = {
    "length": dict(TABLE, kind="success_prob", scheme="length", d_grid=(8,)),
    "leverage_kappa": dict(TABLE, kind="success_prob", scheme="leverage", kappa=1e6,
                           d_grid=(8,)),
    "uniform_sparse_dedup": dict(TABLE, kind="success_prob", scheme="uniform", sparsity=0.5,
                                 dedup=True, d_grid=(10,)),
    "noise_length": dict(TABLE, kind="noise_stability", scheme="length", sigma=1e-3,
                         d_grid=(8,)),
    "noise_leverage_dedup_skips": dict(TABLE, kind="noise_stability", scheme="leverage",
                                       sigma=0.1, dedup=True, d_grid=(8,)),
    "noise_uniform": dict(TABLE, kind="noise_stability", scheme="uniform", sigma=1e-3,
                          d_grid=(8,)),
    "noise_sigma0": dict(TABLE, kind="noise_stability", scheme="length", sigma=0.0,
                         d_grid=(8,)),
    "noise_skips_all": dict(TABLE, kind="noise_stability", scheme="length", sigma=1e6,
                            d_grid=(8,)),
    "noise_leverage_kappa_dedup": dict(TABLE, kind="noise_stability", scheme="leverage",
                                       sigma=1e-3, kappa=1e6, dedup=True, d_grid=(8,)),
    # with the chunk budget patched to two 180-by-150 trials, the six span three chunks; at
    # 0.04 the first trial of the first chunk and the second of the second are dominated
    "noise_three_chunks": dict(kind="noise_stability", m=180, n=150, k=4, scheme="length",
                               sigma=0.04, d_grid=(8,)),
    "noise_length_skips_between": dict(TABLE, kind="noise_stability", scheme="length",
                                       sigma=0.1, d_grid=(8,)),
    "deim": dict(TABLE, kind="deim_check"),
    "deim_kappa": dict(TABLE, kind="deim_check", kappa=1e6),
    "clustering_length": dict(kind="clustering", m=20, dims=(2, 3, 4), points=(10, 10, 10),
                              scheme="length", d_grid=(16,)),
    "clustering_lines_tight_leverage": dict(kind="clustering", m=6, dims=(1, 1, 4),
                                            points=(2, 1, 7), scheme="leverage", d_grid=(9,)),
}

def trial_bytes(cfg):
    """The bytes of one trial under the chunk rule at the config's one draw count ``d``: the
    factor pair of the m-by-n rank-k data and 3k + 11 floats a draw; a noise trial adds E, A
    and E's Gram matrix, twice its noisy C and R and six times its U."""
    (d,) = cfg.resolved_d_grid()
    if cfg.kind == "clustering":
        m, n, k = cfg.m, sum(cfg.points), sum(cfg.dims)
    else:
        m, n, k = cfg.m, cfg.n, cfg.k
    floats = (m + n) * k + d * (3 * k + 11)
    if cfg.kind == "noise_stability":
        d1, d2 = (min(d, m), min(d, n)) if cfg.dedup else (d, d)
        floats += 2 * m * n + min(m, n) ** 2 + 2 * (m * d2 + d1 * n) + 6 * d1 * d2
    return 8 * floats


def traced_peak(cfg):
    """The traced peak of ``run_experiment(cfg)`` in bytes, after a first run has allocated the
    package's lazily built caches."""
    run_experiment(cfg)
    tracemalloc.start()
    try:
        run_experiment(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The draw stage's configs: every scheme at sparsity 0 and 0.5, with and without dedup
# and kappa = 1e6, and both clustering models.
DRAW_CONFIGS = {
    f"{scheme}_sparsity{sparsity}" + ("_dedup_kappa" if dedup else ""):
        dict(TABLE, kind="success_prob", scheme=scheme, sparsity=sparsity, dedup=dedup,
             kappa=1e6 if dedup else None, d_grid=(12,))
    for scheme in SCHEMES for sparsity in (0.0, 0.5) for dedup in (False, True)
}
DRAW_CONFIGS.update({name: STACKED_CONFIGS[name]
                     for name in ("clustering_length", "clustering_lines_tight_leverage")})


class TestStageMajor:
    @pytest.mark.parametrize("name", sorted(STACKED_CONFIGS))
    def test_a_trial_in_a_grid_point_is_the_trial_alone(self, name, monkeypatch):
        cfg = ExperimentConfig(trials=6, master_seed=41, **STACKED_CONFIGS[name])
        d = cfg.resolved_d_grid()[0]
        if name == "noise_three_chunks":
            monkeypatch.setattr(harness, "_CHUNK_BYTES", 2 * trial_bytes(cfg))
            assert harness._chunk_size(cfg, d) == 2
        together, alone = io.StringIO(), io.StringIO()
        harness._run_trials(cfg, d, range(6), {}, together)
        for i in range(6):
            harness._run_trials(cfg, d, [i], {}, alone)
        assert together.getvalue() == alone.getvalue()
        assert bool(together.getvalue()) != (name == "noise_skips_all")

    @pytest.mark.parametrize("name", ["length", "noise_length", "noise_skips_all",
                                      "noise_length_skips_between", "deim", "clustering_length"])
    def test_a_grid_point_in_chunks_is_the_grid_point_in_one(self, name, monkeypatch):
        # two trials a chunk, so six span three; no stage sees more than a chunk
        cfg = ExperimentConfig(trials=6, master_seed=43, **STACKED_CONFIGS[name])
        d = cfg.resolved_d_grid()[0]
        assert harness._chunk_size(cfg, d) >= 6
        whole = repr(run_rows(cfg))
        monkeypatch.setattr(harness, "_CHUNK_BYTES", 2 * trial_bytes(cfg))
        assert harness._chunk_size(cfg, d) == 2
        stages = harness._STAGES[cfg.kind]
        seen = []

        def spy(stage):
            @functools.wraps(stage)
            def counted(cfg, d, trials):
                seen.append((stage, len(trials)))
                return stage(cfg, d, trials)
            return counted

        monkeypatch.setitem(harness._STAGES, cfg.kind, tuple(map(spy, stages)))
        assert repr(run_rows(cfg)) == whole
        assert [n for stage, n in seen if stage is stages[0]] == [2, 2, 2]
        assert max(n for _, n in seen) <= 2

    # README's table: trials per chunk at each m-by-n for each (kind, k, d)
    CHUNK_TABLE_COLUMNS = [("noise_stability", 4, 16), ("noise_stability", 4, 100),
                           ("success_prob", 4, 16), ("success_prob", 4, 1000),
                           ("success_prob", 10, 40)]

    @pytest.mark.parametrize("m, n, sizes", [(50, 40, (24, 3, 360, 11, 103)),
                                             (180, 150, (2, 1, 155, 10, 53)),
                                             (300, 200, (1, 1, 110, 10, 39)),
                                             (1000, 800, (1, 1, 34, 8, 13))])
    def test_the_readme_chunk_table(self, m, n, sizes):
        for (kind, k, d), size in zip(self.CHUNK_TABLE_COLUMNS, sizes):
            cfg = ExperimentConfig(kind=kind, m=m, n=n, k=k, d_grid=(d,))
            assert harness._chunk_size(cfg, d) == size
            assert size == max(1, harness._CHUNK_BYTES // trial_bytes(cfg))

    @pytest.mark.parametrize("fields, size", [
        (dict(kind="noise_stability", m=50, n=40, k=4, d_grid=(1000,), dedup=True), 5),
        (dict(kind="noise_stability", m=1000, n=800, k=10, d_grid=(40,)), 1),
        (dict(kind="deim_check", m=50, n=40, k=4), 579),
        (dict(kind="clustering", m=60, dims=(2, 3, 4, 5, 6), points=(30,) * 5), 12),
        (dict(kind="clustering", m=40, dims=(2, 2, 3, 3, 4, 4, 5), points=(20,) * 7), 9),
    ])
    def test_chunk_sizes(self, fields, size):
        # with the table, the benchmark's grid points stay one chunk: 20 trials at 50-by-40
        # and 16 draws, 5 in each clustering model, at 240 and 289 draws, and 1 at 1000-by-800
        cfg = ExperimentConfig(**fields)
        d = cfg.resolved_d_grid()[0]
        assert harness._chunk_size(cfg, d) == size == max(1, harness._CHUNK_BYTES // trial_bytes(cfg))

    # Grid points whose draws outweigh their factors, a success trial holding gathers of 5000
    # indices a side and a noise trial its 400-by-400 U six times
    DRAW_HEAVY = [dict(kind="success_prob", m=1000, n=800, k=4, d_grid=(5000,)),
                  dict(kind="noise_stability", m=50, n=40, k=4, sigma=1e-3, d_grid=(400,))]

    @pytest.mark.parametrize("fields", DRAW_HEAVY)
    def test_a_trial_holds_about_its_trial_bytes(self, fields, monkeypatch):
        # one chunk of one trial, then of three: the peak grows by the rule's bytes a trial
        monkeypatch.setattr(harness, "_CHUNK_BYTES", 2**40)
        cfg = ExperimentConfig(trials=1, **fields)
        grown = (traced_peak(replace(cfg, trials=3)) - traced_peak(cfg)) / 2
        assert 0.9 * trial_bytes(cfg) < grown < 1.1 * trial_bytes(cfg)

    @pytest.mark.parametrize("fields", DRAW_HEAVY)
    def test_a_grid_point_peaks_at_one_chunk_at_any_trial_count(self, fields, monkeypatch):
        cfg = ExperimentConfig(trials=2, **fields)
        monkeypatch.setattr(harness, "_CHUNK_BYTES", 2 * trial_bytes(cfg))
        assert traced_peak(replace(cfg, trials=8)) - traced_peak(cfg) < trial_bytes(cfg) / 4

    @staticmethod
    def _first_stage(cfg, bases=None):
        """Six trials through ``cfg``'s first stage, each with a fresh stream for the next."""
        trials = [harness._Trial(i, trial_generator(cfg.master_seed, i)) for i in range(6)]
        stage = harness._STAGES[cfg.kind][0]
        trials = stage(cfg, cfg.resolved_d_grid()[0], trials)
        assert [t.index for t in trials] == list(range(6))
        for t in trials:
            t.rng = trial_generator(cfg.master_seed, t.index)
        return trials

    @pytest.mark.parametrize("name", sorted(DRAW_CONFIGS))
    def test_draw_stage_gives_each_trial_the_draws_it_makes_alone(self, name):
        cfg = ExperimentConfig(trials=6, master_seed=47, **DRAW_CONFIGS[name])
        d = cfg.resolved_d_grid()[0]
        trials = self._first_stage(cfg)
        factors = [(t.p, t.q, t.svd) for t in trials]
        clustering = cfg.kind == "clustering"
        drawn = harness._draws(cfg, d, trials)
        assert [t.index for t in drawn] == list(range(6))
        for (p, q, f), t in zip(factors, drawn):
            k = q.shape[1] if clustering else cfg.k
            dists = (ProbDist(w, axis, cfg.scheme)
                     for w, axis in zip(factored_weights(p, q, f, cfg.scheme, k), (ROWS, COLS)))
            rng = trial_generator(cfg.master_seed, t.index)
            assert t.p is p and t.q is q and t.svd is f
            assert (t.rows, t.cols) == draw_indices(*dists, d, d, rng, cfg.dedup or clustering)

    def test_draw_stage_weighs_a_trial_of_lower_rank_as_it_does_alone(self):
        cfg = ExperimentConfig(trials=6, master_seed=50, **STACKED_CONFIGS["length"])
        trials = self._first_stage(cfg)
        low = trials[1]
        low.p = low.p * [1.0, 1.0, 0.0, 1.0]  # rank 3 of the config's 4
        low.svd = factored_svd(low.p[None], low.q[None])[0]
        factors = [t.p for t in trials], [t.q for t in trials], [t.svd for t in trials]
        stacked = sampling._weights("length", 4, factors=factors)
        for i, t in enumerate(trials):
            alone = factored_weights(t.p, t.q, t.svd, "length")
            assert [w[i].tobytes() for w in stacked] == [w.tobytes() for w in alone]

    @pytest.mark.parametrize("kappa", [None, 1e6])
    def test_deim_stage_selects_from_each_basis_what_deim_select_does(self, kappa):
        cfg = ExperimentConfig(trials=6, master_seed=48, kappa=kappa, **TABLE, kind="deim_check")
        trials = self._first_stage(cfg)
        svds = [t.svd for t in trials]
        selected = harness._deim_selections(cfg, 4, trials)
        assert [t.index for t in selected] == list(range(6))
        for t, f in zip(selected, svds):
            assert t.svd is f
            assert t.rows == deim_select(f.left[:, :4], 4, ROWS)
            assert t.cols == deim_select(f.right[:, :4], 4, COLS)

    def test_stacked_selection_breaks_ties_toward_the_smallest_index(self):
        # rows i and i + 4 of the tied basis have equal magnitudes, and every entry of
        # the scaled Hadamard columns has magnitude 1/sqrt(8)
        rng = np.random.default_rng(49)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        hadamard = np.array([[1.0]])
        for _ in range(3):
            hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
        stack = np.stack([np.vstack([q, -q]) / math.sqrt(2.0), hadamard[:, :4] / math.sqrt(8.0),
                          *(np.linalg.qr(rng.standard_normal((8, 4)))[0] for _ in range(4))])
        chosen = deim._select(stack, 4)
        assert chosen[1][0] == 0 and all(i < 4 for i in chosen[0])
        for basis, indices in zip(stack, chosen):
            assert list(deim_select(basis, 4)) == indices

    # Each error the per-trial path raises on one trial, raised by the stacked stage.
    def test_a_zero_matrix_in_the_stack_fails_as_it_fails_alone(self):
        cfg = ExperimentConfig(trials=6, **STACKED_CONFIGS["length"])
        trials = self._first_stage(cfg)
        zero = trials[3]
        zero.p = np.zeros_like(zero.p)
        with pytest.raises(ZeroMatrixError) as alone:
            factored_weights(zero.p, zero.q, zero.svd, "length")
        with pytest.raises(ZeroMatrixError) as stacked:
            harness._draws(cfg, 8, trials)
        assert str(stacked.value) == str(alone.value)

    def test_a_leverage_rank_beyond_a_trial_fails_as_it_fails_alone(self):
        cfg = ExperimentConfig(trials=6, **{**STACKED_CONFIGS["length"], "scheme": "leverage"})
        trials = self._first_stage(cfg)
        low = trials[2]
        low.p = low.p * [1.0, 1.0, 1.0, 0.0]  # rank 3 of the config's 4
        low.svd = factored_svd(low.p[None], low.q[None])[0]
        with pytest.raises(RankDeficientError) as alone:
            factored_weights(low.p, low.q, low.svd, "leverage", 4)
        with pytest.raises(RankDeficientError) as stacked:
            harness._draws(cfg, 8, trials)
        assert str(stacked.value) == str(alone.value)
        for k in (0, 25):  # outside 1..min(m, n), which the config rules out for a trial
            with pytest.raises(DomainError):
                axis_dists(trials[0].p @ trials[0].q.T, "leverage", k)

    def test_weights_failing_a_check_fail_the_stack_as_they_fail_alone(self, monkeypatch):
        cfg = ExperimentConfig(trials=6, **STACKED_CONFIGS["length"])
        trials = self._first_stage(cfg)
        real = sampling._factored_lengths

        def one_negative(p, q, svds):
            rows, cols = real(p, q, svds)
            rows[-1, 0] = -rows[-1, 0]
            return rows, cols

        monkeypatch.setattr(sampling, "_factored_lengths", one_negative)
        last = trials[-1]
        with pytest.raises(ValueError) as alone:
            factored_weights(last.p, last.q, last.svd, "length")
        with pytest.raises(ValueError) as stacked:
            harness._draws(cfg, 8, trials)
        assert str(stacked.value) == str(alone.value)

    def test_a_singular_deim_step_fails_the_stack_as_it_fails_alone(self):
        cfg = ExperimentConfig(trials=6, **STACKED_CONFIGS["deim"])
        trials = self._first_stage(cfg)
        singular = trials[4]
        f = replace(singular.svd, left=singular.svd.left * [0.0, 1.0, 1.0, 1.0])
        singular.svd = f  # step 2 solves a 1-by-1 zero
        with pytest.raises(SingularInterpolationError) as alone:
            deim_select(f.left[:, :4], 4, ROWS)
        with pytest.raises(SingularInterpolationError) as stacked:
            harness._deim_selections(cfg, 4, trials)
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("kind, extra", [("deim_check", {}),
                                             ("noise_stability", dict(sigma=1e-3, d_grid=(6,)))])
    def test_the_clock_sums_each_stage_over_the_chunks(self, kind, extra, monkeypatch):
        # each read advances a fake clock by 1 s, so each stage, emit and reduce take 1 s a
        # chunk; two trials a chunk, so four span two chunks, whose rows are written
        ticks = iter(range(10_000))
        monkeypatch.setattr(harness.time, "perf_counter_ns", lambda: next(ticks) * 10**9)
        cfg = ExperimentConfig(kind=kind, m=15, n=12, k=3, trials=4, **extra)
        monkeypatch.setattr(harness, "_CHUNK_BYTES", 2 * trial_bytes(cfg))
        clock, out = {}, io.StringIO()
        group = harness._run_trials(cfg, cfg.resolved_d_grid()[0], range(4), clock, out)
        assert len(out.getvalue().splitlines()) == 4
        stages = [stage.__name__ for stage in harness._STAGES[kind]]
        assert clock == dict.fromkeys([*stages, "emit", "reduce"], 2 * 10**9)

    @staticmethod
    def _noise_peak(trials, scheme="length"):
        """The traced peak of a 300-by-200 noise grid point of ``trials`` trials, in bytes."""
        cfg = ExperimentConfig(kind="noise_stability", m=300, n=200, k=4, sigma=1e-3,
                               scheme=scheme, d_grid=(16,), trials=trials, master_seed=5)
        tracemalloc.start()
        try:
            assert run_experiment(cfg)["groups"][0]["completed"] == trials
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # one m-by-n float64 array at 300-by-200, and E's 200-by-200 Gram matrix
    MN, GRAM = 8 * 300 * 200, 8 * 200 * 200

    def test_noise_grid_point_holds_no_m_by_n_array_per_trial(self):
        self._noise_peak(1)  # the first run also allocates the package's lazily built caches
        # what grows is the stage-major factor state, about 0.58 MB over 15 trials
        assert self._noise_peak(16) - self._noise_peak(1) < 2 * self.MN

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_noise_trial_peaks_at_two_m_by_n_arrays_and_e_gram(self, scheme):
        # E and its Gram matrix, then E and A, then A + E and the leverage sketch's copy
        self._noise_peak(1, scheme)
        assert self._noise_peak(1, scheme) < 2 * self.MN + self.GRAM


class TestClusteringExperiment:
    def test_small_model(self):
        cfg = ExperimentConfig(kind="clustering", m=12, dims=(2, 2), points=(6, 6),
                               scheme="length", trials=10, master_seed=11)
        records, summary = run_rows(cfg)
        g = summary["groups"][0]
        assert g["trials"] == 10
        assert g["exact_and_perfect"] == g["exact_curs"]
        assert len(records) == 10

    def test_dispatch(self):
        cfg = ExperimentConfig(kind="deim_check", m=15, n=12, k=3, trials=5, master_seed=12)
        records, summary = run_rows(cfg)
        assert all(r.success for r in records)
        assert summary["groups"][0]["success_rate"] == 1.0


# One small grid point of each kind, for the cutoff pin below.
EVERY_KIND = {
    "success_prob": dict(kind="success_prob", m=20, n=16, k=3, d_grid=(8,), dedup=True),
    "noise_stability": dict(kind="noise_stability", m=20, n=16, k=3, sigma=1e-3, d_grid=(8,)),
    "deim_check": dict(kind="deim_check", m=20, n=16, k=3),
    "clustering": dict(kind="clustering", m=12, dims=(2, 3), points=(6, 6), d_grid=(12,)),
}


@pytest.mark.parametrize("kind", sorted(EVERY_KIND))
def test_each_kind_cuts_u_pinv_at_its_own_cutoff(kind, monkeypatch):
    # every kind cuts U^+ at A's cutoff, max(m, n) eps sigma_1 of the SVD it measures in
    cutoffs, a_cutoffs = [], []
    real_cores, real_pinvs = harness._cores_of_a, cur._pinvs

    def recording_cores(curs):
        a_cutoffs.extend(rank_cutoff(f.all_singular_values, (len(f.left), len(f.right)))[1]
                         for f, _, _ in curs)
        return real_cores(curs)

    def recording_pinvs(a, tols):
        cutoffs.extend(tols)
        return real_pinvs(a, tols)

    monkeypatch.setattr(harness, "_cores_of_a", recording_cores)
    monkeypatch.setattr(cur, "_pinvs", recording_pinvs)
    records, _ = run_rows(ExperimentConfig(trials=4, **EVERY_KIND[kind]))
    assert len(cutoffs) == len(records) > 0
    assert cutoffs == pytest.approx(a_cutoffs, rel=1e-15, abs=0.0)


class TestCsv:
    def test_a_run_that_skips_every_trial_writes_the_header_and_summary(self, tmp_path):
        cfg = ExperimentConfig(kind="noise_stability", m=2, n=2, k=1, sigma=1e6, scheme="uniform",
                               d_grid=(2,), trials=4, master_seed=10, out_path=str(tmp_path / "a"))
        summary = run_experiment(cfg)
        assert (tmp_path / "a").read_text() == CSV_HEADER + "\n" + harness._summary_text(summary)
        assert summary["groups"][0]["skipped"] == 4

    def test_rows_print_flags_as_0_or_1_and_floats_at_17_digits(self, tmp_path):
        cfg = ExperimentConfig(kind="success_prob", m=20, n=16, k=3, scheme="uniform",
                               d_grid=(3, 8), trials=10, master_seed=5)
        rows, summary = run_rows(cfg, tmp_path / "run.csv")
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert lines[1:len(rows) + 1] == [
            f"{r.trial},uniform,{r.d1},{r.d2},{int(r.success)},{r.rel_err_2:.17g},"
            f"{r.rel_err_F:.17g},0" for r in rows]
        assert {r.success for r in rows} == {True, False}
        group = summary["groups"][0]
        assert lines[len(rows) + 2] == (
            f"# kind=success_prob scheme=uniform d1=3 d2=3 trials=10 "
            f"successes={group['successes']} success_rate={group['success_rate']:.17g} "
            f"mean_rel_err_F={group['mean_rel_err_F']:.17g} first_trial=0")

    def test_rerun_same_seed_identical_bytes(self, tmp_path):
        cfg = ExperimentConfig(kind="success_prob", m=20, n=16, k=3, scheme="length",
                               d_grid=(6, 8), trials=15, master_seed=123)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run_experiment(replace(cfg, out_path=str(path)))
        assert sha(paths[0]) == sha(paths[1])

    def test_an_interrupted_run_leaves_the_rows_of_the_chunks_before_it(self, tmp_path,
                                                                        monkeypatch):
        # two trials a chunk; the draw stage of the second chunk raises, so the file holds the
        # header and the first chunk's two rows, and no summary block, and held them on disk
        # before the second chunk ran
        cfg = ExperimentConfig(kind="success_prob", m=20, n=16, k=3, scheme="length",
                               d_grid=(8,), trials=6, master_seed=7, out_path=str(tmp_path / "a"))
        monkeypatch.setattr(harness, "_CHUNK_BYTES", 2 * trial_bytes(cfg))
        draws, chunks, on_disk = harness._draws, [], []

        def failing(cfg, d, trials):
            chunks.append(len(trials))
            if len(chunks) == 2:
                on_disk.append((tmp_path / "a").read_text())
                raise DomainError("second chunk")
            return draws(cfg, d, trials)

        monkeypatch.setitem(harness._STAGES, "success_prob",
                            (harness._test_matrices, failing, harness._measure))
        with pytest.raises(DomainError, match="second chunk"):
            run_experiment(cfg)
        lines = (tmp_path / "a").read_text().splitlines()
        assert chunks == [2, 2] and on_disk == [(tmp_path / "a").read_text()]
        assert lines[0] == CSV_HEADER and [l.split(",")[0] for l in lines[1:]] == ["0", "1"]
        assert not any(l.startswith("#") for l in lines)

    def test_an_out_path_that_cannot_be_opened_fails_before_the_first_trial(self, tmp_path,
                                                                            monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "trial_generator", lambda *key: calls.append(key))
        cfg = ExperimentConfig(kind="deim_check", m=12, n=10, k=2, trials=3,
                               out_path=str(tmp_path / "missing" / "a.csv"))
        with pytest.raises(FileNotFoundError):
            run_experiment(cfg)
        assert calls == []

    def test_a_runs_peak_does_not_grow_with_its_trials(self, tmp_path):
        # 98 trials at d = 100 fill a chunk; at 100 times the trials each chunk's rows go to the
        # file as it ends, so the run holds less than a tenth of a chunk's budget beyond what
        # 98 held (a run that kept every row would hold about 1.1 budgets more here)
        cfg = ExperimentConfig(kind="success_prob", m=50, n=40, k=4, d_grid=(100,), trials=98,
                               master_seed=3, out_path=str(tmp_path / "run.csv"))
        assert harness._chunk_size(cfg, 100) == cfg.trials
        run_experiment(cfg)  # the first run allocates the package's lazily built caches
        peaks = []
        for trials in (cfg.trials, 100 * cfg.trials):
            tracemalloc.start()
            try:
                run_experiment(replace(cfg, trials=trials))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < harness._CHUNK_BYTES / 10
