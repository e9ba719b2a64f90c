import hashlib
import math

import numpy as np
import pytest

from curlowrank.errors import ConfigError
from curlowrank.harness import (
    CSV_HEADER,
    ExperimentConfig,
    TrialRecord,
    config_from_mapping,
    config_from_text,
    emit_csv,
    lowrank_gaussian,
    run_experiment,
    spectral_noise,
    trial_generator,
    zero_out_columns,
)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestConfig:
    def test_from_text(self):
        cfg = config_from_text(
            "kind = success_prob\n"
            "m = 20\n"
            "n = 16\n"
            "k = 3\n"
            "scheme = length\n"
            "d_grid = 6, 8\n"
            "trials = 10\n"
            "master_seed = 5\n"
        )
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
            config_from_text("kind = success_prob\nno equals sign here\n")
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

    @pytest.mark.parametrize("kind, field, value", [
        ("clustering", "kappa", 10.0),
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

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError) as exc:
            config_from_text("kind = success_prob\nm = 8\nn = 8\nk = 2\nd_grid =\n")
        assert exc.value.field == "d_grid"

    def test_d_from_formula(self):
        cfg = config_from_mapping({"kind": "success_prob", "m": 30, "n": 30, "k": 2,
                                   "eps": "0.5", "delta": "0.5", "trials": 1})
        x = 2.0 / (0.5**4 * 0.5)
        assert cfg.resolved_d_grid() == (math.ceil(x * math.log(x)),)


class TestGenerators:
    def test_rank_and_shape(self, rng):
        a = lowrank_gaussian(12, 9, 4, rng)
        assert a.shape == (12, 9)
        assert np.linalg.matrix_rank(a) == 4

    def test_kappa_target(self, rng):
        a = lowrank_gaussian(20, 15, 5, rng, kappa=37.0)
        s = np.linalg.svd(a, compute_uv=False)[:5]
        assert s[0] / s[4] == pytest.approx(37.0, rel=1e-10)

    def test_zero_columns(self, rng):
        a = zero_out_columns(lowrank_gaussian(10, 20, 3, rng), 0.8, rng)
        assert int(np.sum(np.all(a == 0.0, axis=0))) == 16

    def test_noise_norm(self, rng):
        e = spectral_noise((9, 7), 1e-3, rng)
        assert np.linalg.norm(e, 2) == pytest.approx(1e-3, rel=1e-12)
        assert np.all(spectral_noise((4, 4), 0.0, rng) == 0.0)

    def test_trial_streams_are_stable(self):
        a = trial_generator(9, 4).standard_normal(8)
        b = trial_generator(9, 4).standard_normal(8)
        c = trial_generator(9, 5).standard_normal(8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSuccessExperiment:
    CFG = ExperimentConfig(kind="success_prob", m=20, n=16, k=3, scheme="length",
                           d_grid=(8,), trials=20, master_seed=99)

    def test_rank_one_always_succeeds(self):
        cfg = ExperimentConfig(kind="success_prob", m=10, n=8, k=1, scheme="length",
                               d_grid=(1,), trials=25, master_seed=1)
        _, summary = run_experiment(cfg)
        assert summary["groups"][0]["success_rate"] == 1.0

    def test_records_match_contract(self):
        records, _ = run_experiment(self.CFG)
        assert len(records) == 20
        for r in records:
            assert r.d1 == r.d2 == 8
            if r.success:
                assert r.rel_error_frobenius <= 1e-8
            assert r.wall_time_ms == 0.0  # timing disabled by default

    def test_timing_flag_records_wall_time(self):
        cfg = ExperimentConfig(kind="success_prob", m=20, n=16, k=3, scheme="length",
                               d_grid=(8,), trials=5, master_seed=99, timing=True)
        records, _ = run_experiment(cfg)
        assert any(r.wall_time_ms > 0.0 for r in records)

    def test_trial_isolation(self):
        # a shorter run reproduces the exact prefix of a longer one
        short = ExperimentConfig(kind="success_prob", m=20, n=16, k=3, scheme="length",
                                 d_grid=(8,), trials=5, master_seed=99)
        long_records, _ = run_experiment(self.CFG)
        short_records, _ = run_experiment(short)
        assert short_records == long_records[:5]

    def test_monotone_in_d(self):
        cfg = ExperimentConfig(kind="success_prob", m=20, n=16, k=3, scheme="uniform",
                               d_grid=(3, 4, 6, 9, 14), trials=500, master_seed=31)
        _, summary = run_experiment(cfg)
        rates = [g["success_rate"] for g in summary["groups"]]
        for lo, hi in zip(rates, rates[1:]):
            assert hi >= lo - 0.03

    def test_length_beats_uniform_on_sparse(self):
        base = dict(kind="success_prob", m=20, n=20, k=2, d_grid=(6,), trials=200,
                    master_seed=17, sparsity=0.7)
        _, s_len = run_experiment(ExperimentConfig(scheme="length", **base))
        _, s_uni = run_experiment(ExperimentConfig(scheme="uniform", **base))
        assert s_len["groups"][0]["success_rate"] > s_uni["groups"][0]["success_rate"]


class TestNoiseExperiment:
    def test_zero_sigma_matches_success_flags(self):
        common = dict(m=18, n=14, k=3, scheme="length", d_grid=(9,), trials=25, master_seed=7)
        noise_records, _ = run_experiment(
            ExperimentConfig(kind="noise_stability", sigma=0.0, **common))
        succ_records, _ = run_experiment(
            ExperimentConfig(kind="success_prob", **common))
        assert [r.success for r in noise_records] == [r.success for r in succ_records]

    def test_uniform_scheme_ignores_noise(self):
        common = dict(kind="noise_stability", m=18, n=14, k=3, scheme="uniform",
                      d_grid=(9,), trials=40, master_seed=8)
        rec_small, _ = run_experiment(ExperimentConfig(sigma=1e-6, **common))
        rec_large, _ = run_experiment(ExperimentConfig(sigma=1e-2, **common))
        assert [r.success for r in rec_small] == [r.success for r in rec_large]

    def test_reports_floors_per_trial(self):
        cfg = ExperimentConfig(kind="noise_stability", m=18, n=14, k=3, sigma=1e-4,
                               scheme="length", d_grid=(9,), trials=10, master_seed=9)
        _, summary = run_experiment(cfg)
        assert len(summary["alpha_per_trial"]) == 10
        assert all(0.0 < a <= 1.0 for a in summary["alpha_per_trial"])
        assert all(0.0 < b <= 1.0 for b in summary["beta_per_trial"])

    def test_dominating_noise_counts_as_skip(self):
        cfg = ExperimentConfig(kind="noise_stability", m=2, n=2, k=1, sigma=1e6,
                               scheme="uniform", d_grid=(2,), trials=4, master_seed=10)
        records, summary = run_experiment(cfg)
        assert summary["groups"][0]["skipped"] == 4
        assert records == []


class TestClusteringExperiment:
    def test_small_model(self):
        cfg = ExperimentConfig(kind="clustering", m=12, dims=(2, 2), points=(6, 6),
                               scheme="length", trials=10, master_seed=11)
        records, summary = run_experiment(cfg)
        g = summary["groups"][0]
        assert g["trials"] == 10
        assert g["exact_and_perfect"] == g["exact_curs"]
        assert len(records) == 10

    def test_dispatch(self):
        cfg = ExperimentConfig(kind="deim_check", m=15, n=12, k=3, trials=5, master_seed=12)
        records, summary = run_experiment(cfg)
        assert all(r.success for r in records)
        assert summary["groups"][0]["success_rate"] == 1.0


class TestEmitCsv:
    def test_empty_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], {"groups": []}, path)
        assert path.read_text() == CSV_HEADER + "\n# summary\n"

    def test_one_record(self, tmp_path):
        rec = TrialRecord(0, "length", 4, 4, True, 1.25e-12, 2.5e-13, 0.0)
        path = tmp_path / "one.csv"
        emit_csv([rec], {"groups": [{"scheme": "length", "successes": 1}]}, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "0,length,4,4,1,1.2499999999999999e-12,2.4999999999999999e-13,0"
        assert lines[2] == "# summary"
        assert lines[3] == "# scheme=length successes=1"

    def test_numpy_bool_success_prints_as_flag(self, tmp_path):
        path = tmp_path / "flags.csv"
        recs = [TrialRecord(i, "length", 4, 4, np.bool_(i == 0), 0.5, 0.25, 0.0) for i in range(2)]
        emit_csv(recs, {"groups": []}, path)
        assert [l.split(",")[4] for l in path.read_text().splitlines()[1:3]] == ["1", "0"]

    def test_rerun_same_seed_identical_bytes(self, tmp_path):
        cfg = ExperimentConfig(kind="success_prob", m=20, n=16, k=3, scheme="length",
                               d_grid=(6, 8), trials=15, master_seed=123)
        paths = []
        for name in ("a.csv", "b.csv"):
            records, summary = run_experiment(cfg)
            path = tmp_path / name
            emit_csv(records, summary, path)
            paths.append(path)
        assert sha(paths[0]) == sha(paths[1])
