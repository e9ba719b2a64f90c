"""Acceptance gates: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and trial count is pinned here; the Monte Carlo gates
use frozen master seeds.
"""

import hashlib
import itertools
import math
import time

import numpy as np

from curlowrank.cur import approx_error, verify_characterization
from curlowrank.deim import deim_cur
from curlowrank.harness import (
    ExperimentConfig,
    emit_csv,
    lowrank_gaussian,
    run_experiment,
    trial_generator,
)
from curlowrank.linalg import COLS, ROWS, IndexSet, condition_number, stable_rank
from curlowrank.sampling import (
    axis_dists,
    draw_with_replacement,
    rescaled_submatrix,
)


def gate(num, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_equivalence_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    a = rng.standard_normal((5, 2)) @ rng.standard_normal((5, 2)).T
    subsets = [s for r in range(1, 6) for s in itertools.combinations(range(5), r)]
    pairs = 0
    unanimous = True
    identity_ok = True
    for rows in subsets:
        for cols in subsets:
            rep = verify_characterization(a, IndexSet(rows, ROWS), IndexSet(cols, COLS), 1e-8)
            pairs += 1
            unanimous &= rep.unanimous
            if rep.all_hold:
                identity_ok &= rep.residuals["u_pinv_identity"] <= 1e-8
    elapsed = time.perf_counter() - t0
    ok = pairs == 961 and unanimous and identity_ok and elapsed < 5.0
    gate(1, f"equivalence unanimous on {pairs} index pairs "
            f"(identity ok={identity_ok}, {elapsed:.2f}s)", ok)


def test_criterion_02_length_sampling_recovery():
    t0 = time.perf_counter()
    k = 4
    d = math.ceil(2 * k * math.log(k)) + 4
    assert d == 16
    cfg = ExperimentConfig(kind="success_prob", m=50, n=40, k=k, scheme="length",
                           d_grid=(d,), trials=500, master_seed=301)
    _, summary = run_experiment(cfg)
    rate = summary["groups"][0]["success_rate"]
    elapsed = time.perf_counter() - t0
    gate(2, f"length sampling d={d} success rate {rate:.3f} >= 0.99 ({elapsed:.1f}s)",
         rate >= 0.99 and elapsed < 60.0)


def test_criterion_03_uniform_sampling_and_sparse_gap():
    base = dict(kind="success_prob", m=50, n=40, k=4, d_grid=(16,), trials=500)
    _, dense = run_experiment(
        ExperimentConfig(scheme="uniform", master_seed=302, **base))
    dense_rate = dense["groups"][0]["success_rate"]

    sparse = dict(base, sparsity=0.8)
    _, s_len = run_experiment(
        ExperimentConfig(scheme="length", master_seed=303, **sparse))
    _, s_uni = run_experiment(
        ExperimentConfig(scheme="uniform", master_seed=304, **sparse))
    len_rate = s_len["groups"][0]["success_rate"]
    uni_rate = s_uni["groups"][0]["success_rate"]
    ok = dense_rate >= 0.95 and (len_rate - uni_rate) >= 0.05
    gate(3, f"uniform dense rate {dense_rate:.3f} >= 0.95; sparse gap "
            f"length {len_rate:.3f} - uniform {uni_rate:.3f} >= 0.05", ok)


def test_criterion_04_deim_exactness():
    t0 = time.perf_counter()
    rng = trial_generator(401, 0)
    failures = 0
    for i in range(100):
        k = (i % 6) + 1
        m = int(rng.integers(k + 2, 41))
        n = int(rng.integers(k + 2, 41))
        a = lowrank_gaussian(m, n, k, rng)
        factors = deim_cur(a, k)
        assert len(factors.I) == len(factors.J) == k
        rel = approx_error(a, factors) / np.linalg.norm(a)
        failures += rel > 1e-8
    elapsed = time.perf_counter() - t0
    gate(4, f"deterministic selection exact on {100 - failures}/100 rank-k matrices "
            f"({elapsed:.1f}s)", failures == 0 and elapsed < 10.0)


def test_criterion_05_leverage_length_inequalities():
    rng = trial_generator(501, 0)
    violations = 0
    for _ in range(200):
        k = int(rng.integers(1, 7))
        m = int(rng.integers(k + 2, 30))
        n = int(rng.integers(k + 2, 30))
        a = lowrank_gaussian(m, n, k, rng)
        r = stable_rank(a)
        kap = condition_number(a)
        p_col = axis_dists(a, "length")[1].weights
        p_lev = axis_dists(a, "leverage", k)[1].weights
        violations += int(np.any(p_lev < (r / k) * p_col - 1e-10))
        violations += int(np.any(p_col < (k / (r * kap**2)) * p_lev - 1e-10))
    gate(5, f"leverage/length dominance inequalities: {violations} violations in 200 matrices",
         violations == 0)


def test_criterion_06_rescaled_gram_concentration():
    a = np.random.default_rng(1).standard_normal((8, 6))
    dist = axis_dists(a, "length")[0]
    gram = a.T @ a
    bound = 0.1 * np.linalg.norm(a, 2) ** 2
    hits = 0
    for rep in range(100):
        rng = trial_generator(601, rep)
        idx = draw_with_replacement(dist, 2000, rng)
        rhat = rescaled_submatrix(a, idx, dist, 2000)
        hits += np.linalg.norm(gram - rhat.T @ rhat, 2) <= bound
    gate(6, f"sampled Gram within 0.1*||A||_2^2 in {hits}/100 repetitions (need >= 95)",
         hits >= 95)


def test_criterion_07_noisy_recovery():
    k = 5
    d = math.ceil(4 * k * math.log(k))
    cfg = ExperimentConfig(kind="noise_stability", m=50, n=40, k=k, sigma=1e-4,
                           scheme="length", d_grid=(d,), trials=200, master_seed=701)
    _, summary = run_experiment(cfg)
    g = summary["groups"][0]
    rate = g["success_rate"]
    median_ratio = g["median_err_to_noise"]
    ok = g["skipped"] == 0 and rate >= 0.95 and median_ratio <= 100.0
    gate(7, f"noisy sampling d={d}: exact-on-clean rate {rate:.3f} >= 0.95, "
            f"median error/noise {median_ratio:.1f} <= 100", ok)


def test_criterion_08_clustering():
    cfg = ExperimentConfig(kind="clustering", m=20, dims=(2, 3, 4), points=(10, 10, 10),
                           scheme="length", trials=200, master_seed=801)
    _, summary = run_experiment(cfg)
    g = summary["groups"][0]
    deterministic = g["exact_and_perfect"] == g["exact_curs"]
    rate = g["success_rate"]
    ok = deterministic and rate >= 0.99
    gate(8, f"clustering: every exact CUR clustered perfectly "
            f"({g['exact_and_perfect']}/{g['exact_curs']}), end-to-end rate {rate:.3f} >= 0.99", ok)


def test_criterion_09_stable_rank_sandwich():
    rng = trial_generator(901, 0)
    violations = 0
    for i in range(500):
        m = int(rng.integers(4, 16))
        n = int(rng.integers(4, 16))
        if i % 2 == 0:
            a = rng.standard_normal((m, n))
        else:
            a = lowrank_gaussian(m, n, int(rng.integers(1, min(m, n))), rng)
        e = rng.standard_normal((m, n))
        e *= rng.uniform(0.05, 0.5) * np.linalg.norm(a) / np.linalg.norm(e)
        sr = stable_rank(a)
        sr_tilde = stable_rank(a + e)
        rf = np.linalg.norm(e) / np.linalg.norm(a)
        lower = sr * ((1 - rf) / (1 + np.linalg.norm(e, 2) / np.linalg.norm(a))) ** 2
        upper = sr * ((1 + rf) / (1 - np.linalg.norm(e, 2) / np.linalg.norm(a, 2))) ** 2
        violations += int(sr_tilde < lower - 1e-12 or sr_tilde > upper + 1e-12)
    gate(9, f"stable-rank sandwich: {violations} violations in 500 pairs", violations == 0)


def test_criterion_10_determinism(tmp_path):
    cfg_text = (
        "kind = success_prob\nm = 30\nn = 24\nk = 3\nscheme = length\n"
        "d_grid = 8, 12\ntrials = 40\nmaster_seed = 1001\n"
    )
    from curlowrank.harness import config_from_mapping, read_key_values

    digests = []
    for name in ("run1.csv", "run2.csv"):
        cfg = config_from_mapping(read_key_values(cfg_text))
        records, summary = run_experiment(cfg)
        path = tmp_path / name
        emit_csv(records, summary, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    gate(10, f"rerun with same master seed gives identical CSV (sha256 {digests[0][:12]}...)",
         digests[0] == digests[1])
