"""Properties over generated rank-k inputs: scale and permutation invariance,
the verifier's verdicts, the factored SVD and residual norms, and the trials.

Inputs are rank-k Gaussian-factor matrices, the same with one row blown up
by 1e3 ("spiky"), or with a zero row and a zero column; index sets are drawn
uniformly with replacement, so they carry duplicates.  The factored
properties draw the factors themselves: with zero rows in ``q``, with a
repeated column (rank-deficient factors), and with each factor scaled by a
power of two up to 2^500 either way.  The certified leverage property draws
rank-k matrices plus noise large enough to sit near the sketch's gap
threshold, scaled by 1e+-150; the same inputs pin the sketched DEIM
selection to the dense one wherever the sketch certifies.  ``spectral_norm``
is checked against the SVD norm on the rank-k inputs.  The leverage/length
dominance inequalities hold on the rank-k inputs scaled by 1e+-150, and on
the same shapes at sizes where the sketch applies, for the scores of the
caller's SVD, the sketch and the dense fallback.  The verdicts are also
held to the success of one-trial ``success_prob`` and ``deim_check`` runs whose
sigma_k lies 1x to 10^3x above the bound ``tol * sigma_1``, and three rank
decisions of A (leverage weights, DEIM, the verifier) to each other where
sigma_k lies 1x to 10^3x above ``rank_cutoff``.  Union-of-subspaces
specs, the tight ``ambient_dim == sum(dims)`` among them, pin the ranks of
the generated data and of its factors, which the generator itself does not
check, and the clustering trial's exactness flag to the verifier's unanimous
verdicts.  The success, DEIM and clustering trials, which measure each CUR
in A's k-by-k core, keep the flags and errors of the dense path (``cur._cur``
and the m-by-n residual) for every scheme, kappa up to 1e6, sparsity 0.5, and
fewer distinct draws than the rank.  The noise trial prints the rows of
sigma = 0 at sigma = 1e-150, skips every trial at 1e150 and 1e300 with no
warning, and takes the floors of the per-index loop reference bit for bit.  The
rescaled samples of the uniform, length and rank-k leverage distributions
reproduce the Gram matrices of A exactly once weighted by their probabilities.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curlowrank.cluster import (
    SubspaceSpec,
    clustering_matrix,
    labels_from_clustering_matrix,
    same_partition,
    subspace_factors,
)
from curlowrank import harness
from curlowrank.cur import (
    EXACTNESS_TOL,
    _cores_of_a,
    _cur,
    approx_error,
    relative_errors,
    verify_characterization,
)
from curlowrank.deim import deim_cur
from curlowrank.errors import RankDeficientError
from curlowrank.harness import ExperimentConfig, lowrank_gaussian, run_experiment, trial_generator
from curlowrank.linalg import (
    COLS,
    ROWS,
    SKETCH_OVERSAMPLE,
    IndexSet,
    _leading_bases,
    _leading_svd,
    as_matrix,
    compact_svd,
    factored_svd,
    rank_cutoff,
    singular_values,
    spectral_norm,
    stable_rank_of,
)
from curlowrank.sampling import (
    SCHEMES,
    axis_dists,
    draw_indices,
    rescaled_submatrix,
)

from conftest import (first_nonpositive_floor, noisy_floors_loop, noisy_rank_k, rank_of,
                      uniform, union_of_subspaces)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)
EPS = float(np.finfo(np.float64).eps)


def _shaped_rank_k(draw, m, n, k):
    """``(a, rng)``: a rank-k matrix, plain, with a spiky row, or with a zero row and column."""
    rng = trial_generator(draw(st.integers(0, 2**32 - 1)), 0)
    a = lowrank_gaussian(m, n, k, rng)
    shape = draw(st.sampled_from(("gaussian", "spiky_row", "zero_row_col")))
    if shape == "spiky_row":
        a[int(rng.integers(m))] *= 1e3
    elif shape == "zero_row_col":
        a[int(rng.integers(m))] = 0.0
        a[:, int(rng.integers(n))] = 0.0
    return a, rng


@st.composite
def instances(draw):
    """``(a, k, rows, cols, rng)``: a rank-k matrix and index sets of it with duplicates."""
    m, n = draw(st.integers(2, 14)), draw(st.integers(2, 12))
    k = draw(st.integers(1, min(m, n) - 1))
    a, rng = _shaped_rank_k(draw, m, n, k)
    rows = IndexSet(rng.integers(0, m, size=draw(st.integers(1, 2 * m))), ROWS)
    cols = IndexSet(rng.integers(0, n, size=draw(st.integers(1, 2 * n))), COLS)
    return a, k, rows, cols, rng


@PROPERTY
@given(inst=instances(), j=st.integers(-500, 500))
def test_power_of_two_scaling_keeps_every_bit(inst, j):
    a, s = inst[0], 2.0**j
    for got, want in zip(axis_dists(s * a, "length"), axis_dists(a, "length")):
        assert got.weights.tobytes() == want.weights.tobytes()


@PROPERTY
@given(inst=instances(), scale=st.sampled_from((1e150, 1e-150)))
def test_errors_stay_finite_at_extreme_scale(inst, scale):
    a, _, rows, cols, _ = inst
    a = scale * a
    factors = _cur(as_matrix(a), rows, cols, rank_cutoff(singular_values(a), a.shape)[1])
    errors = (*relative_errors(a, factors), approx_error(a, factors) / scale)
    assert all(np.isfinite(err) for err in errors)


@PROPERTY
@given(inst=instances(), j=st.integers(-500, 500))
def test_spectral_norm_matches_the_svd_norm_and_keeps_bits_under_scaling(inst, j):
    a = inst[0]
    norm = spectral_norm(a)
    assert abs(norm - np.linalg.norm(a, 2)) <= 1e-12 * np.linalg.norm(a, 2)
    assert spectral_norm(np.ldexp(a, j)) == np.ldexp(norm, j)
    assert spectral_norm(np.zeros_like(a)) == 0.0


@PROPERTY
@given(inst=instances(), scale=st.sampled_from((1e150, 1e-150)))
def test_spectral_norm_stays_finite_and_correct_at_extreme_scale(inst, scale):
    a = scale * inst[0]
    norm = spectral_norm(a)
    assert np.isfinite(norm) and norm > 0.0
    assert abs(norm - np.linalg.norm(a, 2)) <= 1e-12 * np.linalg.norm(a, 2)


@PROPERTY
@given(inst=instances())
def test_permutation_permutes_the_weights(inst):
    a, k, _, _, rng = inst
    pr, pc = rng.permutation(a.shape[0]), rng.permutation(a.shape[1])
    b = a[pr][:, pc]
    for scheme, rank, rtol, atol in (("length", None, 1e-12, 1e-15), ("leverage", k, 1e-8, 1e-12)):
        pairs = zip(axis_dists(b, scheme, rank), axis_dists(a, scheme, rank), (pr, pc))
        for got, want, perm in pairs:
            np.testing.assert_allclose(got.weights, want.weights[perm], rtol=rtol, atol=atol)


@PROPERTY
@given(inst=instances())
def test_rescaled_gram_is_unbiased_exactly(inst):
    # sum_i p_i * rhat_i^T rhat_i = A^T A, one draw of each index in the support;
    # leverage(k) meets it because rank(A) = k, so no nonzero row has zero leverage
    a, k, _, _, _ = inst
    length, leverage = axis_dists(a, "length"), axis_dists(a, "leverage", k)
    for i, (axis, gram) in enumerate(((ROWS, a.T @ a), (COLS, a @ a.T))):
        for dist in (uniform(a.shape[i], axis), length[i], leverage[i]):
            support = np.flatnonzero(dist.weights > 0.0)
            rhat = rescaled_submatrix(a, IndexSet(support, axis), dist, 1)
            p = dist.weights[support]
            got = (rhat.T * p) @ rhat if axis == ROWS else (rhat * p) @ rhat.T
            assert np.linalg.norm(got - gram) <= 1e-12 * np.linalg.norm(gram), dist.scheme


@st.composite
def sketch_sized(draw):
    """``(a, k)``: :func:`instances`' shapes at sizes where the leverage sketch applies."""
    m, n = draw(st.integers(24, 48)), draw(st.integers(24, 48))
    k = draw(st.integers(1, min(m, n) // 2 - SKETCH_OVERSAMPLE))
    return _shaped_rank_k(draw, m, n, k)[0], k


@PROPERTY
@given(inst=st.one_of(instances().map(lambda inst: inst[:2]), sketch_sized()),
       scale=st.sampled_from((1e-150, 1.0, 1e150)))
def test_leverage_and_length_dominate_each_other(inst, scale):
    # p_lev >= (r/k) p_len and p_len >= k/(r kappa^2) p_lev on both axes, for the
    # leverage scores of the dense SVD and of the sketch, or the dense fallback
    # where the sketch does not apply; weights lie in [0, 1], so the slack is ulp-level
    a, k = inst
    a = scale * a
    s = singular_values(a)
    r, kappa = stable_rank_of(s), float(s[0] / s[k - 1])
    assert (_leading_svd(a, k) is None) == (min(a.shape) < 2 * (k + SKETCH_OVERSAMPLE))
    length = axis_dists(a, "length")
    for tol in (None, compact_svd(a).tolerance_used):
        for p_len, b in zip(length, _leading_bases(a, k, tol)):
            p_len, p_lev = p_len.weights, np.sum(b * b, axis=1) / k
            assert np.all(p_lev >= (r / k) * p_len - 16 * EPS)
            assert np.all(p_len >= k / (r * kappa**2) * p_lev - 16 * EPS)


def _verdicts(a, rows, cols):
    return verify_characterization(a, rows, cols).verdicts


@st.composite
def near_cutoff(draw):
    """``(a, k, rows, cols, tol, success)``: a rank-k matrix whose sigma_k lies 1x to 10^3x
    above a cutoff, as ``success_prob`` and ``deim_check`` generate it (kappa = sigma_1 / sigma_k).

    Either the cutoff is the bound ``tol * sigma_1`` (``kappa * tol`` from 1e-3 to 1, tol
    1e-8, 1e-6 or 1e-4), and ``success`` is the flag of the one-trial run on the draws
    returned; or it is ``rank_cutoff``, where ``kappa * tol <= 1`` puts tol at the roundoff
    of the residuals, so no tol decides the verdicts: ``tol`` and ``success`` are None there,
    and the indices are uniform draws.
    """
    k = draw(st.integers(2, 5))
    m, n = draw(st.integers(k + 1, 30)), draw(st.integers(2 * k + 1, 25))
    near, seed = 10.0 ** draw(st.floats(-3.0, -1e-3)), draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        rng = trial_generator(seed, 0)
        a = lowrank_gaussian(m, n, k, rng, near / (max(m, n) * EPS))
        rows = IndexSet(rng.integers(0, m, size=draw(st.integers(1, 2 * m))), ROWS)
        cols = IndexSet(rng.integers(0, n, size=draw(st.integers(1, 2 * n))), COLS)
        return a, k, rows, cols, None, None
    tol = draw(st.sampled_from((1e-8, 1e-6, 1e-4)))
    d = draw(st.integers(1, 3 * k))
    kind = draw(st.sampled_from(("success_prob", "deim_check")))
    extra = {"d_grid": (d,), "scheme": draw(st.sampled_from(SCHEMES)),
             "dedup": draw(st.booleans())} if kind == "success_prob" else {}
    cfg = ExperimentConfig(kind=kind, m=m, n=n, k=k, kappa=near / tol, tol=tol, trials=1,
                           master_seed=seed, **extra)
    [record], _ = run_experiment(cfg)
    rng = trial_generator(seed, 0)
    [trial] = harness._test_matrices(cfg, 1, [harness._Trial(0, rng)])
    a = trial.p @ trial.q.T
    if kind == "deim_check":
        factors = deim_cur(a, k)
        return a, k, factors.I, factors.J, tol, record.success
    return a, k, *draw_indices(*axis_dists(a, cfg.scheme, k), d, d, rng, cfg.dedup), tol, \
        record.success


def _rank_deficient(call) -> bool:
    try:
        call()
    except RankDeficientError:
        return True
    return False


@PROPERTY
@given(inst=st.one_of(instances().map(lambda inst: (*inst[:4], EXACTNESS_TOL, None)),
                      near_cutoff()))
def test_verdicts_are_unanimous_and_match_the_rank_of_u(inst):
    # and match a table trial's success on the same draws; the leverage weights, DEIM and
    # the verifier decide the rank of A alike, even where sigma_k is near rank_cutoff
    a, k, rows, cols, tol, success = inst
    report = verify_characterization(a, rows, cols, tol or EXACTNESS_TOL)
    assert _rank_deficient(lambda: axis_dists(a, "leverage", k)) == (report.rank_a < k)
    assert _rank_deficient(lambda: deim_cur(a, k)) == (report.rank_a < k)
    if tol is not None:
        assert report.unanimous
        assert report.all_hold == (report.rank_u == report.rank_a)
        assert success is None or report.all_hold == success


@PROPERTY
@given(inst=instances())
def test_verdicts_survive_deduplication_and_permutation(inst):
    a, _, rows, cols, rng = inst
    verdicts = _verdicts(a, rows, cols)
    assert _verdicts(a, *(IndexSet(dict.fromkeys(x), x.axis) for x in (rows, cols))) == verdicts
    pr, pc = rng.permutation(a.shape[0]), rng.permutation(a.shape[1])
    # row i of a is row argsort(pr)[i] of a[pr]
    moved_rows = IndexSet(np.argsort(pr)[list(rows)], ROWS)
    moved_cols = IndexSet(np.argsort(pc)[list(cols)], COLS)
    assert _verdicts(a[pr][:, pc], moved_rows, moved_cols) == verdicts


@PROPERTY
@given(inst=instances(), scale=st.sampled_from((1e150, 1e-150)))
def test_verdicts_survive_extreme_scale(inst, scale):
    a, _, rows, cols, _ = inst
    assert _verdicts(scale * a, rows, cols) == _verdicts(a, rows, cols)


@st.composite
def factor_pairs(draw):
    """``(p, q, rows, cols)``: factors of a nonzero ``p @ q.T`` and index sets with duplicates."""
    m, n = draw(st.integers(2, 14)), draw(st.integers(2, 12))
    k = draw(st.integers(1, min(m, n)))
    rng = trial_generator(draw(st.integers(0, 2**32 - 1)), 0)
    p, q = rng.standard_normal((m, k)), rng.standard_normal((n, k))
    shape = draw(st.sampled_from(("gaussian", "zero_rows", "repeated_column")))
    if shape == "zero_rows":
        q[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 0.0
    elif shape == "repeated_column" and k > 1:
        p[:, -1], q[:, -1] = p[:, 0], q[:, 0]
    rows = IndexSet(rng.integers(0, m, size=draw(st.integers(1, 2 * m))), ROWS)
    cols = IndexSet(rng.integers(0, n, size=draw(st.integers(1, 2 * n))), COLS)
    return p, q, rows, cols


def _leverage(basis):
    return np.sum(basis * basis, axis=1)


@PROPERTY
@given(pair=factor_pairs(), jp=st.integers(-500, 500), jq=st.integers(-500, 500))
def test_factored_svd_matches_the_dense_one(pair, jp, jq):
    p, q, _, _ = pair
    dense = compact_svd(p @ q.T)
    f = factored_svd(np.ldexp(p, jp)[None], np.ldexp(q, jq)[None])[0]
    # the dense reference of the scaled product, without forming it at 2^(jp + jq)
    s_ref = np.ldexp(dense.all_singular_values, jp + jq)
    assert np.all(np.isfinite(f.all_singular_values))
    assert np.all(np.abs(f.all_singular_values - s_ref) <= 1e-12 * s_ref[0])
    assert f.numerical_rank == dense.numerical_rank
    np.testing.assert_allclose(_leverage(f.left), _leverage(dense.left), rtol=0, atol=1e-12)
    np.testing.assert_allclose(_leverage(f.right), _leverage(dense.right), rtol=0, atol=1e-12)


@PROPERTY
@given(pair=factor_pairs(), jp=st.integers(-500, 500), data=st.data())
def test_residual_norms_match_the_dense_ones(pair, jp, data):
    p, q, rows, cols = pair
    a = p @ q.T
    cur = _cur(as_matrix(a), rows, cols, rank_cutoff(singular_values(a), a.shape)[1])
    resid = a - cur.approximation()
    ref = np.array([np.linalg.norm(resid, 2), np.linalg.norm(resid)])
    size = np.linalg.norm(a, 2) + np.linalg.norm(cur.C, 2) * np.linalg.norm(cur.U_pinv @ cur.R, 2)
    # scale A by 2^j, |j| <= 500, split unevenly over the factors; the norms scale exactly
    jq = data.draw(st.integers(max(-500, -500 - jp), min(500, 500 - jp)))
    svd = factored_svd(np.ldexp(p, jp)[None], np.ldexp(q, jq)[None])[0]
    [(norms, _)] = _cores_of_a([(svd, rows, cols)])
    assert np.all(np.abs(np.ldexp(norms, -(jp + jq)) - ref) <= 1e-12 * size)


@st.composite
def noisy_low_rank(draw):
    """``(a, k)``: rank-k Gaussian factors plus noise ``nu * sigma_k``, scaled by 1e+-150 or 1.

    Sizes straddle the sketch's size rule; ``nu`` runs from 0 to 10^-1.5, so
    the gap estimate ``nu^5`` crosses the threshold 1e-12 near ``nu = 4e-3``.
    """
    m, n = draw(st.integers(12, 80)), draw(st.integers(12, 80))
    k = draw(st.integers(1, max(1, min(m, n) // 2 - 8)))
    nu = draw(st.one_of(st.just(0.0), st.floats(-4.0, -1.5).map(lambda x: 10.0**x)))
    a = noisy_rank_k(m, n, k, nu, trial_generator(draw(st.integers(0, 2**32 - 1)), 0))
    return a * draw(st.sampled_from((1e-150, 1.0, 1e150))), k


@PROPERTY
@given(inst=noisy_low_rank())
def test_certified_leverage_matches_the_dense_reference(inst):
    a, k = inst
    got = axis_dists(a, "leverage", k)
    ref = [np.sum(b * b, axis=1) / float(k)
           for b in _leading_bases(a, k, compact_svd(a).tolerance_used)]
    if _leading_svd(a, k) is None:  # the fallback is the dense path itself
        assert [d.weights.tobytes() for d in got] == [r.tobytes() for r in ref]
    else:
        for g, r in zip(got, ref):
            assert np.max(np.abs(g.weights - r)) <= 1e-10 * r.max()


@PROPERTY
@given(inst=noisy_low_rank())
def test_sketched_deim_picks_the_dense_indices(inst):
    a, k = inst
    if _leading_svd(a, k) is not None:
        got, ref = deim_cur(a, k), deim_cur(a, k, compact_svd(a).tolerance_used)
        assert (got.I, got.J) == (ref.I, ref.J)


@st.composite
def subspace_specs(draw):
    """``(spec, rng)``: up to five subspaces, the ambient dim tight or a little larger."""
    dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    points = [draw(st.integers(1 if d == 1 else d + 1, d + 4)) for d in dims]
    ambient = sum(dims) + draw(st.sampled_from((0, 0, 1, 3)))
    spec = SubspaceSpec(ambient_dim=ambient, dims=tuple(dims), points=tuple(points))
    return spec, trial_generator(draw(st.integers(0, 2**32 - 1)), 0)


@PROPERTY
@given(inst=subspace_specs())
def test_generated_subspaces_have_the_stated_ranks(inst):
    spec, rng = inst
    p, q, truth = subspace_factors(spec, [rng])
    a = p[0] @ q[0].T
    assert a.shape == (spec.ambient_dim, sum(spec.points))
    assert factored_svd(p, q)[0].numerical_rank == rank_of(a) == sum(spec.dims)
    for label, d in enumerate(spec.dims):
        assert rank_of(a[:, truth[0] == label]) == d


@PROPERTY
@given(inst=subspace_specs(), scheme=st.sampled_from(SCHEMES), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_clustering_exactness_is_the_verifiers(inst, scheme, seed, data):
    # the trial counts a CUR as exact by its residual alone, condition (ii); on the
    # same draws, below and above sum(dims), the five verdicts agree with it
    spec, _ = inst
    k = sum(spec.dims)
    d = data.draw(st.integers(1, 3 * k))
    cfg = ExperimentConfig(kind="clustering", m=spec.ambient_dim, dims=spec.dims,
                           points=spec.points, scheme=scheme, d_grid=(d,), trials=1,
                           master_seed=seed)
    exact = run_experiment(cfg)[1]["groups"][0]["exact_curs"]
    rng = trial_generator(seed, 0)
    a, _ = union_of_subspaces(spec, rng)
    report = verify_characterization(a, *draw_indices(*axis_dists(a, scheme, k), d, d, rng,
                                                      dedup=True), cfg.tol)
    assert exact == report.all_hold
    assert report.unanimous
    assert report.all_hold == (report.rank_u == report.rank_a)


def _assert_agrees_with_the_dense_path(cfg, dense_success):
    """The one-trial run of ``cfg`` against the dense path on its test matrix ``a``.

    The dense path draws from ``a``'s own distributions, builds the CUR with
    ``cur._cur`` and measures the m-by-n residual with ``relative_errors``;
    ``dense_success(factors, rel_f, truth)`` is its success flag.  The flags must
    be equal, and the errors within 1e-11 (relative above 1).  A spectrum
    reshaped to condition number kappa adds the roundoff of the dense path,
    which reaches about ``40 eps kappa`` of ``||A||`` (measured on 3,000
    trials; the bound allows ``1000 eps kappa``).
    """
    [record], summary = run_experiment(cfg)
    rng = trial_generator(cfg.master_seed, 0)
    if cfg.kind == "clustering":
        a, truth = union_of_subspaces(SubspaceSpec(cfg.m, cfg.dims, cfg.points), rng)
        k = sum(cfg.dims)
    else:
        [trial] = harness._test_matrices(cfg, 1, [harness._Trial(0, rng)])
        a, truth, k = trial.p @ trial.q.T, None, cfg.k
    if cfg.kind == "deim_check":
        factors = deim_cur(a, k)
    else:
        d, dedup = cfg.d_grid[0], cfg.dedup or cfg.kind == "clustering"
        rows, cols = draw_indices(*axis_dists(a, cfg.scheme, k), d, d, rng, dedup)
        factors = _cur(as_matrix(a), rows, cols, rank_cutoff(singular_values(a), a.shape)[1])
    rel_2, rel_f = relative_errors(a, factors)
    assert record.success == dense_success(factors, rel_f, truth)
    if cfg.kind == "clustering":
        assert summary["groups"][0]["exact_curs"] == (rel_f <= cfg.tol)
    roundoff = 1e3 * EPS * cfg.kappa if cfg.kappa else 0.0
    for got, ref in ((record.rel_error_spectral, rel_2), (record.rel_error_frobenius, rel_f)):
        assert abs(got - ref) <= 1e-11 * max(ref, 1.0) + roundoff


def _exact(cfg):
    return lambda factors, rel_f, truth: rel_f <= cfg.tol


def _clustered(factors, rel_f, truth):
    pred = labels_from_clustering_matrix(clustering_matrix(factors.U_pinv @ factors.R))
    return same_partition(pred, truth)


@PROPERTY
@given(inst=subspace_specs(), scheme=st.sampled_from(SCHEMES), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_clustering_trial_agrees_with_the_dense_path(inst, scheme, seed, data):
    # the trial measures its CUR in the k x k core of its data's factors and clusters
    # from the K-wide factor; building the CUR at the dense spectrum's cutoff, measuring
    # the m x n residual and clustering U^+ R gives the same flags, and errors within
    # 1e-11; fewer distinct draws than K leave short R factors
    spec, _ = inst
    k = sum(spec.dims)
    d = data.draw(st.integers(1, 3 * k))
    cfg = ExperimentConfig(kind="clustering", m=spec.ambient_dim, dims=spec.dims,
                           points=spec.points, scheme=scheme, d_grid=(d,), trials=1,
                           master_seed=seed)
    _assert_agrees_with_the_dense_path(cfg, _clustered)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("d", [1, 3, 6])
def test_clustering_trial_with_fewer_distinct_draws_than_k_agrees_with_the_dense_path(scheme, d):
    cfg = ExperimentConfig(kind="clustering", m=10, dims=(2, 3, 2), points=(4, 5, 3),
                           scheme=scheme, d_grid=(d,), trials=1, master_seed=90 + d)
    _assert_agrees_with_the_dense_path(cfg, _clustered)


@st.composite
def table_configs(draw):
    """One-trial ``success_prob`` configs: every scheme, kappa 1 to 1e6, sparsity 0 or 0.5."""
    k = draw(st.integers(1, 5))
    m, n = draw(st.integers(k + 1, 30)), draw(st.integers(2 * k + 1, 25))
    kappa = draw(st.sampled_from((None, 1.0, 100.0, 1e6))) if k > 1 else None
    return ExperimentConfig(kind="success_prob", m=m, n=n, k=k, kappa=kappa,
                            scheme=draw(st.sampled_from(SCHEMES)),
                            sparsity=draw(st.sampled_from((0.0, 0.5))),
                            dedup=draw(st.booleans()), d_grid=(draw(st.integers(1, 3 * k)),),
                            trials=1, master_seed=draw(st.integers(0, 2**32 - 1)))


@PROPERTY
@given(cfg=table_configs())
def test_success_trial_agrees_with_the_dense_path(cfg):
    _assert_agrees_with_the_dense_path(cfg, _exact(cfg))


@PROPERTY
@given(k=st.integers(1, 5), kappa=st.sampled_from((None, 1.0, 100.0, 1e6)),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_deim_trial_agrees_with_the_dense_path(k, kappa, seed, data):
    m, n = data.draw(st.integers(k + 1, 40)), data.draw(st.integers(k + 1, 40))
    cfg = ExperimentConfig(kind="deim_check", m=m, n=n, k=k, kappa=kappa if k > 1 else None,
                           trials=1, master_seed=seed)
    _assert_agrees_with_the_dense_path(cfg, _exact(cfg))


@st.composite
def noise_configs(draw, sigma, scheme=None, sparsities=(0.0, 0.5)):
    """Three-trial 40-by-30 ``noise_stability`` configs at ``sigma``: kappa, sparsity, dedup."""
    k = draw(st.integers(1, 5))
    return ExperimentConfig(kind="noise_stability", m=40, n=30, k=k, sigma=sigma,
                            kappa=draw(st.sampled_from((None, 100.0, 1e6))) if k > 1 else None,
                            scheme=scheme or draw(st.sampled_from(SCHEMES)),
                            sparsity=draw(st.sampled_from(sparsities)), dedup=draw(st.booleans()),
                            d_grid=(draw(st.integers(k, 3 * k)),), trials=3,
                            master_seed=draw(st.integers(0, 2**32 - 1)))


NOISE_PROPERTY = settings(PROPERTY, max_examples=40)


@pytest.mark.parametrize("scheme", SCHEMES)
@NOISE_PROPERTY
@given(data=st.data())
def test_noise_below_every_entry_of_a_gives_the_noiseless_rows(scheme, data):
    # E at 1e-150 vanishes in A + E, so every row has the bits of sigma = 0; in a zeroed
    # column of A it would not, so A has none
    cfg = data.draw(noise_configs(1e-150, scheme, sparsities=(0.0,)))
    records = run_experiment(cfg)[0]
    assert len(records) == cfg.trials
    assert repr(records) == repr(run_experiment(replace(cfg, sigma=0.0))[0])


@pytest.mark.parametrize("scheme", SCHEMES)
@NOISE_PROPERTY
@given(data=st.data(), sigma=st.sampled_from((1e150, 1e300)))
def test_noise_far_above_a_skips_every_trial(scheme, data, sigma):
    # at 1e300 E's squares overflow; the skip comes without a RuntimeWarning either way
    records, summary = run_experiment(data.draw(noise_configs(sigma, scheme)))
    assert records == [] and summary["groups"][0]["skipped"] == 3


@NOISE_PROPERTY
@given(data=st.data(), sigma=st.sampled_from((1e-3, 0.1, 0.5)))
def test_noise_trial_floors_match_the_loop_reference(data, sigma):
    # the trial's floors from A's and E's sums have the bits of the per-index loop
    # reference, and a trial is dropped exactly where the reference finds a dominated
    # index, which is its first floor that is not > 0.  A chunk takes the sums of its
    # stacks of A and of E, then the floors of those stacks, so the t-th floors are of
    # the t-th A and E of the two stacks
    seen, outcomes = [], []
    lengths, floors = harness._squared_lengths, harness._noisy_floors

    def recording_lengths(x):
        seen.append(x.copy())
        return lengths(x)

    def recording_floors(*args):
        got = floors(*args)
        for t, (a, e) in enumerate(zip(*seen[-2:])):
            alone = (got[0][t], got[1][t])
            want, index = noisy_floors_loop(a, e)
            outcomes.append(([x.tobytes() for x in alone], first_nonpositive_floor(alone),
                             [x.tobytes() for x in want], index))
        return got

    with mock.patch.object(harness, "_squared_lengths", recording_lengths), \
            mock.patch.object(harness, "_noisy_floors", recording_floors):
        records = run_experiment(data.draw(noise_configs(sigma)))[0]
    assert len(outcomes) == 3
    assert [r.trial_index for r in records] == [t for t, o in enumerate(outcomes) if o[3] is None]
    for got, got_index, want, index in outcomes:
        assert got == want and got_index == index
