"""Properties of scale and permutation invariance over generated rank-k inputs.

Inputs are rank-k Gaussian-factor matrices, the same with one row blown up
by 1e3 ("spiky"), or with a zero row and a zero column; index sets are drawn
uniformly with replacement, so they carry duplicates.

The verifier's verdicts are not tested here for unanimity, for invariance
under deduplication, permutation or 1e150 scaling, or for ``all_hold`` iff
``rank_u == rank_a``: each fails on some generated input, because on small
matrices the roundoff singular values of a C, R or U with repeated indices
can cross A's rank cutoff.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curlowrank.cur import approx_error, relative_errors, verify_characterization
from curlowrank.errors import NoiseDominatesError
from curlowrank.harness import lowrank_gaussian, trial_generator
from curlowrank.linalg import COLS, ROWS, IndexSet
from curlowrank.sampling import (
    leverage_dist,
    length_dist,
    noisy_stability_floor,
    uniform_stability_floor,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def instances(draw):
    """``(a, k, rows, cols, rng)``: a rank-k matrix and index sets of it with duplicates."""
    m, n = draw(st.integers(2, 14)), draw(st.integers(2, 12))
    k = draw(st.integers(1, min(m, n) - 1))
    rng = trial_generator(draw(st.integers(0, 2**32 - 1)), 0)
    a = lowrank_gaussian(m, n, k, rng)
    shape = draw(st.sampled_from(("gaussian", "spiky_row", "zero_row_col")))
    if shape == "spiky_row":
        a[int(rng.integers(m))] *= 1e3
    elif shape == "zero_row_col":
        a[int(rng.integers(m))] = 0.0
        a[:, int(rng.integers(n))] = 0.0
    rows = IndexSet(rng.integers(0, m, size=draw(st.integers(1, 2 * m))), ROWS)
    cols = IndexSet(rng.integers(0, n, size=draw(st.integers(1, 2 * n))), COLS)
    return a, k, rows, cols, rng


def _floors(f, *args):
    try:
        p = f(*args)
    except NoiseDominatesError as exc:
        return str(exc)
    return p.alpha_per_col.tobytes(), p.beta_per_row.tobytes(), p.alpha, p.beta, p.gamma


@PROPERTY
@given(inst=instances(), j=st.integers(-500, 500))
def test_power_of_two_scaling_keeps_every_bit(inst, j):
    a, _, _, _, rng = inst
    e = 1e-3 * rng.standard_normal(a.shape)
    s = 2.0**j
    for axis in (ROWS, COLS):
        assert length_dist(s * a, axis).weights.tobytes() == length_dist(a, axis).weights.tobytes()
    assert _floors(uniform_stability_floor, s * a) == _floors(uniform_stability_floor, a)
    assert _floors(noisy_stability_floor, s * a, s * e) == _floors(noisy_stability_floor, a, e)


@PROPERTY
@given(inst=instances(), scale=st.sampled_from((1e150, 1e-150)))
def test_errors_stay_finite_at_extreme_scale(inst, scale):
    a, _, rows, cols, _ = inst
    factors = verify_characterization(scale * a, rows, cols).factors
    errors = (*relative_errors(scale * a, factors), approx_error(scale * a, factors) / scale)
    assert all(np.isfinite(err) for err in errors)


@PROPERTY
@given(inst=instances())
def test_permutation_permutes_the_weights(inst):
    a, k, _, _, rng = inst
    pr, pc = rng.permutation(a.shape[0]), rng.permutation(a.shape[1])
    b = a[pr][:, pc]
    for axis, perm in ((ROWS, pr), (COLS, pc)):
        np.testing.assert_allclose(length_dist(b, axis).weights, length_dist(a, axis).weights[perm],
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(leverage_dist(b, k, axis).weights,
                                   leverage_dist(a, k, axis).weights[perm], rtol=1e-8, atol=1e-12)
