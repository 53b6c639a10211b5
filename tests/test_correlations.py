import math

import numpy as np
import pytest

from conftest import series_covariance, series_triple, series_variance
from thermoflow import correlations, errors
from thermoflow.correlations import (EquilibriumContext, birkhoff_moment, covariance,
                                     project_mean_zero, triple_covariance, variance)
from thermoflow.sft import (coboundary, constant_function, full_shift, golden_mean_shift,
                            indicator, random_function)
from thermoflow.transfer import equilibrium_measure, normalize_potential, rpf


def _setup(s, w):
    data = rpf(s, w)
    wn = normalize_potential(s, w, data)
    m = equilibrium_measure(s, w, data)
    return wn, m


def test_project_constant_to_zero():
    s = full_shift(2)
    wn, m = _setup(s, constant_function(s, 0.0))
    g = project_mean_zero(constant_function(s, 3.0), m)
    assert g.sup_norm() == pytest.approx(0.0, abs=1e-14)


def test_project_mean_zero_is_identity_on_mean_zero():
    s = full_shift(2)
    wn, m = _setup(s, constant_function(s, 0.0))
    g = indicator(s, 0) - 0.5
    assert (project_mean_zero(g, m) - g).sup_norm() < 1e-14


def test_project_indicator_symmetric_values():
    s = full_shift(2)
    wn, m = _setup(s, constant_function(s, 0.0))
    g = project_mean_zero(indicator(s, 0), m)
    assert g.values[(0,)] == pytest.approx(0.5, abs=1e-12)
    assert g.values[(1,)] == pytest.approx(-0.5, abs=1e-12)


def test_project_depth_mismatch():
    s = full_shift(2)
    wn, m = _setup(s, constant_function(s, 0.0))
    g = random_function(s, 3, np.random.default_rng(0))
    with pytest.raises(errors.DepthMismatch):
        project_mean_zero(g, m)


def test_variance_coin_quarter():
    s = full_shift(2)
    wn, m = _setup(s, constant_function(s, 0.0))
    g = indicator(s, 0) - 0.5
    rep = variance(g, m, wn)
    assert rep.value == pytest.approx(0.25, abs=1e-12)


def test_variance_zero_function():
    s = full_shift(2)
    wn, m = _setup(s, constant_function(s, 0.0))
    rep = variance(constant_function(s, 0.0), m, wn)
    assert rep.value == pytest.approx(0.0, abs=1e-14)


def test_variance_of_coboundary_vanishes():
    s = golden_mean_shift()
    rng = np.random.default_rng(12)
    w = random_function(s, 2, rng, scale=0.4)
    wn, m = _setup(s, w)
    v = random_function(s, 2, rng)
    rep = variance(coboundary(v), m, wn)
    assert abs(rep.value) < max(1e-10, rep.tail_bound * 10)


def test_variance_requires_mean_zero():
    s = full_shift(2)
    wn, m = _setup(s, constant_function(s, 0.0))
    with pytest.raises(errors.NotMeanZero):
        variance(indicator(s, 0), m, wn)


def test_variance_matches_direct_estimator():
    """Green-Kubo value vs the exact (1/n) E[(S_n g)^2] moments, C/n rate."""
    s = golden_mean_shift()
    rng = np.random.default_rng(5)
    w = random_function(s, 2, rng, scale=0.3)
    wn, m = _setup(s, w)
    ctx = EquilibriumContext(s, wn, depth=3)
    g = random_function(s, 2, rng)
    g = g - ctx.integrate(g)
    gk = variance(g, m, wn, ctx=ctx).value
    diffs = []
    for n in (10, 20, 40, 60):
        direct = birkhoff_moment(ctx, [g, g], n) / n
        diffs.append((n, abs(gk - direct)))
    fitted_C = max(n * d for n, d in diffs)
    assert fitted_C < 10.0
    assert diffs[-1][1] < diffs[0][1] + 1e-12


def test_covariance_diagonal_is_variance():
    s = golden_mean_shift()
    rng = np.random.default_rng(3)
    w = random_function(s, 2, rng, scale=0.3)
    wn, m = _setup(s, w)
    ctx = EquilibriumContext(s, wn, depth=3)
    g = random_function(s, 2, rng)
    g = g - ctx.integrate(g)
    assert covariance(g, g, m, wn, ctx=ctx).value == pytest.approx(
        variance(g, m, wn, ctx=ctx).value, abs=1e-12)


def test_covariance_with_constant_is_zero():
    s = golden_mean_shift()
    wn, m = _setup(s, constant_function(s, 0.0))
    ctx = EquilibriumContext(s, wn, depth=2)
    g = random_function(s, 2, np.random.default_rng(1))
    g = g - ctx.integrate(g)
    rep = covariance(g, constant_function(s, 4.2), m, wn, ctx=ctx)
    assert abs(rep.value) < 1e-12


def test_covariance_symmetric():
    s = golden_mean_shift()
    rng = np.random.default_rng(8)
    w = random_function(s, 2, rng, scale=0.4)
    wn, m = _setup(s, w)
    ctx = EquilibriumContext(s, wn, depth=3)
    g1 = random_function(s, 3, rng)
    g2 = random_function(s, 3, rng)
    g1 = g1 - ctx.integrate(g1)
    g2 = g2 - ctx.integrate(g2)
    a = covariance(g1, g2, m, wn, ctx=ctx).value
    b = covariance(g2, g1, m, wn, ctx=ctx).value
    assert a == pytest.approx(b, abs=1e-10)


def test_covariance_independent_components_zero():
    # alphabet {0..3} read as two independent bits under the uniform measure
    s = full_shift(4)
    wn, m = _setup(s, constant_function(s, 0.0))
    ctx = EquilibriumContext(s, wn, depth=1)
    bit0 = {(a,): 1.0 if a % 2 else -1.0 for a in range(4)}
    bit1 = {(a,): 1.0 if a // 2 else -1.0 for a in range(4)}
    from thermoflow.sft import DepthKFunction
    g1 = DepthKFunction(s, 1, bit0)
    g2 = DepthKFunction(s, 1, bit1)
    rep = covariance(g1, g2, m, wn, ctx=ctx)
    assert abs(rep.value) < 1e-12


def test_triple_zero_argument():
    s = full_shift(2)
    wn, m = _setup(s, constant_function(s, 0.0))
    ctx = EquilibriumContext(s, wn, depth=1)
    z = constant_function(s, 0.0)
    g = indicator(s, 0) - 0.5
    assert triple_covariance(z, g, g, m, wn, ctx=ctx).value == 0.0


def test_triple_coboundary_vanishes():
    s = golden_mean_shift()
    rng = np.random.default_rng(21)
    w = random_function(s, 2, rng, scale=0.3)
    wn, m = _setup(s, w)
    ctx = EquilibriumContext(s, wn, depth=3)
    cb = coboundary(random_function(s, 2, rng))
    rep = triple_covariance(cb, cb, cb, m, wn, ctx=ctx)
    assert abs(rep.value) < 1e-7


def test_triple_matches_direct_estimator():
    """Truncated double sum vs exact (1/n) E[S_n(g1) S_n(g2) S_n(g3)] at n = 20."""
    s = full_shift(2)
    rng = np.random.default_rng(14)
    w = random_function(s, 1, rng, scale=0.5)
    wn, m = _setup(s, w)
    ctx = EquilibriumContext(s, wn, depth=2)
    g = indicator(s, 0)
    g = g - ctx.integrate(g)
    trip = triple_covariance(g, g, g, m, wn, ctx=ctx).value
    direct = birkhoff_moment(ctx, [g, g, g], 20) / 20
    assert trip == pytest.approx(direct, abs=1e-3)


def test_triple_centered_indicator_uniform_matches_direct():
    s = full_shift(2)
    wn, m = _setup(s, constant_function(s, 0.0))
    ctx = EquilibriumContext(s, wn, depth=2)
    g = indicator(s, 0) - 0.5
    trip = triple_covariance(g, g, g, m, wn, ctx=ctx).value
    direct = birkhoff_moment(ctx, [g, g, g], 20) / 20
    assert trip == pytest.approx(direct, abs=1e-3)


def test_triple_symmetry_under_permutation():
    s = golden_mean_shift()
    rng = np.random.default_rng(30)
    w = random_function(s, 2, rng, scale=0.3)
    wn, m = _setup(s, w)
    ctx = EquilibriumContext(s, wn, depth=3)
    gs = []
    for _ in range(3):
        g = random_function(s, 2, rng)
        gs.append(g - ctx.integrate(g))
    import itertools
    vals = [triple_covariance(gs[i], gs[j], gs[k], m, wn, ctx=ctx).value
            for i, j, k in itertools.permutations(range(3))]
    assert max(vals) - min(vals) < 1e-10


def test_livsic_invariance_of_correlations():
    s = golden_mean_shift()
    rng = np.random.default_rng(44)
    w = random_function(s, 2, rng, scale=0.3)
    wn, m = _setup(s, w)
    ctx = EquilibriumContext(s, wn, depth=3)
    g1 = random_function(s, 2, rng)
    g2 = random_function(s, 2, rng)
    g1 = g1 - ctx.integrate(g1)
    g2 = g2 - ctx.integrate(g2)
    cb = coboundary(random_function(s, 2, rng, scale=0.5))
    v0 = variance(g1, m, wn, ctx=ctx).value
    v1 = variance(g1 + cb, m, wn, ctx=ctx).value
    assert abs(v0 - v1) < 1e-6
    c0 = covariance(g1, g2, m, wn, ctx=ctx).value
    c1 = covariance(g1 + cb, g2, m, wn, ctx=ctx).value
    assert abs(c0 - c1) < 1e-6
    t0 = triple_covariance(g1, g2, g1, m, wn, ctx=ctx).value
    t1 = triple_covariance(g1 + cb, g2, g1, m, wn, ctx=ctx).value
    assert abs(t0 - t1) < 1e-6


def _complex_lambda2_potential(s):
    """The golden-mean potential whose lambda_2 is complex, ratio 0.6238."""
    rng = np.random.default_rng(5)
    for _ in range(7):
        w = random_function(s, 3, rng, scale=0.8)
    return w


# shift, potential (seed, depth, scale or a builder), context depth, solve branch
ORACLE_CASES = {
    "golden-complex-lambda2": (golden_mean_shift, _complex_lambda2_potential, None, None),
    "golden-d2": (golden_mean_shift, (31, 2, 0.5), 2, None),
    "golden-d3": (golden_mean_shift, (32, 3, 0.6), 3, None),
    "golden-d4": (golden_mean_shift, (33, 4, 0.4), 4, None),
    "full2-d2": (lambda: full_shift(2), (34, 2, 0.5), 2, None),
    "full2-d3": (lambda: full_shift(2), (35, 3, 0.8), 3, None),
    "full2-d4": (lambda: full_shift(2), (36, 4, 0.5), 4, None),
    "full3-d2": (lambda: full_shift(3), (37, 2, 0.8), 2, None),
    "full3-d3": (lambda: full_shift(3), (38, 3, 0.4), 3, None),
    "full2-d7-dense": (lambda: full_shift(2), (39, 2, 0.5), 7, "dense"),
    "full2-d7-sparse": (lambda: full_shift(2), (39, 2, 0.5), 7, "sparse"),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_exact_sums_match_truncated_series(case, monkeypatch):
    shift, potential, depth, branch = ORACLE_CASES[case]
    s = shift()
    if callable(potential):
        w, rng = potential(s), np.random.default_rng(40)
    else:
        seed, wdepth, scale = potential
        rng = np.random.default_rng(seed)
        w = random_function(s, wdepth, rng, scale=scale)
    wn, m = _setup(s, w)
    ctx = EquilibriumContext(s, wn, depth=depth)
    if branch is not None:
        assert len(ctx.m) >= 96
        # both branches factor the same L: only the solve switches
        monkeypatch.setattr(correlations, "DENSE_WORDS", len(ctx.m) if branch == "dense" else 1)
    gs = [random_function(s, min(ctx.depth, 3), rng) for _ in range(3)]
    gs = [g - ctx.integrate(g) for g in gs]
    vecs = [ctx.vector(g) for g in gs]
    N = 80
    pairs = [(variance(gs[0], m, wn, ctx=ctx), series_variance(ctx, vecs[0], N)),
             (covariance(gs[0], gs[1], m, wn, ctx=ctx),
              series_covariance(ctx, vecs[0], vecs[1], N)),
             (triple_covariance(*gs, m, wn, ctx=ctx), series_triple(ctx, vecs, N))]
    if branch is not None:
        assert isinstance(ctx._factor[0], np.ndarray) == (branch == "dense")
    for rep, (series, tail) in pairs:
        assert rep.truncation == 0
        assert math.isfinite(rep.tail_bound) and rep.tail_bound >= 0.0
        tol = tail + rep.tail_bound + 1e-12 * max(1.0, abs(rep.value))
        assert abs(rep.value - series) <= tol


def test_equilibrium_context_kills_constants():
    s = golden_mean_shift()
    wn, _ = _setup(s, constant_function(s, 0.0))
    ctx = EquilibriumContext(s, wn)
    v = ctx.vector(constant_function(s, 1.0, depth=ctx.depth))
    out = ctx.apply_L(v - ctx.integrate_vec(v))
    assert np.abs(out).max() < 1e-12


def test_equilibrium_context_decay():
    s = golden_mean_shift()
    rng = np.random.default_rng(4)
    wn, _ = _setup(s, random_function(s, 2, rng, scale=0.3))
    ctx = EquilibriumContext(s, wn, depth=3)
    r = ctx.gap
    assert 0.0 <= r < 1.0
    vec = ctx.vector(random_function(s, 3, rng))
    vec = vec - ctx.integrate_vec(vec)
    norms = []
    for _ in range(40):
        vec = ctx.apply_L(vec - ctx.integrate_vec(vec))
        norms.append(np.abs(vec).max())
    # geometric decay at rate <= r (+ slack)
    for i in range(20, 39):
        if norms[i] > 1e-200:
            assert norms[i + 1] <= (r + 0.05) * norms[i] + 1e-250


def test_equilibrium_context_full_shift_depth1_gap_zero():
    s = full_shift(2)
    ctx = EquilibriumContext(s, constant_function(s, -math.log(2)))
    assert ctx.gap == pytest.approx(0.0, abs=1e-12)


def test_equilibrium_context_requires_normalized():
    s = full_shift(2)
    with pytest.raises(errors.NotNormalized):
        EquilibriumContext(s, constant_function(s, 0.0))
