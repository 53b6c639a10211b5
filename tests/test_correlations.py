import math

import numpy as np
import pytest

from conftest import (SHIFTS, FullDepthSums, dense, loop_birkhoff_moment,
                      series_covariance, series_triple, series_variance, stationary_vector)
from thermoflow import correlations, errors, transfer
from thermoflow.correlations import (EquilibriumContext, birkhoff_moment, covariance,
                                     project_mean_zero, triple_covariance, variance)
from thermoflow.sft import (coboundary, constant_function, full_shift, golden_mean_shift,
                            indicator, random_function)
from thermoflow.transfer import equilibrium_measure, normalize_potential, rpf, ruelle_matrix


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
    # a 128-word (CSR) context over the 64-word (dense) base of a depth-6 potential
    "full2-d7-over-d6": (lambda: full_shift(2), (41, 6, 0.5), 7, None),
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
    a, _, inv_norm = ctx._factor
    if isinstance(a, np.ndarray):
        # the dense norm is exact, not a LAPACK estimate (which can be below it)
        assert inv_norm == np.abs(np.linalg.inv(a)).sum(axis=0).max()
    if branch == "sparse":
        # the bordered inverse maps the constraint row to 1, so its full norm is >= n
        assert ctx._factor[2] < len(ctx.m) / 2
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
    out = ctx.rm.apply(v - ctx.integrate_vec(v))
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
        vec = ctx.rm.apply(vec - ctx.integrate_vec(vec))
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


def test_context_gap_is_the_minimal_solve_at_every_depth():
    """A depth-2 potential on the full 2-shift: contexts at depths 2-14 all return
    one gap, bit for bit and on every call, within 1e-14 of |lambda_2| / rho of
    the 4-word matrix of w. No solve runs above the 4-word minimal matrix, so
    ARPACK at 16,384 words cannot make the gap vary between calls."""
    s = full_shift(2)
    w = random_function(s, 2, np.random.default_rng(19), scale=0.6)
    lam = sorted(np.abs(np.linalg.eigvals(dense(ruelle_matrix(s, w).matrix))))
    exact = lam[-2] / lam[-1]
    wn, _ = _setup(s, w)
    gaps = {EquilibriumContext(s, wn, depth=depth).gap for depth in range(2, 15)}
    gaps |= {EquilibriumContext(s, wn, depth=depth).gap for depth in (10, 14)}
    assert len(gaps) == 1
    assert abs(gaps.pop() - exact) <= 1e-14


def test_context_m_is_the_stationary_vector_of_its_own_matrix():
    """m lifted from the minimal solve against a solve on the context's own
    matrix, within 1e-14: contexts of depth-3 potentials at depths 3-6."""
    for s in (golden_mean_shift(), full_shift(3)):
        wn, _ = _setup(s, random_function(s, 3, np.random.default_rng(6), scale=0.5))
        for depth in range(3, 7):
            ctx = EquilibriumContext(s, wn, depth=depth)
            assert ctx.depth == depth and len(ctx.m) == s.word_count(depth)
            assert np.max(np.abs(ctx.m - stationary_vector(ctx.rm))) <= 1e-14
            assert abs(ctx.m.sum() - 1.0) <= 1e-14


def test_variance_path_solves_only_minimal_matrices(solve_sizes):
    """rpf, the measure and the variance of a depth-4 potential on the full
    4-shift: one 64-word Perron solve for the potential (its depth-3 space); the
    context of the normalized potential sits at depth 4 (256 words), takes m from
    one 64-word solve and factors 64 words, and nothing solves or factors on 256."""
    s = full_shift(4)
    rng = np.random.default_rng(44)
    w, g = random_function(s, 4, rng, scale=0.3), random_function(s, 4, rng)
    wn, m = _setup(s, w)
    rep = variance(project_mean_zero(g, m), m, wn)
    assert solve_sizes == {"perron": [64], "stationary": [64], "factor": [64]}
    assert math.isfinite(rep.value) and rep.value > 0.0


# shift, depth of f0, context depths: the minimal words of w' sit at depth
# max(depth(f0) - 1, 1); 256 and 512 of them take the sparse branch
SOLVE_CASES = [("golden", 1, (1, 2, 4)), ("golden", 4, (4, 6)), ("full2", 2, (2, 3, 5)),
               ("full3", 3, (3, 4)), ("mixing3", 2, (2, 4)), ("full4", 5, (5,)),
               ("full2", 10, (10, 11))]


@pytest.mark.parametrize("shift,depth,contexts", SOLVE_CASES)
def test_every_context_solve_runs_on_the_minimal_words(shift, depth, contexts, solve_sizes):
    """Each context's m solve and factor, and its sums, run on the words of depth
    max(depth(w') - 1, 1) at every context depth; no context runs `_perron`."""
    s = SHIFTS[shift]()
    rng = np.random.default_rng(depth)
    wn, _ = _setup(s, random_function(s, depth, rng, scale=0.4))
    solve_sizes.clear()
    low = s.word_count(max(wn.depth - 1, 1))
    for d in contexts:
        ctx = EquilibriumContext(s, wn, depth=d)
        g = random_function(s, d, rng)
        ctx.variance(g - ctx.integrate(g))
    branch = {"lu": [low] * len(contexts)} if low > transfer.DENSE_WORDS else {}
    assert solve_sizes == {"stationary": [low] * len(contexts),
                           "factor": [low] * len(contexts), **branch}


@pytest.mark.parametrize("shift,depth", [("golden", 1), ("golden", 3), ("full2", 2),
                                         ("full3", 4), ("mixing3", 2)])
def test_context_without_a_depth_sits_at_the_depth_of_f0(shift, depth, solve_sizes):
    """EquilibriumContext(sft, w') with no depth sits at depth(w') = max(depth(f0), 2),
    one level above the minimal words, and factors only those."""
    s = SHIFTS[shift]()
    rng = np.random.default_rng(depth)
    f0 = random_function(s, depth, rng, scale=0.4)
    wn, _ = _setup(s, f0)
    solve_sizes.clear()
    ctx = EquilibriumContext(s, wn)
    assert ctx.depth == max(depth, 2) and len(ctx.m) == s.word_count(ctx.depth)
    g = random_function(s, ctx.depth, rng)
    ctx.variance(g - ctx.integrate(g))
    low = s.word_count(max(depth - 1, 1))
    assert solve_sizes == {"stationary": [low], "factor": [low]}


# shift, depth of f0, context depth: full 3 and full 4 at depth 4, full 4 at 5, full 2
# at 10 and 12 and the golden mean at 4 (one level above the minimal words), contexts
# at the minimal words, and `base_context`'s max(depth(f0) + 1, 3), two or more above
FULL_DEPTH_CASES = [("full3", 4, 4), ("full4", 4, 4), ("full4", 5, 5), ("full2", 10, 10),
                    ("full2", 12, 12), ("golden", 4, 4), ("golden", 1, 1), ("full2", 1, 1),
                    ("golden", 1, 3), ("golden", 2, 3), ("full3", 2, 3), ("full2", 3, 4),
                    ("golden", 4, 5), ("mixing3", 2, 4), ("full2", 9, 11)]


@pytest.mark.parametrize("shift,depth,context", FULL_DEPTH_CASES)
@pytest.mark.parametrize("seed", [1, 2])
def test_minimal_word_sums_match_the_full_depth_solve(shift, depth, context, seed):
    """Variance, covariance and triple against `FullDepthSums`, the fundamental
    system solved on all the context's words: the two values agree within the sum
    of their stated bounds, and no stated bound is above the full-depth one. The
    factors have depths context, context - 1 and 1, so the triple mixes lower
    limits across its orderings."""
    s = SHIFTS[shift]()
    rng = np.random.default_rng(seed)
    wn, _ = _setup(s, random_function(s, depth, rng, scale=0.4))
    ctx = EquilibriumContext(s, wn, depth=context)
    gs = [random_function(s, d, rng) for d in (context, max(context - 1, 1), 1)]
    gs = [g - ctx.integrate(g) for g in gs]
    vecs = [ctx.vector(g) for g in gs]
    oracle = FullDepthSums(ctx)
    pairs = [(ctx.variance(gs[0]), oracle.variance(vecs[0])),
             (ctx.covariance(gs[0], gs[1]), oracle.covariance(vecs[0], vecs[1])),
             (ctx.triple(*gs), oracle.triple(*vecs))]
    for rep, (value, bound) in pairs:
        assert abs(rep.value - value) <= rep.tail_bound + bound
        assert 0.0 < rep.tail_bound <= bound


@pytest.mark.parametrize("shift,depth", [("golden", 2), ("golden", 4), ("full2", 3),
                                         ("full3", 2), ("mixing3", 3)])
def test_birkhoff_moment_matches_the_loop_oracle(shift, depth):
    """The bincount update against the window-by-window loop of tests/conftest.py,
    for one to three factors of depth up to the context's, to 1e-12 relative."""
    s = SHIFTS[shift]()
    rng = np.random.default_rng(depth)
    w = random_function(s, depth, rng, scale=0.4)
    ctx = EquilibriumContext(s, _setup(s, w)[0], depth=depth)
    gs = [random_function(s, d, rng) + 0.5 for d in (1, depth, max(depth - 1, 1))]
    for k in (1, 2, 3):
        for n in (1, 2, 7):
            want = loop_birkhoff_moment(ctx, gs[:k], n)
            assert abs(want) > 1e-3
            assert birkhoff_moment(ctx, gs[:k], n) == pytest.approx(want, rel=1e-12, abs=0)
