import itertools

import numpy as np
import pytest

from conftest import SHIFTS, FullDepthSums, base_context, random_family_1p
from thermoflow import errors
from thermoflow.correlations import EquilibriumContext
from thermoflow.derivatives import (PotentialFamily, _family_base, _prepare, fd_oracle,
                                    pressure_d1, pressure_d2, pressure_d2_mixed, pressure_d3,
                                    pressure_d3_mixed, pressure_metric, pressure_metric_d1,
                                    pressure_metric_d1_terms)
from thermoflow.sft import (coboundary, constant_function, full_shift, golden_mean_shift,
                            random_function)
from thermoflow.transfer import EPS, equilibrium_measure, normalize_potential, pressure, rpf


def test_d1_constant_direction():
    s = golden_mean_shift()
    rng = np.random.default_rng(0)
    f0 = random_function(s, 2, rng, scale=0.3)
    c = 0.7
    fam = PotentialFamily.from_taylor(s, f0, {(0,): constant_function(s, c)})
    assert pressure_d1(fam) == pytest.approx(c, abs=1e-10)


def test_d1_coboundary_direction():
    s = golden_mean_shift()
    rng = np.random.default_rng(1)
    f0 = random_function(s, 2, rng, scale=0.3)
    fam = PotentialFamily.from_taylor(s, f0, {(0,): coboundary(random_function(s, 2, rng))})
    assert pressure_d1(fam) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("seed", range(3))
def test_d1_matches_fd(seed):
    s = golden_mean_shift()
    fam = random_family_1p(s, np.random.default_rng(seed), mean_zero_d1=False)
    assert pressure_d1(fam) == pytest.approx(fd_oracle(fam, 1, h=1e-4), abs=1e-7)


def test_d2_coboundary_plus_quadratic_constant():
    s = golden_mean_shift()
    rng = np.random.default_rng(2)
    f0 = random_function(s, 2, rng, scale=0.3)
    c = 1.3
    fam = PotentialFamily.from_taylor(
        s, f0, {(0,): coboundary(random_function(s, 2, rng)),
                (0, 0): constant_function(s, c)})
    assert pressure_d2(fam) == pytest.approx(c, abs=1e-6)


def test_d2_hypothesis_checked():
    s = golden_mean_shift()
    rng = np.random.default_rng(3)
    fam = random_family_1p(s, rng, mean_zero_d1=False)
    with pytest.raises(errors.HypothesisViolated):
        pressure_d2(fam)


@pytest.mark.parametrize("seed", range(3))
def test_d2_matches_fd(seed):
    s = golden_mean_shift()
    fam = random_family_1p(s, np.random.default_rng(10 + seed))
    assert pressure_d2(fam) == pytest.approx(fd_oracle(fam, 2), abs=1e-5)


def test_d2_mixed_diagonal_consistency():
    s = golden_mean_shift()
    rng = np.random.default_rng(4)
    f0 = random_function(s, 2, rng, scale=0.3)
    ctx = base_context(s, f0)
    g = random_function(s, 2, rng)
    g = g - ctx.integrate(g)
    h = random_function(s, 2, rng)
    fam1 = PotentialFamily.from_taylor(s, f0, {(0,): g, (0, 0): h}, nparams=1)
    fam2 = PotentialFamily.from_taylor(s, f0, {(0,): g, (1,): g,
                                               (0, 0): h, (0, 1): h, (1, 1): h},
                                       nparams=2)
    assert pressure_d2_mixed(fam2) == pytest.approx(pressure_d2(fam1), abs=1e-9)


def test_mixed_derivatives_on_the_diagonal_are_the_pure_ones(solve_counts):
    fam = random_family_1p(golden_mean_shift(), np.random.default_rng(25))
    assert pressure_d2_mixed(fam, (0, 0)) == pressure_d2(fam)
    assert pressure_d3_mixed(fam, (0, 0, 0)) == pressure_d3(fam)
    solve_counts.clear()
    pressure_d3(fam)
    # one `sums` call for each level of the recursion below the top
    assert solve_counts["sums"] == 2


def test_d3_pure_cubic_constant():
    s = golden_mean_shift()
    rng = np.random.default_rng(5)
    f0 = random_function(s, 2, rng, scale=0.3)
    c = -0.9
    fam = PotentialFamily.from_taylor(
        s, f0, {(0,): coboundary(random_function(s, 2, rng)),
                (0, 0, 0): constant_function(s, c)})
    assert pressure_d3(fam) == pytest.approx(c, abs=1e-6)


def test_d3_even_family_gives_zero():
    s = golden_mean_shift()
    rng = np.random.default_rng(6)
    f0 = random_function(s, 2, rng, scale=0.3)
    fam = PotentialFamily.from_taylor(s, f0, {(0, 0): random_function(s, 2, rng)})
    assert pressure_d3(fam) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(3))
def test_d3_matches_fd(seed):
    s = golden_mean_shift()
    fam = random_family_1p(s, np.random.default_rng(20 + seed))
    assert pressure_d3(fam) == pytest.approx(fd_oracle(fam, 3), abs=1e-3)


def test_d3_mixed_diagonal_consistency():
    s = golden_mean_shift()
    rng = np.random.default_rng(7)
    f0 = random_function(s, 2, rng, scale=0.25)
    ctx = base_context(s, f0)
    g = random_function(s, 2, rng)
    g = g - ctx.integrate(g)
    h = random_function(s, 2, rng)
    t = random_function(s, 2, rng)
    fam1 = PotentialFamily.from_taylor(
        s, f0, {(0,): g, (0, 0): h, (0, 0, 0): t}, nparams=1)
    partials = {}
    for i in range(3):
        partials[(i,)] = g
    for i in range(3):
        for j in range(i, 3):
            partials[(i, j)] = h
    for i in range(3):
        for j in range(i, 3):
            for k in range(j, 3):
                partials[(i, j, k)] = t
    fam3 = PotentialFamily.from_taylor(s, f0, partials, nparams=3)
    assert pressure_d3_mixed(fam3) == pytest.approx(pressure_d3(fam1), abs=1e-8)


def test_fd_oracle_trivial_orders():
    s = full_shift(2)
    f0 = constant_function(s, 0.1)
    c = 0.83
    fam1 = PotentialFamily.from_taylor(s, f0, {(0,): constant_function(s, c)})
    assert fd_oracle(fam1, 1) == pytest.approx(c, abs=1e-8)
    fam2 = PotentialFamily.from_taylor(s, f0, {(0, 0): constant_function(s, c)})
    assert fd_oracle(fam2, 2) == pytest.approx(c, abs=1e-6)
    fam3 = PotentialFamily.from_taylor(s, f0, {(0, 0, 0): constant_function(s, c)})
    assert fd_oracle(fam3, 3) == pytest.approx(c, abs=1e-5)


def validate(family, h=1e-4, tol=1e-5) -> float:
    """Largest sup-norm gap between a family's closed-form partials of order at
    most 2 and their central differences; a gap above tol raises ValueError."""
    worst = 0.0
    for alpha, g in family.partials.items():
        if len(alpha) > 2:
            continue
        worst = max(worst, (g - family._fd_partial(alpha, h=h)).sup_norm())
    if worst > tol:
        raise ValueError(f"closed-form partials deviate from fd by {worst:.3e}")
    return worst


def measure_derivative(w_family, f_family) -> float:
    """d/ds int w_s dm_{f_s} at 0 = Cov(w_0, d_s f_0) + int d_s w_0 dm.

    Adding constants to the f-family does not change its equilibrium states.
    """
    base = _family_base(f_family, w_family)
    df = base.centered(f_family.partial((0,)))
    cov = base.ctx.covariance(base.centered(w_family.f0), df)
    return cov.value + base.ctx.integrate(w_family.partial((0,)))


def test_family_validate_and_fd_partials():
    s = golden_mean_shift()
    fam = random_family_1p(s, np.random.default_rng(8))
    assert validate(fam) < 1e-6
    fd1 = fam._fd_partial((0,))
    assert (fd1 - fam.partial((0,))).sup_norm() < 1e-7


def test_measure_derivative_constant_w():
    s = golden_mean_shift()
    rng = np.random.default_rng(9)
    f_fam = random_family_1p(s, rng, mean_zero_d1=False, pressure_zero=True)
    w_fam = PotentialFamily.from_taylor(s, constant_function(s, 2.0), {})
    assert measure_derivative(w_fam, f_fam) == pytest.approx(0.0, abs=1e-10)


def test_measure_derivative_linear_in_s_constant():
    # constant w0 makes the covariance term vanish, leaving int d_s w dm = c
    s = golden_mean_shift()
    rng = np.random.default_rng(10)
    f_fam = random_family_1p(s, rng, mean_zero_d1=False, pressure_zero=True)
    c = 0.45
    w_fam = PotentialFamily.from_taylor(
        s, constant_function(s, 1.7), {(0,): constant_function(s, c)})
    got = measure_derivative(w_fam, f_fam)
    assert got == pytest.approx(c, abs=1e-8)


def test_measure_derivative_matches_fd():
    s = golden_mean_shift()
    rng = np.random.default_rng(11)
    f_fam = random_family_1p(s, rng, mean_zero_d1=False, pressure_zero=True)
    w_fam = random_family_1p(s, rng, mean_zero_d1=False)

    def integral(sv):
        f_s = f_fam.at((sv,))
        w_s = w_fam.at((sv,))
        data = rpf(s, f_s)
        m = equilibrium_measure(s, f_s, data)
        return m.integrate(w_s.promote(m.depth))

    h = 1e-4
    fd = (integral(h) - integral(-h)) / (2 * h)
    assert measure_derivative(w_fam, f_fam) == pytest.approx(fd, abs=1e-6)


def _pressure_zero_2p_family(s, rng, du=None, dv=None):
    """Two-parameter family, pressure-normalized pointwise, constant base."""
    ctx = base_context(s, constant_function(s, 0.0))
    du = du if du is not None else random_function(s, 2, rng)
    dv = dv if dv is not None else random_function(s, 2, rng)
    duv = random_function(s, 2, rng)

    def evaluator(params):
        u, v = params
        g = constant_function(s, 0.0) + du * u + dv * v + duv * (u * v)
        return g - pressure(s, g)

    h_top = pressure(s, constant_function(s, 0.0))
    f0 = constant_function(s, -h_top)
    du0 = du - ctx.integrate(du)
    dv0 = dv - ctx.integrate(dv)
    # second-order parameter derivative of the pressure correction
    return PotentialFamily(sft=s, nparams=2, f0=f0, evaluator=lambda p: evaluator(p) - 0.0,
                           partials={(0,): du0, (1,): dv0}), du, dv


def test_pressure_metric_coboundary_direction_degenerate():
    s = golden_mean_shift()
    rng = np.random.default_rng(12)
    cb = coboundary(random_function(s, 2, rng))
    fam, _, _ = _pressure_zero_2p_family(s, rng, du=cb)
    val = pressure_metric(fam)
    assert abs(val) < 1e-8


def test_pressure_metric_sign():
    s = golden_mean_shift()
    rng = np.random.default_rng(13)
    g = random_function(s, 2, rng)
    fam, _, _ = _pressure_zero_2p_family(s, rng, du=g, dv=g)
    # int F dm = -h_top < 0, so the diagonal metric value is >= 0
    assert pressure_metric(fam) >= 0.0


def test_pressure_metric_denominator_is_minus_entropy():
    s = golden_mean_shift()
    rng = np.random.default_rng(14)
    fam, _, _ = _pressure_zero_2p_family(s, rng)
    base = base_context(s, fam.f0)
    assert base.integrate(fam.f0) == pytest.approx(-pressure(s, constant_function(s, 0.0)),
                                                   abs=1e-10)


def test_pressure_metric_d1_all_coboundaries_zero():
    s = golden_mean_shift()
    rng = np.random.default_rng(15)
    f0 = constant_function(s, 0.0)
    data = rpf(s, f0)
    wn = normalize_potential(s, f0, data)
    cbs = [coboundary(random_function(s, 2, rng)) for _ in range(5)]
    val = pressure_metric_d1_terms(cbs[0], cbs[1], cbs[2], cbs[3], cbs[4], wn)
    assert abs(val) < 1e-7


def test_pressure_metric_d1_matches_fd_sweep():
    """d/dw of pressure_metric along a pointwise pressure-normalized family."""
    s = golden_mean_shift()
    rng = np.random.default_rng(17)
    A, B, C = (random_function(s, 2, rng, scale=0.4) for _ in range(3))
    D, E = (random_function(s, 2, rng, scale=0.4) for _ in range(2))

    def G(u, v, w):
        return A * u + B * v + C * w + D * (u * w) + E * (v * w)

    def F(params):
        u, v, w = params
        g = G(u, v, w)
        return g - pressure(s, g)

    f0 = constant_function(s, -pressure(s, constant_function(s, 0.0)))
    ctx = base_context(s, constant_function(s, 0.0))
    m0 = equilibrium_measure(s, constant_function(s, 0.0))
    wn0 = normalize_potential(s, constant_function(s, 0.0),
                              rpf(s, constant_function(s, 0.0)))
    from thermoflow.correlations import covariance as cov_fn
    proj = lambda g: g - ctx.integrate(g)

    def mixed_partial(first, second, cross):
        c = cov_fn(proj(first), proj(second), m0, wn0, ctx=ctx).value
        return cross - (c + ctx.integrate(cross))

    partials = {
        (0,): proj(A), (1,): proj(B), (2,): proj(C),
        (0, 2): mixed_partial(A, C, D),
        (1, 2): mixed_partial(B, C, E),
    }
    fam3 = PotentialFamily(sft=s, nparams=3, f0=f0, evaluator=F, partials=partials)
    assembled = pressure_metric_d1(fam3)

    def metric_at(w0):
        fam2 = PotentialFamily(sft=s, nparams=2, f0=F((0.0, 0.0, w0)),
                               evaluator=lambda p: F((p[0], p[1], w0)))
        return pressure_metric(fam2)

    h = 1e-2
    fd = (metric_at(h) - metric_at(-h)) / (2 * h)
    assert assembled == pytest.approx(fd, abs=1e-3)


def test_pressure_metric_d1_livsic_replacement_invariance():
    s = golden_mean_shift()
    rng = np.random.default_rng(16)
    f0 = random_function(s, 2, rng, scale=0.2)
    data = rpf(s, f0)
    wn = normalize_potential(s, f0, data)
    from thermoflow.correlations import EquilibriumContext
    ctx = EquilibriumContext(s, wn, depth=3)
    comps = []
    for _ in range(5):
        g = random_function(s, 2, rng)
        comps.append(g - ctx.integrate(g))
    base_val = pressure_metric_d1_terms(*comps, wn, ctx=ctx)
    for idx in range(5):
        shifted = list(comps)
        shifted[idx] = shifted[idx] + coboundary(random_function(s, 2, rng, scale=0.5))
        val = pressure_metric_d1_terms(*shifted, wn, ctx=ctx)
        assert abs(val - base_val) < 1e-6


# The errors that the first level of the recursion carries into the next one: the
# `sums` call of the first level reports K times its err[0] for one column, and that
# column moves by a vector of this 1-norm on the minimal words, one minimal word and
# one sign at a time. Each move must stay within the stated bound of the run it is in.
CARRY_K = 1e6


@pytest.fixture
def first_level_move(monkeypatch):
    """Set move["to"] = (column, sign, minimal word) to move the next `sums` call."""
    sums, move = EquilibriumContext.sums, {"to": None}

    def moved(self, vecs, *args, **kwargs):
        out, err = sums(self, vecs, *args, **kwargs)
        if move["to"] is not None:
            (j, sign, u), move["to"] = move["to"], None
            words = np.arange(len(out)) if self._levels.r == 0 else self._levels.prefix
            err, out = err.copy(), out.copy()
            err[0, j] *= CARRY_K
            out[:, j] += sign * err[0, j] * (words == u)
        return out, err

    monkeypatch.setattr(EquilibriumContext, "sums", moved)
    return move


@pytest.mark.parametrize("shift", ["golden", "full2", "full3"])
@pytest.mark.parametrize("context", [1, 2, 3])
def test_first_level_errors_are_carried_into_the_triple_and_d3(shift, context,
                                                               first_level_move):
    """Depth-2 bases, whose minimal words have depth 1, at contexts r = 0, 1 and 2
    levels above them."""
    s = SHIFTS[shift]()
    rng = np.random.default_rng(context)
    f0 = random_function(s, 2, rng, scale=0.4)
    base = _prepare(f0, context)
    assert base.ctx._levels.r == context - 1
    gs = [base.centered(random_function(s, context, rng)) for _ in range(3)]
    fam = PotentialFamily.from_taylor(s, f0, {(0,): gs[0], (0, 0): random_function(s, context, rng),
                                             (0, 0, 0): random_function(s, context, rng)})
    runs = {3: lambda: (lambda rep: (rep.value, rep.tail_bound))(base.ctx.triple(*gs)),
            1: lambda: base.d3(fam)}
    for columns, run in runs.items():
        value, _ = run()
        for j in range(columns):
            for sign in (1.0, -1.0):
                for u in range(len(base.ctx._m_low)):
                    first_level_move["to"] = (j, sign, u)
                    got, bound = run()
                    assert first_level_move["to"] is None
                    assert abs(got - value) <= bound


# Every derivative of a three-parameter family, on a grid of shifts, depths and seeds.
GRID_PARAMS = [(0,), (0, 0), (0, 1), (0, 0, 0), (0, 0, 1), (0, 1, 2)]
# central stencils by order, {offset: weight}: each is exact up to O(h^2)
_STENCILS = {1: {-1: -0.5, 1: 0.5}, 2: {-1: 1.0, 0: -2.0, 1: 1.0},
             3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
             4: {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0}}


def _central(family, params, h):
    """d^params P(f_t) at t = 0 by the product of the central stencils of each parameter."""
    ps, total = sorted(set(params)), 0.0
    for offsets in itertools.product(*(_STENCILS[params.count(q)].items() for q in ps)):
        t, weight = [0.0] * family.nparams, 1.0
        for q, (k, c) in zip(ps, offsets):
            t[q], weight = k * h, weight * c
        total += weight * pressure(family.sft, family.at(t))
    return total / h ** len(params)


def _green_kubo(oracle, vec, params):
    """(value, bound) of the Green-Kubo display of d^params P at a base where every
    first derivative vanishes, from the full-depth sums of `FullDepthSums`: the
    integral of the partial, plus Cov(g_u, g_v) at order 2, plus Triple(g_u, g_v, g_w)
    and the three Cov(g_a, d_bc f) at order 3."""
    value, bound = oracle.m @ vec(params), 0.0
    if len(params) == 2:
        value, bound = np.add((value, bound), oracle.covariance(vec(params[:1]), vec(params[1:])))
    if len(params) == 3:
        value, bound = np.add((value, bound), oracle.triple(*(vec((q,)) for q in params)))
        for a in range(3):
            cov = oracle.covariance(vec(params[a:a + 1]), vec(params[:a] + params[a + 1:]))
            value, bound = np.add((value, bound), cov)
    return value, bound


@pytest.mark.parametrize("shift", ["golden", "full2", "full3", "full4", "mixing3"])
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_every_derivative_on_a_grid_of_shifts_depths_and_seeds(shift, depth):
    """Non-centred families: each derivative of `_Base.d1` against the Richardson
    extrapolation (4 D(h/2) - D(h)) / 3 of the central stencils, within 1e-10, 1e-8
    and 1e-5 relative at orders 1-3. Centred families (the same partials with the
    first ones centred): each within its stated bound of the Green-Kubo display, up
    to the rounding of the final integrals, which neither bound counts."""
    s = SHIFTS[shift]()
    for seed in range(2):
        rng = np.random.default_rng([depth, seed])
        f0 = random_function(s, depth, rng, scale=0.4)
        partials = {tuple(map(int, a)): random_function(s, depth, rng, scale=0.3)
                    for a in ("0", "1", "2", "00", "01", "02", "12", "000", "001", "012")}
        family = PotentialFamily.from_taylor(s, f0, partials, nparams=3)
        base = _family_base(family)
        for params in GRID_PARAMS:
            value, _ = base.d1(family, params)
            h = {1: 1e-3, 2: 1e-2, 3: 2e-2}[len(params)]
            fd = (4 * _central(family, params, h / 2) - _central(family, params, h)) / 3
            assert abs(value - fd) <= {1: 1e-10, 2: 1e-8, 3: 1e-5}[len(params)] * max(1, abs(fd))
        partials.update({(q,): base.centered(partials[q,]) for q in range(3)})
        centred = PotentialFamily.from_taylor(s, f0, partials, nparams=3)
        oracle = FullDepthSums(base.ctx)
        for params in GRID_PARAMS:
            value, bound = base.d2(centred, params) if len(params) > 1 else base.d1(centred, params)
            want, want_bound = _green_kubo(oracle, lambda a: base.ctx.vector(centred.partial(a)),
                                           params)
            assert abs(value - want) <= bound + want_bound + 16 * EPS * max(1.0, abs(want))


@pytest.mark.parametrize("shift", ["golden", "full2", "mixing3"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_fourth_order_derivatives_match_central_differences(shift, depth):
    """Past the orders the library reads: the recursion at |alpha| = 4, whose third
    level carries lambda terms with errors of their own, against the Richardson
    extrapolation of the central stencils at h = 0.05 and 0.025, within 2e-5 relative."""
    s = SHIFTS[shift]()
    rng = np.random.default_rng(depth)
    f0 = random_function(s, depth, rng, scale=0.4)
    partials = {tuple(map(int, a)): random_function(s, depth, rng, scale=0.3)
                for a in ("0", "1", "00", "01", "11", "000", "001", "011", "0000", "0011")}
    family = PotentialFamily.from_taylor(s, f0, partials, nparams=2)
    base = _family_base(family)
    for params in [(0, 0, 0, 0), (0, 0, 1, 1)]:
        value, bound = base.d1(family, params)
        fd = (4 * _central(family, params, 0.025) - _central(family, params, 0.05)) / 3
        assert abs(value - fd) <= 2e-5 * max(1, abs(fd)) and 0.0 < bound < 1e-9
