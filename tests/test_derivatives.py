import numpy as np
import pytest

from conftest import base_context, random_family_1p
from thermoflow import errors
from thermoflow.derivatives import (PotentialFamily, _family_base, fd_oracle, pressure_d1,
                                    pressure_d2, pressure_d2_mixed, pressure_d3,
                                    pressure_d3_mixed, pressure_metric, pressure_metric_d1,
                                    pressure_metric_d1_terms)
from thermoflow.sft import (coboundary, constant_function, full_shift, golden_mean_shift,
                            random_function)
from thermoflow.transfer import equilibrium_measure, normalize_potential, pressure, rpf


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
    # two solves for the triple, one for the single distinct covariance
    assert solve_counts["sums"] == 3


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
