import math

import numpy as np
import pytest

from thermoflow.sft import (DepthKFunction, admissible_words, constant_function,
                            full_shift, golden_mean_shift, random_function)
from thermoflow.suspension import (FlowFamily, FlowFunction, SuspensionFlow,
                                   flow_measure_factor, flow_pressure,
                                   flow_pressure_derivative_transfer, hat_function)
from thermoflow.transfer import equilibrium_measure, pressure


def _flow(s, roof_values=None, depth=1):
    if roof_values is None:
        roof = constant_function(s, 1.0, depth=depth)
    else:
        roof = roof_values
    return SuspensionFlow(sft=s, roof=roof)


def test_roof_must_be_positive():
    s = full_shift(2)
    with pytest.raises(ValueError):
        SuspensionFlow(sft=s, roof=constant_function(s, 0.0))


def test_hat_of_one_is_roof():
    s = golden_mean_shift()
    rng = np.random.default_rng(0)
    roof = random_function(s, 2, rng, scale=0.2) + 1.5
    flow = _flow(s, roof)
    hat = hat_function(flow, FlowFunction.constant(1.0))
    assert (hat - roof.promote(hat.depth)).sup_norm() < 1e-13


def test_hat_of_none_is_zero_at_roof_depth():
    s = golden_mean_shift()
    flow = _flow(s, random_function(s, 2, np.random.default_rng(11), scale=0.2) + 1.5)
    hat = hat_function(flow, None)
    assert hat.depth == 2 and hat.sup_norm() == 0.0


def test_hat_of_linear_fiber():
    """F = R tau on the fiber has mean R / 2, so F_hat = R^2 / 2 on roof R."""
    s = full_shift(2)
    R = 1.7
    flow = _flow(s, constant_function(s, R))
    F = FlowFunction(depth=1, mean={(0,): R / 2, (1,): R / 2})
    hat = hat_function(flow, F)
    for v in hat.values.values():
        assert v == pytest.approx(R * R / 2, abs=1e-12)


def test_hat_of_full_period_cosine_vanishes():
    s = golden_mean_shift()
    rng = np.random.default_rng(1)
    roof = random_function(s, 1, rng, scale=0.3) + 1.2
    flow = _flow(s, roof)
    F = FlowFunction.from_fourier(1, {w: {"cos": [1.0]} for w in admissible_words(s, 1)})
    hat = hat_function(flow, F)
    assert hat.sup_norm() < 1e-9


@pytest.mark.parametrize("j", range(1, 65))
def test_hat_is_roof_times_const_for_every_mode(j):
    """The fiber integral of c0 + a cos(2 pi j tau) + b sin(2 pi j tau) is roof * c0
    for every mode j, and the flow pressure is the root of the shift pressure of
    that exact hat."""
    s = full_shift(2)
    rng = np.random.default_rng(1000 + j)
    roof = random_function(s, 2, rng, scale=0.3) + 1.4
    flow = _flow(s, roof)
    zeros = [0.0] * (j - 1)
    cyl = {w: {"const": rng.normal(0, 0.5), "cos": zeros + [rng.normal()],
               "sin": zeros + [rng.normal()]} for w in admissible_words(s, 2)}
    F = FlowFunction.from_fourier(2, cyl)
    hat = hat_function(flow, F)
    for w, v in hat.values.items():
        c0, r = cyl[w]["const"], roof.values[w]
        assert abs(v - r * c0) <= 1e-15 * abs(c0) * r
    exact = DepthKFunction(s, 2, {w: roof.values[w] * cyl[w]["const"] for w in cyl})
    c = flow_pressure(flow, F)
    assert abs(pressure(s, exact - roof * c)) < 1e-11


def test_family_at_combines_fiber_means():
    """F_s = F0 + s G1 + (s^2/2) G2 + (s^3/6) G3 mean by mean, at the deepest depth."""
    s = golden_mean_shift()
    rng = np.random.default_rng(12)
    F0 = _random_flow_function(s, 2, rng)
    G1 = FlowFunction.constant(0.7)
    G3 = _random_flow_function(s, 1, rng)
    fam = FlowFamily(F0=F0, G1=G1, G3=G3)
    sv = 0.3
    got = fam.at(sv)
    assert got.depth == 2 and got.mean.keys() == F0.mean.keys()
    for w, v in got.mean.items():
        assert v == pytest.approx(F0.mean[w] + sv * 0.7 + sv ** 3 / 6 * G3.mean[w[:1]],
                                  abs=1e-15)
    assert FlowFamily(F0=None).at(sv) is None


def test_flow_measure_factor_constant_roof():
    s = full_shift(2)
    m = equilibrium_measure(s, constant_function(s, 0.0))
    assert flow_measure_factor(m, constant_function(s, 1.0)) == pytest.approx(1.0)
    assert flow_measure_factor(m, constant_function(s, 2.5)) == pytest.approx(2.5)


def test_flow_measure_factor_is_mean_for_uniform():
    s = full_shift(2)
    rng = np.random.default_rng(2)
    roof = random_function(s, 1, rng, scale=0.2) + 1.0
    m = equilibrium_measure(s, constant_function(s, 0.0))
    vals = [roof.values[w] for w in admissible_words(s, 1)]
    assert flow_measure_factor(m, roof) == pytest.approx(np.mean(vals), abs=1e-12)


def test_flow_pressure_unit_roof_gives_entropy():
    s = golden_mean_shift()
    flow = _flow(s)
    c = flow_pressure(flow, None)
    phi = (1 + math.sqrt(5)) / 2
    assert c == pytest.approx(math.log(phi), abs=1e-11)


def test_flow_pressure_roof_two():
    s = full_shift(2)
    flow = _flow(s, constant_function(s, 2.0))
    assert flow_pressure(flow, None) == pytest.approx(math.log(2) / 2, abs=1e-11)


def test_flow_pressure_constant_shift():
    s = golden_mean_shift()
    rng = np.random.default_rng(3)
    roof = random_function(s, 2, rng, scale=0.2) + 1.1
    flow = _flow(s, roof)
    kappa = 0.63
    c0 = flow_pressure(flow, None)
    ck = flow_pressure(flow, FlowFunction.constant(kappa))
    assert ck == pytest.approx(c0 + kappa, abs=1e-10)


@pytest.mark.parametrize("value", [50.0, -50.0])
def test_flow_pressure_constant_shift_far_root(value):
    """On roof 1 a constant F shifts the root to exactly h_top + F."""
    s = golden_mean_shift()
    flow = _flow(s)
    F = FlowFunction.constant(value)
    c = flow_pressure(flow, F)
    hat = hat_function(flow, F)
    assert abs(pressure(s, hat - flow.roof * c)) < 1e-11
    assert c == pytest.approx(math.log((1 + math.sqrt(5)) / 2) + value, abs=1e-10)


def test_flow_pressure_residual():
    s = golden_mean_shift()
    rng = np.random.default_rng(4)
    roof = random_function(s, 2, rng, scale=0.3) + 1.4
    flow = _flow(s, roof)
    F = FlowFunction.from_fourier(
        2, {w: {"const": rng.normal(0, 0.3), "cos": [0.2], "sin": [-0.1]}
            for w in admissible_words(s, 2)})
    c = flow_pressure(flow, F)
    hat = hat_function(flow, F)
    assert abs(pressure(s, hat - roof.promote(hat.depth) * c)) < 1e-11


def test_flow_pressure_monotone_in_added_roof_constant():
    s = golden_mean_shift()
    rng = np.random.default_rng(5)
    roof = random_function(s, 2, rng, scale=0.2) + 1.0
    flow = _flow(s, roof)
    hat = hat_function(flow, FlowFunction.constant(0.4))
    ps = [pressure(s, hat - roof.promote(hat.depth) * c) for c in (0.0, 0.4, 0.9, 1.5)]
    assert all(a > b for a, b in zip(ps, ps[1:]))


def test_roof_one_flow_pressure_equals_shift_pressure():
    s = golden_mean_shift()
    rng = np.random.default_rng(6)
    flow = _flow(s)
    cyl = {w: {"const": rng.normal(0, 0.3)} for w in admissible_words(s, 2)}
    F = FlowFunction.from_fourier(2, cyl)
    hat = hat_function(flow, F)
    assert flow_pressure(flow, F) == pytest.approx(pressure(s, hat), abs=1e-10)


def test_transfer_constant_in_s_family():
    s = full_shift(2)
    flow = _flow(s, constant_function(s, 1.3))
    fam = FlowFamily(F0=FlowFunction.constant(0.2))
    for order in (1, 2, 3):
        flow_side, shift_side = flow_pressure_derivative_transfer(flow, fam, order)
        assert abs(flow_side) < 1e-6
        assert abs(shift_side) < 1e-10


def test_transfer_order1_linear_constant():
    s = golden_mean_shift()
    rng = np.random.default_rng(7)
    roof = random_function(s, 2, rng, scale=0.2) + 1.2
    flow = _flow(s, roof)
    kappa = 0.37
    fam = FlowFamily(F0=None, G1=FlowFunction.constant(kappa))
    flow_side, shift_side = flow_pressure_derivative_transfer(flow, fam, 1)
    assert shift_side == pytest.approx(kappa, abs=1e-10)
    assert flow_side == pytest.approx(kappa, abs=1e-7)


def _random_flow_function(s, depth, rng, scale=0.3, modes=2):
    cyl = {}
    for w in admissible_words(s, depth):
        cyl[w] = {"const": rng.normal(0, scale),
                  "cos": list(rng.normal(0, scale, size=modes)),
                  "sin": list(rng.normal(0, scale, size=modes))}
    return FlowFunction.from_fourier(depth, cyl)


def test_flow_pressure_solve_budget(solve_counts):
    """Monotone Newton needs no bracket: a handful of RPF solves per root."""
    rng = np.random.default_rng(9)
    for s in (golden_mean_shift(), full_shift(2), full_shift(3)):
        for _ in range(4):
            roof = random_function(s, 2, rng, scale=0.3) + 1.3
            flow = _flow(s, roof)
            F = _random_flow_function(s, 2, rng)
            solve_counts.clear()
            c = flow_pressure(flow, F)
            assert solve_counts["solves"] <= 6
            hat = hat_function(flow, F)
            assert abs(pressure(s, hat - roof * c)) < 1e-11


def test_shift_to_flow_triple_identity():
    """The flow-side third moment reduces to the shift-side double sum of the
    fiber-integrated function divided by the mean roof; check the double sum
    against the exact (1/n) E[S_n^3] estimator at depth <= 3, N <= 30."""
    from thermoflow.correlations import (EquilibriumContext, birkhoff_moment,
                                         triple_covariance)
    from thermoflow.transfer import equilibrium_measure, normalize_potential, rpf
    s = golden_mean_shift()
    rng = np.random.default_rng(8)
    roof = random_function(s, 2, rng, scale=0.2) + 1.2
    flow = _flow(s, roof)
    F = _random_flow_function(s, 2, rng)
    c = flow_pressure(flow, F)
    base = hat_function(flow, F) - roof.promote(2) * c   # pressure-zero potential
    data = rpf(s, base)
    wn = normalize_potential(s, base, data)
    m = equilibrium_measure(s, base, data)
    ctx = EquilibriumContext(s, wn, depth=3)
    R = flow_measure_factor(m, roof)
    g = hat_function(flow, _random_flow_function(s, 2, rng))
    g = g - ctx.integrate(g)
    double_sum = triple_covariance(g, g, g, m, wn, ctx=ctx)
    flow_side = birkhoff_moment(ctx, [g, g, g], 24) / 24 / R
    assert double_sum.value / R == pytest.approx(flow_side,
                                                 abs=max(1e-3, double_sum.tail_bound / R))


@pytest.mark.parametrize("order,tol", [(1, 1e-6), (2, 1e-4), (3, 1e-3)])
def test_transfer_random_family(order, tol):
    s = golden_mean_shift()
    rng = np.random.default_rng(40 + order)
    roof = random_function(s, 2, rng, scale=0.25) + 1.3
    flow = _flow(s, roof)
    fam = FlowFamily(F0=_random_flow_function(s, 2, rng),
                     G1=_random_flow_function(s, 2, rng),
                     G2=_random_flow_function(s, 2, rng),
                     G3=_random_flow_function(s, 2, rng))
    flow_side, shift_side = flow_pressure_derivative_transfer(flow, fam, order)
    assert flow_side == pytest.approx(shift_side, abs=tol)
