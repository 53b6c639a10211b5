"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 9 is split. The two-family GH / IJ systems driven only by the
couplings s=2t, s=3t, s=4t cannot pin their unknowns: the ray H_n ~ (n+1)(n+2)/2
(J_n ~ n+1) turns the coupling identity into the hyperbolic-tangent identity
(1-S^2)/(1-TS) = (1-S'^2)/(1+TS') and survives every m. That strict reading is
kept as an xfail; the completed multi-arrangement systems (same couplings,
base point moved to each factor) have trivial kernel and are asserted green.
"""
import math
import time

import numpy as np
import pytest

from conftest import random_family_1p
from thermoflow.correlations import EquilibriumContext, covariance, triple_covariance, variance
from thermoflow.derivatives import (fd_oracle, pressure_d1, pressure_d2, pressure_d3,
                                    pressure_metric_d1_terms)
from thermoflow.diskgeom import flow_contraction_ratio, perturbed, random_unit_tangent
from thermoflow.diskseries import DifferentialExpansion, angular_triple_reduce, quadrature_triple
from thermoflow.holonomy import (BaseFrame, ConnectionFamily, FourierSampler, OrbitData,
                                 ShootingSolution, cubic_direction,
                                 eigenvalue_derivative_fd, eta_cc, psi_cc,
                                 quadratic_direction, trace_derivative,
                                 variation_ode_closed_form)
from thermoflow.recursions import (REFERENCE_COUPLINGS, build_completed_relations,
                                   build_relations, named_relation, solve_vanishing)
from thermoflow.sft import (coboundary, constant_function, full_shift, golden_mean_shift,
                            new_sft, random_function)
from thermoflow.suspension import (FlowFamily, FlowFunction, SuspensionFlow, flow_pressure,
                                   flow_pressure_derivative_transfer, hat_function)
from thermoflow.transfer import equilibrium_measure, normalize_potential, pressure, rpf


def _report(num, name, ok, detail=""):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_pressure_spectral_identity():
    t0 = time.perf_counter()
    s2 = full_shift(2)
    data2 = rpf(s2, constant_function(s2, 0.0))
    gm = golden_mean_shift()
    datag = rpf(gm, constant_function(gm, 0.0))
    elapsed = time.perf_counter() - t0
    phi = (1 + math.sqrt(5)) / 2
    ok = (abs(data2.pressure - math.log(2)) < 1e-12
          and abs(datag.pressure - math.log(phi)) < 1e-10
          and data2.residual < 1e-10 and datag.residual < 1e-10
          and elapsed < 1.0)
    _report(1, "pressure spectral identity", ok,
            f"P2={data2.pressure!r} Pgm={datag.pressure!r} t={elapsed:.2f}s")


def test_criterion_2_derivatives_vs_fd():
    t0 = time.perf_counter()
    rng_master = np.random.default_rng(1234)
    worst = {1: 0.0, 2: 0.0, 3: 0.0}
    shifts = [new_sft([[1, 1], [1, 1]]), new_sft([[1, 1], [1, 0]]),
              new_sft([[1, 1, 1], [1, 1, 0], [1, 0, 1]]),
              new_sft([[1, 1, 1, 1]] * 4)]
    for k in range(20):
        s = shifts[k % len(shifts)]
        depth = 1 + k % 3
        fam = random_family_1p(s, np.random.default_rng(rng_master.integers(2 ** 63)),
                               depth=depth, scale=0.25)
        worst[1] = max(worst[1], abs(pressure_d1(fam) - fd_oracle(fam, 1)))
        worst[2] = max(worst[2], abs(pressure_d2(fam) - fd_oracle(fam, 2)))
        worst[3] = max(worst[3], abs(pressure_d3(fam) - fd_oracle(fam, 3)))
    elapsed = time.perf_counter() - t0
    ok = worst[1] < 1e-7 and worst[2] < 1e-5 and worst[3] < 1e-3 and elapsed < 30.0
    _report(2, "pressure derivatives vs finite differences", ok,
            f"d1={worst[1]:.2e} d2={worst[2]:.2e} d3={worst[3]:.2e} t={elapsed:.1f}s")


def test_criterion_3_livsic_invariance():
    s = golden_mean_shift()
    rng = np.random.default_rng(77)
    w = random_function(s, 2, rng, scale=0.3)
    data = rpf(s, w)
    wn = normalize_potential(s, w, data)
    m = equilibrium_measure(s, w, data)
    ctx = EquilibriumContext(s, wn, depth=3)
    comps = []
    for _ in range(5):
        g = random_function(s, 2, rng)
        comps.append(g - ctx.integrate(g))
    cb = lambda: coboundary(random_function(s, 2, rng, scale=0.5))
    worst = 0.0
    v0 = variance(comps[0], m, wn, ctx=ctx).value
    worst = max(worst, abs(variance(comps[0] + cb(), m, wn, ctx=ctx).value - v0))
    c0 = covariance(comps[0], comps[1], m, wn, ctx=ctx).value
    worst = max(worst, abs(covariance(comps[0] + cb(), comps[1], m, wn, ctx=ctx).value - c0))
    worst = max(worst, abs(covariance(comps[0], comps[1] + cb(), m, wn, ctx=ctx).value - c0))
    t0 = triple_covariance(comps[0], comps[1], comps[2], m, wn, ctx=ctx).value
    for idx in range(3):
        args = list(comps[:3])
        args[idx] = args[idx] + cb()
        worst = max(worst, abs(triple_covariance(*args, m, wn, ctx=ctx).value - t0))
    d0 = pressure_metric_d1_terms(*comps, m, wn, ctx=ctx)
    for idx in range(5):
        args = list(comps)
        args[idx] = args[idx] + cb()
        worst = max(worst, abs(pressure_metric_d1_terms(*args, m, wn, ctx=ctx) - d0))
    ok = worst < 1e-6
    _report(3, "Livsic invariance of correlation functionals", ok, f"worst={worst:.2e}")


def test_criterion_4_suspension_transfer():
    rng = np.random.default_rng(555)
    s = golden_mean_shift()
    worst_resid = 0.0
    worst_err = 0.0
    from thermoflow.sft import admissible_words
    for trial in range(5):
        roof = random_function(s, 2, rng, scale=0.2) + 1.3
        flow = SuspensionFlow(sft=s, roof=roof)

        def rand_ff():
            cyl = {w: {"const": float(rng.normal(0, 0.3)),
                       "cos": [float(x) for x in rng.normal(0, 0.3, 2)],
                       "sin": [float(x) for x in rng.normal(0, 0.3, 2)]}
                   for w in admissible_words(s, 2)}
            return FlowFunction.from_fourier(2, cyl)

        F0 = rand_ff()
        c = flow_pressure(flow, F0)
        hat = hat_function(flow, F0)
        worst_resid = max(worst_resid,
                          abs(pressure(s, hat - roof.promote(hat.depth) * c)))
        fam = FlowFamily(F0=F0, G1=rand_ff(), G2=rand_ff(), G3=rand_ff())
        flow_side, shift_side = flow_pressure_derivative_transfer(flow, fam, 3)
        worst_err = max(worst_err, abs(flow_side - shift_side))
    ok = worst_resid < 1e-11 and worst_err < 1e-3
    _report(4, "suspension flow pressure transfer", ok,
            f"residual={worst_resid:.2e} d3-gap={worst_err:.2e}")


def test_criterion_5_trace_formula():
    rng = np.random.default_rng(4242)
    worst = 0.0
    families = []
    for k in range(50):
        l = float(rng.uniform(0.5, 6.0))
        q = FourierSampler.random(l, rng, 3, 0.5)
        direction = cubic_direction(q) if k % 2 else quadratic_direction(q)
        fam = ConnectionFamily(l=l, dD=direction)
        families.append(fam)
        worst = max(worst, abs(trace_derivative(fam) - eigenvalue_derivative_fd(fam)))
    worst_gauge = 0.0
    for fam in families[:10]:
        samplers = [[FourierSampler.random(fam.l, rng, 2, 0.3) for _ in range(3)]
                    for _ in range(3)]

        def g(t):
            return np.array([[complex(samplers[i][j](t)) for j in range(3)]
                             for i in range(3)])

        def gp(t, h=1e-6):
            return (g(t + h) - g(t - h)) / (2 * h)

        shifted = fam.gauge_shifted(g, gp)
        worst_gauge = max(worst_gauge,
                          abs(trace_derivative(fam) - trace_derivative(shifted)))
    ok = worst < 1e-6 and worst_gauge < 1e-7
    _report(5, "trace formula vs monodromy eigenvalue", ok,
            f"fd-gap={worst:.2e} gauge-shift={worst_gauge:.2e}")


def test_criterion_6_base_frame():
    l = 2.4
    lam = BaseFrame.eigenvalues(l)
    eig_err = max(abs(lam[0] - math.exp(l)), abs(lam[1] - 1.0),
                  abs(lam[2] - math.exp(-l)))
    mono_ok = all(
        float(np.max(np.abs(BaseFrame.e(i, l) - lam[i - 1] * BaseFrame.e(i, 0.0)))) < 1e-10
        for i in (1, 2, 3))
    p = BaseFrame.pi0
    exact_pi = np.array_equal(p, 0.5 * np.array([[0.5, -0.5, 0.25],
                                                 [-1, 1, -0.5], [1, -1, 0.5]]))
    idem = float(np.max(np.abs(p @ p - p)))
    trace = abs(np.trace(p) - 1.0)
    inv_err = max(float(np.max(np.abs(BaseFrame.a_matrix(t) @ BaseFrame.e_matrix(t)
                                      - np.eye(3)))) for t in (0.0, 0.7, 1.9))
    ok = (eig_err < 1e-10 and mono_ok and exact_pi and idem < 1e-12
          and trace < 1e-14 and inv_err < 1e-12)
    _report(6, "base frame and projection data", ok,
            f"eig={eig_err:.1e} idem={idem:.1e} inverse={inv_err:.1e}")


def test_criterion_7_variation_odes():
    rng = np.random.default_rng(31)
    worst_res, worst_dev = 0.0, 0.0
    for trial in range(3):
        l = float(rng.uniform(0.8, 2.5))
        orbit = OrbitData(l=l,
                          q_alpha=FourierSampler.random(l, rng, 5, 0.4),
                          q_beta=FourierSampler.random(l, rng, 5, 0.4),
                          q_i=FourierSampler.random(l, rng, 5, 0.4))
        cases = [(i, "cubic") for i in (1, 2, 3)] + [(1, "quadratic")]
        for i, direction in cases:
            sol = variation_ode_closed_form(i, orbit, direction)
            ts = np.linspace(0.0, l, 5)
            for t in ts[1:-1]:
                worst_res = max(worst_res, sol.ode_residual(float(t)))
            worst_res = max(worst_res, sol.boundary_residual())
            shot = ShootingSolution(i, direction, orbit)
            dev = float(np.max(np.abs(sol.values_on_grid(ts) - shot.values_on_grid(ts))))
            worst_dev = max(worst_dev, dev)
    ok = worst_res < 1e-8 and worst_dev < 1e-6
    _report(7, "variation ODE closed forms", ok,
            f"residual={worst_res:.2e} shooting={worst_dev:.2e}")


def test_criterion_8_psi_eta_identities():
    rng = np.random.default_rng(93)
    l = 1.25
    orbit = OrbitData(l=l,
                      q_alpha=FourierSampler.random(l, rng, 2, 0.5),
                      q_beta=FourierSampler.random(l, rng, 2, 0.5))
    base = psi_cc(orbit, l)
    worst_per = max(abs(psi_cc(orbit, k * l) - base) for k in range(2, 7))
    errs = []
    for k in range(1, 7):
        val, _ = eta_cc(orbit, k * l)
        errs.append(abs(val - base))
    rate = (errs[-1] / errs[0]) ** (1 / 5)
    ok = worst_per < 1e-12 and rate <= math.exp(-l) * 1.1
    _report(8, "psi periodicity and eta limit", ok,
            f"periodicity={worst_per:.2e} rate={rate:.3f} bound={math.exp(-l) * 1.1:.3f}")


@pytest.mark.xfail(strict=True,
                   reason="two-family GH/IJ systems under s=2t/s=3t/s=4t have a "
                          "one-ray kernel (hyperbolic-tangent product identity); "
                          "the completed multi-arrangement systems close it")
def test_criterion_9_strict_letter_reading():
    for case in ("AB", "CD", "EF", "GH", "IJ"):
        system = build_relations(case, 20, REFERENCE_COUPLINGS[case])
        verdict = solve_vanishing(system, margin=2)
        assert verdict.verdict == "forced-zero", f"{case} is {verdict.verdict}"


def test_criterion_9_disk_recursions():
    t0 = time.perf_counter()
    verdicts = {}
    for case in ("AB", "CD", "EF", "GH", "IJ"):
        system = build_relations(case, 20, REFERENCE_COUPLINGS[case])
        verdicts[case] = solve_vanishing(system, margin=2).verdict
    named_ok = True
    ab = build_relations("AB", 8, REFERENCE_COUPLINGS["AB"]).rows_normalized()
    named_ok &= named_relation("AB", "first_comparison") in ab
    named_ok &= all(named_relation("AB", "half_time_recursion", n=n) in ab
                    for n in range(6))
    ef = build_relations("EF", 8, REFERENCE_COUPLINGS["EF"]).rows_normalized()
    named_ok &= named_relation("EF", "e0") in ef
    named_ok &= named_relation("EF", "e1") in ef
    gh = build_relations("GH", 8, ["s=2t"]).rows_normalized()
    named_ok &= named_relation("GH", "g0") in gh
    for m in (2, 3, 4):
        ij = build_relations("IJ", 8, [f"s={m}t"]).rows_normalized()
        named_ok &= named_relation("IJ", "t4", m=m) in ij
    elapsed = time.perf_counter() - t0
    completed = {case: solve_vanishing(build_completed_relations(case, 14),
                                       margin=2).verdict
                 for case in ("GH", "IJ")}
    letters_ok = all(verdicts[c] == "forced-zero" for c in ("AB", "CD", "EF"))
    strict_gap = {c: verdicts[c] for c in ("GH", "IJ")}
    completed_ok = all(v == "forced-zero" for v in completed.values())
    ok = letters_ok and named_ok and completed_ok and elapsed < 10.0
    _report(9, "disk recursions", ok,
            f"named={named_ok} AB/CD/EF={letters_ok} strict GH/IJ={strict_gap} "
            f"(documented ray) completed={completed} t={elapsed:.1f}s")


def test_criterion_10_angular_reduction():
    rng = np.random.default_rng(1010)
    degrees = {"AB": (3, 3, 3), "CD": (2, 3, 3), "EF": (2, 2, 3),
               "GH": (2, 2, 3), "IJ": (3, 3, 2)}
    worst = 0.0
    for case, (d1, d2, d3) in sorted(degrees.items()):
        for _ in range(20):
            def mk(d):
                c = rng.normal(0, 1, 4) + 1j * rng.normal(0, 1, 4)
                return DifferentialExpansion(d, tuple(c))
            e1, e2, e3 = mk(d1), mk(d2), mk(d3)
            T, S = rng.uniform(0.05, 0.9, size=2)
            red = angular_triple_reduce(e1, e2, e3)
            direct = quadrature_triple(e1, e2, e3, float(T), float(S), n_theta=64)
            worst = max(worst, abs(red.value(float(T), float(S)) - direct))
    ok = worst < 1e-10
    _report(10, "angular reduction vs quadrature", ok, f"worst={worst:.2e}")


def test_criterion_11_flow_contraction():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        x = random_unit_tangent(rng)
        y = perturbed(x, rng, eps=10 ** rng.uniform(-3, -1.3))
        s = float(rng.uniform(0.0, 5.0))
        worst = max(worst, flow_contraction_ratio(x, y, s))
    bound = 2 * math.sqrt(2)
    ok = worst <= bound
    _report(11, "geodesic flow contraction bound", ok,
            f"max ratio={worst:.4f} <= {bound:.4f}")


def test_criterion_12_cli_determinism(tmp_path):
    from thermoflow.cli import main
    from pathlib import Path
    configs = Path(__file__).resolve().parent.parent / "configs"
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["pressure", "--config", str(configs / "pressure_golden_mean.json"),
                     "--out", str(out), "--seed", "31337"])
        assert code == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = outs[0] == outs[1]
    _report(12, "CLI determinism", ok, f"files={sorted(outs[0])}")
