"""The holonomy workload: trace formula, variation ODEs, kernels, disk flow.

Orbit lengths are stratified over [0.8, 4] so that every seed spreads them
the same way; the number of Fourier modes per orbit is fixed. The RK4 step
counts inside the library do not depend on l, so the work per seed is steady.
"""
from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.linalg import expm

from harness import Task, at_most, close, equal

TRACE_TOL, GAUGE_TOL = 1e-6, 1e-7        # acceptance criterion 5
ODE_TOL, SHOOT_TOL = 1e-8, 1e-6          # acceptance criterion 7
PSI_TOL = 1e-12                          # acceptance criterion 8
L_RANGE = (0.8, 4.0)
MODES = (2, 3, 4, 3)                     # max Fourier mode per random orbit


def modes(rng, max_mode: int, scale: float) -> dict:
    return {k: complex(rng.normal(0, scale), rng.normal(0, scale))
            for k in range(-max_mode, max_mode + 1)}


def build(tf, seed: int, ctx) -> tuple:
    hol = tf.holonomy
    rng = np.random.default_rng([seed, 3])
    lo, hi = L_RANGE
    width = (hi - lo) / len(MODES)
    orbits = []
    for k, mm in enumerate(MODES):
        l = lo + (k + float(rng.uniform())) * width
        orbits.append(hol.OrbitData(l=l, **{name: hol.FourierSampler(l, modes(rng, mm, 0.5))
                                            for name in ("q_alpha", "q_beta", "q_i", "q_j")}))
    lz = float(rng.uniform(lo, hi))
    zero = hol.OrbitData(l=lz, **{name: hol.FourierSampler.zero(lz)
                                  for name in ("q_alpha", "q_beta", "q_i", "q_j")})
    summary = [{"l": round(o.l, 4), "modes": mm} for o, mm in zip(orbits, MODES)]
    summary.append({"l": round(lz, 4), "modes": 0, "zero": True})

    tasks = []
    directions = ("cubic", "quadratic", "cubic", "quadratic")
    cases = ((1, "cubic"), (2, "cubic"), (3, "cubic"), (1, "quadratic"))
    for k, orbit in enumerate(orbits):
        i, direction = cases[k]
        tasks += [trace_task(hol, f"trace-o{k}", orbit, directions[k]),
                  variation_task(hol, f"variation-o{k}-{direction[0]}{i}", orbit, i, direction),
                  kernel_task(hol, f"kernel-o{k}", orbit),
                  psi_task(hol, f"psi-cc-o{k}", orbit),
                  psi_cq_task(hol, f"psi-cq-o{k}", orbit),
                  transport_task(hol, f"transport-o{k}", orbit.l, rng)]
    tasks += [trace_task(hol, "trace-zero", zero, "cubic"),
              variation_task(hol, "variation-zero-c1", zero, 1, "cubic")]
    for k in (0, 2):
        tasks.append(gauge_task(hol, f"gauge-o{k}", orbits[k], directions[k], rng))
    for k in (0, 1):
        tasks.append(eta_task(hol, f"eta-o{k}", orbits[k]))
    for k in range(10):
        tasks.append(contraction_task(tf.diskgeom, f"contraction-{k}", rng, 100))
    tasks.append(ctx.cli_task("cli-holonomy-zero", "holonomy", "holonomy_zero",
                              _check_holonomy_report))
    return tasks, summary


def _family(hol, orbit, direction):
    if direction == "cubic":
        return hol.ConnectionFamily(l=orbit.l, dD=hol.cubic_direction(orbit.q_alpha))
    return hol.ConnectionFamily(l=orbit.l, dD=hol.quadratic_direction(orbit.q_i))


def trace_task(hol, tid, orbit, direction):
    fam = _family(hol, orbit, direction)

    def run(api):
        return {"trace": api.call("holonomy.trace_derivative", fam),
                "fd": api.call("holonomy.eigenvalue_derivative_fd", fam)}

    def check(out):
        return [close("trace formula vs monodromy fd", out["trace"], out["fd"], TRACE_TOL)]

    return Task(tid, "holonomy", run, check)


def gauge_task(hol, tid, orbit, direction, rng):
    """The trace derivative is unchanged by dD -> dD + g' + [M, g] for periodic g.

    g is a 3x3 matrix of finite Fourier series and g' is its exact derivative.
    """
    fam = _family(hol, orbit, direction)
    l = orbit.l
    table = [[modes(rng, 2, 0.3) for _ in range(3)] for _ in range(3)]
    g_s = [[hol.FourierSampler(l, m) for m in row] for row in table]
    gp_s = [[hol.FourierSampler(l, {k: c * 2j * math.pi * k / l for k, c in m.items()})
             for m in row] for row in table]

    def g(t):
        return np.array([[complex(s(t)) for s in row] for row in g_s])

    def gp(t):
        return np.array([[complex(s(t)) for s in row] for row in gp_s])

    shifted = fam.gauge_shifted(g, gp)

    def run(api):
        return {"shifted": api.call("holonomy.trace_derivative", shifted),
                "trace": api.call("holonomy.trace_derivative", fam)}

    def check(out):
        return [close("gauge-shifted trace", out["shifted"], out["trace"], GAUGE_TOL)]

    return Task(tid, "holonomy", run, check)


def variation_task(hol, tid, orbit, i, direction):
    """Closed-form eigenvector variation vs the shooting solution of its BVP."""
    ts = np.linspace(0.0, orbit.l, 5)

    def run(api):
        sol = api.call("holonomy.variation_ode_closed_form", i, orbit, direction)
        shot = api.call("holonomy.ShootingSolution", i, direction, orbit)
        return {"closed": api.call("holonomy.VariationSolution.values_on_grid", sol, ts),
                "shooting": api.call("holonomy.ShootingSolution.values_on_grid", shot, ts),
                "ode": [api.call("holonomy.VariationSolution.ode_residual", sol, float(t))
                        for t in ts[1:-1]],
                "boundary": api.call("holonomy.VariationSolution.boundary_residual", sol)}

    def check(out):
        dev = float(np.max(np.abs(out["closed"] - out["shooting"])))
        return [at_most("closed form vs shooting", dev, SHOOT_TOL),
                at_most("ODE residual", max(out["ode"]), ODE_TOL),
                at_most("boundary residual", out["boundary"], ODE_TOL)]

    return Task(tid, "holonomy", run, check)


def kernel_task(hol, tid, orbit):
    """Second-variation kernel vs its reassembly from the variation paths."""
    ts = [0.0, orbit.l / 3, 2 * orbit.l / 3]

    def run(api):
        paths = [api.call("holonomy.variation_ode_closed_form", i, orbit, "cubic")
                 for i in (1, 2, 3)]
        return {"kernel": [api.call("holonomy.second_variation_trace_cc", orbit, t) for t in ts],
                "assembled": [api.call("holonomy.reassemble_trace_cc", orbit, t, paths)
                              for t in ts]}

    def check(out):
        return [close(f"kernel at t={t:.3f}", a, b, ODE_TOL)
                for t, a, b in zip(ts, out["kernel"], out["assembled"])]

    return Task(tid, "holonomy", run, check)


def psi_task(hol, tid, orbit):
    """psi_cc is invariant under whole traversals and equals the kernel at 0."""
    l = orbit.l

    def run(api):
        return {"psi": [api.call("holonomy.psi_cc", orbit, k * l) for k in (1, 2, 3)],
                "kernel0": api.call("holonomy.second_variation_trace_cc", orbit, 0.0)}

    def check(out):
        base = out["psi"][0]
        return ([close(f"psi over {k} traversals", v, base, PSI_TOL)
                 for k, v in zip((2, 3), out["psi"][1:])]
                + [close("psi vs kernel at t = 0", base, out["kernel0"], PSI_TOL)])

    return Task(tid, "holonomy", run, check)


def eta_task(hol, tid, orbit):
    """eta with cutoff k l is within its stated truncation bound of psi."""
    l = orbit.l
    ks = (1, 2, 3, 4, 5, 6)

    def run(api):
        return {"psi": api.call("holonomy.psi_cc", orbit, l),
                "eta": [api.call("holonomy.eta_cc", orbit, k * l) for k in ks]}

    def check(out):
        return [at_most(f"|eta - psi| at cutoff {k} l", abs(value - out["psi"]), bound)
                for k, (value, bound) in zip(ks, out["eta"])]

    return Task(tid, "holonomy", run, check)


def psi_cq_task(hol, tid, orbit):
    """psi_cq is invariant under whole traversals and equals its kernel at 0."""
    l = orbit.l

    def run(api):
        return {"kernel0": api.call("holonomy.second_variation_trace_cq", orbit, 0.0),
                "psi": [api.call("holonomy.psi_cq", orbit, k * l) for k in (1, 2, 3)]}

    def check(out):
        return [close(f"psi_cq over {k} traversals vs kernel at t = 0", v, out["kernel0"],
                      PSI_TOL) for k, v in zip((1, 2, 3), out["psi"])]

    return Task(tid, "holonomy", run, check)


def transport_task(hol, tid, l, rng):
    """RK4 transport with its Richardson check under a constant connection,
    compared with the matrix exponential."""
    c = rng.normal(0, 1, (3, 3)) + 1j * rng.normal(0, 1, (3, 3))
    a = hol.M_CONN + 0.1 * c
    v0 = rng.normal(0, 1, 3) + 1j * rng.normal(0, 1, 3)

    def conn(t):
        return a

    def run(api):
        return {"v": api.call("holonomy.parallel_transport", conn, v0, l)}

    def check(out):
        exact = expm(-a * l) @ v0
        return [at_most("transport vs expm", float(np.max(np.abs(out["v"] - exact))),
                        1e-8 * (1.0 + float(np.max(np.abs(exact)))))]

    return Task(tid, "holonomy", run, check)


def contraction_task(dg, tid, rng, pairs: int):
    """d(Phi_s x, Phi_s y) <= 2 sqrt(2) e^s d(x, y) on random nearby pairs."""
    data = []
    for _ in range(pairs):
        r = 0.8 * math.sqrt(rng.uniform())
        x = dg.UnitTangent(r * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
                           cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        eps = 10 ** rng.uniform(-3, -1.3)
        z = x.z + eps * complex(rng.normal(), rng.normal()) * (1 - abs(x.z) ** 2) / 2
        y = dg.UnitTangent(z, x.u * cmath.exp(1j * eps * rng.normal()))
        data.append((x, y, float(rng.uniform(0.0, 5.0))))

    def run(api):
        return {"worst": max(api.call("diskgeom.flow_contraction_ratio", x, y, s)
                             for x, y, s in data)}

    def check(out):
        return [at_most("worst contraction ratio", out["worst"], 2 * math.sqrt(2))]

    return Task(tid, "diskgeom", run, check)


def _check_holonomy_report(report) -> list:
    return [equal("orbits", report["orbits"], 1),
            at_most("zero orbit trace vs fd", report["worst_trace_vs_fd"], TRACE_TOL)]
