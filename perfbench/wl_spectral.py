"""The spectral workloads: transfer, correlations, derivatives, suspension, sft.

spectral-small runs many calls on shifts with 2-256 words, where Python and
scipy.sparse overhead dominate; spectral-large runs the same entry points on
1k-16k words, where sparse matvecs and memory dominate.

Sizes are fixed per slot and the seed draws the values. Each small slot's
potential is redrawn until the exact ratio |lambda_2| / rho lies in the slot's
band, so the truncation N differs between slots but barely between seeds.
"""
from __future__ import annotations

import math

import numpy as np

import oracles
from harness import Task, at_most, close, equal

GOLDEN = ((1, 1), (1, 0))
DERIV_TOL = {1: 1e-7, 2: 1e-5, 3: 1e-3}   # acceptance criterion 2
ROOT_TOL = 1e-11                          # acceptance criterion 4
SPECTRAL_TOL = 1e-10                      # pressure vs an eigen-solver
# Variance and covariance are second, the triple covariance is the third
# derivative of pressure: acceptance criterion 2's bounds for those orders.
CORR_TOL = {"variance": 1e-5, "covariance": 1e-5, "triple": 1e-3}


def full(n):
    return tuple((1,) * n for _ in range(n))


def random_mixing(rng, n: int, depth: int, words_band, ratio_band, density=0.6):
    """A mixing 0/1 matrix, not full, with bounded word count and gap ratio."""
    for _ in range(10_000):
        t = tuple(tuple(int(x) for x in row) for row in rng.random((n, n)) < density)
        if all(all(row) for row in t) or not all(any(row) for row in t):
            continue
        if not all(any(t[i][j] for i in range(n)) for j in range(n)):
            continue
        if not np.all(np.linalg.matrix_power(np.array(t), n * n) > 0):
            continue
        if not words_band[0] <= oracles.word_count(t, depth) <= words_band[1]:
            continue
        if ratio_band[0] <= oracles.topological_ratio(t) <= ratio_band[1]:
            return t
    raise RuntimeError("no random shift met the slot's bands")


def draw_values(rng, transition, depth: int, scale: float) -> dict:
    ws = oracles.words(transition, depth)
    return dict(zip(ws, (float(x) for x in rng.normal(0.0, scale, len(ws)))))


def banded_values(rng, transition, depth: int, scale: float, band) -> dict:
    """Potential values whose exact gap ratio lies in `band`."""
    for _ in range(10_000):
        vals = draw_values(rng, transition, depth, scale)
        if band[0] <= oracles.Transfer(transition, vals, depth).ratio() <= band[1]:
            return vals
    raise RuntimeError("no potential met the slot's gap band")


def centered(values: dict, tr: oracles.Transfer) -> dict:
    """values minus their mean under the equilibrium state of tr's potential."""
    nz = tr.normalized()
    mean = nz.mean(tr.vector(values))
    return {w: v - mean for w, v in values.items()}


class Inputs:
    """Thermoflow objects built from generated value tables, plus a summary."""

    def __init__(self, tf):
        self.tf = tf
        self.shifts: dict = {}
        self.summary: list = []

    def shift(self, transition):
        if transition not in self.shifts:
            self.shifts[transition] = self.tf.sft.new_sft([list(r) for r in transition])
        return self.shifts[transition]

    def fn(self, transition, values: dict):
        depth = len(next(iter(values)))
        return self.tf.sft.DepthKFunction(self.shift(transition), depth, dict(values))


# --------------------------------------------------------------------------
# tasks shared by both workloads
# --------------------------------------------------------------------------

def rpf_task(inp, tid, transition, values, depth=None):
    s, w = inp.shift(transition), inp.fn(transition, values)
    k = max(depth or 1, len(next(iter(values))))
    ref = {}

    def run(api):
        data = api.call("transfer.rpf", s, w, depth=depth)
        return {"pressure": data.pressure, "rho": data.rho,
                "h": data.eigenfunction.values, "nu": data.adjoint_measure,
                "depth": data.depth}

    def check(out):
        if not ref:
            ref["tr"] = oracles.Transfer(transition, values, k)
        tr = ref["tr"]
        h = np.array([float(np.real(out["h"][u])) for u in tr.words])
        nu = np.array([out["nu"][u] for u in tr.words])
        resid = np.max(np.abs(tr.matrix @ h - out["rho"] * h)) / np.max(np.abs(h))
        return [close("pressure vs eigen-solver", out["pressure"], tr.pressure(), SPECTRAL_TOL),
                equal("depth", out["depth"], k),
                at_most("eigenfunction residual", resid, 1e-9),
                equal("eigenfunction positive", bool(np.all(h > 0)), True),
                close("adjoint mass", float(nu.sum()), 1.0, 1e-12),
                close("pairing <nu, h>", float(nu @ h), 1.0, 1e-9)]

    return Task(tid, "transfer", run, check)


def pressure_task(inp, tid, transition, values, depth=None):
    s, w = inp.shift(transition), inp.fn(transition, values)
    k = max(depth or 1, len(next(iter(values))))
    ref = {}

    def run(api):
        return {"pressure": api.call("transfer.pressure", s, w, depth=depth)}

    def check(out):
        if not ref:
            ref["p"] = oracles.Transfer(transition, values, k).pressure()
        return [close("pressure vs eigen-solver", out["pressure"], ref["p"], SPECTRAL_TOL)]

    return Task(tid, "transfer", run, check)


def ruelle_task(inp, tid, transition, values, depth=None):
    s, w = inp.shift(transition), inp.fn(transition, values)
    k = max(depth or 1, len(next(iter(values))))
    ref = {}

    def run(api):
        rm = api.call("transfer.ruelle_matrix", s, w, depth=depth)
        return {"matrix": rm.matrix, "words": rm.words}

    def check(out):
        if not ref:
            ref["tr"] = oracles.Transfer(transition, values, k)
        tr = ref["tr"]
        diff = abs(out["matrix"] - tr.matrix).max()
        return [at_most("entries vs rebuilt matrix", diff, 1e-12 * abs(tr.matrix).max()),
                equal("word order", tuple(out["words"]), tuple(tr.words))]

    return Task(tid, "transfer", run, check)


def _equilibrium(api, s, w, depth):
    data = api.call("transfer.rpf", s, w, depth=depth)
    wn = api.call("transfer.normalize_potential", s, w, data)
    m = api.call("transfer.equilibrium_measure", s, w, data)
    return wn, m


def correlation_task(inp, tid, kind, transition, w_vals, g_vals, fd: bool = False):
    """variance / covariance / triple of mean-zero projections, default N.

    With fd=True the value is also compared with the library's order-2
    finite-difference oracle (for covariance through the polarization
    Cov(a, b) = (Var(a + b) - Var(a - b)) / 4).
    """
    s = inp.shift(transition)
    w = inp.fn(transition, w_vals)
    gs = [inp.fn(transition, v) for v in g_vals]
    families = []
    if fd:
        pf = inp.tf.derivatives.PotentialFamily
        if kind == "variance":
            families = [pf.from_taylor(s, w, {(0,): gs[0]})]
        else:
            families = [pf.from_taylor(s, w, {(0,): gs[0] + gs[1]}),
                        pf.from_taylor(s, w, {(0,): gs[0] - gs[1]})]
    k = max(len(next(iter(v))) for v in [w_vals] + list(g_vals))
    ref = {}

    def run(api):
        wn, m = _equilibrium(api, s, w, k)
        g0 = [api.call("correlations.project_mean_zero", g, m) for g in gs]
        if kind == "variance":
            rep = api.call("correlations.variance", g0[0], m, wn)
        elif kind == "covariance":
            rep = api.call("correlations.covariance", g0[0], gs[1], m, wn)
        else:
            rep = api.call("correlations.triple_covariance", g0[0], g0[1], g0[2], m, wn)
        out = {"value": rep.value, "truncation": rep.truncation}
        if fd:
            out["fd"] = [api.call("derivatives.fd_oracle", f, 2) for f in families]
        return out

    def check(out):
        if not ref:
            nz = oracles.Transfer(transition, w_vals, k).normalized()
            tr = nz.tr
            vecs = [tr.vector(v) for v in g_vals]
            ref["exact"] = {"variance": lambda: nz.variance(vecs[0]),
                            "covariance": lambda: nz.covariance(vecs[0], vecs[1]),
                            "triple": lambda: nz.triple(*vecs)}[kind]()
        rows = [close(f"{kind} vs converged series", out["value"], ref["exact"],
                      CORR_TOL[kind])]
        if fd:
            fd_val = out["fd"][0] if kind == "variance" else (out["fd"][0] - out["fd"][1]) / 4
            rows.append(close(f"{kind} vs fd_oracle", out["value"], fd_val, DERIV_TOL[2]))
        return rows

    return Task(tid, "correlations", run, check)


# --------------------------------------------------------------------------
# spectral-small
# --------------------------------------------------------------------------

SMALL_SLOTS = (
    # label, shift, potential depth, scale, band of |lambda_2| / rho
    ("gm1", "golden", 1, 0.3, (0.38, 0.40)),
    ("gm3", "golden", 3, 0.8, (0.53, 0.55)),
    ("f2d2", "full2", 2, 0.3, (0.00, 0.15)),
    ("f2d4", "full2", 4, 0.8, (0.62, 0.64)),
    ("f3d2", "full3", 2, 0.8, (0.18, 0.24)),
    ("f3d3", "full3", 3, 0.3, (0.32, 0.34)),
    ("f4d4", "full4", 4, 0.3, (0.37, 0.39)),
    ("r3d3", "random3", 3, 0.5, (0.40, 0.43)),
    ("r4d2", "random4", 2, 0.5, (0.30, 0.34)),
)
TRIPLE_SLOTS = ("gm1", "gm3", "f3d2")
FAMILY_SLOTS = ("gm1", "f3d2", "r3d3")


def _small_shifts(rng):
    return {"golden": GOLDEN, "full2": full(2), "full3": full(3), "full4": full(4),
            "random3": random_mixing(rng, 3, 3, (16, 17), (0.3, 0.7)),
            "random4": random_mixing(rng, 4, 2, (11, 12), (0.2, 0.6))}


def build_small(tf, seed: int, ctx) -> tuple:
    inp = Inputs(tf)
    rng = np.random.default_rng([seed, 1])
    shifts = _small_shifts(rng)
    tasks = []
    for label, shift, depth, scale, band in SMALL_SLOTS:
        t = shifts[shift]
        w = banded_values(rng, t, depth, scale, band)
        w2 = draw_values(rng, t, depth, scale)
        tr = oracles.Transfer(t, w, depth)
        g = [draw_values(rng, t, depth, 1.0) for _ in range(3)]
        inp.summary.append({"slot": label, "words": len(w), "depth": depth,
                            "ratio": round(tr.ratio(), 4),
                            "predicted_N": _predicted_n(tr.ratio())})
        tasks += [rpf_task(inp, f"{label}-rpf", t, w),
                  pressure_task(inp, f"{label}-pressure", t, w2),
                  correlation_task(inp, f"{label}-variance", "variance", t, w, g[:1]),
                  correlation_task(inp, f"{label}-covariance", "covariance", t, w, g[:2])]
        if label in TRIPLE_SLOTS:
            tasks.append(correlation_task(inp, f"{label}-triple", "triple", t, w, g))
        if label in FAMILY_SLOTS:
            tasks += derivative_tasks(inp, label, t, w, tr, rng)
        if label in ("gm1", "f4d4"):
            tasks.append(ruelle_task(inp, f"{label}-ruelle", t, w))
    tasks += [livsic_task(inp, "livsic-gm", GOLDEN, 2, 8, rng),
              livsic_task(inp, "livsic-f3", full(3), 2, 5, rng),
              orbits_task(inp, "orbits-r3", shifts["random3"], 7),
              moment_task(inp, "moment-gm", GOLDEN, 2, 8, rng)]
    tasks += suspension_tasks(inp, rng)
    tasks.append(ctx.cli_task("cli-pressure", "pressure", "pressure_golden_mean",
                              _check_pressure_report))
    tasks.append(ctx.cli_task("cli-suspension", "suspension", "suspension_basic",
                              _check_suspension_report))
    inp.summary.append({"random3": shifts["random3"], "random4": shifts["random4"]})
    return tasks, inp.summary


def _predicted_n(ratio: float) -> int:
    """The library's default truncation for an exact gap ratio."""
    if ratio <= 0.0:
        return 20
    return min(max(int(math.ceil(math.log(1e-12) / math.log(ratio))), 20), 80)


def derivative_tasks(inp, label, t, w, tr, rng) -> list:
    """pressure_d1..d3 against fd_oracle on a cubic family with exact partials."""
    depth = len(next(iter(w)))
    s = inp.shift(t)
    f1 = draw_values(rng, t, depth, 0.25)
    parts = {(0, 0): inp.fn(t, draw_values(rng, t, depth, 0.25)),
             (0, 0, 0): inp.fn(t, draw_values(rng, t, depth, 0.25))}
    pf = inp.tf.derivatives.PotentialFamily
    f0 = inp.fn(t, w)
    raw = pf.from_taylor(s, f0, {(0,): inp.fn(t, f1), **parts})
    mean_zero = pf.from_taylor(s, f0, {(0,): inp.fn(t, centered(f1, tr)), **parts})
    tasks = []
    for order, family in ((1, raw), (2, mean_zero), (3, mean_zero)):
        tasks.append(Task(f"{label}-d{order}", "derivatives",
                          _derivative_run(order, family), _derivative_check(order)))
    return tasks


def _derivative_run(order, family):
    name = f"derivatives.pressure_d{order}"

    def run(api):
        return {"value": api.call(name, family),
                "fd": api.call("derivatives.fd_oracle", family, order)}

    return run


def _derivative_check(order):
    def check(out):
        return [close(f"d{order} vs fd_oracle", out["value"], out["fd"], DERIV_TOL[order])]

    return check


def livsic_task(inp, tid, t, depth, max_period, rng):
    """f and f + (v - v o sigma) are cohomologous; f and f + 0.01 are not."""
    f = draw_values(rng, t, depth, 0.5)
    v = draw_values(rng, t, depth, 0.5)
    cob = {u: f[u[:depth]] + v[u[:depth]] - v[u[1:]] for u in oracles.words(t, depth + 1)}
    s = inp.shift(t)
    ff, gg = inp.fn(t, f), inp.fn(t, cob)
    hh = inp.fn(t, {u: x + 0.01 for u, x in f.items()})

    def run(api):
        rep = api.call("sft.livsic_coboundary_test", ff, gg, s, max_period)
        ctl = api.call("sft.livsic_coboundary_test", ff, hh, s, max_period)
        return {"cohomologous": rep.cohomologous, "residual": rep.worst_residual,
                "control": ctl.cohomologous}

    def check(out):
        return [equal("coboundary perturbation is cohomologous", out["cohomologous"], True),
                at_most("worst orbit residual", out["residual"], 1e-10),
                equal("constant shift is not cohomologous", out["control"], False)]

    return Task(tid, "sft", run, check)


def orbits_task(inp, tid, t, max_period):
    s = inp.shift(t)

    def run(api):
        return {"count": len(api.call("sft.periodic_orbits", s, max_period))}

    def check(out):
        return [equal("orbit count vs Moebius inversion", out["count"],
                      oracles.primitive_orbit_count(t, max_period))]

    return Task(tid, "sft", run, check)


def moment_task(inp, tid, t, depth, n, rng):
    """E[S_n(g)^2] by the library's word-chain recursion vs correlation sums."""
    w = draw_values(rng, t, depth, 0.4)
    g = draw_values(rng, t, depth, 1.0)
    s, ww, gg = inp.shift(t), inp.fn(t, w), inp.fn(t, g)

    def run(api):
        data = api.call("transfer.rpf", s, ww)
        wn = api.call("transfer.normalize_potential", s, ww, data)
        ctx = api.call("correlations.EquilibriumContext", s, wn)
        return {"moment": api.call("correlations.birkhoff_moment", ctx, [gg, gg], n)}

    def check(out):
        nz = oracles.Transfer(t, w, depth).normalized()
        x = nz.tr.vector(g)
        terms, u = [], x.copy()
        for _ in range(n):
            terms.append(nz.mean(u * x))
            u = nz.P @ u
        exact = n * terms[0] + 2 * sum((n - j) * terms[j] for j in range(1, n))
        return [close("second moment vs correlation sum", out["moment"], exact,
                      1e-10 * max(1.0, abs(exact)))]

    return Task(tid, "correlations", run, check)


def _fourier_cylinders(rng, t, depth, modes, scale):
    return {u: {"const": float(rng.normal(0, scale)),
                "cos": [float(x) for x in rng.normal(0, scale, modes)],
                "sin": [float(x) for x in rng.normal(0, scale, modes)]}
            for u in oracles.words(t, depth)}


def suspension_tasks(inp, rng) -> list:
    """flow_pressure on two shifts and the derivative transfer for orders 1-3.

    The fiber integral of c0 + sum a_j cos(2 pi j tau) + b_j sin(2 pi j tau)
    over [0, roof] is roof * c0, so the root is checked against the exact
    hat function with the benchmark's own eigen-solver.
    """
    sus = inp.tf.suspension
    tasks = []
    for label, t in (("f2", full(2)), ("f3", full(3))):
        roof = {u: 1.3 + float(x) for u, x in draw_values(rng, t, 2, 0.1).items()}
        cyl = _fourier_cylinders(rng, t, 2, 2, 0.3)
        flow = sus.SuspensionFlow(sft=inp.shift(t), roof=inp.fn(t, roof))
        F0 = sus.FlowFunction.from_fourier(2, cyl)
        hat_exact = {u: roof[u] * cyl[u]["const"] for u in roof}
        tasks.append(Task(f"flow-{label}", "suspension", _flow_run(flow, F0),
                          _flow_check(t, roof, hat_exact)))
        if label == "f2":
            tasks.append(Task(f"hat-{label}", "suspension", _hat_run(flow, F0),
                              _hat_check(hat_exact)))
            fam = sus.FlowFamily(F0=F0, **{g: sus.FlowFunction.from_fourier(
                2, _fourier_cylinders(rng, t, 2, 2, 0.3)) for g in ("G1", "G2", "G3")})
            for order in (1, 2, 3):
                tasks.append(Task(f"transfer-{label}-o{order}", "suspension",
                                  _fpdt_run(flow, fam, order), _fpdt_check(order)))
    return tasks


def _flow_run(flow, F0):
    def run(api):
        return {"c": api.call("suspension.flow_pressure", flow, F0)}
    return run


def _flow_check(t, roof, hat_exact):
    def check(out):
        shifted = {u: hat_exact[u] - out["c"] * roof[u] for u in roof}
        resid = abs(oracles.Transfer(t, shifted, 2).pressure())
        return [at_most("|P(hat - c roof)| with exact hat", resid, ROOT_TOL)]
    return check


def _hat_run(flow, F0):
    def run(api):
        return {"hat": dict(api.call("suspension.hat_function", flow, F0).values)}
    return run


def _hat_check(hat_exact):
    def check(out):
        worst = max(abs(out["hat"][u] - v) for u, v in hat_exact.items())
        return [at_most("hat vs roof * c0", worst, 1e-12)]
    return check


def _fpdt_run(flow, fam, order):
    def run(api):
        flow_side, shift_side = api.call("suspension.flow_pressure_derivative_transfer",
                                         flow, fam, order)
        return {"flow_side": flow_side, "shift_side": shift_side}
    return run


def _fpdt_check(order):
    def check(out):
        return [close(f"order {order} flow side vs shift side", out["flow_side"],
                      out["shift_side"], DERIV_TOL[order])]
    return check


def _check_pressure_report(report) -> list:
    phi = (1 + math.sqrt(5)) / 2
    rows = [close("golden-mean pressure", report["pressure"], math.log(phi), 1e-10)]
    for d in report["derivatives"]:
        rows.append(at_most(f"family {d['family']} d{d['order']} vs fd", d["abs_err"],
                            DERIV_TOL[d["order"]]))
    rows.append(equal("derivative rows", len(report["derivatives"]), 6))
    return rows


def _check_suspension_report(report) -> list:
    rows = [at_most("root residual", report["root_residual"], ROOT_TOL)]
    for d in report["transfer"]:
        rows.append(at_most(f"order {d['order']} transfer gap", d["abs_err"],
                            DERIV_TOL[d["order"]]))
    rows.append(equal("transfer rows", len(report["transfer"]), 3))
    return rows


# --------------------------------------------------------------------------
# spectral-large
# --------------------------------------------------------------------------

# Potentials on the large shifts have depth 2 and act on deep word spaces: the
# nonzero spectrum is that of the depth-2 operator, so the gap band is cheap to
# enforce while every matvec runs over thousands of words.
LARGE_SHIFTS = {"golden": (0.3, (0.36, 0.42)), "full2": (1.0, (0.10, 0.20)),
                "full3": (0.8, (0.22, 0.30)), "full4": (0.8, (0.25, 0.32)),
                "random5": (0.5, (0.25, 0.35))}
LARGE_RPF = (("f4d6", "full4", 6), ("f2d12", "full2", 12), ("gm16", "golden", 16),
             ("gm17", "golden", 17), ("r5d5", "random5", 5), ("f2d14", "full2", 14),
             ("f3d7", "full3", 7), ("f2d10", "full2", 10), ("f4d5", "full4", 5),
             ("gm15", "golden", 15), ("f3d8", "full3", 8), ("f2d13", "full2", 13))
LARGE_CONTEXT = (("f2d14", "full2", 14), ("f4d6", "full4", 6), ("gm16", "golden", 16))
LARGE_CORRELATION = (("f4d5", "full4", 5, "variance"), ("gm15", "golden", 15, "variance"),
                     ("f2d11", "full2", 11, "covariance"), ("r5d4", "random5", 4, "covariance"))


def build_large(tf, seed: int, ctx) -> tuple:
    inp = Inputs(tf)
    rng = np.random.default_rng([seed, 2])
    shifts = {"golden": GOLDEN, "full2": full(2), "full3": full(3), "full4": full(4),
              "random5": random_mixing(rng, 5, 5, (1200, 1400), (0.2, 0.3), density=0.75)}

    def potential(shift):
        scale, band = LARGE_SHIFTS[shift]
        return banded_values(rng, shifts[shift], 2, scale, band)

    tasks = []
    for n, (label, shift, depth) in enumerate(LARGE_RPF):
        t = shifts[shift]
        w = potential(shift)
        inp.summary.append({"slot": label, "words": oracles.word_count(t, depth)})
        tasks += [rpf_task(inp, f"{label}-rpf", t, w, depth),
                  pressure_task(inp, f"{label}-pressure", t, potential(shift), depth)]
        if n % 3 == 0:
            tasks.append(ruelle_task(inp, f"{label}-ruelle", t, w, depth))
        if n % 3 == 1:
            tasks.append(measure_task(inp, f"{label}-measure", t, w, depth))
    for label, shift, depth in LARGE_CONTEXT:
        t = shifts[shift]
        inp.summary.append({"slot": label, "context_words": oracles.word_count(t, depth)})
        tasks.append(context_task(inp, f"{label}-context", t, potential(shift), depth))
    for label, shift, depth, kind in LARGE_CORRELATION:
        t = shifts[shift]
        g = [draw_values(rng, t, depth, 0.25) for _ in range(2)]
        inp.summary.append({"slot": label, "context_words": oracles.word_count(t, depth + 1)})
        tasks.append(correlation_task(inp, f"{label}-{kind}", kind, t, potential(shift), g,
                                      fd=True))
    g = [draw_values(rng, full(2), 9, 1.0) for _ in range(3)]
    tasks.append(correlation_task(inp, "f2d9-triple", "triple", full(2), potential("full2"), g))
    inp.summary.append({"slot": "f2d9", "context_words": oracles.word_count(full(2), 10),
                        "random5": shifts["random5"]})
    return tasks, inp.summary


def measure_task(inp, tid, t, w_vals, depth):
    """equilibrium_measure: weights nu * h, shift-invariant, summing to one."""
    s, w = inp.shift(t), inp.fn(t, w_vals)
    ref = {}

    def run(api):
        data = api.call("transfer.rpf", s, w, depth=depth)
        return {"weights": dict(api.call("transfer.equilibrium_measure", s, w, data).weights)}

    def check(out):
        if not ref:
            tr = oracles.Transfer(t, w_vals, depth)
            rho, h, nu = tr.rpf()
            ref["m"] = nu * h / (nu @ h)
            ref["words"] = tr.words
        got = np.array([out["weights"][u] for u in ref["words"]])
        return [at_most("weights vs eigen-solver", float(np.max(np.abs(got - ref["m"]))),
                        1e-12),
                close("total mass", float(got.sum()), 1.0, 1e-12)]

    return Task(tid, "transfer", run, check)


def context_task(inp, tid, t, w_vals, depth):
    """EquilibriumContext: normalized rows and a stationary vector."""
    s, w = inp.shift(t), inp.fn(t, w_vals)

    def run(api):
        data = api.call("transfer.rpf", s, w)
        wn = api.call("transfer.normalize_potential", s, w, data)
        ctx = api.call("correlations.EquilibriumContext", s, wn, depth=depth)
        return {"m": ctx.m, "wn": wn.values, "depth": ctx.depth}

    ref = {}

    def check(out):
        if not ref:
            ref["m"] = oracles.Transfer(t, w_vals, depth).normalized().m
        wn_depth = len(next(iter(out["wn"])))
        rows = np.asarray(oracles.Transfer(t, out["wn"], wn_depth).matrix.sum(axis=1)).ravel()
        return [at_most("stationary vector vs eigen-solver",
                        float(np.max(np.abs(out["m"] - ref["m"]))), 1e-12),
                equal("context depth", out["depth"], depth),
                at_most("row-sum defect of the normalized potential",
                        float(np.max(np.abs(rows - 1.0))), 1e-10)]

    return Task(tid, "correlations", run, check)
