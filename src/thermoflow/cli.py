"""Batch experiment runner: pressure, suspension, holonomy, diskvanish, selftest.

Every run is driven by a JSON config (schema 1) plus a seed; identical config
and seed produce byte-identical output files. Exit codes: 0 ok, 2 config
error, 3 numerical failure or unexpected verdict.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import errors
from .diskseries import DifferentialExpansion, angular_triple_reduce, quadrature_triple
from .holonomy import (BaseFrame, ConnectionFamily, FourierSampler, OrbitData,
                       ShootingSolution, cubic_direction, eigenvalue_derivative_fd,
                       quadratic_direction, second_variation_trace_cc, trace_derivative,
                       variation_ode_closed_form)
from .recursions import (REFERENCE_COUPLINGS, build_completed_relations, build_relations,
                         solve_vanishing)
from .sft import (DepthKFunction, Sft, admissible_words, constant_function, indicator,
                  new_sft, parse_word_key, random_function)

SCHEMA = 1


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_json(path: Path, data) -> str:
    text = json.dumps(data, sort_keys=True, indent=1)
    path.write_text(text + "\n")
    return text


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise errors.ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(config, dict):
        raise errors.ConfigError(f"config {path} must be a JSON object")
    if _integer(config.get("schema"), "schema", lo=None) != SCHEMA:
        raise errors.ConfigError(f"unsupported schema {config.get('schema')}")
    return config


def _section(config: dict, key: str, default) -> dict:
    """The object under `key` (absent or null gives `default`)."""
    spec = config.get(key)
    spec = default if spec is None else spec
    if not isinstance(spec, dict):
        raise errors.ConfigError(f"{key} must be an object, got {spec!r}")
    return spec


def _integer(value, what: str, lo: int | None = 0) -> int:
    """An integer, at least `lo` unless `lo` is None."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or (lo is not None and value < lo):
        bound = "" if lo is None else f" >= {lo}"
        raise errors.ConfigError(f"{what} must be an integer{bound}, got {value!r}")
    return value


def _number(value, what: str, lo: float | None = 0.0) -> float:
    """A finite number, at least `lo` unless `lo` is None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) or (lo is not None and value < lo):
        bound = "" if lo is None else f" >= {lo:g}"
        raise errors.ConfigError(f"{what} must be a finite number{bound}, got {value!r}")
    return float(value)


def _sft_from(config: dict) -> Sft:
    try:
        s = new_sft(_section(config, "sft", {})["transition"])
    except (KeyError, TypeError, ValueError, errors.EmptyRowOrColumn) as exc:
        raise errors.ConfigError(f"bad sft spec: {exc}")
    if not s.is_mixing:
        raise errors.ConfigError("sft transition matrix is not topologically mixing")
    return s


def _potential_from(config: dict, s: Sft, rng) -> DepthKFunction:
    spec = _section(config, "potential", {"kind": "zero"})
    kind = spec.get("kind", "zero")
    try:
        if kind == "zero":
            depth = _integer(spec.get("depth", 1), "zero potential depth", lo=1)
            return constant_function(s, 0.0, depth=depth)
        if kind == "constant":
            value = _number(spec.get("value"), "constant potential value", lo=None)
            depth = _integer(spec.get("depth", 1), "constant potential depth", lo=1)
            return constant_function(s, value, depth=depth)
        if kind == "random":
            depth = _integer(spec.get("depth", 2), "random potential depth", lo=1)
            scale = _number(spec.get("scale", 0.3), "random potential scale")
            return random_function(s, depth, rng, scale=scale)
        if kind == "values":
            depth = _integer(spec.get("depth"), "values potential depth", lo=1)
            vals = {parse_word_key(s, key): _number(v, f"potential value {key}", lo=None)
                    for key, v in _section(spec, "values", None).items()}
            return DepthKFunction(s, depth, vals)
    except (KeyError, TypeError, ValueError, errors.DepthMismatch) as exc:
        raise errors.ConfigError(f"bad {kind} potential: {exc}")
    raise errors.ConfigError(f"unknown potential kind {kind}")


def _orders_from(config: dict) -> list:
    orders = config.get("orders", [1, 2, 3])
    if not isinstance(orders, list) or any(_integer(o, "orders entry") not in (1, 2, 3)
                                           for o in orders):
        raise errors.ConfigError(f"orders must be a list drawn from 1, 2, 3, got {orders}")
    return orders


# --------------------------------------------------------------------------

def run_pressure(config: dict, out_dir: Path, seed: int) -> dict:
    from .derivatives import PotentialFamily, _prepare, fd_oracle
    from .transfer import rpf
    rng = np.random.default_rng(seed)
    s = _sft_from(config)
    w = _potential_from(config, s, rng)
    orders = _orders_from(config)
    fam_spec = _section(config, "derivative_families", {})
    if fam_spec:
        depth = _integer(fam_spec.get("depth", 2), "derivative_families.depth", lo=1)
        count = _integer(fam_spec.get("count", 1), "derivative_families.count")
        scale = _number(fam_spec.get("scale", 0.25), "derivative_families.scale")
    data = rpf(s, w)
    report = {
        "schema": SCHEMA,
        "experiment": "pressure",
        "seed": seed,
        "pressure": data.pressure,
        "rho": data.rho,
        "rpf_residual": data.residual,
        "gap_estimate": data.gap_estimate,
        "derivatives": [],
    }
    if fam_spec:
        base = _prepare(w, max(w.depth, depth), data)
        derivative = {1: base.d1, 2: base.d2, 3: base.d3}
        for fam_idx in range(count):
            g1 = base.centered(random_function(s, depth, rng, scale=scale))
            g2 = random_function(s, depth, rng, scale=scale)
            g3 = random_function(s, depth, rng, scale=scale)
            family = PotentialFamily.from_taylor(
                s, w, {(0,): g1, (0, 0): g2, (0, 0, 0): g3})
            for order in orders:
                value, bound = derivative[order](family)
                oracle = fd_oracle(family, order)
                report["derivatives"].append({
                    "family": fam_idx,
                    "order": order,
                    "value": value,
                    "oracle_value": oracle,
                    "abs_err": abs(value - oracle),
                    "tail_bound": bound,
                })
    _write_json(out_dir / "pressure_report.json", report)
    return report


# --------------------------------------------------------------------------

def _fourier_cylinder(spec, what: str) -> dict:
    if not isinstance(spec, dict):
        raise errors.ConfigError(f"{what} must be an object, got {spec!r}")
    out = {"const": _number(spec.get("const", 0.0), f"{what}.const", lo=None)}
    for key in ("cos", "sin"):
        coefs = spec.get(key, [])
        if not isinstance(coefs, list):
            raise errors.ConfigError(f"{what}.{key} must be a list, got {coefs!r}")
        out[key] = [_number(a, f"{what}.{key}", lo=None) for a in coefs]
    return out


def _flow_function_from(spec: dict, s: Sft, rng) -> FlowFunction | None:
    from .suspension import FlowFunction
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise errors.ConfigError(f"flow_function must be an object, got {spec!r}")
    kind = spec.get("kind", "fourier")
    if kind == "fourier":
        depth = _integer(spec.get("depth"), "flow_function.depth", lo=1)
        try:
            cylinders = {parse_word_key(s, key): cyl
                         for key, cyl in _section(spec, "cylinders", None).items()}
        except ValueError as exc:
            raise errors.ConfigError(f"bad flow_function.cylinders key: {exc}")
        if set(cylinders) != set(admissible_words(s, depth)):
            raise errors.ConfigError("flow_function.cylinders keys must be exactly "
                                     f"the admissible words of depth {depth}")
        return FlowFunction.from_fourier(depth, {
            w: _fourier_cylinder(cyl, f"flow_function.cylinders {w}")
            for w, cyl in cylinders.items()})
    if kind == "random_fourier":
        depth = _integer(spec.get("depth", 2), "flow_function.depth", lo=1)
        modes = _integer(spec.get("modes", 2), "flow_function.modes")
        scale = _number(spec.get("scale", 0.3), "flow_function.scale")
        cylinders = {}
        for w in admissible_words(s, depth):
            cylinders[w] = {"const": float(rng.normal(0, scale)),
                            "cos": [float(x) for x in rng.normal(0, scale, modes)],
                            "sin": [float(x) for x in rng.normal(0, scale, modes)]}
        return FlowFunction.from_fourier(depth, cylinders)
    if kind == "constant":
        return FlowFunction.constant(_number(spec.get("value"), "flow_function.value",
                                             lo=None))
    raise errors.ConfigError(f"unknown flow function kind {kind}")


def run_suspension(config: dict, out_dir: Path, seed: int) -> dict:
    from .suspension import (FlowFamily, SuspensionFlow, flow_pressure,
                             flow_pressure_derivative_transfer, hat_function)
    from .transfer import pressure
    rng = np.random.default_rng(seed)
    s = _sft_from(config)
    orders = _orders_from(config)
    roof_spec = _section(config, "roof", {"kind": "constant", "value": 1.0})
    kind = roof_spec.get("kind")
    if kind == "constant":
        roof = constant_function(s, _number(roof_spec.get("value"), "roof.value"),
                                 depth=_integer(roof_spec.get("depth", 1), "roof.depth", lo=1))
    elif kind == "random_positive":
        roof = random_function(s, _integer(roof_spec.get("depth", 2), "roof.depth", lo=1),
                               rng, scale=_number(roof_spec.get("scale", 0.2), "roof.scale"))
        roof = roof + _number(roof_spec.get("base", 1.2), "roof.base", lo=None)
    else:
        raise errors.ConfigError(f"unknown roof kind {kind}")
    try:
        flow = SuspensionFlow(sft=s, roof=roof)
    except ValueError as exc:
        raise errors.ConfigError(f"bad {kind} roof: {exc}")
    F = _flow_function_from(config.get("flow_function"), s, rng)
    n_families = _integer(_section(config, "families", {}).get("count", 0), "families.count")
    c = flow_pressure(flow, F)
    residual = abs(pressure(s, hat_function(flow, F) - roof * c))
    report = {"schema": SCHEMA, "experiment": "suspension", "seed": seed,
              "flow_pressure": c, "root_residual": residual, "transfer": []}
    for fam_idx in range(n_families):
        fam = FlowFamily(
            F0=_flow_function_from({"kind": "random_fourier"}, s, rng),
            G1=_flow_function_from({"kind": "random_fourier"}, s, rng),
            G2=_flow_function_from({"kind": "random_fourier"}, s, rng),
            G3=_flow_function_from({"kind": "random_fourier"}, s, rng))
        for order in orders:
            flow_side, shift_side = flow_pressure_derivative_transfer(flow, fam, order)
            report["transfer"].append({"family": fam_idx, "order": order,
                                       "flow_side": flow_side,
                                       "shift_side": shift_side,
                                       "abs_err": abs(flow_side - shift_side)})
    _write_json(out_dir / "suspension_report.json", report)
    return report


# --------------------------------------------------------------------------

def _orbit_length(value, what: str) -> float:
    l = _number(value, what, lo=None)
    if not l > 0:
        raise errors.ConfigError(f"{what} must be a positive orbit length, got {value}")
    return l


def _modes(value, what: str) -> dict:
    """{k: re + i im} from a list of [k, re, im]: k an integer (negative allowed),
    re and im finite numbers."""
    if not isinstance(value, list) or not all(isinstance(m, list) and len(m) == 3
                                              for m in value):
        raise errors.ConfigError(f"{what} must be a list of [k, re, im], got {value!r}")
    return {_integer(k, f"{what} mode index", lo=None):
            complex(_number(re, f"{what} mode {k} re", lo=None),
                    _number(im, f"{what} mode {k} im", lo=None))
            for k, re, im in value}


def _orbits_from(config: dict, rng) -> list:
    spec = _section(config, "orbits", {"kind": "random", "count": 5})
    if spec.get("kind") == "explicit":
        items = spec.get("items")
        if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
            raise errors.ConfigError("explicit orbits need an items list of objects, "
                                     f"got {items!r}")
        out = []
        for item in items:
            l = _orbit_length(item.get("l"), "explicit orbit l")
            samplers = {name: FourierSampler(l, _modes(modes, f"sampler {name}"))
                        for name, modes in _section(item, "samplers", None).items()}
            try:
                out.append(OrbitData(l=l, **samplers))
            except TypeError as exc:
                raise errors.ConfigError(f"bad explicit orbit samplers: {exc}")
        return out
    if spec.get("kind") == "random":
        l_range = spec.get("l_range", [0.5, 6.0])
        if not isinstance(l_range, list) or len(l_range) != 2:
            raise errors.ConfigError(f"l_range must be a [start, end] list, got {l_range!r}")
        lo = _orbit_length(l_range[0], "l_range start")
        hi = _orbit_length(l_range[1], "l_range end")
        if lo > hi:
            raise errors.ConfigError(f"l_range start {lo} exceeds its end {hi}")
        count = _integer(spec.get("count", 5), "orbits.count")
        modes = _integer(spec.get("modes", 3), "orbits.modes")
        scale = _number(spec.get("scale", 0.5), "orbits.scale")
        out = []
        for _ in range(count):
            l = float(rng.uniform(lo, hi))
            out.append(OrbitData(
                l=l,
                q_alpha=FourierSampler.random(l, rng, modes, scale),
                q_beta=FourierSampler.random(l, rng, modes, scale),
                q_i=FourierSampler.random(l, rng, modes, scale),
                q_j=FourierSampler.random(l, rng, modes, scale)))
        return out
    if spec.get("kind") == "zero":
        l = _orbit_length(spec.get("l", 2.0), "zero orbit l")
        z = FourierSampler.zero(l)
        return [OrbitData(l=l, q_alpha=z, q_beta=z, q_i=z, q_j=z)]
    raise errors.ConfigError(f"unknown orbit kind {spec.get('kind')}")


def run_holonomy(config: dict, out_dir: Path, seed: int) -> dict:
    variations = config.get("variations", True)
    if not isinstance(variations, bool):
        raise errors.ConfigError(f"variations must be true or false, got {variations!r}")
    kernel_samples = _integer(config.get("kernel_samples", 17), "kernel_samples")
    rng = np.random.default_rng(seed)
    orbits = _orbits_from(config, rng)
    # the trace rows read q_alpha (cubic) and q_i (quadratic); the variations q_beta
    needed = ("q_alpha", "q_i") + (("q_beta",) if variations else ())
    for idx, orbit in enumerate(orbits):
        for name in needed:
            if getattr(orbit, name) is None:
                raise errors.ConfigError(f"orbit {idx} has no sampler {name}")
    trace_rows = []
    for idx, orbit in enumerate(orbits):
        for direction, sampler in (("cubic", orbit.q_alpha), ("quadratic", orbit.q_i)):
            fam = ConnectionFamily(l=orbit.l, dD=(cubic_direction(sampler)
                                                  if direction == "cubic"
                                                  else quadratic_direction(sampler)))
            td = trace_derivative(fam)
            fd = eigenvalue_derivative_fd(fam)
            lam = BaseFrame.eigenvalues(orbit.l)
            trace_rows.append([idx, orbit.l, direction, td.real, td.imag,
                               fd.real, fd.imag, abs(td - fd),
                               lam[0], lam[1], lam[2]])
    _write_csv(out_dir / "holonomy_trace.csv",
               ["orbit", "l", "direction", "trace_re", "trace_im",
                "fd_re", "fd_im", "abs_err", "lambda1", "lambda2", "lambda3"],
               trace_rows)
    var_rows = []
    if variations:
        for idx, orbit in enumerate(orbits):
            cases = [(i, "cubic") for i in (1, 2, 3)] + [(1, "quadratic")]
            for i, direction in cases:
                sol = variation_ode_closed_form(i, orbit, direction)
                shot = ShootingSolution(i, direction, orbit)
                ts = np.linspace(0.0, orbit.l, 5)
                ode_res = max(sol.ode_residual(float(t)) for t in ts[1:-1])
                dev = float(np.max(np.abs(sol.values_on_grid(ts)
                                          - shot.values_on_grid(ts))))
                var_rows.append([idx, i, direction, ode_res,
                                 sol.boundary_residual(), dev])
        _write_csv(out_dir / "holonomy_variations.csv",
                   ["orbit", "eigenvector", "direction", "ode_residual",
                    "boundary_residual", "shooting_deviation"],
                   var_rows)
    # orbit dumps and a sampled second-variation kernel path (t, value)
    orbit_specs = [json.loads(orbit.to_json()) for orbit in orbits]
    (out_dir / "holonomy_orbits.json").write_text(
        json.dumps(orbit_specs, sort_keys=True, indent=1) + "\n")
    if orbits and orbits[0].q_alpha is not None and orbits[0].q_beta is not None:
        orbit = orbits[0]
        ts = np.linspace(0.0, orbit.l, kernel_samples)
        _write_csv(out_dir / "holonomy_kernel.csv", ["t", "value"],
                   [[float(t), second_variation_trace_cc(orbit, float(t))] for t in ts])
    worst = max((row[7] for row in trace_rows), default=0.0)
    report = {"schema": SCHEMA, "experiment": "holonomy", "seed": seed,
              "orbits": len(orbits), "worst_trace_vs_fd": worst,
              "worst_ode_residual": max((r[3] for r in var_rows), default=0.0),
              "worst_boundary_residual": max((r[4] for r in var_rows), default=0.0),
              "worst_shooting_deviation": max((r[5] for r in var_rows), default=0.0)}
    _write_json(out_dir / "holonomy_report.json", report)
    return report


# --------------------------------------------------------------------------

def run_diskvanish(config: dict, out_dir: Path, seed: int) -> dict:
    cases = config.get("cases")
    if not cases or not isinstance(cases, list) \
            or not all(isinstance(item, dict) for item in cases):
        raise errors.ConfigError("diskvanish config needs a 'cases' list of objects")
    report = {"schema": SCHEMA, "experiment": "diskvanish", "seed": seed,
              "cases": [], "warnings": []}
    systems = []            # every case read and built before the first solve
    for item in cases:
        case = item.get("case")
        if case not in REFERENCE_COUPLINGS:
            raise errors.ConfigError(f"unknown diskvanish case {case}")
        N = _integer(item.get("N", 20), f"{case} N")
        margin = _integer(item.get("margin", 2), f"{case} margin")
        expected = item.get("expect")
        if expected not in (None, "forced-zero", "undetermined"):
            raise errors.ConfigError(
                f"{case} expect must be 'forced-zero' or 'undetermined', got {expected!r}")
        completed = item.get("completed", False)
        if not isinstance(completed, bool):
            raise errors.ConfigError(f"{case} completed must be true or false, "
                                     f"got {completed!r}")
        couplings = item.get("couplings", list(REFERENCE_COUPLINGS[case]))
        if not isinstance(couplings, list):
            raise errors.ConfigError(f"{case} couplings must be a list, got {couplings!r}")
        try:
            system = build_relations(case, N, couplings)
        except (ValueError, errors.UnsupportedCoupling) as exc:
            raise errors.ConfigError(str(exc))
        if N - margin <= 0:
            report["warnings"].append(
                f"{case}: N={N} leaves no interior indices at margin {margin}")
        systems.append((system, margin, expected, completed))
    mismatch = False
    for system, margin, expected, completed in systems:
        case, N, couplings = system.case, system.N, system.couplings
        verdict = solve_vanishing(system, margin=margin)
        entry = {"case": case, "N": N, "couplings": list(couplings),
                 "verdict": verdict.verdict, "kernel_dim": verdict.kernel_dim,
                 "margin": verdict.margin,
                 "free_unknowns": [f"{fam}{idx}" for fam, idx in verdict.free_unknowns]}
        if completed:
            comp = solve_vanishing(build_completed_relations(case, N), margin=margin)
            entry["completed_verdict"] = comp.verdict
            entry["completed_kernel_dim"] = comp.kernel_dim
        if expected is not None:
            effective = entry.get("completed_verdict", verdict.verdict) \
                if expected == "forced-zero" and completed else verdict.verdict
            entry["expected"] = expected
            entry["as_expected"] = (effective == expected)
            if not entry["as_expected"]:
                mismatch = True
        (out_dir / f"diskvanish_{case}_relations.json").write_text(system.to_json() + "\n")
        report["cases"].append(entry)
    _write_json(out_dir / "diskvanish_report.json", report)
    if mismatch:
        raise errors.ThermoflowError("a case verdict differed from its expectation")
    return report


# --------------------------------------------------------------------------

def run_selftest(config: dict, out_dir: Path, seed: int) -> dict:
    from .correlations import variance
    from .suspension import SuspensionFlow, flow_pressure
    from .transfer import equilibrium_measure, normalize_potential, pressure, rpf
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'} {name} {detail}")

    s2 = new_sft([[1, 1], [1, 1]])
    p2 = pressure(s2, constant_function(s2, 0.0))
    check("pressure.full-2-shift", abs(p2 - math.log(2)) < 1e-12, f"P={p2!r}")

    gm = new_sft([[1, 1], [1, 0]])
    pg = pressure(gm, constant_function(gm, 0.0))
    phi = (1 + math.sqrt(5)) / 2
    check("pressure.golden-mean", abs(pg - math.log(phi)) < 1e-10, f"P={pg!r}")

    data = rpf(s2, constant_function(s2, 0.0))
    wn = normalize_potential(s2, constant_function(s2, 0.0), data)
    m = equilibrium_measure(s2, constant_function(s2, 0.0), data)
    g = indicator(s2, 0) - 0.5
    var = variance(g, m, wn).value
    check("variance.coin", abs(var - 0.25) < 1e-12, f"Var={var!r}")

    flow = SuspensionFlow(sft=s2, roof=constant_function(s2, 2.0))
    c = flow_pressure(flow, None)
    check("suspension.roof-two", abs(c - math.log(2) / 2) < 1e-10, f"c={c!r}")

    pi0 = BaseFrame.pi0
    check("holonomy.projection", float(np.max(np.abs(pi0 @ pi0 - pi0))) < 1e-12)

    rng = np.random.default_rng(seed)
    l = 1.5
    fam = ConnectionFamily(l=l, dD=cubic_direction(FourierSampler.random(l, rng, 2, 0.4)))
    err = abs(trace_derivative(fam) - eigenvalue_derivative_fd(fam))
    check("holonomy.trace-vs-fd", err < 1e-6, f"err={err:.2e}")

    system = build_relations("AB", 8, REFERENCE_COUPLINGS["AB"])
    verdict = solve_vanishing(system)
    check("diskvanish.AB", verdict.verdict == "forced-zero")

    e = DifferentialExpansion(3, (0.4 + 0.2j, -0.3, 0.1j))
    red = angular_triple_reduce(e, e, e)
    direct = quadrature_triple(e, e, e, 0.3, 0.5, n_theta=64)
    check("diskseries.reduction", abs(red.value(0.3, 0.5) - direct) < 1e-10)

    report = {"schema": SCHEMA, "experiment": "selftest", "seed": seed,
              "checks": checks, "ok": all(c["ok"] for c in checks)}
    _write_json(out_dir / "selftest_report.json", report)
    if not report["ok"]:
        raise errors.ThermoflowError("selftest failed")
    return report


RUNNERS = {"pressure": run_pressure, "suspension": run_suspension,
           "holonomy": run_holonomy, "diskvanish": run_diskvanish,
           "selftest": run_selftest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="thermoflow",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="JSON config path (selftest runs without one)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="64-bit seed; overrides the config seed")
        p.add_argument("--json", action="store_true",
                       help="also print the JSON report to stdout")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            config = _load_config(args.config)
            if config.get("experiment", args.command) != args.command:
                raise errors.ConfigError(
                    f"config is for {config.get('experiment')}, not {args.command}")
        elif args.command == "selftest":
            config = {"schema": SCHEMA, "experiment": "selftest"}
        else:
            raise errors.ConfigError("--config is required")
        seed = _integer(args.seed if args.seed is not None else config.get("seed", 0),
                        "seed")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report = RUNNERS[args.command](config, out_dir, seed)
    except errors.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except errors.ThermoflowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
