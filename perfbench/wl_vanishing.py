"""The vanishing workload: exact relation systems over Q and their oracles.

The seed permutes fixed sets of N over cases whose cost grows alike with N,
so the N values move between seeds while the work stays level.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles
from harness import Task, close, equal

REFERENCE = {"AB": 20, "CD": 20, "EF": 20, "GH": 14, "IJ": 14}
MARGIN = 2
ANGULAR_TOL = 1e-10                     # acceptance criterion 10
# Enough cheap angular tasks that the median task of a pass falls among them,
# away from the tanh and small-system tasks whose costs differ by seed.
ANGULAR_REPS = 6
DEGREES = {"AB": (3, 3, 3), "CD": (2, 3, 3), "EF": (2, 2, 3), "GH": (2, 2, 3), "IJ": (3, 3, 2)}
# The documented coupling-invariant rays of the two-family GH and IJ systems.
RAYS = {"GH": ("H", lambda n: Fraction((n + 1) * (n + 2), 2)),
        "IJ": ("J", lambda n: Fraction(n + 1))}
GOLDEN_FILE = Path(__file__).with_name("golden.json")


def build(tf, seed: int, ctx) -> tuple:
    rec = tf.recursions
    rng = np.random.default_rng([seed, 4])
    golden = json.loads(GOLDEN_FILE.read_text())
    tasks, pairs = [], []
    for case, N in REFERENCE.items():
        couplings = rec.REFERENCE_COUPLINGS[case]
        tasks.append(system_task(f"golden-{case}", case, N, couplings,
                                 golden=(golden[case], ctx.root)))
        pairs.append((case, N, "reference"))
    plain = list(zip(("CD", "GH", "IJ"), rng.permutation([8, 10, 12])))
    plain += list(zip(("GH", "IJ"), rng.permutation([9, 11])))
    plain += list(zip(("AB", "AB", "EF", "EF"), rng.permutation([9, 12, 15, 19])))
    for case, N in plain:
        N = int(N)
        tasks.append(system_task(f"{case}-N{N}", case, N, rec.REFERENCE_COUPLINGS[case]))
        pairs.append((case, N, "reference"))
    for case, N in zip(("AB", "EF", "CD"), rng.permutation([10, 13, 16])):
        N = int(N)
        tasks.append(system_task(f"{case}-N{N}-single", case, N, ("s=t",)))
        pairs.append((case, N, "s=t"))
    for case, N in zip(("GH", "IJ"), (int(n) for n in rng.permutation([8, 9]))):
        tasks.append(system_task(f"{case}-N{N}-completed", case, N, None))
        pairs.append((case, N, "completed"))
    for m in (2, 3, 4):
        for order in (2 * REFERENCE["GH"] + 6, 2 * REFERENCE["CD"] + 3):
            tasks.append(tanh_task(f"tanh-m{m}-o{order}", m, order))
    for rep in range(ANGULAR_REPS):
        for case, degs in DEGREES.items():
            tasks.append(angular_task(tf.diskseries, f"angular-{case}-{rep}", degs, rng))
    tasks.append(ctx.cli_task("cli-diskvanish-ab-single", "diskvanish", "diskvanish_ab_single",
                              _check_diskvanish_report))
    return tasks, [{"case": c, "N": n, "couplings": k} for c, n, k in pairs]


def system_task(tid, case, N, couplings, golden=None):
    """Build a relation system, solve it, and check it against a kernel mod p.

    couplings=None builds the completed multi-arrangement system. With
    `golden` the relation dump must also match the committed file's bytes.
    """
    ref = {}

    def run(api):
        if couplings is None:
            system = api.call("recursions.build_completed_relations", case, N)
        else:
            system = api.call("recursions.build_relations", case, N, couplings)
        verdict = api.call("recursions.solve_vanishing", system)
        return {"verdict": verdict.verdict, "kernel_dim": verdict.kernel_dim,
                "free": tuple(verdict.free_unknowns),
                "json": api.call("recursions.RecursionSystem.to_json", system),
                "unknowns": system.unknowns}

    def check(out):
        key = out["json"]
        if ref.get("key") != key:
            rows = oracles.relation_rows(json.loads(key))
            kern = oracles.ModularKernel(rows, list(out["unknowns"]))
            ref.update(key=key, rows=rows, kern=kern)
        rows, kern = ref["rows"], ref["kern"]
        checks = [equal("verdict vs kernel mod p", out["verdict"], kern.verdict(N, MARGIN)),
                  equal("kernel dimension vs mod p", out["kernel_dim"], kern.dim),
                  equal("free unknowns vs mod p", out["free"], kern.free())]
        if couplings is None:
            checks.append(equal("completed system pins everything", out["kernel_dim"], 0))
        elif case in RAYS:
            fam, coef = RAYS[case]
            ray = {(fam, n): coef(n) for n in range(N + 1)}
            checks += [equal("documented ray is in the kernel", oracles.annihilates(rows, ray),
                             True),
                       equal("interior kernel is one ray", kern.interior_rank(N, MARGIN), 1)]
        elif tuple(couplings) != ("s=t",):
            checks.append(equal("reference couplings force zero", out["verdict"], "forced-zero"))
        if golden is not None:
            spec, root = golden
            data = (out["json"] + "\n").encode()
            checks.append(equal("relation dump sha256", oracles.sha256(data), spec["sha256"]))
            committed = root / spec["path"]
            if committed.is_file():
                checks.append(equal("relation dump bytes", data, committed.read_bytes()))
        return checks

    return Task(tid, "recursions", run, check)


def tanh_task(tid, m, order):
    """tanh_multiple(m) must satisfy the tanh addition law with m - 1."""

    def run(api):
        return {"series": api.call("ratseries.tanh_multiple", m, order).coeffs,
                "previous": api.call("ratseries.tanh_multiple", m - 1, order).coeffs}

    def check(out):
        defect = oracles.tanh_addition_defect(list(out["series"]), list(out["previous"]), order)
        return [equal("addition-law defect", all(d == 0 for d in defect), True),
                equal("leading coefficient", out["series"][1], m)]

    return Task(tid, "ratseries", run, check)


def angular_task(ds, tid, degs, rng):
    """Angular reduction vs direct quadrature at random radii."""
    exps = [ds.DifferentialExpansion(d, tuple(rng.normal(0, 1, 4) + 1j * rng.normal(0, 1, 4)))
            for d in degs]
    radii = [tuple(float(x) for x in rng.uniform(0.05, 0.9, 2)) for _ in range(4)]

    def run(api):
        red = api.call("diskseries.angular_triple_reduce", *exps)
        return {"reduced": [api.call("diskseries.AngularReduction.value", red, T, S)
                            for T, S in radii],
                "direct": [api.call("diskseries.quadrature_triple", *exps, T, S, n_theta=64)
                           for T, S in radii]}

    def check(out):
        return [close(f"reduction at (T, S)=({T:.3f}, {S:.3f})", a, b, ANGULAR_TOL)
                for (T, S), a, b in zip(radii, out["reduced"], out["direct"])]

    return Task(tid, "diskseries", run, check)


def _check_diskvanish_report(report) -> list:
    case = report["cases"][0]
    return [equal("verdict", case["verdict"], "undetermined"),
            equal("as expected", case["as_expected"], True),
            equal("kernel dimension is positive", case["kernel_dim"] > 0, True)]
