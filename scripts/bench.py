"""Time checkouts of thermoflow end to end and write the medians to a JSON file.

    python3 scripts/bench.py --out BENCH.json --checkout parent=../parent --checkout change=.

For every checkout this runs, from that checkout's root and with its own
`src/` on the path:

- each workload that its `BENCHMARK.json` gates, through `perfbench/run.py`
  with `--trace 0`, the same `--seed` on every checkout and the run length
  that `BENCHMARK.json` sets;
- every bundled config, `thermoflow <experiment> --config configs/<name>.json`,
  timed as one process from start to exit;
- the Tier-1 suite, `python -m pytest -q`, timed the same way.

It also records each checkout's `src_lines`, the line count of
`src/thermoflow/*.py` (as `cat src/thermoflow/*.py | wc -l` counts it), and
`src_lines_by_module`, the same count per file, so that a comparison shows where
lines moved; and `src_code_lines` and `src_code_lines_by_module`, which count
only the lines that hold code (read with `ast` and `tokenize`: no blank lines,
comments or docstrings), so that deleting prose cannot make a change look
shorter.

Each part runs `--repeats` times, and each repeat runs the checkouts in turn,
alternating which goes first. The file holds every run, each metric's median
and quartiles, the Python, numpy and scipy versions and `nproc`. With more
than one checkout it also compares each later checkout with the first, on
every gated end-to-end metric of every workload and on every config's
`wall_s` (held to the bound of the workloads' `wall_s`): the number of
repeats it won, the gap between the medians against the first checkout's
quartile spread, whether its median is within the metric's bound, whether
the metric is unresolved, meaning that the first checkout's quartile spread,
relative to its median, exceeds the bound while some run of the later
checkout is no better than some run of the first, and whether it shows a
gain: the later checkout won at least nine tenths of the repeats and the gap
between the medians exceeds the first checkout's quartile spread. It also
compares correctness: per workload, whether every run of each checkout was
`correct`, each checkout's failed share (failed over attempted operations,
summed over its runs) and whether the later checkout's share is above the
first's; per config, whether the later checkout's runs exited with the same
codes as the first's, repeat by repeat.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

import numpy
import scipy


def _env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def _timed(cmd: list, root: Path) -> tuple:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True, text=True)
    return time.perf_counter() - t0, proc


def run_workload(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its end-to-end metrics plus the failure counts."""
    _, proc = _timed([sys.executable, "perfbench/run.py", "--workload", workload,
                      "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"], root)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench {workload} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update(failed=result["failed"], attempted=result["attempted"],
                  correct=result["correct"])
    return values


def run_config(root: Path, config: Path) -> dict:
    experiment = json.loads(config.read_text())["experiment"]
    with tempfile.TemporaryDirectory() as out:
        wall, proc = _timed([sys.executable, "-m", "thermoflow.cli", experiment,
                             "--config", str(config), "--out", out], root)
    return {"wall_s": wall, "exit_code": proc.returncode}


def run_tier1(root: Path) -> dict:
    wall, proc = _timed([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                         "--continue-on-collection-errors"], root)
    counts = {kind: int(n) for n, kind in
              re.findall(r"(\d+) (passed|failed|xfailed|xpassed|errors?)", proc.stdout)}
    return {"wall_s": wall, "exit_code": proc.returncode, **counts}


def _commit(root: Path) -> str | None:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_lines_by_module(root: Path) -> dict:
    return {p.name: p.read_bytes().count(b"\n")
            for p in sorted((root / "src" / "thermoflow").glob("*.py"))}


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _code_lines(path: Path) -> int:
    """Lines of a Python file that some token of code starts on or spans: neither
    blank nor a comment nor part of a module, class or function docstring."""
    docstrings = [(doc.lineno, doc.col_offset, doc.end_lineno, doc.end_col_offset)
                  for node in ast.walk(ast.parse(path.read_bytes()))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None
                  for doc in node.body[:1]]
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE and not any(
                    (l0, c0) <= tok.start and tok.end <= (l1, c1) for l0, c0, l1, c1 in docstrings):
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _src_code_lines_by_module(root: Path) -> dict:
    return {p.name: _code_lines(p) for p in sorted((root / "src" / "thermoflow").glob("*.py"))}


def _summary(runs: list) -> dict:
    """Median and quartiles of every numeric field over the runs."""
    out = {}
    for key in runs[0]:
        values = [run[key] for run in runs]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                         if len(values) > 1 else (values[0],) * 3)
            out[key] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    return out


def _compare(base: list, other: list, bounds: dict) -> dict:
    """Per lower-is-better metric with its relative bound: repeats won by `other`
    (paired by repeat), the median gap, the base's quartile spread, whether
    other's median is within the bound of the base's, whether the metric is
    unresolved (the base's spread, relative to its median, exceeds the bound and
    some run of `other` is no better than some base run), and whether it shows a
    gain (`other` won at least nine tenths of the pairs and the median gap exceeds
    the base's quartile spread)."""
    out = {}
    for key, bound in bounds.items():
        if key not in base[0]:
            continue
        b = [run[key] for run in base]
        o = [run[key] for run in other]
        base_sum = _summary([{key: v} for v in b])[key]
        spread = base_sum["q3"] - base_sum["q1"]
        wins, gap = sum(y < x for x, y in zip(b, o)), base_sum["median"] - statistics.median(o)
        out[key] = {"wins": wins, "pairs": len(b), "median_gap": gap,
                    "base_quartile_spread": spread, "bound": bound,
                    "gain": wins >= 0.9 * len(b) and gap > spread,
                    "within_bound": statistics.median(o) <= base_sum["median"] * (1 + bound),
                    "unresolved": spread > bound * base_sum["median"] and max(o) >= min(b)}
    return out


def _failed_share(runs: list) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def _correctness(base: list, other: list) -> dict:
    """Per workload: whether every run of each checkout was correct, each one's
    failed share, and whether `other` fails a larger share than `base`."""
    return {"base_all_correct": all(run["correct"] for run in base),
            "all_correct": all(run["correct"] for run in other),
            "base_failed_share": _failed_share(base),
            "failed_share": _failed_share(other),
            "more_failed": _failed_share(other) > _failed_share(base)}


def _exit_codes(base: list, other: list) -> dict:
    """Per config: both checkouts' exit codes and whether they match, repeat by repeat."""
    b, o = [run["exit_code"] for run in base], [run["exit_code"] for run in other]
    return {"base_exit_codes": b, "exit_codes": o, "exit_codes_match": b == o}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--checkout", action="append", default=[],
                        help="NAME=PATH of a checkout to time (repeatable; default change=.)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    checkouts = {}
    for item in args.checkout or ["change=."]:
        name, _, path = item.partition("=")
        checkouts[name] = Path(path).resolve()

    first = next(iter(checkouts.values()))
    spec = json.loads((first / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if m["better"] == "lower"}
    configs = sorted(p.name for p in (first / "configs").glob("*.json"))

    runs = {name: {"workloads": {w: [] for w in workloads},
                   "cli": {c: [] for c in configs}, "tier1": []} for name in checkouts}
    for rep in range(args.repeats):
        order = list(checkouts.items())
        if rep % 2:
            order.reverse()
        for name, root in order:
            print(f"repeat {rep + 1}/{args.repeats}: {name}", file=sys.stderr, flush=True)
            for w in workloads:
                runs[name]["workloads"][w].append(run_workload(root, w, args.seed, seconds))
            for c in configs:
                runs[name]["cli"][c].append(run_config(root, root / "configs" / c))
            runs[name]["tier1"].append(run_tier1(root))

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
           "machine": platform.machine()}
    result = {"environment": env,
              "settings": {"seed": args.seed, "seconds": seconds, "repeats": args.repeats},
              "checkouts": {}}
    for name, root in checkouts.items():
        r = runs[name]
        result["checkouts"][name] = {
            "commit": _commit(root),
            "src_lines": sum(_src_lines_by_module(root).values()),
            "src_lines_by_module": _src_lines_by_module(root),
            "src_code_lines": sum(_src_code_lines_by_module(root).values()),
            "src_code_lines_by_module": _src_code_lines_by_module(root),
            "workloads": {w: {"median": _summary(v), "runs": v}
                          for w, v in r["workloads"].items()},
            "cli": {c: {"median": _summary(v), "runs": v} for c, v in r["cli"].items()},
            "tier1": {"median": _summary(r["tier1"]), "runs": r["tier1"]}}
    names = list(checkouts)
    if len(names) > 1:
        base = runs[names[0]]
        result["comparison"] = {
            f"{other} vs {names[0]}": {
                "workloads": {w: _compare(base["workloads"][w], runs[other]["workloads"][w],
                                          bounds) for w in workloads},
                "cli": {c: _compare(base["cli"][c], runs[other]["cli"][c],
                                    {"wall_s": bounds["wall_s"]}) for c in configs},
                "correctness": {
                    "workloads": {w: _correctness(base["workloads"][w],
                                                  runs[other]["workloads"][w])
                                  for w in workloads},
                    "cli": {c: _exit_codes(base["cli"][c], runs[other]["cli"][c])
                            for c in configs}}}
            for other in names[1:]}
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
