"""thermoflow benchmark: four seeded workloads driven through the public API.

    python3 perfbench/run.py --workload spectral-small --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; thermoflow is imported from its `src/`.
After an untimed warm-up pass over the workload's task list, whole passes are
timed until --seconds have gone by. Every task's outputs are checked against an
oracle outside the timed region. The last line of stdout is one JSON object:
with --trace 0 it holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run interleaved with untraced passes. Details (inputs,
environment, failures, spans) go to `.perfbench/` in the checkout.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("spectral-small", "spectral-large", "holonomy", "vanishing")
SETUP_SAMPLES = 3
MIN_PASSES = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """One BLAS thread, capped at nproc: the runs are single-threaded by design."""
    threads = min(1, nproc())
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_thermoflow():
    src = ROOT / "src"
    if not (src / "thermoflow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no thermoflow sources under {src}")
    sys.path.insert(0, str(src))
    import thermoflow
    import thermoflow.cli  # noqa: F401  (its import cost belongs to set-up)
    if Path(thermoflow.__file__).resolve().parent != (src / "thermoflow").resolve():
        raise SystemExit(f"perfbench: imported thermoflow from {thermoflow.__file__}")
    return thermoflow


class Context:
    """What the workload functions need from the run: paths and CLI tasks."""

    def __init__(self, workdir: Path):
        self.root = ROOT
        self.workdir = workdir

    def cli_task(self, tid, command, config, check_report):
        """Run a bundled config through cli.main with the config's own seed."""
        from harness import Task, equal
        config_path = ROOT / "configs" / f"{config}.json"
        seed = json.loads(config_path.read_text())["seed"]
        calls = itertools.count()
        workdir = self.workdir

        def run(api):
            out = workdir / f"{tid}-{next(calls)}"
            return {"exit_code": api.call("cli.main", [command, "--config", str(config_path),
                                                       "--out", str(out)]),
                    "out": out}

        def check(out):
            report = json.loads((out["out"] / f"{command}_report.json").read_text())
            return ([equal("exit code", out["exit_code"], 0),
                     equal("report seed", report["seed"], seed)] + check_report(report))

        def counts(out):
            return {"cli.bytes_written": sum(p.stat().st_size for p in out["out"].iterdir())}

        return Task(tid, "cli", run, check, counts)


def build(tf, workload: str, seed: int, workdir: Path):
    import wl_holonomy
    import wl_spectral
    import wl_vanishing
    make = {"spectral-small": wl_spectral.build_small,
            "spectral-large": wl_spectral.build_large,
            "holonomy": wl_holonomy.build,
            "vanishing": wl_vanishing.build}[workload]
    return make(tf, seed, Context(workdir))


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import thermoflow and thermoflow.cli and generate the inputs."""
    t0 = time.perf_counter()
    tf = import_thermoflow()
    build(tf, workload, seed, OUT / "probe")
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> list:
    """Set-up times of fresh interpreters; each import must start cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def environment(blas_threads: int) -> dict:
    import numpy
    import platform
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc(), "blas_threads": blas_threads}


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    blas_threads = pin_blas_threads()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        print(f"{setup_probe(args.workload, args.seed):.9f}")
        return 0

    setup = measure_setup(args.workload, args.seed)
    tf = import_thermoflow()
    import harness
    from entries import entry_points
    workdir = OUT / f"work-{os.getpid()}"
    try:
        tasks, inputs = build(tf, args.workload, args.seed, workdir)
        entries = entry_points()
        run = harness.Run(tasks, harness.Api(entries))
        t0 = time.perf_counter()
        run.set_repetitions(run.one_pass(record=False))  # untimed warm-up
        warm_s = time.perf_counter() - t0
        spent, passes, last = 0.0, 0, warm_s
        while passes < MIN_PASSES or spent + last <= args.seconds:
            t0 = time.perf_counter()
            run.one_pass(traced=bool(args.trace) and passes % 2 == 1)
            last = time.perf_counter() - t0
            spent += last
            passes += 1
        selfcheck = run.self_check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = run.failed == 0 and selfcheck["failed_frac"] == 1.0
    failed_frac = run.failed / run.attempted
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(blas_threads),
              "inputs": inputs, "tasks": len(tasks), "warmup_s": warm_s,
              "check_s": run.check_s, "attempted": run.attempted, "failed": run.failed,
              "failed_frac": failed_frac, "failures": run.failure_log,
              "selfcheck": selfcheck, "setup_samples_s": setup, "repetitions": run.reps}
    spec = benchmark_spec()
    if args.trace:
        values = harness.layer_metrics(run, entries)
        names = spec["per_layer"]
        span_file = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        span_file.write_text(json.dumps(run.tracer.with_self_time()))
        record["span_file"] = str(span_file.relative_to(ROOT))
        record["traced_pass_walls_s"] = [sum(p) for p in run.pass_times[True]]
        extra = {}
    else:
        values = harness.pass_metrics(run.pass_times[False])
        values.update(setup_s=statistics.median(setup), peak_rss_mb=peak_rss_mb())
        names = spec["end_to_end"]
        extra = {"failed_frac": (failed_frac, "ratio")}
        print(f"task_tail is p{values['tail_percentile']:.1f} of {values['tasks_per_pass']} "
              f"tasks per pass; medians over {values['passes']} timed passes")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    timed = run.pass_times[False]
    record.update(metrics=metrics, extra={k: v[0] for k, v in extra.items()},
                  pass_walls_s=[sum(p) for p in timed],
                  task_ms={t.id: [p[i] * 1e3 for p in timed] for i, t in enumerate(tasks)})
    record_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=1, default=str))

    print(f"environment: {json.dumps(record['environment'])}")
    print(f"workload {args.workload} seed {args.seed}: {run.attempted} tasks attempted, "
          f"{run.failed} failed; self-check caught {selfcheck['failed_frac']:.0%} "
          f"of perturbed results")
    for f in run.failure_log[:10]:
        print(f"FAILED {f['task']} ({f['module']}): {'; '.join(f['failures'])}")
    rows = {**{k: (m["value"], m["unit"]) for k, m in metrics.items()}, **extra}
    for name, (value, unit) in rows.items():
        print(f"  {name:55s} {value:.6g} {unit}")
    print(f"details: {record_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
