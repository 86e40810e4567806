"""Run one benchmark workload for one seed and print its metrics.

    python3 bench/run.py --workload sector-energy --seed 1 --seconds 28 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
workload's task table (see ``workloads.py``) is drawn from the seed and
run in this process, one task after another, as a closed loop with one
client: whole passes over the table repeat while another pass still fits
in ``--seconds`` (at least one pass runs).

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` wraps the package's public functions and the scipy kernels
they call (``spans.py``), reports the per-layer metrics averaged per pass,
and writes the spans to ``.bench_out/``.  Human-readable lines name every
metric with its unit; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` (checks) and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# the names of workloads.WORKLOADS, which cannot be imported before the
# BLAS thread cap is set
WORKLOADS = ("sector-energy", "annulus-onset", "stability-curves",
             "defect-oracle")
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="BLAS thread cap (default: the CPUs this process may use)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.threads is not None and not 1 <= args.threads <= 64:
        p.error("--threads must lie in 1..64")
    return args


def cap_blas_threads(threads: int) -> None:
    """Must run before numpy is first imported; child processes inherit it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def environment(threads: int) -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError):
            return None
        return f"{dep.get('name')} {dep.get('version')}"

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "blas_threads": threads}


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import the package and its CLI
    and draw the workload's table."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                        workload, str(seed)],
                       check=True, timeout=120, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def run_passes(tasks, seconds: float, check_type, tracer=None):
    """Repeat the table while another pass fits; returns per-pass records
    (pass seconds, task seconds, checks)."""
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        task_times, checks = [], []
        for i, task in enumerate(tasks):
            if tracer is not None:
                tracer.task_id = i
            t0 = time.perf_counter()
            try:
                result = task.run()
            except (Exception, SystemExit) as exc:
                task_times.append(time.perf_counter() - t0)
                checks.append(check_type(
                    f"{task.name} raised {type(exc).__name__}: {exc}", False))
                continue
            task_times.append(time.perf_counter() - t0)
            try:
                checks.extend(task.check(result))
            except Exception as exc:
                checks.append(check_type(
                    f"{task.name}: check raised {type(exc).__name__}: {exc}",
                    False))
        passes.append((time.perf_counter() - pass_start, task_times, checks))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p[0] for p in passes) > seconds:
            return passes


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "annulus_nematics" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    threads = args.threads or len(os.sched_getaffinity(0))
    cap_blas_threads(threads)
    sys.path[:0] = [str(SRC), str(HERE)]

    setup_times = measure_setup(args.workload, args.seed) if not args.trace else []

    import spans
    import workloads

    env = environment(threads)
    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        ctx = workloads.Context(run_dir)
        tasks = workloads.build(args.workload, args.seed, ctx)
        if tracer is not None:
            ctx.invoke = tracer.install(invoke_cli=ctx.invoke_cli)
        try:
            passes = run_passes(tasks, args.seconds, workloads.Check, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # each task's median over the passes filters bursts of machine noise
    task_medians = [statistics.median(ts) for ts in zip(*(p[1] for p in passes))]
    checks = [c for p in passes for c in p[2]]
    failed = [c for c in checks if not c.ok]
    errs = [c.rel_err for c in checks
            if c.rel_err is not None and math.isfinite(c.rel_err)]
    wall = sum(task_medians)

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} pass(es) "
          f"of {len(tasks)} tasks, trace {args.trace}, BLAS threads {threads}")
    print(f"wall_s = {wall!r} s (one table: sum of per-task medians over "
          f"{len(passes)} passes{', traced' if tracer else ''})")
    print(f"failed_frac = {len(failed) / len(checks)!r} 1 "
          f"({len(failed)} of {len(checks)} checks)")
    print(f"max_rel_err = {max(errs, default=0.0)!r} 1 "
          f"(over {len(errs)} checks with a reference value)")
    for task, t in zip(tasks, task_medians):
        print(f"task {task.name}: {t!r} s")
    for name in sorted({c.name for c in failed}):
        known = " [known defect]" if name in workloads.KNOWN_DEFECTS else ""
        print(f"failed check: {name}{known}")
    print("environment " + json.dumps(env))

    if tracer is None:
        values = {
            "wall_s": metric(wall, "s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MiB"),
        }
        print(f"task_p50_s = {statistics.median(task_medians)!r} s "
              f"(median over {len(task_medians)} tasks of each task's median)")
        print(f"setup_s = {values['setup_s']['value']!r} s "
              f"(median of {len(setup_times)} fresh interpreters)")
        print(f"peak_rss_mb = {values['peak_rss_mb']['value']!r} MiB")
    else:
        tracer.counters["cli.bytes_written"] = ctx.bytes_written
        layer = tracer.layer_metrics(len(passes))
        values = {name: metric(v, spans.metric_unit(name))
                  for name, v in layer.items()}
        shares = tracer.layer_shares()
        for name, share in list(shares.items())[:8]:
            print(f"self-time share {name} = {share:.4f}")
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_file, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "environment": env, "passes": len(passes),
                       "tasks": [t.name for t in tasks],
                       "self_time_shares": shares,
                       "spans": tracer.dump()}, fh)
        print(f"spans written to {trace_file.relative_to(ROOT)}")

    result = {"correct": all(c.name in workloads.KNOWN_DEFECTS for c in failed),
              "attempted": len(checks), "failed": len(failed),
              "metrics": values}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
