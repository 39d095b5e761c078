"""twodist benchmark: color one graph and check it, on seeded workloads.

    python3 bench/run.py --workload corpus --seed 1 --seconds 5 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5

Run from the repository root; the package is imported from ``src/``.  One
workload runs in one single-threaded process.  ``--workload all`` runs each
workload in its own child process, one after another, and prints a table.

With ``--trace 0`` an untimed pass with a RunTrace checks every graph and
counts its steps, then the timed phase runs whole passes over the pool
until at least ``--seconds`` have elapsed, coloring as the CLI does, and
the result carries the end-to-end metrics.  With ``--trace 1`` it runs
one untraced and one traced pass over the same pool and reports the
per-layer metrics of ``layers.Tracer`` plus the tracing overhead.  Either
way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the seed, interpreter, CPU count, output digest and, when traced,
the exact counts.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("corpus", "scale", "hunt", "flip")
SETUP_REPEATS = 5
CALIBRATION_INTERVAL_S = 0.02
END_TO_END_UNITS = {
    "setup_s": "s",
    "graphs_per_s": "1/s",
    "steps_per_s": "1/s",
    "graph_p50_ms": "ms",
    "growth_exponent": "slope",
    "peak_rss_mb": "MB",
}
TRACE_UNITS = {
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.overhead": "ratio",
}
P90_MIN_SAMPLES = 100  # so that at least ten samples lie beyond p90


def growth_exponent(samples) -> float:
    """Least-squares slope of log(scaled color time) against log(n)."""
    timed = [s for s in samples if s.color_s > 0]
    if len({s.n for s in timed}) < 2:
        return 0.0
    xs = [math.log(s.n) for s in timed]
    ys = [math.log(s.color_s * s.scale) for s in timed]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def timed_run(runner, pool, seconds: int):
    """One untimed traced pass over the pool, for the step counts, the gap
    check and the digest, then whole untraced passes until `seconds` have
    passed, calibrated on a timer as well as between graphs.  hunt colors
    with the hunter's RunTrace anyway, so its first timed pass serves as
    the traced one."""
    import workloads

    checked = [] if runner.always_traced else runner.run_pass(pool, traced=True)
    passes, samples = 0, []
    t0 = time.perf_counter()
    with runner.meter.ticking(CALIBRATION_INTERVAL_S):
        while not passes or time.perf_counter() - t0 < seconds:
            samples += runner.run_pass(pool)
            passes += 1
    elapsed = time.perf_counter() - t0
    reference = checked or samples[: len(pool)]
    workloads.against(reference, samples)
    # a failed graph makes the run incorrect; its time is left out
    ok = [s for s in samples if s.failure is None] or samples
    busy = sum(s.graph_s * s.scale for s in ok) or math.inf
    graph_ms = sorted(1000 * s.graph_s * s.scale for s in ok)
    metrics = {
        "graphs_per_s": len(ok) / busy,
        "steps_per_s": sum(s.steps for s in ok) / busy,
        "graph_p50_ms": statistics.median(graph_ms),
        "growth_exponent": growth_exponent(ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "graphs": len(samples),
        "passes": passes,
        "graph_p90_ms": (
            statistics.quantiles(graph_ms, n=10)[-1]
            if len(graph_ms) >= P90_MIN_SAMPLES
            else None
        ),
        "wall_s": elapsed,
        "wall_graphs_per_s": len(samples) / elapsed,
        "wall_graph_p50_ms": 1000 * statistics.median(s.graph_s for s in samples),
        "host_speed_median": statistics.median(s.scale for s in samples),
    }
    return metrics, checked + samples, workloads.digest(reference), extra


def traced_run(runner, pool, seed: int):
    """One untraced and one traced pass over the same pool.  The traced
    pass runs under the layer tracer and colors with a RunTrace."""
    import layers
    import workloads

    t0 = time.perf_counter()
    untraced = runner.run_pass(pool)
    untraced_s = time.perf_counter() - t0
    tracer = layers.Tracer()
    tracer.install()
    try:
        pool = workloads.make_pool(runner.workload, seed)
        t0 = time.perf_counter()
        traced = runner.run_pass(pool, traced=True)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    workloads.against(traced, untraced)
    metrics = tracer.metrics()
    metrics["trace.untraced_pass_s"] = untraced_s
    metrics["trace.traced_pass_s"] = traced_s
    metrics["trace.overhead"] = traced_s / untraced_s
    extra = {"exact_counts": tracer.exact_counts()}
    return metrics, untraced + traced, workloads.digest(traced), extra


def run_workload(args) -> int:
    start = time.perf_counter()
    import hostspeed
    import layers
    import workloads
    import_s = time.perf_counter() - start

    w = args.workload
    # set-up: import once, then build the pool and warm up several times;
    # all of it is scaled by the reference timings taken during set-up
    meter = hostspeed.Meter()
    runner = workloads.Runner(w, meter)
    rounds = []
    with runner:
        for _ in range(SETUP_REPEATS):
            t0, spent = time.perf_counter(), meter.spent
            pool = workloads.make_pool(w, args.seed)
            warm = runner.run_pass([workloads.warmup_item(w, args.seed)])
            rounds.append(time.perf_counter() - t0 - (meter.spent - spent))
        setup_s = (import_s + statistics.median(rounds)) * meter.scale_since(0)

        if args.trace:
            metrics, samples, digest, extra = traced_run(runner, pool, args.seed)
            units = dict(layers.metric_names()) | TRACE_UNITS
        else:
            metrics, samples, digest, extra = timed_run(runner, pool, args.seconds)
            metrics = {"setup_s": setup_s} | metrics
            units = END_TO_END_UNITS

    samples = warm + samples
    failures = [s.failure for s in samples if s.failure]
    info = {
        "workload": w,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "fail_ratio": len(failures) / len(samples),
        "failures": failures[:5],
        "digest": digest,
        **extra,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in its own child process, one at a time."""
    status = 0
    rows = []
    for w in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", w, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode:
            print(f"{w}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
        if len(lines) < 2:
            continue
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
        rows.append((w, "fail_ratio", info["fail_ratio"], "ratio"))
        if info.get("graph_p90_ms") is not None:
            rows.append((w, "graph_p90_ms", info["graph_p90_ms"], "ms"))
        for name, m in result["metrics"].items():
            rows.append((w, name, m["value"], m["unit"]))
        rows.append((w, "digest", info["digest"], ""))
    for w, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{w:8s} {name:44s} {shown:>16s} {unit}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "twodist" / "__init__.py").is_file():
        print(f"twodist sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
