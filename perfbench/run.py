#!/usr/bin/env python3
"""TFlux benchmark entry point: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the workload's fixed work once untraced and once
with every layer's entry points wrapped, and reports per-layer metrics.
Human-readable progress goes to stderr; the last stdout line is the
result object (``correct``, ``attempted``, ``failed``, ``metrics``).
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
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

#: End-to-end metrics (every workload reports each; see README.md).
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: A seed kept back from tuning, for checking performance claims.
HOLDOUT_SEED = 9973

#: Set-up probes per run (their median is ``setup_s``).
SETUP_REPEATS = 5

#: How far the self times of a traced run may sum from the wall time
#: measured around them (a share of that wall time).  Only the root
#: spans' own entry and exit fall between the two.
TRACE_WALL_TOLERANCE = 0.01

#: Environment knobs that change what the program does.  Each run
#: clears them and pins ``TFLUX_JOBS`` to serial, so a user's shell
#: cannot turn the grid into cache reads or a parallel sweep; BLAS is
#: pinned to one thread so a "serial" run really uses one core.
ENV_CLEARED_PREFIXES = ("TFLUX_SERVE_",)
ENV_CLEARED = ("TFLUX_CACHE_DIR", "TFLUX_FASTPATH", "TFLUX_BENCH_FULL")
ENV_SET = {
    "TFLUX_JOBS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def isolate_environment() -> dict[str, str]:
    """Clear or pin every ``TFLUX_*`` knob and the BLAS thread count
    (before NumPy is imported); returns the values in force."""
    for key in list(os.environ):
        if key in ENV_CLEARED or key.startswith(ENV_CLEARED_PREFIXES):
            del os.environ[key]
    os.environ.update(ENV_SET)
    return {k: v for k, v in sorted(os.environ.items())
            if k.startswith("TFLUX_") or k in ENV_SET}


def host_fingerprint() -> dict[str, str]:
    import numpy

    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def measure_setup(workload: str) -> float:
    """Median wall time of fresh processes reaching a warm start."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-child", workload],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=120, check=False,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_measured(work, seconds: float):
    """Untraced passes while the time lasts (at least the workload's
    minimum); returns the passes."""
    passes = []
    t0 = time.perf_counter()
    min_passes = work.min_passes
    while True:
        work.prepare(len(passes))
        passes.append(work.run_pass())
        elapsed = time.perf_counter() - t0
        mean_pass = elapsed / len(passes)
        if len(passes) >= min_passes and elapsed + mean_pass > seconds:
            return passes


def end_to_end_metrics(passes, setup_s: float) -> dict[str, float]:
    from workloads import percentile

    latencies = [ms for p in passes for ms in p.latencies_ms]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    return {
        "setup_s": setup_s,
        "throughput_per_s": statistics.median(p.work / p.wall_s for p in passes),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p95_ms": percentile(latencies, 95),
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }


def run_traced(work):
    """The same fixed work untraced, then traced; per-layer metrics.

    Returns (all passes, failures found by the trace checks, metrics).
    """
    import layers
    from tracer import Tracer
    from workloads import fine_metric_names

    n = work.traced_passes
    untraced = []
    for i in range(n):
        work.prepare(i)
        untraced.append(work.run_pass())
    tracer = Tracer()
    sims, serve = layers.SimTotals(), layers.ServeProbe()
    traced, problems = [], []
    for i in range(n):
        work.prepare(i)  # fixtures (servers, disk-cache entries) stay untraced
        patched = []
        try:
            layers.install(tracer, sims, serve)
            patched = tracer.patches
            if work.roots_in_threads:  # each client thread opens its root
                traced.append(work.run_pass(tracer))
            else:
                with tracer.root():
                    traced.append(work.run_pass(tracer))
        finally:
            tracer.uninstall()
        if not Tracer.is_restored(patched):
            problems.append("trace wrappers were not removed")
    for a, b in zip(untraced, traced):
        if a.fingerprint != b.fingerprint:
            problems.append("traced cycles differ from the untraced run")
    # The layers' self times plus the unattributed (root) self time, in
    # the threads that did the operations, must add up to the wall time
    # the workload measured for those threads: a span left open loses
    # time, a layer running outside a root span adds some.
    wall = sum(p.thread_s for p in traced)
    attributed = sum(tracer.rooted_self_seconds().values())
    if abs(attributed - wall) > TRACE_WALL_TOLERANCE * wall:
        problems.append(
            f"self times sum to {attributed:.4f} s, not to the traced "
            f"wall time {wall:.4f} s")
    metrics = layers.layer_metrics(tracer, sims, serve, n, wall)
    metrics.update(dict.fromkeys(fine_metric_names(), 0.0))
    metrics["trace.overhead_ratio"] = (
        sum(p.wall_s for p in traced) / sum(p.wall_s for p in untraced))
    metrics.update({k: float(v) for k, v in traced[-1].extra.items()})
    return untraced + traced, problems, metrics


def per_layer_units() -> dict[str, str]:
    import layers
    from workloads import fine_metric_names

    return {**layers.PER_LAYER, **{m: "count" for m in fine_metric_names()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    env = isolate_environment()
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import repro
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.setup_child:
        workloads.setup_probe(args.setup_child)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    log(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} env={env} host={host_fingerprint()}")
    setup_s = 0.0 if args.trace else measure_setup(args.workload)
    scratch = workloads.scratch_dir(ROOT)
    work = None
    try:
        work = workloads.make(args.workload, args.seed, scratch)
        if args.trace:
            passes, problems, metrics = run_traced(work)
            units = per_layer_units()
        else:
            passes, problems = run_measured(work, args.seconds), []
            metrics = end_to_end_metrics(passes, setup_s)
            units = END_TO_END
    finally:
        if work is not None:
            work.close()
        shutil.rmtree(scratch, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics and BENCHMARK.json disagree: "
                           f"{sorted(set(metrics) ^ set(units))}")
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures] + problems
    for failure in failures[:20]:
        log(f"FAILED {failure}")
    log(f"{len(passes)} passes, {attempted} operations, "
        f"{sum(len(p.latencies_ms) for p in passes)} latency samples")
    for key, value in metrics.items():
        log(f"{key:40s} {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
