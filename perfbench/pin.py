#!/usr/bin/env python3
"""Regenerate ``perfbench/pins.json``: the cycles every workload must
reproduce bit for bit.

Run it only at a commit whose cycles are the accepted reference (the
pins are a correctness contract, not a cache)::

    python3 perfbench/pin.py

It re-pins the cycles of every simulation and keeps the serve pools
already in ``pins.json``; only when there are none yet does it select
them.  Changing the pools changes the serve_mix workload, so do that by
editing ``pins.json`` on purpose (or deleting its ``serve`` entry).

The serve pools split the serve job space (paper apps x hard/soft/cell
x 2-6 kernels x unroll 1/2/4, small inputs) by measured job cost (median
of three runs): ``fresh`` is the 30 cheapest specs costing at least
150 ms, and every serve_mix pass requests all of them, so the work of a
pass does not depend on the seed; ``disk`` is the 60 cheapest specs, so
filling the disk cache before timing stays quick.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

FRESH_MIN_MS = 150.0
DISK_POOL = 60


def serve_space() -> list[str]:
    return [
        workloads.spec_key(bench, platform, nk, unroll)
        for bench in ("trapez", "mmult", "qsort", "susan", "fft")
        for platform in ("hard", "soft", "cell")
        for nk in range(2, 7)
        for unroll in (1, 2, 4)
    ]


def run_spec(key: str):
    from repro.exec import run_job
    from repro.serve.protocol import job_from_wire

    spec = job_from_wire(workloads.spec_wire(key))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        outcome = run_job(spec)
        times.append(time.perf_counter() - t0)
    return [outcome.cycles, outcome.region_cycles], statistics.median(times)


def main() -> int:
    from repro.exec import clear_baseline_memo, evaluate_many

    old = workloads.load_pins() if workloads.PINS.exists() else {}
    pins: dict = {"paper_grid": {}, "fine_grain": {}, "serve": {}}

    clear_baseline_memo()
    speedups, paper = {}, {}
    for cell_id, req, paper_value in workloads.paper_cells():
        (ev,) = evaluate_many([req], jobs=1, cache=None)
        pins["paper_grid"][cell_id] = workloads.evaluation_fingerprint(ev)
        speedups[cell_id], paper[cell_id] = ev.speedup, paper_value
    pins["speedup_err_pct"] = workloads.speedup_err_pct(speedups, paper)

    fine = workloads.FineGrain(seed=0, pins={"fine_grain": {}})
    pins["fine_grain"] = fine.run_pass().fingerprint

    if "serve" not in old:
        timed = {key: run_spec(key) for key in serve_space()}
        by_cost = sorted(timed, key=lambda k: timed[k][1])
        fresh = [k for k in by_cost if timed[k][1] * 1e3 >= FRESH_MIN_MS][
            :workloads.SERVE_FRESH_PER_PASS]
        disk = by_cost[:DISK_POOL]
        pins["serve"] = {
            "fresh": {k: timed[k][0] for k in sorted(fresh)},
            "disk": {k: timed[k][0] for k in sorted(disk)},
        }
    else:
        pins["serve"] = {
            pool: {k: run_spec(k)[0] for k in sorted(old["serve"][pool])}
            for pool in ("fresh", "disk")
        }

    with open(workloads.PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.PINS}: {len(pins['paper_grid'])} grid cells, "
          f"{len(pins['fine_grain'])} fine cells, "
          f"{len(pins['serve']['fresh'])} fresh + "
          f"{len(pins['serve']['disk'])} disk serve specs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
