"""The three benchmark workloads.

Each workload is a fixed unit of work (a *pass*) that `run.py`
repeats while the run's time lasts.  A pass returns its per-operation
latencies, its work count, its failures and a cycle fingerprint; the
fingerprint of every pass is checked against the pins in ``pins.json``
(taken from the parent commit) and between traced and untraced passes.

* ``paper_grid``: the 14 paper cells of Figures 5-7 through
  ``evaluate_many(unrolls="auto", verify=True)``, serial, no disk cache,
  baseline memo cleared before each pass.  Operation = one grid pass.
* ``fine_grain``: three simulations whose DThread bodies are tiny, so
  simulator overhead per instance dominates.  Operation = one pass of
  the three (each built, executed and verified); single simulations
  swing ±20% with the host's load, their sum much less.
* ``serve_mix``: an in-process ``tflux-serve`` (one worker, disk cache
  in a fresh directory) under two closed-loop tenants submitting
  one-job batches.  Operation = one request.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import random
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"

#: Figure id -> (platform name, kernels, PAPER attribute).
PAPER_FIGURES = (
    ("hard", 27, "fig5_large_27"),
    ("soft", 6, "fig6_best_6"),
    ("cell", 6, "fig7_best_6"),
)

#: fine_grain cells: id -> (platform, bench, size label, kernels, unroll).
FINE_CELLS = {
    "hard27_trapez": ("hard", "trapez", "large", 27, 1),
    "hard27_quad": ("hard", "quad", "large", 27, 1),
    "dist4x6_trapez": ("dist", "trapez", "small", 24, 1),
}

#: serve_mix: requests per tenant per pass, by class (25% / 15% / 60%).
SERVE_TENANTS = 2
SERVE_CLASSES = {"fresh": 15, "disk": 9, "repeat": 36}
#: Every pass requests the whole fresh pool (30 specs), in seeded order.
SERVE_FRESH_PER_PASS = SERVE_CLASSES["fresh"] * SERVE_TENANTS
#: Passes a serve_mix run makes at least (2 x 120 = 240 requests).
SERVE_MIN_PASSES = 2


def load_pins() -> dict[str, Any]:
    with open(PINS) as fh:
        return json.load(fh)


def make_platform(name: str):
    from repro.platforms import TFluxCell, TFluxDist, TFluxHard, TFluxSoft

    if name == "dist":
        return TFluxDist(nnodes=4)
    return {"hard": TFluxHard, "soft": TFluxSoft, "cell": TFluxCell}[name]()


@dataclass
class PassResult:
    """What one pass of a workload did."""

    latencies_ms: list[float] = field(default_factory=list)
    #: Work units completed (grid cells, simulated instances, requests).
    work: float = 0.0
    wall_s: float = 0.0
    #: Summed wall time of the threads that did the operations (the
    #: pass's one thread, or every tenant): what a traced run's self
    #: times must add up to.
    thread_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Deterministic outputs (cycles) keyed by operation id.
    fingerprint: dict[str, Any] = field(default_factory=dict)
    #: Per-layer metrics only the workload can compute, by metric name.
    extra: dict[str, float] = field(default_factory=dict)


# -- paper_grid ------------------------------------------------------------------

def paper_cells() -> list[tuple[str, Any, float]]:
    """(cell id, EvalRequest, printed paper value) for the 14 cells."""
    from repro.analysis.calibration import PAPER
    from repro.apps import problem_sizes
    from repro.exec import EvalRequest

    cells = []
    for plat_name, nkernels, attr in PAPER_FIGURES:
        platform = make_platform(plat_name)
        for bench, paper_value in getattr(PAPER, attr).items():
            req = EvalRequest(
                platform=platform,
                bench=bench,
                size=problem_sizes(bench, platform.target)["large"],
                nkernels=nkernels,
                unrolls="auto",
                verify=True,
            )
            cells.append((f"{plat_name}/{bench}", req, paper_value))
    return cells


def evaluation_fingerprint(ev) -> dict[str, Any]:
    """Every simulation of a cell, as pinned: the baseline's cycles, each
    simulated unroll's speedup (its measured cycles over that baseline)
    and the best run's cycles/region cycles."""
    return {
        "sequential_cycles": ev.sequential_cycles,
        "parallel_cycles": ev.parallel_cycles,
        "best_unroll": ev.best_unroll,
        "speedup": ev.speedup,
        "per_unroll": {str(u): s for u, s in sorted(ev.per_unroll.items())},
        "cycles": ev.result.cycles,
        "region_cycles": ev.result.region_cycles,
    }


def speedup_err_pct(speedups: dict[str, float], paper: dict[str, float]) -> float:
    """Mean |simulated - paper| / paper over the cells, in percent."""
    errs = [abs(speedups[c] - p) / p for c, p in paper.items()]
    return 100.0 * sum(errs) / len(errs)


class PaperGrid:
    name = "paper_grid"
    min_passes = 1
    #: passes each side (untraced, traced) of a --trace 1 run makes
    traced_passes = 1
    roots_in_threads = False

    def __init__(self, seed: int, pins: dict[str, Any]) -> None:
        self.pins = pins
        self.cells = paper_cells()

    def prepare(self, index: int) -> None:
        pass

    def run_pass(self, tracer=None) -> PassResult:
        from repro.exec import clear_baseline_memo, evaluate_many

        out = PassResult()
        speedups: dict[str, float] = {}
        sims = 0
        clear_baseline_memo()
        t_pass = time.perf_counter()
        for cell_id, req, _ in self.cells:
            out.attempted += 1
            try:
                (ev,) = evaluate_many([req], jobs=1, cache=None)
            except Exception as exc:  # verify failures raise here
                out.failures.append(f"{cell_id}: {type(exc).__name__}: {exc}")
                continue
            fp = evaluation_fingerprint(ev)
            out.fingerprint[cell_id] = fp
            speedups[cell_id] = ev.speedup
            sims += len(ev.per_unroll)
            if fp != self.pins["paper_grid"].get(cell_id):
                out.failures.append(f"{cell_id}: cycles differ from the pins")
        out.wall_s = out.thread_s = time.perf_counter() - t_pass
        out.latencies_ms.append(out.wall_s * 1e3)
        out.work = len(self.cells)
        paper = {cell_id: p for cell_id, _, p in self.cells}
        if len(speedups) == len(paper):
            err = speedup_err_pct(speedups, paper)
            out.extra["model.speedup_err_pct"] = err
            if err != self.pins["speedup_err_pct"]:
                out.failures.append(f"speedup_err_pct {err!r} differs from the pin")
        out.extra["exec.sims_per_cell"] = sims / len(self.cells)
        return out

    def close(self) -> None:
        pass


# -- fine_grain ------------------------------------------------------------------

class FineGrain:
    name = "fine_grain"
    min_passes = 1
    traced_passes = 3
    roots_in_threads = False

    def __init__(self, seed: int, pins: dict[str, Any]) -> None:
        from repro.apps import get_benchmark, problem_sizes

        self.pins = pins
        self.cells = []
        for cell_id, (plat, bench, size, nk, unroll) in FINE_CELLS.items():
            platform = make_platform(plat)
            b = get_benchmark(bench)
            self.cells.append(
                (cell_id, platform, b, problem_sizes(bench, platform.target)[size],
                 nk, unroll)
            )

    def prepare(self, index: int) -> None:
        pass

    def run_pass(self, tracer=None) -> PassResult:
        out = PassResult()
        t_pass = time.perf_counter()
        for cell_id, platform, bench, size, nk, unroll in self.cells:
            out.attempted += 1
            before = tracer.calls() if tracer is not None else None
            try:
                prog = bench.build(size, unroll=unroll)
                result = platform.execute(prog, nkernels=nk)
                bench.verify(result.env, size)
            except Exception as exc:
                out.failures.append(f"{cell_id}: {type(exc).__name__}: {exc}")
                continue
            fp = {
                "cycles": result.cycles,
                "region_cycles": result.region_cycles,
                "instances": result.total_dthreads,
            }
            out.fingerprint[cell_id] = fp
            out.work += result.total_dthreads
            if fp != self.pins["fine_grain"].get(cell_id):
                out.failures.append(f"{cell_id}: cycles differ from the pins")
            if tracer is not None:
                out.extra.update(
                    _cell_breakdown(cell_id, before, tracer.calls(), result))
        out.wall_s = out.thread_s = time.perf_counter() - t_pass
        out.latencies_ms.append(out.wall_s * 1e3)
        out.extra["exec.sims_per_cell"] = 1.0
        return out

    def close(self) -> None:
        pass


def _cell_breakdown(cell_id: str, before: dict, after: dict, result
                    ) -> dict[str, float]:
    """Per-instance engine events, factory calls and scheduled-event
    sources of one simulation."""
    from layers import EVENT_KINDS, SCHEDULE_SOURCES

    n = result.total_dthreads
    row = {f"fine.{cell_id}.events_per_instance":
           result.counters.as_dict().get("engine.events", 0) / n}
    for kind, key in EVENT_KINDS:
        row[f"fine.{cell_id}.{kind}_per_instance"] = (
            after.get(key, 0) - before.get(key, 0)) / n
    for src in SCHEDULE_SOURCES:
        key = f"Engine._schedule.{src}"
        row[f"fine.{cell_id}.sched_{src}_per_instance"] = (
            after.get(key, 0) - before.get(key, 0)) / n
    return row


def fine_metric_names() -> list[str]:
    """The per-cell event-kind metrics of the traced fine_grain run."""
    from layers import EVENT_KINDS, SCHEDULE_SOURCES

    kinds = (["events"] + [kind for kind, _ in EVENT_KINDS]
             + [f"sched_{src}" for src in SCHEDULE_SOURCES])
    return [f"fine.{cell}.{kind}_per_instance" for cell in FINE_CELLS for kind in kinds]


# -- serve_mix -------------------------------------------------------------------

def spec_key(bench: str, platform: str, nkernels: int, unroll: int) -> str:
    return f"{bench}/{platform}/{nkernels}/{unroll}"


def spec_wire(key: str) -> dict[str, Any]:
    from repro.serve.protocol import job_to_wire

    bench, platform, nk, unroll = key.split("/")
    return job_to_wire(bench, platform=platform, nkernels=int(nk),
                       unroll=int(unroll), verify=True)


def serve_stream(seed: int, pass_index: int, pools: dict[str, list[str]]
                 ) -> list[list[tuple[str, str]]]:
    """Per tenant, the pass's requests as ``(class, spec key)``.

    Every pass requests the whole fresh pool; disk specs are drawn
    without replacement.  Neither is shared between tenants, and a
    repeat re-requests a spec the same tenant asked for earlier in the
    pass, so it is always answered from the LRU.  The seed changes the
    order, the tenant split, the disk specs and the repeats, never the
    class shares or the set of simulations a pass runs.
    """
    rng = random.Random(f"serve_mix:{seed}:{pass_index}")
    fresh = rng.sample(pools["fresh"], SERVE_FRESH_PER_PASS)
    disk = rng.sample(pools["disk"], SERVE_CLASSES["disk"] * SERVE_TENANTS)
    streams = []
    for t in range(SERVE_TENANTS):
        kinds = [k for k, n in SERVE_CLASSES.items() for _ in range(n)]
        rng.shuffle(kinds)
        first = next(i for i, k in enumerate(kinds) if k != "repeat")
        kinds[0], kinds[first] = kinds[first], kinds[0]
        own = {
            "fresh": iter(fresh[t::SERVE_TENANTS]),
            "disk": iter(disk[t::SERVE_TENANTS]),
        }
        history: list[str] = []
        stream = []
        for kind in kinds:
            key = rng.choice(history) if kind == "repeat" else next(own[kind])
            history.append(key)
            stream.append((kind, key))
        streams.append(stream)
    return streams


class ServeMix:
    name = "serve_mix"
    min_passes = SERVE_MIN_PASSES
    traced_passes = 1
    roots_in_threads = True

    def __init__(self, seed: int, pins: dict[str, Any], scratch: Path) -> None:
        from repro.serve import ServeConfig

        self.seed = seed
        self.scratch = scratch
        pins = pins["serve"]
        self.pools = {k: sorted(pins[k]) for k in ("fresh", "disk")}
        self.cycles = {**pins["fresh"], **pins["disk"]}
        self.config = ServeConfig(workers=1)
        self.streams: list[list[tuple[str, str]]] = []
        self.handle = None
        self.cache_dir: Optional[str] = None
        self.cores = sorted(os.sched_getaffinity(0))
        self._pin_benchmark()

    def _pin_benchmark(self) -> None:
        """One core simulates, the others serve.

        With the pool worker free to run on every core, the kernel
        queues woken server and client threads behind the busy worker
        for a scheduler slice (3-5 ms), which put a second mode into the
        ~1 ms LRU-hit latencies and moved their median by up to 2x from
        run to run.  So this thread is pinned to all allowed cores but
        the last before any server starts: the server's event-loop
        thread and the tenant threads inherit that mask, and
        :meth:`_start_server` moves the pool worker to the last core.
        On one core nothing is pinned.
        """
        if len(self.cores) >= 2:
            os.sched_setaffinity(0, self.cores[:-1])

    def _start_server(self, streams) -> None:
        """A server on a fresh disk cache that already holds the disk-class
        specs of *streams*."""
        from repro.exec import ResultCache
        from repro.exec.pool import pool_context
        from repro.serve import serve_in_thread

        self.cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=self.scratch)
        keys = [key for stream in streams for kind, key in stream if kind == "disk"]
        # A child runs the fixture simulations, so they stay out of this
        # process's peak RSS: the served simulations run in the pool worker.
        filler = pool_context().Process(target=fill_cache, args=(self.cache_dir, keys))
        filler.start()
        filler.join()
        if filler.exitcode != 0:
            raise RuntimeError(f"disk-cache fixture failed (exit {filler.exitcode})")
        self.cache = ResultCache(self.cache_dir)
        self.handle = serve_in_thread(self.config, cache=self.cache)
        if len(self.cores) >= 2:
            for child in multiprocessing.active_children():
                os.sched_setaffinity(child.pid, self.cores[-1:])

    def _stop_server(self) -> None:
        if self.handle is not None:
            self.handle.stop()
            self.handle = None
            # the server shuts its pool down without waiting: reap the worker
            for child in multiprocessing.active_children():
                child.join(timeout=30)
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def prepare(self, index: int) -> None:
        """Untimed: the pass's request stream, and a new server whose disk
        cache holds the pass's disk-class specs."""
        self.streams = serve_stream(self.seed, index, self.pools)
        self._start_server(self.streams)

    def run_pass(self, tracer=None) -> PassResult:
        from repro.serve import ServeClient

        streams = self.streams
        out = PassResult()
        records: list[list[tuple[str, float]]] = [[] for _ in streams]
        outcomes: dict[str, Any] = {}
        lock = threading.Lock()
        errors: list[BaseException] = []
        clients = [ServeClient(self.handle.address, tenant=f"tenant{t}")
                   for t in range(len(streams))]
        start = threading.Barrier(len(streams) + 1)
        walls = [0.0] * len(streams)

        def tenant(t: int) -> None:
            try:
                start.wait()
                t0 = time.perf_counter()
                with tracer.root() if tracer is not None else nullcontext():
                    self._tenant_loop(clients[t], streams[t], records[t],
                                      out, outcomes, lock)
                walls[t] = time.perf_counter() - t0
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=tenant, args=(t,)) for t in range(len(streams))]
        for th in threads:
            th.start()
        start.wait()
        t0 = time.perf_counter()
        for th in threads:
            th.join()
        out.wall_s = time.perf_counter() - t0
        out.thread_s = sum(walls)
        stats = clients[0].stats()
        for client in clients:
            client.close()
        self._stop_server()
        if errors:
            raise errors[0]
        by_class: dict[str, list[float]] = {k: [] for k in SERVE_CLASSES}
        for rec in records:
            for kind, ms in rec:
                by_class[kind].append(ms)
                out.latencies_ms.append(ms)
        out.work = len(out.latencies_ms)
        counters = stats["counters"]
        admitted = counters.get("serve.admitted", 0)
        hits = counters.get("exec.cache.hits", 0)
        misses = counters.get("exec.cache.misses", 0)
        fresh = sum(1 for s in streams for kind, _ in s if kind == "fresh")
        out.extra.update({
            **{f"serve.{k}_p50_ms": statistics.median(v) for k, v in by_class.items() if v},
            "serve.dedup_ratio": (counters.get("serve.deduped", 0)
                                  + counters.get("serve.lru_hits", 0)) / admitted
            if admitted else 0.0,
            "serve.executed": stats["executed"],
            "serve.rejected": counters.get("serve.rejected", 0),
            "exec.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "exec.sims_per_cell": stats["executed"] / fresh,
            "exec.outcome_bytes": statistics.mean(
                len(pickle.dumps(o)) for o in outcomes.values()) if outcomes else 0.0,
        })
        return out

    def _tenant_loop(self, client, stream, records, out: PassResult,
                     outcomes: dict, lock: threading.Lock) -> None:
        for kind, key in stream:
            t0 = time.perf_counter()
            try:
                result = client.submit([spec_wire(key)])
            except (OSError, ValueError) as exc:  # lost connection, bad reply
                with lock:
                    out.attempted += 1
                    out.failures.append(f"{key}: {type(exc).__name__}: {exc}")
                continue
            ms = (time.perf_counter() - t0) * 1e3
            failure = None
            if result.status != "done":
                failure = f"{key}: {result.status} {result.message}"
            elif result.errors:
                failure = f"{key}: job_error {result.errors[0]}"
            else:
                outcome = result.outcomes[0]
                got = [outcome.cycles, outcome.region_cycles]
                if got != self.cycles[key]:
                    failure = f"{key}: cycles {got} differ from the pins"
            records.append((kind, ms))  # failed answers count in latency too
            with lock:
                out.attempted += 1
                if failure is not None:
                    out.failures.append(failure)
                else:
                    outcomes[key] = result.outcomes[0]
                    out.fingerprint[f"{kind}:{key}"] = got

    def close(self) -> None:
        self._stop_server()
        os.sched_setaffinity(0, self.cores)


def fill_cache(cache_dir: str, keys: list[str]) -> None:
    """Run each serve spec in *keys* and store its outcome in the disk
    cache at *cache_dir* (the serve_mix ``disk`` fixture)."""
    from repro.exec import ResultCache, run_job, spec_digest
    from repro.serve.protocol import job_from_wire

    cache = ResultCache(cache_dir)
    for key in keys:
        spec = job_from_wire(spec_wire(key))
        cache.put(spec_digest(spec), run_job(spec))


def make(name: str, seed: int, scratch: Path):
    pins = load_pins()
    if name == "paper_grid":
        return PaperGrid(seed, pins)
    if name == "fine_grain":
        return FineGrain(seed, pins)
    if name == "serve_mix":
        return ServeMix(seed, pins, scratch)
    raise KeyError(name)


WORKLOADS = ("paper_grid", "fine_grain", "serve_mix")


# -- set-up probe (runs in a child process) --------------------------------------

def setup_probe(name: str) -> None:
    """What a user pays before the workload can start: imports and a
    warm-up simulation, or for ``serve_mix`` a started server with a
    warm pool answering a connection."""
    if name == "serve_mix":
        from repro.serve import ServeClient, ServeConfig, serve_in_thread

        handle = serve_in_thread(ServeConfig(workers=1), cache=None)
        try:
            ServeClient(handle.address, tenant="probe").close()
        finally:
            handle.stop()
        return
    import repro.analysis.calibration  # noqa: F401  (paper_grid's cells)
    from repro.apps import get_benchmark, problem_sizes
    from repro.exec import evaluate_many  # noqa: F401

    platform = make_platform("hard")
    bench = get_benchmark("trapez")
    size = problem_sizes("trapez", platform.target)["small"]
    result = platform.execute(bench.build(size, unroll=64), nkernels=2)
    bench.verify(result.env, size)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of *values*."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def scratch_dir(root: Path) -> Path:
    path = root / ".bench_build" / "perfbench"
    path.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=path))
