"""The TFlux layer map: which entry points belong to which layer, and
how the traced run turns spans and counts into per-layer metrics.

Each layer is timed at its public entry points (plus the DES process
bodies that carry its work: adapter emulator loops, network transfers).
A metric whose layer the workload never reaches reads 0.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from tracer import ROOT, Tracer

#: Engine factory calls counted per instance (the event-kind breakdown).
EVENT_KINDS = (
    ("timeout", "Engine.timeout"),
    ("event", "Engine.event"),
    ("process", "Engine.process"),
    ("all_of", "Engine.all_of"),
    ("resource_request", "Resource.request"),
)

#: Where the engine's scheduled events come from (``Engine._schedule``
#: calls by callback).  The factories above create few of them: most are
#: process resumptions scheduled by ``Process._dispatch`` and event
#: deliveries.  The five sources cover every scheduled event, so per
#: instance they add up to ``engine.scheduled`` / instances.
SCHEDULE_SOURCES = (
    # Process._resume with nothing to send: a process started or
    # yielded a cycle delay
    "delay",
    # Process._resume with a value: a waiting process woken by the
    # event (or process) it yielded
    "wake",
    # Timeout._fire
    "timeout",
    # Resource._lazy_release: a lazily held slot freed as an event
    "release",
    # anything else: all_of joins, add_callback callbacks, mailboxes
    "callback",
)

_ADAPTER_METHODS = (
    "fetch", "complete_inlet", "resolve_dynamic", "complete_thread",
    "complete_outlet", "thread_memory_cycles",
    # the adapters' own DES process bodies (emulator / PPE loops)
    "_emulator_proc", "_ppe_proc", "_post_process",
)
_GROUP_METHODS = (
    "fetch", "has_work", "complete_inlet", "complete_thread", "complete_outlet",
)


@dataclass
class SimTotals:
    """Sums over the parallel simulations that finished in-process."""

    instances: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    accesses: int = 0
    l1_hits: int = 0
    fetches: int = 0
    waits: int = 0

    def add(self, result: Any) -> None:
        self.instances += result.total_dthreads
        for key, value in result.counters.as_dict().items():
            self.counters[key] = self.counters.get(key, 0) + value
        if result.memory is not None:
            self.accesses += result.memory.accesses
            self.l1_hits += result.memory.l1_hits
        self.fetches += sum(k.fetches for k in result.kernels)
        self.waits += sum(k.waits for k in result.kernels)


@dataclass
class ServeProbe:
    """FairScheduler queue waits, measured from submit to next."""

    submitted: dict[int, float] = field(default_factory=dict)
    waits_ms: list[float] = field(default_factory=list)

    def on_submit(self, admitted: Any, args: tuple) -> None:
        if admitted:
            self.submitted[id(args[2])] = time.perf_counter()

    def on_next(self, entry: Any, args: tuple) -> None:
        if entry is not None:
            t0 = self.submitted.pop(id(entry[1]), None)
            if t0 is not None:
                self.waits_ms.append((time.perf_counter() - t0) * 1e3)


def install(tracer: Tracer, sims: SimTotals, serve: ServeProbe) -> None:
    """Wrap every layer's entry points, feeding the result collectors."""
    import repro.apps
    from repro.cell.adapter import CellTSUAdapter
    from repro.core.dthread import DThreadTemplate
    from repro.core.program import SequentialSection
    from repro.exec import cache as exec_cache
    from repro.exec import pool as exec_pool
    from repro.net.fabric import Network
    from repro.obs.record import RunRecord
    from repro.platforms.base import Platform
    from repro.runtime import core as runtime_core
    from repro.runtime import simdriver
    from repro.runtime.stats import RunResult
    from repro.serve import protocol
    from repro.serve.client import ServeClient
    from repro.serve.lru import SingleFlightLRU
    from repro.serve.scheduler import FairScheduler
    from repro.serve.server import TFluxServer
    from repro.sim import engine as sim_engine
    from repro.sim.engine import Engine, Resource
    from repro.sim.fastcache import FastMemorySystem
    from repro.sim.mmi import MemoryMappedInterface
    from repro.tsu import dist, hardware, multigroup, software  # noqa: F401
    from repro.tsu.base import ProtocolAdapter
    from repro.tsu.group import TSUGroup

    def span(owner: Any, name: str, layer: str, after=None,
             optional: bool = False) -> None:
        if optional and name not in vars(owner):
            return
        key = f"{getattr(owner, '__name__', owner)}.{name}"
        tracer.patch(owner, name, lambda fn: tracer.span_wrapper(layer, key, fn, after))

    def count(owner: Any, name: str, key) -> None:
        tracer.patch(owner, name, lambda fn: tracer.count_wrapper(key, fn))

    def schedule_source(args: tuple) -> str:
        cb, arg = args[2], args[3]
        owner = getattr(cb, "__self__", None)
        if isinstance(owner, sim_engine.Process):
            source = "delay" if arg is sim_engine._SEND_NONE else "wake"
        elif isinstance(owner, sim_engine.Timeout):
            source = "timeout"
        elif isinstance(owner, Resource):
            source = "release"
        else:
            source = "callback"
        return f"Engine._schedule.{source}"

    # sim.engine: DES dispatch (everything the run loop does itself)
    span(Engine, "run", "sim.engine")
    for _, key in EVENT_KINDS:
        owner = Resource if key.startswith("Resource") else Engine
        count(owner, key.split(".")[1], key)
    count(Engine, "_schedule", schedule_source)
    # sim.fastcache: the vectorised memory model
    for name in ("run_summary", "run_op", "_sweep"):
        span(FastMemorySystem, name, "sim.fastcache")
    # sim.mmi: the hardware TSU's memory-mapped interface
    for name in ("command", "query"):
        span(MemoryMappedInterface, name, "sim.mmi")
    # tsu: the one scheduling state machine and its platform adapters
    for name in _GROUP_METHODS:
        span(TSUGroup, name, "tsu.group")
    adapters = [ProtocolAdapter, CellTSUAdapter]
    for cls in list(adapters):
        adapters.extend(c for c in cls.__subclasses__() if c not in adapters)
    for cls in adapters:
        for name in _ADAPTER_METHODS:
            span(cls, name, "tsu.adapter", optional=True)
    # runtime: the Kernel loop and the simulated backend
    span(runtime_core, "kernel_loop", "runtime")
    span(simdriver.SimulatedRuntime, "run", "runtime", after=lambda r, a: sims.add(r))
    span(simdriver, "run_sequential_timed", "runtime")
    span(Platform, "execute", "platforms")
    span(Platform, "sequential_baseline", "platforms")
    # net: the TFluxDist fabric
    for name in ("transmit", "_transmit_proc", "pull"):
        span(Network, name, "net")
    # apps / core: functional bodies, cost models, graph build, oracles
    span(DThreadTemplate, "run", "apps.body")
    span(SequentialSection, "run", "apps.body")
    for name in ("compute_cost", "access_summary"):
        span(DThreadTemplate, name, "apps.cost_model")
    span(SequentialSection, "compute_cost", "apps.cost_model")
    for bench_cls in {type(b) for b in repro.apps.BENCHMARKS.values()}:
        span(bench_cls, "build", "apps.build", optional=True)
        span(bench_cls, "verify", "apps.verify", optional=True)
    # exec: sweeps, jobs, digests, the disk cache
    for name in ("evaluate_many", "run_jobs"):
        span(exec_pool, name, "exec.sweep")
    span(exec_pool, "run_job", "exec.run_job")
    span(exec_cache, "spec_digest", "exec.digest")
    span(exec_cache.ResultCache, "get", "exec.cache_get")
    span(exec_cache.ResultCache, "put", "exec.cache_put")
    # obs: record conversion and its JSON form
    span(RunResult, "to_record", "obs.record")
    span(RunRecord, "to_json_dict", "obs.record")
    span(RunRecord, "from_json_dict", "obs.record")
    # serve: wire protocol, scheduler, single-flight LRU, server, client
    for name in ("encode", "decode", "job_from_wire", "job_to_wire",
                 "outcome_to_wire", "outcome_from_wire"):
        span(protocol, name, "serve.protocol")
    span(FairScheduler, "submit", "serve.scheduler", after=serve.on_submit)
    span(FairScheduler, "next", "serve.scheduler", after=serve.on_next)
    span(FairScheduler, "can_accept", "serve.scheduler")
    for name in ("lookup", "claim", "resolve", "reject"):
        span(SingleFlightLRU, name, "serve.lru")
    for name in ("_admit", "_pump", "_deliver"):
        span(TFluxServer, name, "serve.server")
    span(ServeClient, "submit", "serve.client")


#: Every per-layer metric the traced run reports, with its unit.
#: Self times are host seconds per pass of the workload.
PER_LAYER = {
    "sim.engine.events_per_instance": "count",
    "sim.engine.coalesced_ratio": "ratio",
    "sim.engine.self_s": "s",
    **{f"sim.engine.{kind}_per_instance": "count" for kind, _ in EVENT_KINDS},
    **{f"sim.engine.sched_{src}_per_instance": "count" for src in SCHEDULE_SOURCES},
    "sim.fastcache.calls_per_instance": "count",
    "sim.fastcache.us_per_call": "us",
    "sim.fastcache.self_s": "s",
    "sim.fastcache.l1_hit_rate": "ratio",
    "sim.mmi.calls_per_instance": "count",
    "sim.mmi.self_s": "s",
    "tsu.group.calls_per_instance": "count",
    "tsu.group.self_s": "s",
    "tsu.adapter.self_s": "s",
    "tsu.ops_per_instance": "count",
    "runtime.self_s": "s",
    "runtime.fetches_per_instance": "count",
    "runtime.waits_per_instance": "count",
    "platforms.self_s": "s",
    "net.messages_per_instance": "count",
    "net.self_s": "s",
    "apps.body_s": "s",
    "apps.cost_model_s": "s",
    "apps.build_s": "s",
    "apps.verify_s": "s",
    "exec.sims_per_cell": "count",
    "exec.sweep_s": "s",
    "exec.run_job_s": "s",
    "exec.digest_s": "s",
    "exec.cache_get_s": "s",
    "exec.cache_put_s": "s",
    "exec.cache_hit_ratio": "ratio",
    "exec.outcome_bytes": "bytes",
    "obs.record_s": "s",
    "serve.repeat_p50_ms": "ms",
    "serve.disk_p50_ms": "ms",
    "serve.fresh_p50_ms": "ms",
    "serve.queue_wait_p50_ms": "ms",
    "serve.dedup_ratio": "ratio",
    "serve.executed": "count",
    "serve.rejected": "count",
    "serve.protocol_s": "s",
    "serve.scheduler_s": "s",
    "serve.lru_s": "s",
    "serve.server_s": "s",
    "serve.client_s": "s",
    "model.speedup_err_pct": "%",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}

#: Span layer -> the per-layer metric carrying its self time.
SELF_TIME = {
    "sim.engine": "sim.engine.self_s",
    "sim.fastcache": "sim.fastcache.self_s",
    "sim.mmi": "sim.mmi.self_s",
    "tsu.group": "tsu.group.self_s",
    "tsu.adapter": "tsu.adapter.self_s",
    "runtime": "runtime.self_s",
    "platforms": "platforms.self_s",
    "net": "net.self_s",
    "apps.body": "apps.body_s",
    "apps.cost_model": "apps.cost_model_s",
    "apps.build": "apps.build_s",
    "apps.verify": "apps.verify_s",
    "exec.sweep": "exec.sweep_s",
    "exec.run_job": "exec.run_job_s",
    "exec.digest": "exec.digest_s",
    "exec.cache_get": "exec.cache_get_s",
    "exec.cache_put": "exec.cache_put_s",
    "obs.record": "obs.record_s",
    "serve.protocol": "serve.protocol_s",
    "serve.scheduler": "serve.scheduler_s",
    "serve.lru": "serve.lru_s",
    "serve.server": "serve.server_s",
    "serve.client": "serve.client_s",
}


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, sims: SimTotals, serve: ServeProbe, passes: int,
    wall_s: float,
) -> dict[str, float]:
    """Per-layer metrics from one traced stretch of *passes* passes whose
    rooted threads ran for *wall_s* seconds in all."""
    self_s = tracer.self_seconds()
    unknown = set(self_s) - set(SELF_TIME) - {ROOT}
    if unknown:
        raise RuntimeError(f"spans of unmapped layers: {sorted(unknown)}")
    calls = tracer.calls()
    n = sims.instances
    c = sims.counters
    out: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for layer, metric in SELF_TIME.items():
        out[metric] = self_s.get(layer, 0.0) / passes
    out["sim.engine.events_per_instance"] = _per(c.get("engine.events", 0), n)
    coalesced = sum(v for k, v in c.items() if k.startswith("engine.coalesced"))
    out["sim.engine.coalesced_ratio"] = _per(coalesced, c.get("engine.scheduled", 0))
    for kind, key in EVENT_KINDS:
        out[f"sim.engine.{kind}_per_instance"] = _per(calls.get(key, 0), n)
    for src in SCHEDULE_SOURCES:
        out[f"sim.engine.sched_{src}_per_instance"] = _per(
            calls.get(f"Engine._schedule.{src}", 0), n)
    sweeps = calls.get("FastMemorySystem._sweep", 0)
    out["sim.fastcache.calls_per_instance"] = _per(sweeps, n)
    out["sim.fastcache.us_per_call"] = _per(self_s.get("sim.fastcache", 0.0) * 1e6, sweeps)
    out["sim.fastcache.l1_hit_rate"] = _per(sims.l1_hits, sims.accesses)
    mmi = calls.get("MemoryMappedInterface.command", 0) + calls.get(
        "MemoryMappedInterface.query", 0)
    out["sim.mmi.calls_per_instance"] = _per(mmi, n)
    group = sum(calls.get(f"TSUGroup.{m}", 0) for m in _GROUP_METHODS)
    out["tsu.group.calls_per_instance"] = _per(group, n)
    ops = sum(v for k, v in c.items() if k.split(".")[0] in ("tsu", "tub", "mmi"))
    out["tsu.ops_per_instance"] = _per(ops, n)
    out["runtime.fetches_per_instance"] = _per(sims.fetches, n)
    out["runtime.waits_per_instance"] = _per(sims.waits, n)
    out["net.messages_per_instance"] = _per(c.get("net.messages", 0), n)
    if serve.waits_ms:
        out["serve.queue_wait_p50_ms"] = statistics.median(serve.waits_ms)
    out["trace.unattributed_share"] = _per(
        tracer.rooted_self_seconds().get(ROOT, 0.0), wall_s)
    return out
