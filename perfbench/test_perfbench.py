"""Self-tests of the benchmark: determinism, seeds, tracer integrity,
pins and the metric list in BENCHMARK.json.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

The determinism tests run real traced workloads (a few minutes).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import ROOT as ROOT_LAYER  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Seeds used while tuning; the holdout seed must not be one of them.
TUNING_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)

#: Per-layer metrics that are counts or ratios of counts: they must
#: repeat exactly between two runs of the same code.
COUNT_SUFFIXES = ("_per_instance", "coalesced_ratio", "sims_per_cell",
                  "l1_hit_rate", "executed", "rejected", "dedup_ratio",
                  "cache_hit_ratio", "outcome_bytes", "speedup_err_pct")


def count_metrics(metrics: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def traced(name: str, seed: int = 1):
    scratch = workloads.scratch_dir(ROOT)
    work = workloads.make(name, seed, scratch)
    try:
        return run.run_traced(work)
    finally:
        work.close()


# -- BENCHMARK.json -----------------------------------------------------------------

def test_benchmark_json_lists_what_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


# -- seeds ------------------------------------------------------------------------------

def test_seed_changes_the_serve_stream_but_not_its_shares():
    pools = {k: sorted(v) for k, v in workloads.load_pins()["serve"].items()}
    a = workloads.serve_stream(1, 0, pools)
    b = workloads.serve_stream(2, 0, pools)
    assert a != b
    assert a == workloads.serve_stream(1, 0, pools)
    for streams in (a, b):
        for stream in streams:
            assert Counter(kind for kind, _ in stream) == workloads.SERVE_CLASSES
            assert stream[0][0] != "repeat"
            seen = set()
            for kind, key in stream:
                assert (key in seen) == (kind == "repeat")
                seen.add(key)
        fresh = [key for s in streams for kind, key in s if kind == "fresh"]
        disk = [key for s in streams for kind, key in s if kind == "disk"]
        assert sorted(fresh) == pools["fresh"]  # every pass: the whole pool
        assert len(set(disk)) == len(disk)  # never shared between tenants


def test_holdout_seed_is_kept_back():
    assert run.HOLDOUT_SEED not in TUNING_SEEDS


# -- tracer ------------------------------------------------------------------------------

class _Toy:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i

    def steps(self, n):
        got = []
        for i in range(n):
            got.append((yield i))
        return got


def test_tracer_self_times_sum_to_wall_and_wrappers_come_off():
    import time

    tracer = Tracer()
    raw = dict(vars(_Toy))
    tracer.patch(_Toy, "outer", lambda fn: tracer.span_wrapper("a", "outer", fn))
    tracer.patch(_Toy, "inner", lambda fn: tracer.span_wrapper("b", "inner", fn))
    tracer.patch(_Toy, "steps", lambda fn: tracer.span_wrapper("c", "steps", fn))
    patched = tracer.patches
    toy = _Toy()
    t0 = time.perf_counter()
    with tracer.root():
        assert toy.outer(50) == sum(range(50))
        gen = toy.steps(3)
        assert next(gen) == 0
        assert gen.send("x") == 1
        assert gen.send("y") == 2
        with pytest.raises(StopIteration) as stop:
            gen.send("z")
        assert stop.value.value == ["x", "y", "z"]
    wall = time.perf_counter() - t0
    tracer.uninstall()
    assert Tracer.is_restored(patched)
    assert all(vars(_Toy)[k] is raw[k] for k in ("outer", "inner", "steps"))
    calls = tracer.calls()
    assert calls == {"outer": 1, "inner": 50, "steps": 1}
    self_s = tracer.rooted_self_seconds()
    assert set(self_s) == {"a", "b", "c", ROOT_LAYER}
    assert sum(self_s.values()) == pytest.approx(wall, rel=0.05, abs=2e-4)


def test_tracer_counts_threads_without_a_root_apart():
    import threading

    tracer = Tracer()
    tracer.patch(_Toy, "inner", lambda fn: tracer.span_wrapper("b", "inner", fn))
    try:
        worker = threading.Thread(target=_Toy().inner, args=(1,))
        worker.start()
        worker.join()
        with tracer.root():
            _Toy().inner(2)
    finally:
        tracer.uninstall()
    assert tracer.calls() == {"inner": 2}
    assert set(tracer.self_seconds()) == {"b", ROOT_LAYER}
    rooted = tracer.rooted_self_seconds()
    assert rooted["b"] < tracer.self_seconds()["b"]


def test_generator_wrapper_delivers_thrown_exceptions():
    tracer = Tracer()
    tracer.patch(_Toy, "steps", lambda fn: tracer.span_wrapper("c", "steps", fn))
    try:
        gen = _Toy().steps(2)
        next(gen)
        with pytest.raises(KeyError):
            gen.throw(KeyError("boom"))
    finally:
        tracer.uninstall()


# -- determinism of the traced workloads ------------------------------------------------

def test_fine_grain_counts_repeat_and_trace_is_cycle_neutral():
    passes_a, problems_a, a = traced("fine_grain")
    passes_b, problems_b, b = traced("fine_grain")
    assert problems_a == problems_b == []
    assert not [f for p in passes_a + passes_b for f in p.failures]
    assert count_metrics(a) == count_metrics(b)
    assert a["fine.hard27_trapez.events_per_instance"] == pytest.approx(26048 / 4097)
    for cell in workloads.FINE_CELLS:
        # every scheduled event has one source, and every one is dispatched
        sources = sum(a[f"fine.{cell}.sched_{src}_per_instance"]
                      for src in layers.SCHEDULE_SOURCES)
        assert sources == pytest.approx(a[f"fine.{cell}.events_per_instance"])
    assert a["net.messages_per_instance"] > 0
    assert a["sim.engine.events_per_instance"] > 0


def test_serve_mix_counts_repeat():
    passes_a, problems_a, a = traced("serve_mix", seed=3)
    passes_b, problems_b, b = traced("serve_mix", seed=3)
    assert problems_a == problems_b == []
    assert not [f for p in passes_a + passes_b for f in p.failures]
    assert count_metrics(a) == count_metrics(b)
    assert a["serve.executed"] == workloads.SERVE_FRESH_PER_PASS
    assert a["exec.sims_per_cell"] == 1.0
    assert a["serve.rejected"] == 0
    per_tenant = workloads.SERVE_CLASSES
    assert a["exec.cache_hit_ratio"] == per_tenant["disk"] / (
        per_tenant["disk"] + per_tenant["fresh"])


def test_speedup_err_pct_matches_a_direct_evaluate_many():
    """One batched evaluate_many over the 14 cells gives the pinned
    cycles and the pinned speedup_err_pct the workload checks against."""
    from repro.exec import clear_baseline_memo, evaluate_many

    cells = workloads.paper_cells()
    clear_baseline_memo()
    evs = evaluate_many([req for _, req, _ in cells], jobs=1, cache=None)
    pins = workloads.load_pins()
    speedups = {cell_id: ev.speedup for (cell_id, _, _), ev in zip(cells, evs)}
    paper = {cell_id: p for cell_id, _, p in cells}
    assert workloads.speedup_err_pct(speedups, paper) == pins["speedup_err_pct"]
    for (cell_id, _, _), ev in zip(cells, evs):
        assert workloads.evaluation_fingerprint(ev) == pins["paper_grid"][cell_id]
