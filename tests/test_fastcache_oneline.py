"""The one-line sweep path of :class:`FastMemorySystem`.

A sweep that touches a single line on a one-word directory (≤64 cores)
runs on Python ints instead of NumPy arrays.  It must be the vectorised
protocol exactly, so it is checked three ways:

* against a ``directory_words=2`` twin, which never takes the one-line
  path, compared field by field after every op;
* against the exact model on one-line false sharing (3 cores, 8-byte
  slots of a 4-line region, so everything fits in L1 and both models
  must agree on every statistic the fast model keeps);
* the ``single_issuer`` guard, which both paths share.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.accesses import AccessSummary, RegionSpace
from repro.sim.cache import CacheConfig, CoherentMemorySystem, MemoryConfig
from repro.sim.fastcache import FastMemorySystem

L1 = CacheConfig(size=1024, line_size=64, assoc=2, read_latency=2, write_latency=0)
L2 = CacheConfig(size=8192, line_size=64, assoc=4, read_latency=20, write_latency=20)
MEM = MemoryConfig(dram_latency=100, cache_to_cache_latency=40, upgrade_latency=8)

#: Twice the 16-line L1, so one-line traffic also meets capacity misses.
NLINES = 32
#: Op shapes: one 8-byte slot (one line, dense), one strided element (a
#: one-entry line list), and two multi-line shapes on the vectorised path.
SHAPES = ("slot",) * 6 + ("strided1", "chunk", "strided")
#: The stats the fast model keeps (the exact model also counts writebacks).
STAT_FIELDS = (
    "accesses", "l1_hits", "l2_hits", "mem_misses",
    "coherence_misses", "upgrades", "cycles",
)


def _summary(region, write, shape, pos):
    kw = {
        "slot": dict(offset=pos * 8, count=1),
        "strided1": dict(offset=pos * 8, count=1, stride=128),
        "chunk": dict(offset=(pos // 8) * 64, count=8 * (2 + pos % 3)),
        "strided": dict(offset=pos * 8, count=3, stride=128),
    }[shape]
    step = kw.get("stride", 8)
    kw["count"] = min(kw["count"], (region.size - kw["offset"] - 8) // step + 1)
    s = AccessSummary()
    (s.write if write else s.read)(region, **kw)
    return s


def _assert_same_state(a, b):
    assert a.stats == b.stats
    assert a.bus_transactions == b.bus_transactions
    assert np.array_equal(a._clock, b._clock)
    assert np.array_equal(a._l2_clock, b._l2_clock)
    assert a._holes == b._holes
    for name, ra in a._state.items():
        rb = b._state[name]
        assert np.array_equal(ra.owner, rb.owner)
        assert np.array_equal(ra.l1_last, rb.l1_last)
        assert np.array_equal(ra.l2_last, rb.l2_last)
        assert np.array_equal(ra.sharers[0], rb.sharers[0])


ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # core (mod ncores)
        st.booleans(),  # write?
        st.sampled_from(SHAPES),
        st.integers(min_value=0, max_value=NLINES * 8 - 1),  # 8-byte slot
    ),
    min_size=1,
    max_size=60,
)

# TRAPEZ ``parts``: three cores write adjacent slots of one line, two read
# it back, and the last writer's upgrade credits holes to both readers.
TRAPEZ_PARTS = [
    (0, True, "slot", 0), (1, True, "slot", 1), (2, True, "slot", 2),
    (0, False, "slot", 0), (1, False, "slot", 1), (2, True, "slot", 2),
]


@settings(max_examples=200, deadline=None)
@given(
    ncores=st.integers(min_value=1, max_value=4),
    shared_l2=st.booleans(),
    ops=ops_strategy,
)
@example(ncores=3, shared_l2=False, ops=TRAPEZ_PARTS)
# Dirty reads with l2_groups [0, 0, 1]: core 1 shares owner 0's L2
# group, core 2 does not.
@example(ncores=3, shared_l2=True, ops=[(0, True, "slot", 0), (1, False, "slot", 1)])
@example(ncores=3, shared_l2=True, ops=[(0, True, "slot", 0), (2, False, "slot", 1)])
# Write upgrade on a line two cores share.
@example(ncores=2, shared_l2=False, ops=[
    (0, False, "slot", 0), (1, False, "slot", 0), (0, True, "slot", 0),
])
# A strided op whose line list has one entry, then a dirty read of it.
@example(ncores=2, shared_l2=False, ops=[
    (0, True, "strided1", 9), (1, False, "strided1", 9), (0, True, "strided1", 9),
])
# L1 capacity edges: core 1's copy of line 0 is exactly 16 fills old (just
# evicted, so no hole) when core 0 writes it; core 0 then evicts and
# re-reads its own modified line (an L2 hit, not a coherence miss).
@example(ncores=2, shared_l2=False, ops=[
    (1, False, "slot", 0), *[(1, False, "chunk", p) for p in (8, 41, 74, 104)],
    (0, True, "slot", 0), *[(0, False, "chunk", p) for p in (8, 41, 74, 104)],
    (0, False, "slot", 0),
])
@example(ncores=1, shared_l2=False, ops=[
    (0, True, "slot", 0), (0, False, "slot", 1), (0, False, "chunk", 0),
    (0, True, "strided1", 40), (0, False, "slot", 0),
])
def test_one_line_path_matches_vectorised_twin(ncores, shared_l2, ops):
    space = RegionSpace()
    region = space.region("P", NLINES * 64)
    groups = [c // 2 for c in range(ncores)] if shared_l2 else None
    flat = FastMemorySystem(ncores, L1, L2, MEM, space, l2_groups=groups)
    wide = FastMemorySystem(
        ncores, L1, L2, MEM, space, l2_groups=groups, directory_words=2
    )
    for core, write, shape, pos in ops:
        s = _summary(region, write, shape, pos)
        assert flat.run_summary(core % ncores, s) == wide.run_summary(core % ncores, s)
        _assert_same_state(flat, wide)


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),  # core
            st.booleans(),  # write?
            st.integers(min_value=0, max_value=31),  # 8-byte slot
        ),
        min_size=1,
        max_size=60,
    )
)
@example(ops=[(c, True, c) for c in range(3)] + [(0, False, 0), (1, False, 1), (2, True, 2)])
def test_one_line_false_sharing_matches_exact_model(ops):
    space = RegionSpace()
    region = space.region("P", 4 * 64)
    exact = CoherentMemorySystem(3, L1, L2, MEM, space)
    fast = FastMemorySystem(3, L1, L2, MEM, space)
    for core, write, slot in ops:
        s = _summary(region, write, "slot", slot)
        assert exact.run_summary(core, s) == fast.run_summary(core, s)
    for c in range(3):
        for field in STAT_FIELDS:
            assert getattr(exact.stats[c], field) == getattr(fast.stats[c], field)


@pytest.mark.parametrize("shape", ["slot", "chunk"])
def test_single_issuer_guard_rejects_a_second_core(shape):
    space = RegionSpace()
    region = space.region("P", NLINES * 64)
    fast = FastMemorySystem(2, L1, L2, MEM, space, single_issuer=True)
    s = _summary(region, False, shape, 0)
    fast.run_summary(0, s)
    fast.run_summary(0, s)
    with pytest.raises(RuntimeError, match="single_issuer"):
        fast.run_summary(1, s)
