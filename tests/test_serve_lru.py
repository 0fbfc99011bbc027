"""Property and unit tests for the single-flight LRU.

One thread-safe :class:`~repro.exec.cache.SingleFlightLRU` backs both
the ``tflux-serve`` outcome LRU and the §5 baseline memo of
``evaluate_many``; ``repro.serve`` re-exports it.
"""

import sys
import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec.cache import SingleFlightLRU as ExecSingleFlightLRU
from repro.serve import MISS, SingleFlightLRU


def _put(lru, key, value):
    """claim + resolve: the only way a value enters the map."""
    fut, leader = lru.claim(key)
    if leader:
        lru.resolve(key, value)
    return fut


# -- LRU behaviour -------------------------------------------------------------
def test_capacity_validated():
    with pytest.raises(ValueError):
        SingleFlightLRU(0)


def test_get_put_and_counters():
    lru = SingleFlightLRU(2)
    assert lru.lookup("a") is MISS
    _put(lru, "a", 1)
    assert lru.lookup("a") == 1
    assert (lru.hits, lru.misses, lru.evictions) == (1, 1, 0)


def test_eviction_is_strict_lru():
    lru = SingleFlightLRU(2)
    _put(lru, "a", 1)
    _put(lru, "b", 2)
    lru.lookup("a")  # refresh: "b" is now least recent
    _put(lru, "c", 3)
    assert "b" not in lru
    assert lru.keys() == ["a", "c"]
    assert lru.evictions == 1


def test_contains_does_not_refresh():
    lru = SingleFlightLRU(2)
    _put(lru, "a", 1)
    _put(lru, "b", 2)
    assert "a" in lru  # probe only
    _put(lru, "c", 3)  # "a" must still be the eviction victim
    assert "a" not in lru and "b" in lru


def test_claim_after_resolve_is_a_hit_not_a_flight():
    """A resolved key answers claim with a completed future and never
    launches, so a lookup-miss/claim race cannot start a second
    computation."""
    lru = SingleFlightLRU(2)
    _put(lru, "a", 1)
    _put(lru, "b", 2)
    fut, leader = lru.claim("a")
    assert not leader
    assert fut.done() and fut.result() == 1
    assert lru.launched == 2 and lru.inflight == 0
    _put(lru, "c", 3)  # the claim refreshed "a": "b" is the victim
    assert lru.keys() == ["a", "c"]


_OPS = st.lists(
    st.tuples(st.sampled_from(["put", "get"]), st.integers(0, 7)),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 5), ops=_OPS)
def test_lru_matches_reference_model(capacity, ops):
    """claim + resolve acts as put and lookup as get: the map tracks an
    ordered-dict reference model exactly — same contents, same recency
    order, same eviction victims."""
    lru = SingleFlightLRU(capacity)
    model: OrderedDict = OrderedDict()
    for op, key in ops:
        if op == "put":
            assert _put(lru, key, key * 10).result() == key * 10
            model[key] = key * 10
            model.move_to_end(key)
            while len(model) > capacity:
                model.popitem(last=False)
        else:
            got = lru.lookup(key)
            if key in model:
                model.move_to_end(key)
                assert got == model[key]
            else:
                assert got is MISS
        assert len(lru) <= capacity
        assert lru.keys() == list(model)  # identical LRU -> MRU order
    assert lru.inflight == 0


# -- single flight ---------------------------------------------------------------
def _race(n, work):
    """Run ``work(i)`` on *n* threads released together, with a short
    switch interval so lost updates would show; joins are time-bounded."""
    barrier = threading.Barrier(n)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda i=i: (barrier.wait(), work(i)))
            for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)


def _herd(lru, key, n):
    """N threads claim *key* at once; returns their (future, leader)s."""
    claims = [None] * n
    _race(n, lambda i: claims.__setitem__(i, lru.claim(key)))
    return claims


def test_single_flight_n_concurrent_one_compute():
    """N threads claiming one missing key elect exactly one leader; its
    resolve wakes every waiter with the one value."""
    sf = SingleFlightLRU(8)
    claims = _herd(sf, "k", 10)
    leaders = [fut for fut, leader in claims if leader]
    assert len(leaders) == 1
    assert len({id(fut) for fut, _ in claims}) == 1
    assert sf.inflight == 1
    sf.resolve("k", "value")
    assert [fut.result(timeout=5) for fut, _ in claims] == ["value"] * 10
    assert sf.launched == 1 and sf.coalesced == 9
    assert sf.inflight == 0
    assert sf.lookup("k") == "value"  # later requests are plain hits


def test_racing_lookup_then_claim_computes_each_key_once():
    """Threads doing the server's lookup -> claim -> lead-or-wait flow
    over shared keys: every key is computed exactly once, and every
    request is a hit, a coalesced wait or the one launch."""
    sf = SingleFlightLRU(16)
    nthreads, keys = 16, range(8)
    got = []

    def client(i):
        for key in keys:
            value = sf.lookup(key)
            if value is MISS:
                fut, leader = sf.claim(key)
                if leader:
                    sf.resolve(key, key * 10)
                value = fut.result(timeout=30)
            got.append(value == key * 10)

    _race(nthreads, client)
    assert len(got) == nthreads * len(keys) and all(got)
    assert sf.launched == len(keys) and sf.inflight == 0
    assert sf.hits + sf.coalesced + sf.launched == nthreads * len(keys)


def test_failed_flight_propagates_and_is_not_cached():
    sf = SingleFlightLRU(8)
    claims = _herd(sf, "k", 3)
    sf.reject("k", RuntimeError("sim failed"))
    for fut, _ in claims:
        with pytest.raises(RuntimeError, match="sim failed"):
            fut.result(timeout=5)
    assert sf.launched == 1  # the herd coalesced onto the one failure
    assert sf.lookup("k") is MISS and "k" not in sf  # never cached...
    fut, leader = sf.claim("k")
    assert leader and sf.launched == 2  # ...so a retry recomputes
    sf.resolve("k", 42)
    assert fut.result() == 42


def test_waiter_cancellation_does_not_kill_the_flight():
    """Flight futures are marked running: a waiter's cancel() fails, and
    the leader's resolve still reaches everyone."""
    sf = SingleFlightLRU(8)
    fut, leader = sf.claim("k")
    waiter, _ = sf.claim("k")
    assert leader and waiter is fut
    assert not waiter.cancel()
    sf.resolve("k", "v")
    assert waiter.result() == "v"
    assert sf.lookup("k") == "v"  # flight completed despite the cancel


def test_callbacks_run_in_the_resolving_thread():
    """The class contract the server relies on: done-callbacks run in
    the thread that resolves (or at once, if already done)."""
    sf = SingleFlightLRU(8)
    seen = []
    fut, _ = sf.claim("k")
    fut.add_done_callback(lambda f: seen.append(threading.get_ident()))
    resolver = threading.Thread(target=sf.resolve, args=("k", 1))
    resolver.start()
    resolver.join(timeout=10)
    assert seen == [resolver.ident]
    done, _ = sf.claim("k")
    done.add_done_callback(lambda f: seen.append(threading.get_ident()))
    assert seen[-1] == threading.get_ident()


def test_sync_primitives_exact_accounting():
    """claim/resolve keep inflight exact — the server's max-in-flight
    bound is computed from this number."""
    sf = SingleFlightLRU(2)
    futa, leada = sf.claim("a")
    futa2, leada2 = sf.claim("a")
    assert leada and not leada2 and futa is futa2
    futb, leadb = sf.claim("b")
    assert leadb
    assert sf.inflight == 2  # unique keys, not claims
    sf.resolve("a", 1)
    assert sf.inflight == 1
    assert futa.result() == 1 and futa2.result() == 1
    sf.reject("b", ValueError("x"))
    assert sf.inflight == 0
    with pytest.raises(ValueError):
        futb.result()
    stats = sf.stats()
    assert stats["launched"] == 2 and stats["coalesced"] == 1
    assert stats["size"] == 1  # only the resolved key landed in the LRU
    assert set(stats) == {
        "size", "capacity", "hits", "misses", "evictions",
        "inflight", "coalesced", "launched",
    }


def test_one_class_backs_serve_and_exec():
    from repro.exec import pool

    assert SingleFlightLRU is ExecSingleFlightLRU
    assert isinstance(pool._BASELINE_MEMO, SingleFlightLRU)
    assert pool._BASELINE_MEMO.capacity == 256
