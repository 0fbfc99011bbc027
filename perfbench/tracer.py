"""Host-time attribution by wrapping layer entry points from outside.

A :class:`Tracer` replaces chosen functions and methods with thin
wrappers that open a *span* per call, keep every span in memory (as
running per-thread sums, not as a list) and restore the originals on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` knows it is traced.

Accounting rules:

* A span's *self time* is its duration minus the time of the spans it
  directly covers.  Per layer, self times are summed.  The benchmark
  opens a *root* span around the work it measures; the self times
  charged in threads that ran a root (:meth:`Tracer.rooted_self_seconds`)
  must add up to the wall time the benchmark measured separately, which
  fails if a span is left open or a layer runs outside the root.
* Generator functions (DES process bodies, protocol steps) are traced
  per resumption: every ``send``/``throw`` into the generator is one
  span, so time spent suspended in the event queue is never charged to
  the layer that yielded.
* NumPy work called from a layer runs inside that layer's span and is
  charged to it (cProfile's per-function buckets would split it off).
* Stacks and sums are per thread; concurrent threads never share a
  counter, so no update is lost.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from typing import Any, Callable, Optional

__all__ = ["Tracer", "ROOT"]

#: Layer name of the benchmark's own root spans; its self time is the
#: part of the traced wall time no layer claims ("unattributed").
ROOT = "bench"


class _ThreadState:
    __slots__ = ("stack", "self_s", "calls", "rooted")

    def __init__(self) -> None:
        #: One ``[child_seconds]`` cell per open span.
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: Whether this thread opened a root span.
        self.rooted = False


class Tracer:
    """Wrap functions, attribute host time to layers, count calls."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        #: (owner, attribute, original raw attribute) in install order.
        self._patches: list[tuple[Any, str, Any]] = []

    # -- per-thread state --------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def _close(self, st: _ThreadState, layer: str, frame: list[float],
               duration: float) -> None:
        st.stack.pop()
        st.self_s[layer] = st.self_s.get(layer, 0.0) + duration - frame[0]
        if st.stack:
            st.stack[-1][0] += duration

    # -- wrappers ----------------------------------------------------------
    def span_wrapper(
        self,
        layer: str,
        key: str,
        fn: Callable,
        after: Optional[Callable[[Any, tuple], None]] = None,
    ) -> Callable:
        """A wrapper timing every call of *fn* as a span of *layer*.

        *after(result, args)* runs outside the span once *fn* returned.
        """
        if inspect.isgeneratorfunction(fn):
            return self._generator_wrapper(layer, key, fn)
        clock, state, close = time.perf_counter, self._state, self._close

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            st = state()
            st.calls[key] = st.calls.get(key, 0) + 1
            frame = [0.0]
            st.stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(st, layer, frame, clock() - t0)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _generator_wrapper(self, layer: str, key: str, fn: Callable) -> Callable:
        state, drive = self._state, self._drive

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            st = state()
            st.calls[key] = st.calls.get(key, 0) + 1
            return drive(layer, fn(*args, **kwargs))

        return wrapper

    def _drive(self, layer: str, gen: Any) -> Any:
        """Proxy *gen*, timing each resumption as one span of *layer*."""
        clock, state, close = time.perf_counter, self._state, self._close
        value: Any = None
        exc: Optional[BaseException] = None
        while True:
            st = state()
            frame = [0.0]
            st.stack.append(frame)
            t0 = clock()
            try:
                target = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                close(st, layer, frame, clock() - t0)
            exc = None
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # delivered into the inner generator
                value, exc = None, err

    def count_wrapper(self, key: str | Callable[[tuple], str], fn: Callable
                      ) -> Callable:
        """A wrapper that only counts calls (no span, near-zero cost).

        *key* is the counter's name, or a function of the call's
        positional arguments that names the counter for each call.
        """
        state = self._state
        key_of = key if callable(key) else None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            st = state()
            k = key if key_of is None else key_of(args)
            st.calls[k] = st.calls.get(k, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- root spans ----------------------------------------------------------
    def root(self) -> "_RootSpan":
        """Context manager: a top-level span of the benchmark itself."""
        return _RootSpan(self)

    # -- installing ----------------------------------------------------------
    def patch(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` (a class or module attribute) with
        ``make(original)``.

        A module-level function is also replaced wherever another
        ``repro`` module imported it by name, so ``from x import f``
        call sites are traced too.
        """
        raw = owner.__dict__[name]
        if isinstance(raw, (staticmethod, classmethod)):
            new: Any = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        self._set(owner, name, raw, new)
        if inspect.ismodule(owner):
            for mod in list(sys.modules.values()):
                modname = getattr(mod, "__name__", "") or ""
                if mod is owner or not modname.startswith("repro"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, attr, raw, new)

    def _set(self, owner: Any, name: str, raw: Any, new: Any) -> None:
        setattr(owner, name, new)
        self._patches.append((owner, name, raw))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    @staticmethod
    def is_restored(patched: list[tuple[Any, str, Any]]) -> bool:
        """Whether each ``(owner, name, original)`` holds its original."""
        return all(owner.__dict__[name] is raw for owner, name, raw in patched)

    @property
    def patches(self) -> list[tuple[Any, str, Any]]:
        return list(self._patches)

    # -- results ---------------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = {}
        with self._lock:
            for st in self._threads:
                for layer, s in st.self_s.items():
                    out[layer] = out.get(layer, 0.0) + s
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        with self._lock:
            for st in self._threads:
                for key, n in st.calls.items():
                    out[key] = out.get(key, 0) + n
        return out

    def rooted_self_seconds(self) -> dict[str, float]:
        """Self time per layer, summed over the threads that opened a root
        span only (concurrent threads such as a server's are left out)."""
        out: dict[str, float] = {}
        with self._lock:
            for st in self._threads:
                if st.rooted:
                    for layer, s in st.self_s.items():
                        out[layer] = out.get(layer, 0.0) + s
        return out


class _RootSpan:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def __enter__(self) -> "_RootSpan":
        st = self.tracer._state()
        st.rooted = True
        self._st = st
        self._frame = [0.0]
        st.stack.append(self._frame)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.tracer._close(
            self._st, ROOT, self._frame, time.perf_counter() - self._t0
        )
