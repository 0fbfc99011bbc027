"""The serve layer's in-memory LRU + single-flight table.

``tflux-serve`` answers most traffic out of memory: a bounded LRU of
recent :class:`~repro.exec.pool.JobOutcome`\\ s keyed by
:func:`~repro.exec.cache.spec_digest` sits above the on-disk
:class:`~repro.exec.cache.ResultCache`, and concurrent requests for one
missing digest coalesce onto a single simulation.  That primitive is
shared with the §5 baseline memo of :func:`repro.exec.pool.evaluate_many`,
so it lives in :mod:`repro.exec.cache`; this module re-exports it under
its serve-layer name.
"""

from repro.exec.cache import MISS, SingleFlightLRU

__all__ = ["MISS", "SingleFlightLRU"]
