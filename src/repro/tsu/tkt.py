"""Thread-to-Kernel Table (TKT) — Thread Indexing.

"A special table which is automatically embedded into the application's
code by the DDM Preprocessor, the Thread to Kernel Table (TKT) associates
each DThread with the SM containing its Ready Count value.  As such, when
the TSU Emulator is to update a DThread's Ready Count, it can directly
access the SM containing this DThread" (paper §4.2) — eliminating the
linear search over SMs as the node count grows.  TFluxDist composes it
with the kernel → node split of
:func:`~repro.tsu.policy.contiguous_partition` to find which node's TSU
shard holds a DThread.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["ThreadToKernelTable"]


class ThreadToKernelTable:
    """Dense map: block-local instance id → kernel (SM) index."""

    def __init__(self, assignment: Sequence[int], nkernels: int) -> None:
        bad = [k for k in assignment if not 0 <= k < nkernels]
        if bad:
            raise ValueError(f"kernel indices out of range: {bad[:5]}")
        self._table = list(assignment)
        self.nkernels = nkernels

    def kernel_of(self, local_iid: int) -> int:
        """Direct index — O(1), the point of Thread Indexing."""
        return self._table[local_iid]

    def __len__(self) -> int:
        return len(self._table)

    def threads_of(self, kernel: int) -> list[int]:
        return [i for i, k in enumerate(self._table) if k == kernel]

    def load_imbalance(self) -> float:
        """Max/mean ratio of per-kernel instance counts (1.0 = perfect)."""
        counts = [0] * self.nkernels
        for k in self._table:
            counts[k] += 1
        mean = len(self._table) / self.nkernels if self.nkernels else 0
        return max(counts) / mean if mean else 1.0

