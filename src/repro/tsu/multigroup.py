"""Multiple TSU Groups — the §4.1 extension.

"For systems with very large number of CPUs it may be beneficial to have
multiple TSU Groups.  A version of the TSU Group supporting such
functionality is currently under development."  This module builds that
version for TFluxHard.

Scheduling semantics are unchanged — the functional
:class:`~repro.tsu.group.TSUGroup` remains the single source of truth, so
programs behave identically.  What changes is the *hardware*: the chip
carries *G* TSU Group devices, each with its own MMI/command port on its
own network segment, serving a static partition of the kernels:

* a kernel's fetches and completion commands go to **its own** group's
  port — dividing the queueing that a single port suffers under
  fine-grained DThreads by ~G;
* the Post-Processing Phase of a completed DThread whose consumer lives
  in a *different* group's Synchronization Memory pays an inter-group
  transfer (the TSU-to-TSU communication that the single TSU Group of
  §3.3 handled "internally without the intervention of any other unit" —
  the cost the grouping originally avoided, now re-introduced at group
  granularity).

The A5 ablation benchmark (``bench_ablation_multigroup.py``) measures the
trade-off the paper anticipated: contention relief versus inter-group
traffic.
"""

from __future__ import annotations

from typing import Generator

from repro.core.dthread import DThreadInstance
from repro.sim.engine import Engine
from repro.tsu.group import TSUGroup
from repro.tsu.hardware import HardwareTSUAdapter

__all__ = ["MultiGroupHardwareAdapter"]


class MultiGroupHardwareAdapter(HardwareTSUAdapter):
    """TFluxHard with *n_groups* hardware TSU Group devices.

    The devices, their shared in-flight gate and the per-kernel device
    lookup are :class:`~repro.tsu.hardware.HardwareTSUAdapter`'s; this
    class adds the inter-group Ready-Count transfer.
    """

    def __init__(
        self,
        engine: Engine,
        tsu: TSUGroup,
        n_groups: int = 2,
        tsu_processing_cycles: int = 4,
        l1_access_cycles: int = 2,
        intergroup_latency: int = 20,
    ) -> None:
        self.n_groups = n_groups
        super().__init__(engine, tsu, tsu_processing_cycles, l1_access_cycles)
        self.intergroup_latency = intergroup_latency
        self.intergroup_transfers = 0

    def publish_counters(self, counters) -> None:
        counters.inc("tsu.intergroup_transfers", self.intergroup_transfers)
        super().publish_counters(counters)

    def group_of_kernel(self, kernel: int) -> int:
        """Static kernel -> TSU group partition (contiguous blocks)."""
        return self._group_of_kernel[kernel]

    def _cross_group_updates(self, kernel: int, local_iid: int) -> int:
        """Consumers of *local_iid* living in other groups' SMs."""
        tkt = self.tsu.tkt
        if tkt is None:
            return 0
        group_of = self._group_of_kernel
        my_group = group_of[kernel]
        return sum(
            group_of[tkt.kernel_of(consumer)] != my_group
            for consumer in self.tsu.current_block.consumers[local_iid]
        )

    def complete_thread(
        self,
        kernel: int,
        local_iid: int,
        instance: DThreadInstance,
        outcome: object = None,
    ) -> Generator:
        cross = self._cross_group_updates(kernel, local_iid)
        yield from super().complete_thread(kernel, local_iid, instance, outcome)
        if cross:
            # Inter-group Ready-Count updates travel between the TSU Group
            # devices; they occupy the source group's port (not the CPU),
            # so the kernel only observes the transfer kick-off latency.
            # Modelling note: the functional update is applied eagerly
            # (inside the completion command), so remote consumers may
            # wake up to ~intergroup_latency cycles early — a deliberate
            # simplification, second-order at the 20-cycle default.
            self.intergroup_transfers += cross
            yield self.intergroup_latency
