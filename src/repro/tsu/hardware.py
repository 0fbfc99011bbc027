"""TFluxHard: the TSU Group as a memory-mapped hardware device.

"The CPU controls the TSU Group through specially encoded flags.  At the
TSU Group side these requests are decoded and trigger the appropriate TSU
operation" (paper §4.1).  Every operation is therefore one (or a few)
transactions over the system network through the
:class:`~repro.sim.mmi.MemoryMappedInterface`, each paying the TSU
processing latency — 4 cycles over an L1 access by default, swept 1→128
by the ablation of §6.1.1 — plus any queueing at the single TSU command
port and the bus arbiter.

Cost model per operation:

* **fetch** — one query round-trip (bus → TSU port → bus).
* **thread completion** — one posted command carrying the completed
  DThread id; the TSU performs the consumer updates internally ("TSU-to-
  TSU communication ... handled internally without the intervention of
  any other unit", §3.3), occupying the port for one processing slot per
  consumer update.
* **inlet** — one command per loaded DThread entry (metadata words are
  stores into the TSU's address window).
* **outlet** — a single deallocate command.
"""

from __future__ import annotations

from typing import Generator

from repro.core.block import DDMBlock
from repro.core.dthread import DThreadInstance
from repro.core.dynamic import Subflow
from repro.sim.engine import Engine
from repro.sim.interconnect import SystemBus
from repro.sim.mmi import InflightGate, MemoryMappedInterface
from repro.tsu.base import ProtocolAdapter
from repro.tsu.group import TSUGroup
from repro.tsu.policy import contiguous_partition

__all__ = ["HardwareTSUAdapter"]


class HardwareTSUAdapter(ProtocolAdapter):
    """Timed wrapper of the TSU Group behind the MMI.

    One MMI device per TSU Group on its own network segment; TFluxHard has
    one group (:attr:`n_groups`), :mod:`repro.tsu.multigroup` several.
    """

    #: TSU Group devices; kernels split across them contiguously.
    n_groups = 1

    def __init__(
        self,
        engine: Engine,
        tsu: TSUGroup,
        tsu_processing_cycles: int = 4,
        l1_access_cycles: int = 2,
    ) -> None:
        super().__init__(engine, tsu)
        self._group_of_kernel = contiguous_partition(tsu.nkernels, self.n_groups)
        # Every device fronts the *same* functional TSU, so they share one
        # in-flight gate: the DES fast path may only coalesce an op that is
        # alone in front of the TSU, not merely alone on its own device (a
        # sibling device's mutation landing in the window would otherwise
        # be observed at a different logical instant than on the eager
        # path — see repro.sim.mmi.InflightGate).
        gate = InflightGate()
        self.buses = [SystemBus(engine) for _ in range(self.n_groups)]
        self.mmis = [
            MemoryMappedInterface(
                engine,
                bus,
                tsu_processing_cycles=tsu_processing_cycles,
                l1_access_cycles=l1_access_cycles,
                inflight=gate,
            )
            for bus in self.buses
        ]
        #: Each kernel's device, looked up per op (built once).
        self._device = [self.mmis[g] for g in self._group_of_kernel]

    def publish_counters(self, counters) -> None:
        scope = counters.scope("mmi")
        scope.inc("commands", sum(m.commands for m in self.mmis))
        scope.inc("queries", sum(m.queries for m in self.mmis))
        # Coalescing statistics live under engine.* — the one namespace
        # allowed to differ between TFLUX_FASTPATH on and off.
        engine = counters.scope("engine")
        engine.inc("coalesced_commands", sum(m.fast_commands for m in self.mmis))
        engine.inc("coalesced_queries", sum(m.fast_queries for m in self.mmis))

    def fetch(self, kernel: int) -> Generator:
        # Uncontended fetches take the MMI's coalesced fast path: the
        # bus → port → processing ladder is one accumulated timeout
        # (see repro.sim.mmi), with identical cycle accounting.
        result = yield from self._device[kernel].query(lambda: self.tsu.fetch(kernel))
        return result

    def _posted_stores(self, kernel: int, nentries: int) -> Generator:
        # A metadata stream is *posted* stores into the TSU's address
        # window: the CPU issues them back-to-back at store-issue rate and
        # the TSU absorbs them in its internal pipeline, so the cost per
        # entry is the store issue latency — independent of the TSU's
        # command processing time (unlike queries/completions).
        mmi = self._device[kernel]
        yield from mmi.command(lambda: None)
        yield (mmi.l1_access_cycles + 2) * max(nentries - 1, 0)

    def complete_inlet(self, kernel: int, block: DDMBlock) -> Generator:
        yield from self._posted_stores(kernel, block.size)
        self.tsu.complete_inlet(kernel)
        self.wake_kernels()

    def resolve_dynamic(
        self, kernel: int, local_iid: int, outcome: object
    ) -> Generator:
        # A spawned subflow's template stream is posted stores into the
        # TSU's address window, exactly like Inlet metadata; a branch key
        # is encoded in the completion flag itself and costs nothing extra.
        if isinstance(outcome, Subflow):
            yield from self._posted_stores(kernel, outcome.ninstances)

    def complete_thread(
        self,
        kernel: int,
        local_iid: int,
        instance: DThreadInstance,
        outcome: object = None,
    ) -> Generator:
        # The completion flag is one posted store; internal consumer
        # updates occupy the TSU pipeline but not the CPU — the port hold
        # already serialises back-to-back completions.
        yield from self._device[kernel].command(
            lambda: self._apply_thread_completion(kernel, local_iid, outcome)
        )

    def complete_outlet(self, kernel: int, block: DDMBlock) -> Generator:
        yield from self._device[kernel].command(
            lambda: self.tsu.complete_outlet(kernel)
        )
        self.wake_kernels()
