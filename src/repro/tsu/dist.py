"""TFluxDist: the TSU protocol sharded across message-passing nodes.

Each node of a TFluxDist machine is a TFluxSoft-style multicore: its
kernels share one coherent memory and one dedicated TSU-Emulator core
that drains a node-local TUB (:mod:`repro.tsu.software`).  What changes
off-chip is *where post-processing lands*: a completing DThread's
consumers may have their Ready Counts in another node's SMs, and the
update must then travel as a :class:`~repro.net.message.Message` over
the :class:`~repro.net.fabric.Network` instead of a locked cache line.

The :class:`~repro.tsu.group.TSUGroup` state machine is **never forked**
(the repo-wide invariant): one group spans all kernels of all nodes, and
this adapter — like every other platform adapter — adds costs only.  Two
deliberate simplifications, both timing-side and both following the
documented :mod:`repro.tsu.multigroup` precedent:

* Ready-Count decrements apply *functionally* when the producing node's
  emulator drains the completion; only the **wake signal** to a remote
  kernel pays NIC + link + latency.  A remote kernel that is already
  awake for other reasons may therefore observe ready work up to ~one
  message latency early — never late, and never functionally wrong.
* Each node's kernels price their loads/stores through the machine's
  coherent cache model as usual; the network adds the *cross-node* cost
  on top: lines last written by a remote node are pulled through the
  :class:`~repro.net.ownermap.RegionOwnerMap` and the destination NIC's
  ingest clock before the DThread can run.

The per-node TUB shards, emulators, fetch and TUB push are
:class:`~repro.tsu.software.SoftwareTSUAdapter`'s; this adapter adds only
what crosses nodes: remote post-processing, phase broadcasts, the
TERMINATE/ACK barrier and operand pulls.  With one node nothing is ever
remote and every path collapses to the software adapter's —
``tests/test_dist_differential.py`` pins the cycle counts bit-identical.

Fan-out is relayed through *clusters* of ``cluster_size`` nodes (default:
one cluster spanning every node, i.e. point-to-point).  A sender emits
one aggregated message per remote cluster to its **head** (lowest node),
which re-sends to its members on arrival, so the source NIC serialises
``nclusters - 1`` messages instead of ``nnodes - 1`` — the sender's NIC,
not the fabric, is the wall at 64 nodes, the §4.1 "multiple TSU Groups"
observation one level up.  Only wake signals ride the relay (a relayed
kernel may wake one hop later; ``has_work``'s re-check keeps that a
timing effect); the TERMINATE/ACK correctness barrier stays
point-to-point.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.block import DDMBlock
from repro.core.dthread import DThreadInstance
from repro.net.fabric import Network
from repro.net.message import INLET_ENTRY_BYTES, UPDATE_BYTES, Message, MsgKind, NetParams
from repro.net.ownermap import RegionOwnerMap
from repro.net.topology import Topology
from repro.sim.accesses import AccessSummary
from repro.sim.engine import Engine
from repro.tsu.group import TSUGroup
from repro.tsu.software import SoftTSUCosts, SoftwareTSUAdapter

__all__ = ["DistTSUAdapter"]


class DistTSUAdapter(SoftwareTSUAdapter):
    """One software-TSU shard per node; remote updates ride the network."""

    def __init__(
        self,
        engine: Engine,
        tsu: TSUGroup,
        nnodes: int,
        costs: SoftTSUCosts = SoftTSUCosts(),
        net_params: Optional[NetParams] = None,
        topology: Optional[Topology] = None,
        cluster_size: Optional[int] = None,
    ) -> None:
        if nnodes > 1 and tsu.allow_stealing:
            raise ValueError(
                "work stealing pops remote SMs synchronously and cannot be "
                "modelled across nodes; use allow_stealing=False for nnodes > 1"
            )
        self.nnodes = nnodes
        super().__init__(engine, tsu, costs)
        self.net = Network(engine, nnodes, net_params or NetParams(), topology)
        #: Nodes per relay cluster (``None``: one cluster, flat fan-out).
        self.cluster_size = cluster_size if cluster_size is not None else nnodes
        # Cross-node memory pricing, wired in by SimulatedRuntime once its
        # memory system exists (see attach_memory).
        self._memsys = None
        self._ownermap: Optional[RegionOwnerMap] = None
        # Statistics (plain ints on the hot path; see publish_counters).
        self.remote_updates = 0
        self.local_updates = 0
        self.relayed_messages = 0

    def attach_memory(self, memsys, line_size: int, regions) -> None:
        """Enable cross-node data forwarding."""
        self._memsys = memsys
        self._ownermap = RegionOwnerMap(regions, line_size, self.nnodes)

    def publish_counters(self, counters) -> None:
        counters.inc("net.relayed_messages", self.relayed_messages)
        super().publish_counters(counters)
        counters.inc("net.remote_updates", self.remote_updates)
        counters.inc("net.local_updates", self.local_updates)
        self.net.publish_counters(counters)

    # -- post-processing ---------------------------------------------------
    def _post_process(
        self, node: int, kernel: int, local_iid: int, outcome: object = None
    ) -> None:
        if self.nnodes == 1:
            super()._post_process(node, kernel, local_iid, outcome)
            return
        tkt = self.tsu.tkt
        assert tkt is not None
        node_of = self._node_of_kernel
        consumers = self.tsu.current_block.consumers[local_iid]
        upd_by_node: dict[int, int] = {}
        for c in consumers:
            t = node_of[tkt.kernel_of(c)]
            upd_by_node[t] = upd_by_node.get(t, 0) + 1
        for t, n in upd_by_node.items():
            if t == node:
                self.local_updates += n
            else:
                self.remote_updates += n

        newly_ready = self.tsu.complete_thread(kernel, local_iid, outcome)
        drained = self.tsu.phase_name in ("OUTLET_PENDING", "EXITED")

        ready_by_node: dict[int, set[int]] = {}
        for c in newly_ready:
            k = tkt.kernel_of(c)
            ready_by_node.setdefault(node_of[k], set()).add(k)

        # Local wake now; remote wakes ride READY_UPDATE messages.
        if drained:
            self._wake_node(node)
        elif node in ready_by_node:
            self.wake_kernels(ready_by_node[node])

        targets = set(upd_by_node) - {node}
        if drained:
            targets.update(t for t in range(self.nnodes) if t != node)
        wake_sets = {
            t: (set(self._node_kernels[t]) if drained else ready_by_node.get(t, set()))
            for t in targets
        }
        payloads = {t: max(upd_by_node.get(t, 0), 1) * UPDATE_BYTES for t in targets}
        self._fanout_ready(node, sorted(targets), payloads, wake_sets)

    # -- relayed fan-out ---------------------------------------------------
    def _cluster(self, node: int) -> int:
        return node // self.cluster_size

    def _members(self, cluster: int) -> range:
        head = cluster * self.cluster_size
        return range(head, min(head + self.cluster_size, self.nnodes))

    def _send_ready(
        self, src: int, dst: int, payload_bytes: int, wake_set: set[int]
    ) -> None:
        self.net.transmit(
            Message(
                MsgKind.READY_UPDATE, src=src, dst=dst, payload_bytes=payload_bytes
            ),
            on_deliver=(
                (lambda msg, ks=wake_set: self.wake_kernels(ks)) if wake_set else None
            ),
        )

    def _fanout_ready(
        self,
        node: int,
        targets: list[int],
        payloads: dict[int, int],
        wake_sets: dict[int, set[int]],
    ) -> None:
        """Deliver Ready-Count updates (and their wake signals) to *targets*:
        point-to-point inside the sender's cluster, one aggregate per
        remote cluster to its head.  Timing-only: the functional
        decrements already happened in ``_post_process``."""
        home = self._cluster(node)
        by_cluster: dict[int, list[int]] = {}
        for t in targets:
            by_cluster.setdefault(self._cluster(t), []).append(t)
        for cluster, members in sorted(by_cluster.items()):
            if cluster == home:
                for t in members:
                    self._send_ready(node, t, payloads[t], wake_sets[t])
                continue
            head = self._members(cluster)[0]
            aggregate = sum(payloads[t] for t in members)

            def relay(msg: Message, head=head, members=tuple(members)) -> None:
                for t in members:
                    if t == head:
                        if wake_sets[t]:
                            self.wake_kernels(wake_sets[t])
                    else:
                        self.relayed_messages += 1
                        self._send_ready(head, t, payloads[t], wake_sets[t])

            self.net.transmit(
                Message(
                    MsgKind.READY_UPDATE,
                    src=node,
                    dst=head,
                    payload_bytes=max(aggregate, UPDATE_BYTES),
                ),
                on_deliver=relay,
            )

    def _send_wakeup(
        self, src: int, dst: int, kind: MsgKind, payload_bytes: int
    ) -> None:
        self.net.transmit(
            Message(kind, src=src, dst=dst, payload_bytes=payload_bytes),
            on_deliver=lambda msg, ks=frozenset(self._node_kernels[dst]): (
                self.wake_kernels(set(ks))
            ),
        )

    def _broadcast(self, node: int, kind: MsgKind, payload_bytes: int) -> None:
        """Send *kind* from *node* to every other node, waking each on
        arrival (Inlet/Outlet phase-change fan-out), relayed per cluster."""
        home = self._cluster(node)
        nclusters = -(-self.nnodes // self.cluster_size)
        for cluster in range(nclusters):
            members = self._members(cluster)
            if cluster == home:
                for t in members:
                    if t != node:
                        self._send_wakeup(node, t, kind, payload_bytes)
                continue
            head = members[0]

            def relay(msg: Message, head=head, others=members[1:]) -> None:
                self.wake_kernels(set(self._node_kernels[head]))
                for t in others:
                    self.relayed_messages += 1
                    self._send_wakeup(head, t, msg.kind, msg.payload_bytes)

            self.net.transmit(
                Message(kind, src=node, dst=head, payload_bytes=payload_bytes),
                on_deliver=relay,
            )

    # -- protocol costs ----------------------------------------------------
    def complete_inlet(self, kernel: int, block: DDMBlock) -> Generator:
        yield from super().complete_inlet(kernel, block)
        if self.nnodes > 1:
            self._broadcast(
                self._node_of_kernel[kernel],
                MsgKind.INLET_BCAST,
                INLET_ENTRY_BYTES * max(block.size, 1),
            )

    def complete_outlet(self, kernel: int, block: DDMBlock) -> Generator:
        yield from super().complete_outlet(kernel, block)
        if self.nnodes == 1:
            return
        node = self._node_of_kernel[kernel]
        if not self.tsu.is_exited():
            self._broadcast(node, MsgKind.OUTLET_BCAST, 0)
            return
        # Distributed termination barrier: the node that ran the last
        # Outlet tells every other node to drain; it may not exit until
        # all have acknowledged (TERMINATE/ACK round trips).
        acks = []
        for t in range(self.nnodes):
            if t == node:
                continue
            ack = self.engine.event(name=f"term-ack:{t}")
            acks.append(ack)

            def deliver_terminate(msg: Message, t=t, ack=ack) -> None:
                self.wake_kernels(set(self._node_kernels[t]))
                self.net.transmit(
                    Message(MsgKind.ACK, src=t, dst=node),
                    on_deliver=lambda m, ack=ack: ack.succeed(),
                )

            self.net.transmit(
                Message(MsgKind.TERMINATE, src=node, dst=t),
                on_deliver=deliver_terminate,
            )
        yield self.engine.all_of(acks, name="termination-barrier")

    # -- memory pricing ----------------------------------------------------
    def thread_memory_cycles(
        self, kernel: int, instance: DThreadInstance, summary: AccessSummary
    ) -> Optional[int]:
        """Coherent-cache cost plus cross-node operand pulls.

        ``None`` with one node (or before ``attach_memory``) defers to
        the driver's own pricing — the exact TFluxSoft path.
        """
        if self.nnodes == 1 or self._memsys is None:
            return None
        assert self._ownermap is not None
        base = int(self._memsys.run_summary(kernel, summary))
        node = self._node_of_kernel[kernel]
        pulls = self._ownermap.access(node, summary)
        if pulls:
            return base + self.net.pull(node, pulls)
        return base
