"""Hierarchical collectives: intra-node rings + inter-node trees.

A flat :class:`~repro.comm.collectives.Communicator` over a multi-node
rank set pays the NIC-share cliff on every byte: the topology caps the
collective bandwidth at ``nic / gpus_per_node`` because all ranks of a
node squeeze through one NIC at once. The
:class:`HierarchicalCommunicator` decomposes each collective into
phases that keep the bulk of the traffic on the fast intra-node links
and send each payload over the NIC once per node pair, NCCL-tree style:

* **broadcast** — tree broadcast root → node leaders over the NICs,
  then a pipelined ring broadcast leader → members inside each node;
* **allreduce** — ring reduce to each node's leader, tree allreduce
  among the leaders, ring broadcast of the result back down;
* **reduce** — ring reduce to each node's representative, tree reduce
  of the partials into the root;
* **allgather** — intra-node gather, leader exchange of the node
  aggregates, intra-node broadcast of the remote rows.

The class defines no collective of its own: it overrides only the four
``_*_phases`` methods that return a collective's *phase plan* (see
:mod:`repro.comm.collectives`). Validation, the payload closure, the
executor and the ``*_duration`` predictors are the base class's, so a
prediction is exactly the time the executed plan takes. Each phase is a
rendezvous on a *sub*-communicator (per-node groups and the node-leader
group), so phase timing, fault injection, retries and telemetry link
classification all come from the existing machinery: intra phases
account their bytes as ``intra_node``, leader phases as ``inter_node``
— the split the multi-node benches report.

**Numerics.** The functional payload is computed once, in flat rank
order, by the same closure a flat communicator would run — hierarchical
collectives are therefore *bit-identical* to flat ones (the real-world
analogue — NCCL ring vs tree reassociation — is a timing model detail
this simulator deliberately does not reproduce). The closure rides the
inter-node phase, so captured plans (:mod:`repro.plan`) replay
hierarchical schedules with the correct data movement.

On a single-node rank set every phase plan is the flat one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.comm.collectives import Communicator, PhasePlan
from repro.hardware.spec import node_groups
from repro.resilience.policy import RetryPolicy


class HierarchicalCommunicator(Communicator):
    """A :class:`Communicator` whose collectives are node-hierarchical.

    Drop-in compatible with the flat communicator (same constructor,
    same public methods, same functional results); only the simulated
    timing and the link-tier accounting differ, and only when the rank
    set actually spans nodes.
    """

    def __init__(
        self,
        ctx,
        ranks: Optional[Sequence[int]] = None,
        bw_derate: float = 1.0,
        collective_overhead: float = 12e-6,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        super().__init__(ctx, ranks, bw_derate, collective_overhead, timeout, retry)
        self.groups: List[List[int]] = node_groups(ctx.machine, self.ranks)
        #: False on single-node rank sets: every plan is the flat one.
        self.is_hierarchical = len(self.groups) > 1
        #: one ring communicator per multi-rank node, in group order.
        self._node_comms: List[Communicator] = []
        self._leader_comms: Dict[Tuple[int, ...], Communicator] = {}
        if self.is_hierarchical:
            self._node_comms = [
                Communicator(ctx, g, bw_derate, collective_overhead, timeout, retry)
                for g in self.groups
                if len(g) > 1
            ]

    def _leader_comm(self, root: Optional[int] = None) -> Communicator:
        """The inter-node communicator: one representative per node.

        With a ``root``, the root replaces its node's default leader so
        rooted ops (broadcast, reduce) need no extra intra-node hop.
        """
        leaders = tuple(
            root if (root is not None and root in g) else g[0]
            for g in self.groups
        )
        comm = self._leader_comms.get(leaders)
        if comm is None:
            comm = Communicator(
                self.ctx,
                list(leaders),
                self.bw_derate,
                self.collective_overhead,
                self.timeout,
                self.retry,
            )
            self._leader_comms[leaders] = comm
        return comm

    @property
    def plans_broadcasts(self) -> bool:
        # the planned broadcast is the flat single rendezvous; across
        # nodes the broadcast runs as inter + intra phases instead.
        return not self.is_hierarchical

    # -- phase plans ----------------------------------------------------------

    def _broadcast_phases(self, root: int, nbytes: int) -> PhasePlan:
        if not self.is_hierarchical:
            return super()._broadcast_phases(root, nbytes)
        # a partial (cached) broadcast moves only its payload bytes in
        # *every* phase — the NIC hop and the intra-node rings forward
        # the same shrunken packet, and each tier's accounting sees it.
        leaders = self._leader_comm(root)
        return [
            [(leaders, leaders._broadcast_terms(root, nbytes, tree=True),
              "/inter", nbytes, 0.0, True)],
            [(sub, sub._broadcast_terms(
                root if root in sub.ranks else sub.ranks[0], nbytes),
              "/intra", nbytes, 0.0, False)
             for sub in self._node_comms],
        ]

    def _allreduce_phases(
        self, nbytes: int, count: int = 0, mean: bool = False
    ) -> PhasePlan:
        if not self.is_hierarchical:
            return super()._allreduce_phases(nbytes, count, mean)
        leaders = self._leader_comm()
        return [
            [(sub, sub._reduce_terms(nbytes), "/intra_reduce", nbytes,
              sub._reduction_flops(count), False)
             for sub in self._node_comms],
            [(leaders, leaders._allreduce_terms(nbytes, tree=True), "/inter",
              nbytes, leaders._reduction_flops(count, mean), True)],
            [(sub, sub._broadcast_terms(sub.ranks[0], nbytes), "/intra_bcast",
              nbytes, 0.0, False)
             for sub in self._node_comms],
        ]

    def _reduce_phases(self, root: int, nbytes: int, count: int) -> PhasePlan:
        if not self.is_hierarchical:
            return super()._reduce_phases(root, nbytes, count)
        leaders = self._leader_comm(root)
        return [
            [(sub, sub._reduce_terms(nbytes), "/intra", nbytes,
              sub._reduction_flops(count), False)
             for sub in self._node_comms],
            [(leaders, leaders._reduce_terms(nbytes, tree=True), "/inter",
              nbytes, leaders._reduction_flops(count), True)],
        ]

    def _allgather_phases(
        self, nbytes_of: Callable[[Sequence[int]], int]
    ) -> PhasePlan:
        if not self.is_hierarchical:
            return super()._allgather_phases(nbytes_of)
        total = nbytes_of(self.ranks)
        local = [nbytes_of(sub.ranks) for sub in self._node_comms]
        leaders = self._leader_comm()
        return [
            [(sub, sub._allgather_terms(n), "/intra_gather", n, 0.0, False)
             for sub, n in zip(self._node_comms, local)],
            [(leaders, leaders._allgather_terms(total), "/inter", total, 0.0,
              True)],
            # the remote rows, broadcast inside each node by its leader
            [(sub, sub._broadcast_terms(sub.ranks[0], total - n),
              "/intra_bcast", total - n, 0.0, False)
             for sub, n in zip(self._node_comms, local) if total > n],
        ]
