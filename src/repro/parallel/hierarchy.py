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

Each phase is a rendezvous on a *sub*-communicator (per-node groups and
the node-leader group), so phase timing, fault injection, retries and
telemetry link classification all come from the existing machinery:
intra phases account their bytes as ``intra_node``, leader phases as
``inter_node`` — the split the multi-node benches report.

**Numerics.** The functional payload is computed once, in flat rank
order, by the same closure a flat communicator would run — hierarchical
collectives are therefore *bit-identical* to flat ones (the real-world
analogue — NCCL ring vs tree reassociation — is a timing model detail
this simulator deliberately does not reproduce). The closure is
attached to the inter-node phase, so captured plans (:mod:`repro.plan`)
replay hierarchical schedules with the correct data movement.

On a single-node rank set every operation falls back to the flat
implementation unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.comm.collectives import Communicator
from repro.device.stream import Event, Stream
from repro.device.tensor import DeviceTensor
from repro.errors import CommunicationError
from repro.parallel.groups import node_groups
from repro.resilience.policy import RetryPolicy


def _ceil_log2(n: int) -> int:
    """Tree depth of ``n`` leaves (>= 1 for n >= 2)."""
    depth = 0
    span = 1
    while span < n:
        span *= 2
        depth += 1
    return max(depth, 1)


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
        #: False on single-node rank sets: every op delegates to flat.
        self.is_hierarchical = len(self.groups) > 1
        self._group_of: Dict[int, List[int]] = {
            r: g for g in self.groups for r in g
        }
        self._node_comms: Dict[Tuple[int, ...], Communicator] = {}
        self._leader_comms: Dict[Tuple[int, ...], Communicator] = {}
        self._hier_bcast_cache: Dict[Tuple[int, int], float] = {}
        if self.is_hierarchical:
            for g in self.groups:
                if len(g) > 1:
                    self._node_comms[tuple(g)] = Communicator(
                        ctx, g, bw_derate, collective_overhead, timeout, retry
                    )

    # -- sub-communicator plumbing ------------------------------------------

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

    def _phase_deps(
        self,
        deps_by_rank: Mapping[int, Sequence[Event]],
        phase_ranks: Sequence[int],
        consumed: set,
    ) -> Dict[int, Sequence[Event]]:
        """Caller dependencies for the ranks entering their first phase."""
        deps = {}
        for r in phase_ranks:
            if r in deps_by_rank and r not in consumed:
                deps[r] = deps_by_rank[r]
                consumed.add(r)
        return deps

    # -- per-phase timing terms (mirror the flat formulas per tier) ---------

    def _bcast_terms(
        self, comm: Communicator, root: int, nbytes: int, tree: bool = False
    ) -> Tuple[float, float]:
        bw = comm.topology.broadcast_bandwidth(root, comm.ranks) * comm.bw_derate
        latency = max(
            comm.topology.p2p_latency(root, r) for r in comm.ranks if r != root
        )
        if tree:
            latency *= _ceil_log2(comm.size)
        return comm.collective_overhead + latency, nbytes / bw

    def _reduce_terms(
        self, comm: Communicator, nbytes: int, tree: bool = False
    ) -> Tuple[float, float]:
        bw = comm.topology.allreduce_bandwidth(comm.ranks) * comm.bw_derate
        volume = (comm.size - 1) / comm.size * nbytes
        hops = _ceil_log2(comm.size) if tree else comm.size - 1
        latency = hops * comm.topology.p2p_latency(comm.ranks[0], comm.ranks[1])
        return comm.collective_overhead + latency, volume / bw

    def _allreduce_terms(
        self, comm: Communicator, nbytes: int, tree: bool = False
    ) -> Tuple[float, float]:
        bw = comm.topology.allreduce_bandwidth(comm.ranks) * comm.bw_derate
        volume = 2.0 * (comm.size - 1) / comm.size * nbytes
        hops = 2 * (_ceil_log2(comm.size) if tree else comm.size - 1)
        latency = hops * comm.topology.p2p_latency(comm.ranks[0], comm.ranks[1])
        return comm.collective_overhead + latency, volume / bw

    def _gather_terms(
        self, comm: Communicator, nbytes: int
    ) -> Tuple[float, float]:
        bw = comm.topology.collective_bandwidth(comm.ranks) * comm.bw_derate
        volume = (comm.size - 1) / comm.size * nbytes
        latency = (comm.size - 1) * comm.topology.p2p_latency(
            comm.ranks[0], comm.ranks[1]
        )
        return latency, volume / bw

    # -- collectives --------------------------------------------------------

    @property
    def plans_broadcasts(self) -> bool:
        # the planned broadcast is the flat single rendezvous; across
        # nodes the broadcast runs as inter + intra phases instead.
        return not self.is_hierarchical

    def broadcast_duration(self, root: int, nbytes: int) -> float:
        if not self.is_hierarchical or self.size <= 1:
            return super().broadcast_duration(root, nbytes)
        key = (root, nbytes)
        cached = self._hier_bcast_cache.get(key)
        if cached is not None:
            return cached
        fixed, bw_time = self._bcast_terms(
            self._leader_comm(root), root, nbytes, tree=True
        )
        duration = fixed + bw_time
        intra = 0.0
        for g in self.groups:
            if len(g) == 1:
                continue
            rep = root if root in g else g[0]
            f, b = self._bcast_terms(self._node_comms[tuple(g)], rep, nbytes)
            intra = max(intra, f + b)
        duration += intra
        self._hier_bcast_cache[key] = duration
        return duration

    def allreduce_duration(self, nbytes: int) -> float:
        if not self.is_hierarchical or self.size <= 1:
            return super().allreduce_duration(nbytes)
        intra_reduce = 0.0
        intra_bcast = 0.0
        for g in self.groups:
            if len(g) == 1:
                continue
            sub = self._node_comms[tuple(g)]
            f, b = self._reduce_terms(sub, nbytes)
            intra_reduce = max(intra_reduce, f + b)
            f, b = self._bcast_terms(sub, g[0], nbytes)
            intra_bcast = max(intra_bcast, f + b)
        f, b = self._allreduce_terms(self._leader_comm(), nbytes, tree=True)
        return intra_reduce + f + b + intra_bcast

    def allgather_duration(self, total_nbytes: int) -> float:
        if not self.is_hierarchical or self.size <= 1:
            return super().allgather_duration(total_nbytes)
        # uniform-payload approximation: each node contributes its
        # member share of the gathered bytes.
        intra_gather = 0.0
        intra_bcast = 0.0
        for g in self.groups:
            if len(g) == 1:
                continue
            sub = self._node_comms[tuple(g)]
            node_bytes = total_nbytes * len(g) // self.size
            f, b = self._gather_terms(sub, node_bytes)
            intra_gather = max(intra_gather, f + b)
            f, b = self._bcast_terms(sub, g[0], total_nbytes - node_bytes)
            intra_bcast = max(intra_bcast, f + b)
        f, b = self._gather_terms(self._leader_comm(), total_nbytes)
        return intra_gather + f + b + intra_bcast

    def broadcast(
        self,
        root: int,
        src: DeviceTensor,
        dsts: Mapping[int, DeviceTensor],
        streams: Optional[Mapping[int, Stream]] = None,
        deps_by_rank: Optional[Mapping[int, Sequence[Event]]] = None,
        stage: Optional[int] = None,
        name: str = "broadcast",
        payload_nbytes: Optional[int] = None,
        copy_fn: Optional[Callable[[], None]] = None,
    ) -> Dict[int, Event]:
        if not self.is_hierarchical:
            return super().broadcast(
                root, src, dsts, streams, deps_by_rank, stage, name,
                payload_nbytes=payload_nbytes, copy_fn=copy_fn,
            )
        if root not in self.ranks:
            raise CommunicationError(f"broadcast root {root} not in {self.ranks}")
        shapes: Dict[int, Optional[Tuple[int, ...]]] = {root: src.shape}
        for rank in self.ranks:
            if rank == root:
                continue
            dst = dsts.get(rank)
            shapes[rank] = dst.shape if dst is not None else None
        self._check_rendezvous(name, shapes)

        def full_copy() -> None:
            src_data = src.data
            if src_data is None:
                return
            for rank, dst in dsts.items():
                if rank != root and dst.data is not None:
                    np.copyto(dst.data, src_data)

        compute = copy_fn if copy_fn is not None else full_copy
        compute()
        # a partial (cached) broadcast moves only its payload bytes in
        # *every* phase — the NIC hop and the intra-node rings forward
        # the same shrunken packet, and each tier's accounting sees it.
        nbytes = src.nbytes if payload_nbytes is None else int(payload_nbytes)
        deps_by_rank = deps_by_rank or {}
        consumed: set = set()
        events: Dict[int, Event] = {}
        # inter-node: tree broadcast root -> node leaders over the NICs
        leader_comm = self._leader_comm(root)
        fixed, bw_time = self._bcast_terms(leader_comm, root, nbytes, tree=True)
        events.update(
            leader_comm._rendezvous(
                leader_comm._streams(streams),
                fixed,
                bw_time,
                f"{name}/inter",
                self._phase_deps(deps_by_rank, leader_comm.ranks, consumed),
                stage,
                nbytes,
                compute,
            )
        )
        # intra-node: pipelined ring broadcast leader -> members
        for g in self.groups:
            if len(g) == 1:
                continue
            rep = root if root in g else g[0]
            sub = self._node_comms[tuple(g)]
            fixed, bw_time = self._bcast_terms(sub, rep, nbytes)
            events.update(
                sub._rendezvous(
                    sub._streams(streams),
                    fixed,
                    bw_time,
                    f"{name}/intra",
                    self._phase_deps(deps_by_rank, g, consumed),
                    stage,
                    nbytes,
                    None,
                )
            )
        return events

    def allreduce(
        self,
        tensors: Mapping[int, DeviceTensor],
        op: str = "sum",
        streams: Optional[Mapping[int, Stream]] = None,
        deps_by_rank: Optional[Mapping[int, Sequence[Event]]] = None,
        name: str = "allreduce",
    ) -> Dict[int, Event]:
        if not self.is_hierarchical:
            return super().allreduce(tensors, op, streams, deps_by_rank, name)
        if op not in ("sum", "mean"):
            raise CommunicationError(f"unsupported allreduce op {op!r}")
        self._check_uniform(tensors, name)

        def compute() -> None:
            arrays = [
                tensors[r].data for r in self.ranks if tensors[r].data is not None
            ]
            if not arrays:
                return
            total = arrays[0].copy()
            for a in arrays[1:]:
                total += a
            if op == "mean":
                total /= self.size
            for r in self.ranks:
                if tensors[r].data is not None:
                    np.copyto(tensors[r].data, total)

        compute()
        ref = tensors[self.ranks[0]]
        nbytes = ref.nbytes
        count = ref.size
        deps_by_rank = deps_by_rank or {}
        consumed: set = set()
        events: Dict[int, Event] = {}
        # phase 1: ring reduce to each node's leader
        for g in self.groups:
            if len(g) == 1:
                continue
            sub = self._node_comms[tuple(g)]
            fixed, bw_time = self._reduce_terms(sub, nbytes)
            events.update(
                sub._rendezvous(
                    sub._streams(streams),
                    fixed,
                    bw_time,
                    f"{name}/intra_reduce",
                    self._phase_deps(deps_by_rank, g, consumed),
                    None,
                    nbytes,
                    None,
                    flops=(sub.size - 1) / sub.size * count,
                )
            )
        # phase 2: tree allreduce among the node leaders (NIC tier)
        leader_comm = self._leader_comm()
        n_leaders = leader_comm.size
        leader_flops = (n_leaders - 1) / n_leaders * count
        if op == "mean":
            leader_flops += count / n_leaders
        fixed, bw_time = self._allreduce_terms(leader_comm, nbytes, tree=True)
        events.update(
            leader_comm._rendezvous(
                leader_comm._streams(streams),
                fixed,
                bw_time,
                f"{name}/inter",
                self._phase_deps(deps_by_rank, leader_comm.ranks, consumed),
                None,
                nbytes,
                compute,
                flops=leader_flops,
            )
        )
        # phase 3: ring broadcast of the reduced buffer back down
        for g in self.groups:
            if len(g) == 1:
                continue
            sub = self._node_comms[tuple(g)]
            fixed, bw_time = self._bcast_terms(sub, g[0], nbytes)
            events.update(
                sub._rendezvous(
                    sub._streams(streams),
                    fixed,
                    bw_time,
                    f"{name}/intra_bcast",
                    {},
                    None,
                    nbytes,
                    None,
                )
            )
        return events

    def reduce(
        self,
        root: int,
        tensors: Mapping[int, DeviceTensor],
        streams: Optional[Mapping[int, Stream]] = None,
        deps_by_rank: Optional[Mapping[int, Sequence[Event]]] = None,
        name: str = "reduce",
    ) -> Dict[int, Event]:
        if not self.is_hierarchical:
            return super().reduce(root, tensors, streams, deps_by_rank, name)
        if root not in self.ranks:
            raise CommunicationError(f"reduce root {root} not in {self.ranks}")
        self._check_uniform(tensors, name)
        root_tensor = tensors[root]

        def compute() -> None:
            if root_tensor.data is None:
                return
            for r in self.ranks:
                if r == root:
                    continue
                src = tensors[r]
                if src.data is not None:
                    root_tensor.data += src.data

        compute()
        nbytes = root_tensor.nbytes
        count = root_tensor.size
        deps_by_rank = deps_by_rank or {}
        consumed: set = set()
        events: Dict[int, Event] = {}
        # phase 1: ring reduce to each node's representative
        for g in self.groups:
            if len(g) == 1:
                continue
            rep = root if root in g else g[0]
            sub = self._node_comms[tuple(g)]
            fixed, bw_time = self._reduce_terms(sub, nbytes)
            events.update(
                sub._rendezvous(
                    sub._streams(streams),
                    fixed,
                    bw_time,
                    f"{name}/intra",
                    self._phase_deps(deps_by_rank, g, consumed),
                    None,
                    nbytes,
                    None,
                    flops=(sub.size - 1) / sub.size * count,
                )
            )
        # phase 2: tree reduce of the node partials into the root
        leader_comm = self._leader_comm(root)
        n_leaders = leader_comm.size
        fixed, bw_time = self._reduce_terms(leader_comm, nbytes, tree=True)
        events.update(
            leader_comm._rendezvous(
                leader_comm._streams(streams),
                fixed,
                bw_time,
                f"{name}/inter",
                self._phase_deps(deps_by_rank, leader_comm.ranks, consumed),
                None,
                nbytes,
                compute,
                flops=(n_leaders - 1) / n_leaders * count,
            )
        )
        return events

    def allgather(
        self,
        srcs: Mapping[int, DeviceTensor],
        dsts: Mapping[int, DeviceTensor],
        row_offsets: Optional[Mapping[int, int]] = None,
        streams: Optional[Mapping[int, Stream]] = None,
        deps_by_rank: Optional[Mapping[int, Sequence[Event]]] = None,
        name: str = "allgather",
    ) -> Dict[int, Event]:
        if not self.is_hierarchical:
            return super().allgather(
                srcs, dsts, row_offsets, streams, deps_by_rank, name
            )
        self._check_rendezvous(
            name,
            {
                r: ((srcs[r].cols,) if r in srcs and r in dsts else None)
                for r in self.ranks
            },
        )
        total_rows = sum(srcs[r].rows for r in self.ranks)
        offsets: Dict[int, int] = {}
        if row_offsets is None:
            cursor = 0
            for r in self.ranks:
                offsets[r] = cursor
                cursor += srcs[r].rows
        else:
            offsets = dict(row_offsets)
        for r in self.ranks:
            dst = dsts[r]
            if dst.rows != total_rows:
                raise CommunicationError(
                    f"allgather: rank {r} dst has {dst.rows} rows, need {total_rows}"
                )

        def compute() -> None:
            for r in self.ranks:
                dst = dsts[r]
                if dst.data is None:
                    continue
                for s in self.ranks:
                    src = srcs[s]
                    if src.data is not None:
                        dst.data[offsets[s] : offsets[s] + src.rows] = src.data

        compute()
        total_bytes = sum(srcs[r].nbytes for r in self.ranks)
        node_bytes = {
            tuple(g): sum(srcs[r].nbytes for r in g) for g in self.groups
        }
        deps_by_rank = deps_by_rank or {}
        consumed: set = set()
        events: Dict[int, Event] = {}
        # phase 1: gather each node's rows on every member (ring allgather)
        for g in self.groups:
            if len(g) == 1:
                continue
            sub = self._node_comms[tuple(g)]
            fixed, bw_time = self._gather_terms(sub, node_bytes[tuple(g)])
            events.update(
                sub._rendezvous(
                    sub._streams(streams),
                    fixed,
                    bw_time,
                    f"{name}/intra_gather",
                    self._phase_deps(deps_by_rank, g, consumed),
                    None,
                    node_bytes[tuple(g)],
                    None,
                )
            )
        # phase 2: node leaders exchange the per-node aggregates (NIC tier)
        leader_comm = self._leader_comm()
        fixed, bw_time = self._gather_terms(leader_comm, total_bytes)
        events.update(
            leader_comm._rendezvous(
                leader_comm._streams(streams),
                fixed,
                bw_time,
                f"{name}/inter",
                self._phase_deps(deps_by_rank, leader_comm.ranks, consumed),
                None,
                total_bytes,
                compute,
            )
        )
        # phase 3: broadcast the remote rows inside each node
        for g in self.groups:
            if len(g) == 1:
                continue
            remote = total_bytes - node_bytes[tuple(g)]
            if remote <= 0:
                continue
            sub = self._node_comms[tuple(g)]
            fixed, bw_time = self._bcast_terms(sub, g[0], remote)
            events.update(
                sub._rendezvous(
                    sub._streams(streams),
                    fixed,
                    bw_time,
                    f"{name}/intra_bcast",
                    {},
                    None,
                    remote,
                    None,
                )
            )
        return events
