"""Dataclasses describing GPUs, links and machines.

The numbers mirror Section 6 of the paper:

* **V100** (DGX-1): 32 GB HBM2 at 900 GB/s, 6 NVLink ports, each link
  25 GB/s per direction; peak FP32 throughput 15.7 TFLOP/s.
* **A100** (DGX-A100): 80 GB HBM2e at 2 TB/s, 12 NVLink ports connected to
  an NVSwitch, 600 GB/s bidirectional peer bandwidth; peak FP32 19.5 TFLOP/s.

The *effective* rates used by the cost model are derated from peak by
empirical efficiency factors (sparse kernels never reach peak), see
:mod:`repro.kernels.cost`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import TopologyError


@dataclass(frozen=True)
class GPUSpec:
    """Static description of one GPU model."""

    name: str
    #: Device memory capacity in bytes.
    memory_bytes: int
    #: Global (HBM) memory bandwidth in bytes/second.
    memory_bandwidth: float
    #: Peak dense FP32 throughput in FLOP/s.
    peak_flops: float
    #: Last-level (L2) cache size in bytes; drives the SpMM cache-blocking
    #: discount that produces the paper's super-linear speedups (Fig. 9).
    l2_cache_bytes: int
    #: Fixed per-kernel launch overhead in seconds.
    kernel_overhead: float = 4e-6
    #: Output elements needed to saturate the GPU (SMs x threads x ILP).
    #: Kernels smaller than this run at proportionally lower utilisation —
    #: the reason small graphs (Cora) stop scaling with more GPUs.
    saturation_elements: float = 1.5e6

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0 or self.memory_bandwidth <= 0:
            raise ValueError(f"invalid GPUSpec {self.name}: non-positive memory spec")
        if self.peak_flops <= 0 or self.l2_cache_bytes <= 0:
            raise ValueError(f"invalid GPUSpec {self.name}: non-positive compute spec")


@dataclass(frozen=True)
class LinkSpec:
    """One directed point-to-point link between two GPUs.

    ``bandwidth`` is the one-directional rate of the link in bytes/second.
    A physical NVLink "connection" in NVIDIA's terminology is a pair of
    such directed sub-links. Multi-link connections between the same GPU
    pair (as in DGX-1 where some neighbours share 2 NVLinks) are expressed
    with ``count > 1``.
    """

    src: int
    dst: int
    bandwidth: float
    count: int = 1
    latency: float = 1.5e-6

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise TopologyError(f"self-link on GPU {self.src}")
        if self.bandwidth <= 0 or self.count <= 0:
            raise TopologyError(f"invalid link {self.src}->{self.dst}")

    @property
    def total_bandwidth(self) -> float:
        """Aggregate one-directional bandwidth of this connection."""
        return self.bandwidth * self.count


@dataclass(frozen=True)
class MachineSpec:
    """A single-node multi-GPU machine.

    ``switch_bandwidth`` non-zero means GPUs are connected through a
    crossbar switch (NVSwitch): any pair can communicate at the full
    per-GPU injection bandwidth simultaneously. Otherwise the explicit
    ``links`` list defines a point-to-point mesh (DGX-1 style).
    """

    name: str
    gpu: GPUSpec
    num_gpus: int
    links: Tuple[LinkSpec, ...] = ()
    #: Per-GPU injection bandwidth into the switch, bytes/s (0 = no switch).
    #: With ``node_size`` set, the switch (and the ``links``) describe the
    #: *intra-node* fabric, replicated per node.
    switch_bandwidth: float = 0.0
    switch_latency: float = 1.5e-6
    #: Host (CPU) memory in bytes, used only for dataset staging accounting.
    host_memory_bytes: int = 512 * 2**30
    #: GPUs per node for multi-node clusters (None/0 = single node).
    node_size: int = 0
    #: Per-node NIC bandwidth shared by that node's GPUs, bytes/s.
    inter_node_bandwidth: float = 0.0
    #: One-way latency of an inter-node hop, seconds.
    inter_node_latency: float = 5e-6

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise TopologyError(f"{self.name}: need at least one GPU")
        for link in self.links:
            if not (0 <= link.src < self.num_gpus and 0 <= link.dst < self.num_gpus):
                raise TopologyError(
                    f"{self.name}: link {link.src}->{link.dst} references "
                    f"GPU outside [0, {self.num_gpus})"
                )
        if self.switch_bandwidth < 0:
            raise TopologyError(f"{self.name}: negative switch bandwidth")
        if self.node_size:
            if self.num_gpus % self.node_size != 0:
                raise TopologyError(
                    f"{self.name}: node_size {self.node_size} does not divide "
                    f"{self.num_gpus} GPUs"
                )
            if self.num_nodes > 1 and self.inter_node_bandwidth <= 0:
                raise TopologyError(
                    f"{self.name}: multi-node machine needs inter_node_bandwidth"
                )
            for link in self.links:
                if link.src // self.node_size != link.dst // self.node_size:
                    raise TopologyError(
                        f"{self.name}: explicit link {link.src}->{link.dst} "
                        f"crosses a node boundary; inter-node traffic goes "
                        f"through inter_node_bandwidth"
                    )

    @property
    def has_switch(self) -> bool:
        return self.switch_bandwidth > 0

    @property
    def num_nodes(self) -> int:
        if not self.node_size:
            return 1
        return self.num_gpus // self.node_size

    def node_of(self, rank: int) -> int:
        """The node hosting ``rank``."""
        if not (0 <= rank < self.num_gpus):
            raise TopologyError(f"rank {rank} out of range for {self.name}")
        return rank // self.node_size if self.node_size else 0

    def links_from(self, rank: int) -> List[LinkSpec]:
        """All directed links whose source is ``rank``."""
        return [l for l in self.links if l.src == rank]

    def links_between(self, src: int, dst: int) -> List[LinkSpec]:
        """Direct links from ``src`` to ``dst`` (may be empty)."""
        return [l for l in self.links if l.src == src and l.dst == dst]

    def injection_bandwidth(self, rank: int) -> float:
        """Total bandwidth at which ``rank`` can push data off-device."""
        if self.has_switch:
            return self.switch_bandwidth
        total = sum(l.total_bandwidth for l in self.links_from(rank))
        if total == 0:
            raise TopologyError(f"{self.name}: GPU {rank} has no outgoing links")
        return total


# -- rank grouping by node ----------------------------------------------------
#
# Every hierarchical algorithm starts from the same decomposition of a rank
# set: the ranks split by the node that hosts them, with one *leader* per
# group (its first rank) representing the node on the inter-node tier. Free
# functions over ``MachineSpec`` so the planner can reason about groupings
# without building a ``SimContext``.


def node_groups(machine: MachineSpec, ranks: Sequence[int]) -> List[List[int]]:
    """Split ``ranks`` into per-node groups, ordered by first appearance.

    Within a group the caller's rank order is preserved, so flat-order
    reductions over a group reproduce the arithmetic of the flat
    communicator restricted to that node.
    """
    by_node: Dict[int, List[int]] = {}
    for r in ranks:
        by_node.setdefault(machine.node_of(r), []).append(r)
    return list(by_node.values())


def group_leaders(groups: Sequence[Sequence[int]]) -> List[int]:
    """The representative rank of each group (its first member)."""
    return [g[0] for g in groups]


def spans_nodes(machine: MachineSpec, ranks: Sequence[int]) -> bool:
    """True when ``ranks`` live on more than one node."""
    if machine.num_nodes <= 1:
        return False
    return len({machine.node_of(r) for r in ranks}) > 1


def link_class(machine: MachineSpec, ranks: Sequence[int]) -> str:
    """Telemetry link tier for a rank set: ``intra_node`` or ``inter_node``."""
    return "inter_node" if spans_nodes(machine, ranks) else "intra_node"
