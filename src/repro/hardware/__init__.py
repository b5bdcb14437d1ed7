"""Hardware model: GPU specs, interconnect topologies, machine factories."""

from repro.hardware.spec import (
    GPUSpec,
    LinkSpec,
    MachineSpec,
    group_leaders,
    link_class,
    node_groups,
    spans_nodes,
)
from repro.hardware.topology import Topology
from repro.hardware.machines import (
    dgx1,
    dgx_a100,
    single_gpu,
    uniform_machine,
    multi_node_cluster,
    MACHINES,
    get_machine,
)

__all__ = [
    "GPUSpec",
    "LinkSpec",
    "MachineSpec",
    "Topology",
    "dgx1",
    "dgx_a100",
    "single_gpu",
    "uniform_machine",
    "multi_node_cluster",
    "MACHINES",
    "get_machine",
    "group_leaders",
    "link_class",
    "node_groups",
    "spans_nodes",
]
