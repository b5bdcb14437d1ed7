"""Multi-node parallelism: hierarchical collectives + mixture planning.

The subsystem has three tiers:

* **collectives** — :class:`HierarchicalCommunicator` decomposes every
  collective into intra-node ring phases and an inter-node tree phase,
  paying each NIC once per node instead of once per rank (bit-identical
  payloads to the flat communicator);
* **trainers** — :class:`Parallel15DTrainer` / :class:`Parallel2DTrainer`
  promote the CAGNET grid baselines to multi-node first-class trainers,
  and :class:`MixtureTrainer` dispatches each GCN layer to its own
  scheme;
* **planning** — :class:`ParallelismPlanner` prices every scheme with
  the simulator's own cost/communication models and emits an
  explainable :class:`ParallelismPlan` (the ``repro parallel plan``
  CLI prints it).
"""

from repro.hardware import (
    group_leaders,
    link_class,
    node_groups,
    spans_nodes,
)
from repro.parallel.hierarchy import HierarchicalCommunicator
from repro.parallel.mixture import MixtureTrainer
from repro.parallel.planner import (
    LayerChoice,
    ParallelismPlan,
    ParallelismPlanner,
    SchemeCost,
)
from repro.parallel.strategies import (
    FIXED_SCHEMES,
    LAYER_SCHEMES,
    allgather_spmm,
)
from repro.parallel.trainer15d import Parallel15DTrainer
from repro.parallel.trainer2d import Parallel2DTrainer

__all__ = [
    "FIXED_SCHEMES",
    "LAYER_SCHEMES",
    "HierarchicalCommunicator",
    "LayerChoice",
    "MixtureTrainer",
    "Parallel15DTrainer",
    "Parallel2DTrainer",
    "ParallelismPlan",
    "ParallelismPlanner",
    "SchemeCost",
    "allgather_spmm",
    "group_leaders",
    "link_class",
    "node_groups",
    "spans_nodes",
]
