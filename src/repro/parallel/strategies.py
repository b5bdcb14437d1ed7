"""Per-layer SpMM parallelisation schemes for the mixture trainer.

The planner (:mod:`repro.parallel.planner`) chooses one scheme per GCN
layer; :class:`~repro.parallel.mixture.MixtureTrainer` dispatches each
layer's distributed SpMM through this module:

* ``1d`` — the paper's multi-stage broadcast SpMM over the flat
  communicator (:func:`repro.core.spmm_mg.distributed_spmm`);
* ``1d_hier`` — the same staged schedule, with every broadcast routed
  through the hierarchical communicator (intra-node ring + inter-node
  tree), which is what large layers want on multi-node clusters;
* ``1d_allgather`` — replicate the dense operand: one hierarchical
  allgather assembles all ``n`` operand rows on every rank, then a
  single wide SpMM (the rank's row block, its tiles side by side)
  produces the local output. Trades ``n x d`` memory and a colder SpMM working set
  for ``P`` fewer collective launches — the right call for narrow
  layers on latency-dominated clusters (MixGCN's "feature-replicated"
  point in the design space).

Scheme names are the vocabulary shared by the planner, the CLI
(``repro parallel plan``) and ``BENCH_multinode.json``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.comm.collectives import Communicator
from repro.device.engine import SimContext
from repro.device.stream import Event
from repro.device.tensor import DeviceTensor
from repro.errors import ConfigurationError
from repro.kernels.cost import CostModel
from repro.kernels.ops import spmm

#: per-layer schemes the mixture trainer can dispatch.
LAYER_SCHEMES = ("1d", "1d_hier", "1d_allgather")
#: whole-model grid schemes (dedicated trainers, not per-layer).
FIXED_SCHEMES = ("15d", "2d")


def allgather_spmm(
    ctx: SimContext,
    comm: Communicator,
    cost_models: Sequence[CostModel],
    wide_tiles: Sequence[object],
    sources: Sequence[DeviceTensor],
    outputs: Sequence[DeviceTensor],
    gather_buffers: Sequence[DeviceTensor],
    deps_by_rank: Optional[Dict[int, Sequence[Event]]] = None,
    label: str = "spmm",
) -> Dict[int, List[Event]]:
    """Replicated-operand SpMM: allgather all rows, one wide multiply.

    ``wide_tiles[i]`` is rank ``i``'s row block (``rows_i x n``,
    :attr:`~repro.core.partitioner.DistributedGraph.forward_rows`);
    ``gather_buffers[i]`` holds at least ``n x d`` elements. The single
    SpMM reads the full ``n``-row operand, so its cost model sees the
    colder working set (``dense_rows = n``) — the compute-side price of
    skipping the staged broadcasts.
    """
    P = ctx.num_gpus
    if not (len(wide_tiles) == len(sources) == len(outputs) == P):
        raise ConfigurationError(
            f"allgather_spmm: expected {P} rank entries, got "
            f"{len(wide_tiles)}/{len(sources)}/{len(outputs)}"
        )
    d = sources[0].cols
    total_rows = sum(s.rows for s in sources)
    gathered = [gather_buffers[i].view2d(total_rows, d) for i in range(P)]
    ag_events = comm.allgather(
        {i: sources[i] for i in range(P)},
        {i: gathered[i] for i in range(P)},
        deps_by_rank=deps_by_rank,
        name=f"{label}/allgather",
    )
    events: Dict[int, List[Event]] = {}
    for i in range(P):
        ev = spmm(
            ctx.engine,
            cost_models[i],
            ctx.device(i).compute_stream,
            wide_tiles[i],
            gathered[i],
            outputs[i],
            accumulate=False,
            deps=[ag_events[i]],
            name=f"{label}/wide",
        )
        events[i] = [ev]
    return events
