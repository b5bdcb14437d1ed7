"""1D distribution of the graph and features across GPUs (Section 4.1).

The adjacency matrix is (optionally) symmetrically permuted, GCN-
normalised, and tiled with a uniform symmetric partition vector. GPU
``i`` receives:

* the ``i``-th tile *row* of the forward operand :math:`\\hat A^T`
  (tiles :math:`\\hat A^{T,ij}` for all ``j``), plus the same rows as
  one matrix :math:`\\hat A^{T,i:}` — a view of the operand's row block,
  whose columns are the tiles side by side — that the SpMM numerics
  multiply in one kernel call,
* the ``i``-th tile row and row block of the backward operand
  :math:`\\hat A`,
* its row block of the features ``H^i``, labels and masks.

Model weights are replicated by the trainer; everything here is fully
partitioned (the paper stresses only ``W`` is replicated).

Symbolic datasets are partitioned analytically: after a random
permutation every ``A^{ij}`` tile holds ``~ m / P^2`` nonzeros in
expectation, which is the whole point of §5.2, so symbolic runs require
``permute=True``.

Two row-partition strategies (``TrainerConfig.partition_strategy``):

* ``"uniform"`` — the paper's symmetric uniform split (relies on the
  permutation for balance);
* ``"resource_aware"`` — CaPGNN-style cost-model split: each row is
  priced at its SpMM memory traffic plus its broadcast bytes, and each
  rank's share is scaled by its modelled link bandwidth, so slow-NIC
  ranks receive fewer rows. Symbolic datasets fall back to uniform
  (after the permutation rows are exchangeable, so the uniform split
  *is* the expected resource-aware one on a homogeneous machine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.config import FLOAT_DTYPE, FLOAT_SIZE, INDEX_SIZE
from repro.device.engine import SimContext
from repro.device.memory import Allocation
from repro.device.tensor import DeviceTensor, Mode
from repro.errors import ConfigurationError, PartitionError
from repro.datasets.loader import Dataset, SymbolicDataset
from repro.sparse.csr import CSRMatrix
from repro.sparse.normalize import gcn_normalize
from repro.sparse.partition import (
    PartitionVector,
    tile_grid,
    tile_nnz_matrix,
    uniform_partition,
    weighted_cost_partition,
)
from repro.sparse.permutation import (
    apply_permutation,
    permute_rows,
    random_permutation,
)
from repro.sparse.symbolic import SymbolicCSR
from repro.utils.rng import SeedLike

AnyTile = Union[CSRMatrix, SymbolicCSR]

PARTITION_STRATEGIES = ("uniform", "resource_aware")


@dataclass
class DistributedGraph:
    """Per-rank graph/feature shards plus the partition metadata."""

    part: PartitionVector
    #: forward_tiles[i][j] multiplies the stage-j broadcast on GPU i
    #: (tile row i of A_hat^T).
    forward_tiles: List[List[AnyTile]]
    #: backward_tiles[i][j]: tile row i of A_hat.
    backward_tiles: List[List[AnyTile]]
    #: forward_rows[i]: rank i's row block of A_hat^T, i.e. its tiles
    #: side by side (A_hat^{T,i:}); functional blocks are views.
    forward_rows: List[AnyTile]
    #: backward_rows[i]: rank i's row block of A_hat.
    backward_rows: List[AnyTile]
    #: per-rank feature tensors H^i (device-resident).
    features: List[DeviceTensor]
    #: per-rank labels/train masks (None in symbolic mode).
    labels: List[Optional[np.ndarray]]
    train_masks: List[Optional[np.ndarray]]
    val_masks: List[Optional[np.ndarray]]
    test_masks: List[Optional[np.ndarray]]
    #: global number of training vertices (loss normaliser).
    num_train: int
    #: vertex permutation applied (new = perm[old]); identity if none.
    perm: Optional[np.ndarray]
    #: adjacency-storage reservations (kept so they stay accounted).
    adjacency_allocs: List[Allocation] = field(default_factory=list)
    #: row-partition strategy that produced ``part``.
    strategy: str = "uniform"

    @property
    def num_parts(self) -> int:
        return self.part.num_parts

    @property
    def max_part_rows(self) -> int:
        return max(self.part.sizes())

    def local_rows(self, rank: int) -> int:
        return self.part.size(rank)

    def row_blocks(self, direction: str) -> List[AnyTile]:
        """Every rank's row block for a ``"fwd"`` or ``"bwd"`` SpMM."""
        return self.forward_rows if direction == "fwd" else self.backward_rows

    def stage_nnz(self, rank: int, direction: str = "forward") -> List[int]:
        """nnz of each stage's tile on ``rank`` (load-balance diagnostic)."""
        tiles = self.forward_tiles if direction == "forward" else self.backward_tiles
        return [int(t.nnz) for t in tiles[rank]]


def partition_dataset(
    ctx: SimContext,
    dataset: Union[Dataset, SymbolicDataset],
    permute: bool = True,
    seed: SeedLike = None,
    strategy: str = "uniform",
) -> DistributedGraph:
    """Distribute ``dataset`` over the context's GPUs per Section 4.1."""
    if strategy not in PARTITION_STRATEGIES:
        raise ConfigurationError(
            f"unknown partition strategy {strategy!r}; "
            f"choose from {PARTITION_STRATEGIES}"
        )
    if dataset.is_symbolic:
        if ctx.mode is not Mode.SYMBOLIC:
            raise ConfigurationError(
                "symbolic dataset requires a SYMBOLIC SimContext"
            )
        # after the §5.2 permutation rows are exchangeable, so on the
        # expectation model the uniform split *is* the resource-aware
        # one; record the uniform fallback honestly.
        return _partition_symbolic(ctx, dataset, permute)
    if ctx.mode is not Mode.FUNCTIONAL:
        raise ConfigurationError("functional dataset requires a FUNCTIONAL SimContext")
    return _partition_functional(ctx, dataset, permute, seed, strategy)


def resource_aware_partition(
    machine,
    topology,
    matrix: CSRMatrix,
    feature_dim: int,
    parts: int,
) -> PartitionVector:
    """CaPGNN-style cost-model row partition.

    Each row is priced at its SpMM memory traffic (``nnz`` times one
    index + one operand read + one accumulate, over the GPU's HBM
    bandwidth) plus the bytes its embedding row pushes through the
    stage broadcast (over the collective's modelled bandwidth). Rank
    capacities blend each GPU's normalised injection bandwidth with a
    flat compute share, weighted by the communication fraction of the
    total cost — on a homogeneous switch machine this degenerates to
    plain cost balancing, on mixed-link meshes slow-NIC ranks receive
    fewer rows.
    """
    row_nnz = np.diff(matrix.indptr).astype(np.float64)
    t_nnz = (INDEX_SIZE + 2 * FLOAT_SIZE) / machine.gpu.memory_bandwidth
    ranks = list(range(parts))
    t_row_comm = 0.0
    if parts > 1:
        t_row_comm = (
            feature_dim * FLOAT_SIZE / topology.collective_bandwidth(ranks)
        )
    row_costs = row_nnz * t_nnz + t_row_comm
    injection = np.array(
        [machine.injection_bandwidth(r) for r in ranks], dtype=np.float64
    )
    injection /= injection.mean()
    total = float(row_costs.sum())
    comm_frac = (t_row_comm * matrix.shape[0]) / total if total > 0 else 0.0
    capacities = comm_frac * injection + (1.0 - comm_frac)
    return weighted_cost_partition(row_costs, capacities)


def stage_degree_scores(
    graph: DistributedGraph, direction: str = "forward"
) -> Optional[List[np.ndarray]]:
    """Frontier degree of every broadcast row, per stage.

    ``scores[j][r]`` counts the stored entries, across every *consumer*
    rank's stage-``j`` tile, that read row ``r`` of partition ``j``'s
    broadcast tile — the admission ranking of the training-time cache
    (rank ``j`` reads its own tile in place, so it is excluded).
    Returns None for symbolic tilings (no concrete indices to count).
    """
    tiles = (
        graph.forward_tiles if direction == "forward" else graph.backward_tiles
    )
    P = graph.num_parts
    scores: List[np.ndarray] = []
    for j in range(P):
        size_j = graph.part.size(j)
        acc = np.zeros(size_j, dtype=np.int64)
        for i in range(P):
            if i == j:
                continue
            indices = getattr(tiles[i][j], "indices", None)
            if indices is None:
                return None
            acc += np.bincount(indices, minlength=size_j)
        scores.append(acc)
    return scores


def _imbalance(values: Sequence[float]) -> float:
    mean = sum(values) / len(values)
    return max(values) / mean if mean else 1.0


def partition_quality(graph: DistributedGraph) -> dict:
    """Per-rank load/byte balance diagnostics (CLI + tests)."""
    P = graph.num_parts
    rows = graph.part.sizes()
    nnz = [sum(graph.stage_nnz(i, "forward")) for i in range(P)]
    feature_bytes = [int(t.nbytes) for t in graph.features]
    return {
        "strategy": graph.strategy,
        "rows": rows,
        "nnz": nnz,
        "feature_bytes": feature_bytes,
        "row_imbalance": _imbalance(rows),
        "nnz_imbalance": _imbalance(nnz),
        "byte_imbalance": _imbalance(feature_bytes),
    }


def preview_partition(
    dataset: Union[Dataset, SymbolicDataset],
    machine,
    parts: int,
    strategy: str = "uniform",
    permute: bool = True,
    seed: SeedLike = None,
) -> dict:
    """Partition-quality preview without building a SimContext.

    The ``repro parallel plan`` CLI calls this to print per-rank
    nnz/byte balance next to the planner's estimates. Symbolic datasets
    report the analytic (post-permutation expectation) balance, which
    is uniform by construction.
    """
    if strategy not in PARTITION_STRATEGIES:
        raise ConfigurationError(
            f"unknown partition strategy {strategy!r}; "
            f"choose from {PARTITION_STRATEGIES}"
        )
    if dataset.is_symbolic:
        part = uniform_partition(dataset.n, parts)
        rows = part.sizes()
        nnz = [dataset.m // parts] * parts
        feature_bytes = [r * dataset.d0 * FLOAT_SIZE for r in rows]
        effective = "uniform"
    else:
        adj = dataset.adjacency
        if permute:
            perm = random_permutation(dataset.n, seed=seed)
            adj = apply_permutation(adj, perm)
        a_hat_t = gcn_normalize(adj).transpose()
        d = int(dataset.features.shape[1])
        if strategy == "resource_aware" and parts > 1:
            from repro.hardware.topology import Topology

            part = resource_aware_partition(
                machine, Topology(machine), a_hat_t, d, parts
            )
        else:
            part = uniform_partition(dataset.n, parts)
        grid = tile_nnz_matrix(a_hat_t, part, part)
        rows = part.sizes()
        nnz = [int(x) for x in grid.sum(axis=1)]
        feature_bytes = [r * d * FLOAT_SIZE for r in rows]
        effective = strategy
    return {
        "strategy": effective,
        "rows": rows,
        "nnz": nnz,
        "feature_bytes": feature_bytes,
        "row_imbalance": _imbalance(rows),
        "nnz_imbalance": _imbalance(nnz),
        "byte_imbalance": _imbalance(feature_bytes),
    }


def _partition_functional(
    ctx: SimContext, dataset: Dataset, permute: bool, seed: SeedLike,
    strategy: str = "uniform",
) -> DistributedGraph:
    P = ctx.num_gpus
    n = dataset.n
    adj = dataset.adjacency
    perm: Optional[np.ndarray] = None
    features = dataset.features
    labels = dataset.labels
    train, val, test = dataset.train_mask, dataset.val_mask, dataset.test_mask
    if permute:
        perm = random_permutation(n, seed=seed)
        adj = apply_permutation(adj, perm)
        features = permute_rows(features, perm)
        labels = permute_rows(labels, perm)
        train = permute_rows(train, perm)
        val = permute_rows(val, perm)
        test = permute_rows(test, perm)

    a_hat = gcn_normalize(adj)
    a_hat_t = a_hat.transpose()
    if strategy == "resource_aware" and P > 1:
        part = resource_aware_partition(
            ctx.machine, ctx.topology, a_hat_t,
            int(features.shape[1]), P,
        )
    else:
        part = uniform_partition(n, P)
    fwd = tile_grid(a_hat_t, part, part)
    bwd = tile_grid(a_hat, part, part)
    fwd_rows = [a_hat_t.row_block(*part.part(i)) for i in range(P)]
    bwd_rows = [a_hat.row_block(*part.part(i)) for i in range(P)]

    feat_tensors: List[DeviceTensor] = []
    labels_by_rank: List[Optional[np.ndarray]] = []
    train_by_rank: List[Optional[np.ndarray]] = []
    val_by_rank: List[Optional[np.ndarray]] = []
    test_by_rank: List[Optional[np.ndarray]] = []
    allocs: List[Allocation] = []
    for i in range(P):
        r0, r1 = part.part(i)
        dev = ctx.device(i)
        feat_tensors.append(
            dev.from_numpy(
                np.ascontiguousarray(features[r0:r1], dtype=FLOAT_DTYPE),
                name=f"X{i}",
                tag="features",
            )
        )
        labels_by_rank.append(labels[r0:r1].copy())
        train_by_rank.append(train[r0:r1].copy())
        val_by_rank.append(val[r0:r1].copy())
        test_by_rank.append(test[r0:r1].copy())
        tile_bytes = sum(t.nbytes for t in fwd[i]) + sum(t.nbytes for t in bwd[i])
        allocs.append(dev.pool.allocate(tile_bytes, tag="adjacency"))

    return DistributedGraph(
        part=part,
        forward_tiles=fwd,
        backward_tiles=bwd,
        forward_rows=fwd_rows,
        backward_rows=bwd_rows,
        features=feat_tensors,
        labels=labels_by_rank,
        train_masks=train_by_rank,
        val_masks=val_by_rank,
        test_masks=test_by_rank,
        num_train=dataset.num_train,
        perm=perm,
        adjacency_allocs=allocs,
        strategy=strategy,
    )


def _partition_symbolic(
    ctx: SimContext, dataset: SymbolicDataset, permute: bool
) -> DistributedGraph:
    if not permute:
        raise ConfigurationError(
            "symbolic runs model the permuted (balanced) distribution; "
            "original-ordering studies require a functional dataset"
        )
    P = ctx.num_gpus
    n, m = dataset.n, dataset.m
    part = uniform_partition(n, P)

    def tile_rows(i: int, j: int) -> SymbolicCSR:
        # balanced expectation: every tile holds ~ m / P^2 nonzeros,
        # distributed like the tile areas so totals match exactly.
        area = part.size(i) * part.size(j)
        total_area = n * n
        nnz = int(round(m * (area / total_area))) if total_area else 0
        return SymbolicCSR((part.size(i), part.size(j)), nnz)

    fwd = [[tile_rows(i, j) for j in range(P)] for i in range(P)]
    bwd = [[tile_rows(i, j) for j in range(P)] for i in range(P)]
    # both directions share the expectation tiling, hence one row list.
    rows = [
        SymbolicCSR((part.size(i), n), sum(t.nnz for t in fwd[i]))
        for i in range(P)
    ]

    feat_tensors: List[DeviceTensor] = []
    allocs: List[Allocation] = []
    for i in range(P):
        dev = ctx.device(i)
        feat_tensors.append(
            dev.symbolic((part.size(i), dataset.d0), name=f"X{i}", tag="features")
        )
        tile_bytes = sum(t.nbytes for t in fwd[i]) + sum(t.nbytes for t in bwd[i])
        allocs.append(dev.pool.allocate(tile_bytes, tag="adjacency"))

    none_list: List[Optional[np.ndarray]] = [None] * P
    return DistributedGraph(
        part=part,
        forward_tiles=fwd,
        backward_tiles=bwd,
        forward_rows=rows,
        backward_rows=list(rows),
        features=feat_tensors,
        labels=list(none_list),
        train_masks=list(none_list),
        val_masks=list(none_list),
        test_masks=list(none_list),
        num_train=dataset.num_train,
        perm=None,
        adjacency_allocs=allocs,
    )
