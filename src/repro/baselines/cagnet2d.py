"""A full (functional + costed) CAGNET 2D (SUMMA) trainer.

The third member of CAGNET's partitioning family. Processes form an
``r x r`` grid (``P = r^2``); the adjacency is 2D-tiled over the grid
and the features are 2D-tiled too: proc ``(i, j)`` holds ``H_ij`` (row
block ``i``, feature-column block ``j``).

One distributed SpMM is stationary-C SUMMA:

    for k in 0..r-1:
        broadcast A_ik  along grid row    i (root: column k)
        broadcast H_kj  along grid column j (root: row k)
        AH_ij += A_ik @ H_kj

Because the features are *column*-partitioned, the following GeMM
``Z = (AH) W`` needs a reduction: proc ``(i, j)`` computes the partial
``AH_ij @ W[block_j, :]`` and the grid row allreduces the partials —
exactly the extra dense-matrix communication Section 4.1 cites when it
rejects column partitioning ("not only A is communicated, but also the
dense matrix C"). The backward pass mirrors this with one more row
allreduce. Weights are fully replicated; their gradient is assembled
with a global allreduce of per-proc block contributions.

Educational reference implementation: clarity over buffer thrift (each
proc keeps full-width row copies where the algorithm replicates them).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.comm.collectives import Communicator
from repro.config import FLOAT_DTYPE
from repro.device.engine import SimContext
from repro.device.tensor import DeviceTensor, Mode
from repro.errors import ConfigurationError
from repro.datasets.loader import Dataset, SymbolicDataset
from repro.hardware.machines import dgx1
from repro.hardware.spec import MachineSpec
from repro.kernels.cost import CostModel, KernelCosts
from repro.kernels.ops import softmax_cross_entropy, spmm
from repro.nn.adam import ReplicatedAdam
from repro.nn.model import GCNModelSpec
from repro.core.base import TrainerBase, split_mask
from repro.core.stats import EpochStats
from repro.sparse.normalize import gcn_normalize
from repro.sparse.partition import PartitionVector, uniform_partition, tile_grid
from repro.sparse.permutation import apply_permutation, permute_rows, random_permutation
from repro.sparse.symbolic import SymbolicCSR
from repro.baselines.cagnet import CAGNET_KERNEL_COSTS


def _isqrt(P: int) -> int:
    r = int(round(P**0.5))
    if r * r != P:
        raise ConfigurationError(f"2D grid needs a square GPU count, got {P}")
    return r


class CAGNET2DTrainer(TrainerBase):
    """CAGNET's 2D (SUMMA) algorithm on the simulated machine."""

    def __init__(
        self,
        dataset: Union[Dataset, SymbolicDataset],
        model: GCNModelSpec,
        machine: Optional[MachineSpec] = None,
        num_gpus: Optional[int] = None,
        lr: float = 1e-2,
        seed: int = 0,
        permute: bool = False,
        kernel_costs: Optional[KernelCosts] = None,
    ):
        super().__init__(dataset, model)
        machine = machine or dgx1()
        mode = Mode.SYMBOLIC if dataset.is_symbolic else Mode.FUNCTIONAL
        P = num_gpus if num_gpus is not None else machine.num_gpus
        self.r = _isqrt(P)
        if min(model.layer_dims) < self.r:
            raise ConfigurationError(
                f"2D grid of {self.r} columns cannot split width "
                f"{min(model.layer_dims)}"
            )
        self.ctx = SimContext(machine, num_gpus=P, mode=mode)
        costs = kernel_costs or CAGNET_KERNEL_COSTS
        self.cost_models = [CostModel(machine.gpu, costs) for _ in range(P)]

        r = self.r
        self.row_comms = [
            Communicator(self.ctx, ranks=[i * r + j for j in range(r)])
            for i in range(r)
        ]
        self.col_comms = [
            Communicator(self.ctx, ranks=[i * r + j for i in range(r)])
            for j in range(r)
        ]
        self.world_comm = Communicator(self.ctx)

        self.row_part = uniform_partition(dataset.n, r)
        #: feature-column partitions, one per model width.
        self.col_parts: Dict[int, PartitionVector] = {
            d: uniform_partition(d, r) for d in set(model.layer_dims)
        }
        self._build_graph(permute, seed)
        self._build_buffers()
        self.adam = ReplicatedAdam(self.ctx, model.layer_dims, lr, seed)

    # -- setup ---------------------------------------------------------------

    def _gpu(self, i: int, j: int) -> int:
        return i * self.r + j

    def _build_graph(self, permute: bool, seed: int) -> None:
        ds = self.dataset
        r = self.r
        mode = self.ctx.mode
        if mode is Mode.FUNCTIONAL:
            adj = ds.adjacency
            features = ds.features
            labels, train = ds.labels, ds.train_mask
            val, test = ds.val_mask, ds.test_mask
            if permute:
                perm = random_permutation(ds.n, seed=seed)
                adj = apply_permutation(adj, perm)
                features = permute_rows(features, perm)
                labels = permute_rows(labels, perm)
                train = permute_rows(train, perm)
                val = permute_rows(val, perm)
                test = permute_rows(test, perm)
            a_hat = gcn_normalize(adj)
            fwd = tile_grid(a_hat.transpose(), self.row_part, self.row_part)
            bwd = tile_grid(a_hat, self.row_part, self.row_part)
        else:
            def sym_tile(i: int, j: int) -> SymbolicCSR:
                area = self.row_part.size(i) * self.row_part.size(j)
                nnz = int(round(ds.m * area / (ds.n * ds.n)))
                return SymbolicCSR(
                    (self.row_part.size(i), self.row_part.size(j)), nnz
                )

            fwd = [[sym_tile(i, j) for j in range(r)] for i in range(r)]
            bwd = [[sym_tile(i, j) for j in range(r)] for i in range(r)]
            features = labels = train = val = test = None

        self.fwd_tiles = fwd
        self.bwd_tiles = bwd
        d0_part = self.col_parts[self.model.layer_dims[0]]
        self.features: Dict[int, DeviceTensor] = {}
        self.labels: Dict[int, Optional[np.ndarray]] = {}
        self.train_masks: Dict[int, Optional[np.ndarray]] = {}
        self.val_masks: Dict[int, Optional[np.ndarray]] = {}
        self.test_masks: Dict[int, Optional[np.ndarray]] = {}
        for i in range(r):
            r0, r1 = self.row_part.part(i)
            for j in range(r):
                g = self._gpu(i, j)
                dev = self.ctx.device(g)
                c0, c1 = d0_part.part(j)
                if mode is Mode.FUNCTIONAL:
                    self.features[g] = dev.from_numpy(
                        np.ascontiguousarray(
                            features[r0:r1, c0:c1], dtype=FLOAT_DTYPE
                        ),
                        name=f"X{i}{j}", tag="features",
                    )
                    self.labels[g] = labels[r0:r1].copy()
                    self.train_masks[g] = train[r0:r1].copy()
                    self.val_masks[g] = val[r0:r1].copy()
                    self.test_masks[g] = test[r0:r1].copy()
                else:
                    self.features[g] = dev.symbolic(
                        (r1 - r0, c1 - c0), name=f"X{i}{j}", tag="features"
                    )
                    self.labels[g] = None
                    self.train_masks[g] = None
                    self.val_masks[g] = None
                    self.test_masks[g] = None
                # proc (i, j) stores tiles A_ij and A^T_ij
                dev.pool.allocate(
                    self.fwd_tiles[i][j].nbytes + self.bwd_tiles[i][j].nbytes,
                    tag="adjacency",
                )

    def _build_buffers(self) -> None:
        dims = self.model.layer_dims
        r = self.r
        max_rows = max(self.row_part.sizes())
        max_d = max(dims)
        self.full_row: Dict[int, DeviceTensor] = {}
        self.ah_full: Dict[int, DeviceTensor] = {}
        self.bc_a: Dict[int, DeviceTensor] = {}
        self.bc_h: Dict[int, DeviceTensor] = {}
        self.gslice: Dict[int, DeviceTensor] = {}
        self.act_slices: Dict[int, List[DeviceTensor]] = {}
        for g in range(self.ctx.num_gpus):
            dev = self.ctx.device(g)
            rows = self.row_part.size(g // r)
            # full-width row-block scratch (GeMM reduction target + H_G)
            self.full_row[g] = dev.empty((rows, max_d), name="rowfull",
                                         tag="buffer/rowfull")
            self.ah_full[g] = dev.empty((rows, max_d), name="ahfull",
                                        tag="buffer/rowfull")
            # receive buffers for the SUMMA broadcasts
            self.bc_h[g] = dev.empty(
                (max_rows, -(-max_d // r) + 1), name="BCH",
                tag="buffer/broadcast",
            )
            # dedicated buffer for the sliced backward gradient (must
            # not alias the broadcast receive buffer: a proc's own slice
            # is read in stages after its bc buffer has been refilled).
            self.gslice[g] = dev.empty(
                (rows, -(-max_d // r) + 1), name="Gslice", tag="buffer/grad"
            )
            # sparse-tile broadcast accounted as raw bytes; keep a small
            # descriptor allocation so memory reflects the staged tile.
            max_tile_bytes = max(
                t.nbytes for row in self.fwd_tiles for t in row
            )
            dev.pool.allocate(max_tile_bytes, tag="buffer/broadcast-sparse")
            # per-layer activation slices kept for backward
            self.act_slices[g] = [
                dev.empty(
                    (rows, self.col_parts[dims[l + 1]].size(g % r)),
                    name=f"H{l}", tag="buffer/eager",
                )
                for l in range(self.model.num_layers)
            ]

    # -- SUMMA SpMM ---------------------------------------------------------------

    def _summa_spmm(
        self,
        tiles: Sequence[Sequence[object]],
        h_slices: Dict[int, DeviceTensor],
        width_part: PartitionVector,
        label: str,
    ) -> Dict[int, DeviceTensor]:
        """2D SpMM: returns per-proc AH_ij slices (rows_i x width_j).

        ``h_slices[(k, j)]`` holds H_kj. Stage ``k`` broadcasts the
        sparse tile ``A_ik`` along grid row ``i`` and ``H_kj`` along
        grid column ``j``.
        """
        engine = self.ctx.engine
        r = self.r
        outputs: Dict[int, DeviceTensor] = {}
        for g in range(self.ctx.num_gpus):
            i, j = divmod(g, r)
            rows = self.row_part.size(i)
            width = width_part.size(j)
            out = self.ah_full[g].view2d(rows, width)
            out.fill_(0.0)
            engine.submit(
                self.ctx.device(g).compute_stream, f"{label}/zero", "memset",
                self.cost_models[g].memset_time(out.nbytes),
            )
            outputs[g] = out

        for k in range(r):
            # broadcast the sparse tiles A_ik along each grid row: the
            # tile lives on proc (i, k). Sparse payloads are host-side
            # CSR objects; timing uses the tile's byte size.
            a_events: Dict[int, object] = {}
            for i in range(r):
                comm = self.row_comms[i]
                root = self._gpu(i, k)
                tile = tiles[i][k]
                src_desc = self.ctx.device(root).symbolic(
                    (max(tile.nbytes // 4, 1),), name="Atile", tag="staging"
                )
                dsts = {
                    self._gpu(i, j): self.ctx.device(self._gpu(i, j)).symbolic(
                        (max(tile.nbytes // 4, 1),), name="Atile-rx",
                        tag="staging",
                    )
                    for j in range(r)
                    if j != k
                }
                events = comm.broadcast(
                    root=root, src=src_desc, dsts=dsts,
                    stage=k, name=f"{label}/bcastA[{k}]",
                )
                for g, ev in events.items():
                    a_events[g] = ev
                src_desc.free()
                for d in dsts.values():
                    d.free()
            # broadcast H_kj down each grid column
            for j in range(r):
                comm = self.col_comms[j]
                root = self._gpu(k, j)
                src = h_slices[root]
                dsts = {
                    self._gpu(i, j): self.bc_h[self._gpu(i, j)].view2d(
                        src.rows, src.cols
                    )
                    for i in range(r)
                    if i != k
                }
                events = comm.broadcast(
                    root=root, src=src, dsts=dsts,
                    stage=k, name=f"{label}/bcastH[{k}]",
                )
                for i in range(r):
                    g = self._gpu(i, j)
                    operand = src if i == k else dsts[g]
                    deps = [events[g]]
                    if g in a_events:
                        deps.append(a_events[g])
                    spmm(
                        engine, self.cost_models[g],
                        self.ctx.device(g).compute_stream,
                        tiles[i][k], operand, outputs[g],
                        accumulate=True, deps=deps,
                        stage=k, name=f"{label}[{k}]",
                    )
        return outputs

    def _row_allreduce_full(
        self,
        partials: Dict[int, DeviceTensor],
        label: str,
    ) -> None:
        """Allreduce full-width row blocks across each grid row in place."""
        for i in range(self.r):
            self.row_comms[i].allreduce(
                {self._gpu(i, j): partials[self._gpu(i, j)]
                 for j in range(self.r)},
                op="sum", name=label,
            )

    # -- passes ----------------------------------------------------------------------

    def _forward(self):
        engine = self.ctx.engine
        r = self.r
        L = self.model.num_layers
        inputs: Dict[int, DeviceTensor] = dict(self.features)
        slices_per_layer: List[Dict[int, DeviceTensor]] = []
        full_per_layer: List[Dict[int, np.ndarray]] = []
        for l in range(L):
            d_in, d_out = self.model.dims_of(l)
            in_part = self.col_parts[d_in]
            out_part = self.col_parts[d_out]
            ah = self._summa_spmm(self.fwd_tiles, inputs, in_part,
                                  f"fwd{l}/spmm")
            # GeMM with the row reduction: partial = AH_ij @ W[block_j, :]
            z_full: Dict[int, DeviceTensor] = {}
            for g in range(self.ctx.num_gpus):
                i, j = divmod(g, r)
                rows = self.row_part.size(i)
                c0, c1 = in_part.part(j)
                w = self.adam.weights[g][l]
                w_block = w.view(w.rows)
                w_slice = (
                    w_block.data[c0:c1] if w_block.data is not None else None
                )
                target = self.full_row[g].view2d(rows, d_out)
                if ah[g].data is not None and w_slice is not None:
                    np.matmul(ah[g].data, w_slice, out=target.data)
                engine.submit(
                    self.ctx.device(g).compute_stream, f"fwd{l}/gemm", "gemm",
                    self.cost_models[g].gemm_time(rows, d_out, c1 - c0),
                    flops=2.0 * rows * d_out * (c1 - c0),
                )
                z_full[g] = target
            self._row_allreduce_full(z_full, f"fwd{l}/allreduce_z")
            # activation + slice back to 2D tiles
            outs: Dict[int, DeviceTensor] = {}
            full_values: Dict[int, np.ndarray] = {}
            for g in range(self.ctx.num_gpus):
                i, j = divmod(g, r)
                z = z_full[g]
                if l < L - 1 and z.data is not None:
                    np.maximum(z.data, 0.0, out=z.data)
                if l < L - 1:
                    engine.submit(
                        self.ctx.device(g).compute_stream, f"fwd{l}/relu",
                        "activation",
                        self.cost_models[g].elementwise_time(z.size, 1, 1),
                        flops=float(z.size),
                    )
                c0, c1 = out_part.part(j)
                dst = self.act_slices[g][l]
                if z.data is not None:
                    np.copyto(dst.data, z.data[:, c0:c1])
                engine.submit(
                    self.ctx.device(g).compute_stream, f"fwd{l}/slice",
                    "memset",
                    self.cost_models[g].memset_time(dst.nbytes),
                )
                outs[g] = dst
                if z.data is not None:
                    full_values[g] = z.data.copy()
            slices_per_layer.append(outs)
            full_per_layer.append(full_values)
            inputs = outs
        return slices_per_layer, full_per_layer

    def _loss_and_grad_full(self, logits_full: Dict[int, np.ndarray]):
        """Masked softmax-CE on the (row-replicated) full logits.

        Returns the scalar loss and per-proc full-width gradient arrays.
        """
        engine = self.ctx.engine
        r = self.r
        d_l = self.model.layer_dims[-1]
        num_train = self.dataset.num_train
        total = 0.0
        grads_full: Dict[int, DeviceTensor] = {}
        for g in range(self.ctx.num_gpus):
            i, j = divmod(g, r)
            rows = self.row_part.size(i)
            target = self.full_row[g].view2d(rows, d_l)
            if self.mode is Mode.FUNCTIONAL:
                logits_arr = logits_full[g]
                holder = target
                np.copyto(holder.data, logits_arr)
                local, _ = softmax_cross_entropy(
                    engine, self.cost_models[g],
                    self.ctx.device(g).compute_stream,
                    holder, self.labels[g], self.train_masks[g],
                    grad_out=holder, total_train=num_train, name="loss",
                )
                if j == 0:
                    total += local
            else:
                engine.submit(
                    self.ctx.device(g).compute_stream, "loss", "loss",
                    self.cost_models[g].softmax_xent_time(rows, d_l),
                )
            grads_full[g] = target
        loss = None if self.mode is Mode.SYMBOLIC else total / num_train
        return loss, grads_full

    def _backward(self, slices_per_layer, full_per_layer,
                  grads_full: Dict[int, DeviceTensor]) -> None:
        engine = self.ctx.engine
        r = self.r
        L = self.model.num_layers
        self.adam.t += 1
        for l in range(L - 1, -1, -1):
            d_in, d_out = self.model.dims_of(l)
            in_part = self.col_parts[d_in]
            out_part = self.col_parts[d_out]
            # relu mask on the full-width gradient (stored activations
            # are full-width copies kept by the forward pass)
            if l < L - 1:
                for g in range(self.ctx.num_gpus):
                    grad = grads_full[g]
                    if grad.data is not None:
                        grad.data *= full_per_layer[l][g] > 0
                    engine.submit(
                        self.ctx.device(g).compute_stream, f"bwd{l}/relu",
                        "activation",
                        self.cost_models[g].elementwise_time(grad.size, 2, 1),
                        flops=float(grad.size),
                    )
            # slice G to 2D tiles for the backward SUMMA (dedicated
            # buffers: the bc_h receive buffer is clobbered per stage)
            g_slices: Dict[int, DeviceTensor] = {}
            for g in range(self.ctx.num_gpus):
                i, j = divmod(g, r)
                c0, c1 = out_part.part(j)
                rows = self.row_part.size(i)
                view = self.gslice[g].view2d(rows, c1 - c0)
                if grads_full[g].data is not None:
                    np.copyto(view.data, grads_full[g].data[:, c0:c1])
                engine.submit(
                    self.ctx.device(g).compute_stream, f"bwd{l}/slice",
                    "memset",
                    self.cost_models[g].memset_time(view.nbytes),
                )
                g_slices[g] = view
            hwg = self._summa_spmm(self.bwd_tiles, g_slices, out_part,
                                   f"bwd{l}/spmm")
            # assemble full-width HW_G per row (row allreduce of padded
            # slices), needed by both W_G and H_G. The pad target reuses
            # full_row, whose G payload is dead (it lives in g_slices);
            # hwg itself lives in ah_full, so the two cannot alias.
            hwg_full: Dict[int, DeviceTensor] = {}
            for g in range(self.ctx.num_gpus):
                i, j = divmod(g, r)
                rows = self.row_part.size(i)
                c0, c1 = out_part.part(j)
                target = self.full_row[g].view2d(rows, d_out)
                target.fill_(0.0)
                if hwg[g].data is not None:
                    target.data[:, c0:c1] = hwg[g].data
                engine.submit(
                    self.ctx.device(g).compute_stream, f"bwd{l}/pad", "memset",
                    self.cost_models[g].memset_time(target.nbytes),
                )
                hwg_full[g] = target
            self._row_allreduce_full(hwg_full, f"bwd{l}/allreduce_hwg")

            # weight gradient: proc (i, j) contributes
            # H_ij^T @ HWG_i(full) into W_G rows of block j.
            for g in range(self.ctx.num_gpus):
                i, j = divmod(g, r)
                h_in = (self.features[g] if l == 0
                        else slices_per_layer[l - 1][g])
                part_for_block = in_part
                c0, c1 = part_for_block.part(j)
                wg = self.adam.grads[g][l]
                if wg.data is not None and h_in.data is not None:
                    wg.data.fill(0.0)
                    wg.data[c0:c1] = h_in.data.T @ hwg_full[g].data
                engine.submit(
                    self.ctx.device(g).compute_stream, f"bwd{l}/wgrad", "gemm",
                    self.cost_models[g].gemm_time(
                        c1 - c0, d_out, h_in.rows
                    ),
                    flops=2.0 * (c1 - c0) * d_out * h_in.rows,
                )
            self.world_comm.allreduce(
                {g: self.adam.grads[g][l] for g in range(self.ctx.num_gpus)},
                op="sum", name=f"bwd{l}/allreduce_wg",
            )
            # replicas along each grid column computed identical block
            # contributions (same H_ij^T @ HWG_i? no: different i), but
            # the same (j) block is contributed by r procs (one per i),
            # which is exactly the sum over row blocks — no rescale.
            if l > 0:
                for g in range(self.ctx.num_gpus):
                    i, j = divmod(g, r)
                    rows = self.row_part.size(i)
                    # H_G goes into ah_full (the SUMMA outputs there are
                    # dead once padded); it must not overlap hwg_full.
                    target = self.ah_full[g].view2d(rows, d_in)
                    if hwg_full[g].data is not None:
                        np.matmul(
                            hwg_full[g].data, self.adam.weights[g][l].data.T,
                            out=target.data,
                        )
                    engine.submit(
                        self.ctx.device(g).compute_stream, f"bwd{l}/hgrad",
                        "gemm",
                        self.cost_models[g].gemm_time(rows, d_in, d_out),
                        flops=2.0 * rows * d_in * d_out,
                    )
                    grads_full[g] = target
            for g in range(self.ctx.num_gpus):
                self.adam.step(g, l, self.cost_models[g])

    # -- epochs -------------------------------------------------------------------------

    def train_epoch(self) -> EpochStats:
        return self._run_epoch(self._passes)

    def _passes(self) -> Optional[float]:
        slices_per_layer, full_per_layer = self._forward()
        loss, grads_full = self._loss_and_grad_full(full_per_layer[-1])
        self._backward(slices_per_layer, full_per_layer, grads_full)
        return loss

    def _scored_rows(self, split: str):
        """Each row block once, from the column-0 proc's row-replicated
        full logits."""
        masks = split_mask(self, split, per_rank=True)
        _slices, fulls = self._forward()
        return [(fulls[-1][g], self.labels[g], masks[g])
                for g in (self._gpu(i, 0) for i in range(self.r))]
