"""The MG-GCN trainer: multi-GPU full-batch GCN training.

One :class:`MGGCNTrainer` owns a simulated machine, the 1D-distributed
graph, the L+3 shared buffers per GPU, replicated weights + Adam state,
and runs epochs with:

* per-layer computation-order selection (§4.4),
* multi-stage broadcast SpMM with optional comm/compute overlap (§4.3),
* fused gradient/activation buffer reuse (§4.2),
* optional first-layer backward-SpMM skip (§4.4),
* weight-gradient allreduce (only ``W`` is replicated, §4.1).

In FUNCTIONAL mode the trainer computes real numbers — its weights after
``k`` epochs match :class:`~repro.nn.reference.ReferenceGCN` — while the
engine accounts simulated time. In SYMBOLIC mode the same code path
runs on metadata-only tensors (paper-scale graphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.comm.collectives import Communicator
from repro.device.engine import SimContext
from repro.device.stream import Event
from repro.device.tensor import DeviceTensor, Mode
from repro.errors import ConfigurationError
from repro.datasets.loader import Dataset, SymbolicDataset
from repro.hardware.machines import dgx1
from repro.hardware.spec import MachineSpec
from repro.kernels.cost import CostModel, KernelCosts
from repro.kernels.ops import (
    gemm_many,
    gemm_relu_backward_many,
    relu_many,
    softmax_cross_entropy,
)
from repro.cache import CachePolicy, TrainingTileCache
from repro.config import FLOAT_SIZE
from repro.nn.adam import ReplicatedAdam
from repro.nn.buffers import SharedBufferManager
from repro.nn.model import GCNModelSpec
from repro.plan import ExecutionPlan, PlanCapture, PlanStats
from repro.core.base import TrainerBase, split_mask
from repro.core.order import ComputeOrder, broadcast_width, choose_forward_order
from repro.core.partitioner import (
    PARTITION_STRATEGIES,
    DistributedGraph,
    partition_dataset,
    stage_degree_scores,
)
from repro.core.spmm_mg import distributed_spmm
from repro.core.stats import EpochStats


@dataclass(frozen=True)
class TrainerConfig:
    """Feature switches and hyper-parameters of one trainer instance.

    The three paper optimisations (``permute``, ``overlap``,
    ``order_optimization``/``first_layer_skip``) default to on; the
    ablation benches flip them individually.
    """

    permute: bool = True
    overlap: bool = True
    order_optimization: bool = True
    first_layer_skip: bool = True
    lr: float = 1e-2
    seed: int = 0
    record_trace: bool = True
    kernel_costs: Optional[KernelCosts] = None
    #: collective-bandwidth multiplier while overlapped with compute
    #: (both sides slow down when sharing HBM, §6.3).
    overlap_comm_derate: float = 0.9
    #: optional :class:`repro.resilience.FaultInjector` threaded through
    #: the SimContext into the engine, topology and collectives.
    fault_injector: Optional[object] = None
    #: per-collective watchdog, seconds (None = no timeout detection).
    collective_timeout: Optional[float] = None
    #: capture a repeated epoch into an execution plan (:mod:`repro.plan`)
    #: and replay later epochs with near-zero scheduling overhead. Falls
    #: back to eager while a fault plan is active, and recaptures when
    #: the world changes (see :meth:`MGGCNTrainer.train_epoch`).
    capture_epochs: bool = False
    #: route every collective through the node-hierarchical communicator
    #: (:class:`repro.parallel.hierarchy.HierarchicalCommunicator`):
    #: intra-node rings + inter-node trees. Functionally identical to
    #: the flat communicator; on a single-node machine it *is* the flat
    #: communicator, so the flag only changes multi-node timing.
    hierarchical_collectives: bool = False
    #: row-partition strategy: "uniform" (the paper's, §4.1) or
    #: "resource_aware" (CaPGNN cost-model split; see
    #: :func:`repro.core.partitioner.resource_aware_partition`).
    partition_strategy: str = "uniform"
    #: enable the training-time remote-embedding cache with this
    #: staleness bound (None = disabled). 0 = bit-exact write-through
    #: refresh every epoch; k > 0 = cached rows may be up to k epochs
    #: stale between refreshes (see ``docs/caching.md``).
    cache_staleness_epochs: Optional[int] = None
    #: per-rank byte budget for cached rows (None = auto: half of one
    #: epoch's forward broadcast bytes).
    cache_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {self.lr}")
        if not (0.0 < self.overlap_comm_derate <= 1.0):
            raise ConfigurationError(
                f"overlap_comm_derate must be in (0, 1], got {self.overlap_comm_derate}"
            )
        if self.collective_timeout is not None and self.collective_timeout <= 0:
            raise ConfigurationError(
                f"collective_timeout must be positive, got {self.collective_timeout}"
            )
        if self.partition_strategy not in PARTITION_STRATEGIES:
            raise ConfigurationError(
                f"unknown partition_strategy {self.partition_strategy!r}; "
                f"choose from {PARTITION_STRATEGIES}"
            )
        if (
            self.cache_staleness_epochs is not None
            and self.cache_staleness_epochs < 0
        ):
            raise ConfigurationError(
                f"cache_staleness_epochs must be >= 0, "
                f"got {self.cache_staleness_epochs}"
            )
        if self.cache_budget_bytes is not None and self.cache_budget_bytes <= 0:
            raise ConfigurationError(
                f"cache_budget_bytes must be positive, "
                f"got {self.cache_budget_bytes}"
            )


class MGGCNTrainer(TrainerBase):
    """Multi-GPU full-batch GCN trainer on a simulated machine."""

    def __init__(
        self,
        dataset: Union[Dataset, SymbolicDataset],
        model: GCNModelSpec,
        machine: Optional[MachineSpec] = None,
        num_gpus: Optional[int] = None,
        config: Optional[TrainerConfig] = None,
    ):
        super().__init__(dataset, model)
        self.config = config or TrainerConfig()
        machine = machine or dgx1()
        mode = Mode.SYMBOLIC if dataset.is_symbolic else Mode.FUNCTIONAL
        self.ctx = SimContext(
            machine,
            num_gpus=num_gpus,
            mode=mode,
            record_trace=self.config.record_trace,
            fault_injector=self.config.fault_injector,
        )
        P = self.ctx.num_gpus
        self.graph: DistributedGraph = partition_dataset(
            self.ctx, dataset, permute=self.config.permute,
            seed=self.config.seed, strategy=self.config.partition_strategy,
        )
        costs = self.config.kernel_costs or KernelCosts()
        self.cost_models: List[CostModel] = [
            CostModel(machine.gpu, costs) for _ in range(P)
        ]
        # While a broadcast overlaps an SpMM, the SpMM loses the HBM share
        # the DMA engines consume (link injection bw / HBM bw).
        link_share = (
            machine.injection_bandwidth(0) / machine.gpu.memory_bandwidth
            if P > 1
            else 0.0
        )
        self._overlap_bw_fraction = max(1.0 - link_share, 0.1)
        if self.config.hierarchical_collectives:
            # function-level import: repro.parallel imports this module
            # (MixtureTrainer subclasses MGGCNTrainer).
            from repro.parallel.hierarchy import HierarchicalCommunicator

            comm_cls = HierarchicalCommunicator
        else:
            comm_cls = Communicator
        self.comm = comm_cls(
            self.ctx,
            bw_derate=self.config.overlap_comm_derate if self.config.overlap else 1.0,
            timeout=self.config.collective_timeout,
        )

        dims = model.layer_dims
        bc_dim = max(dims[1:])
        bc_rows = self.graph.max_part_rows if P > 1 else 0
        self.buffers: List[SharedBufferManager] = [
            SharedBufferManager(
                self.ctx.device(i),
                local_rows=self.graph.local_rows(i),
                layer_dims=dims,
                bc_rows=bc_rows,
                bc_dim=bc_dim if P > 1 else 0,
                overlap=self.config.overlap,
            )
            for i in range(P)
        ]

        self.adam = ReplicatedAdam(self.ctx, dims, self.config.lr,
                                   self.config.seed)

        #: training-time remote-tile cache (forward broadcasts only);
        #: None when disabled or pointless (single GPU).
        self.training_cache: Optional[TrainingTileCache] = None
        self._cache_active = False
        if self.config.cache_staleness_epochs is not None and P > 1:
            budget = self.config.cache_budget_bytes
            if budget is None:
                # auto: half of one epoch's forward broadcast bytes —
                # big enough to matter, small enough to leave headroom.
                budget = self._forward_broadcast_bytes() // 2
            self.training_cache = TrainingTileCache(
                self.ctx,
                CachePolicy(
                    staleness_epochs=self.config.cache_staleness_epochs,
                    budget_bytes=budget,
                ),
                stage_scores=stage_degree_scores(self.graph, "forward"),
            )

        #: live toggle for epoch capture & replay (seeded from the
        #: config; the training loop may flip it on an existing trainer).
        self.capture_epochs = self.config.capture_epochs
        #: captured plans, one per cache phase (key None without a cache).
        self._plans: Dict[Optional[str], ExecutionPlan] = {}
        #: plan signature of the current world; None until a warm-up
        #: epoch has run under it.
        self._plan_sig = None
        self.plan_stats = PlanStats()

    # -- convenience --------------------------------------------------------------

    @property
    def num_gpus(self) -> int:
        return self.ctx.num_gpus

    def _forward_broadcast_bytes(self) -> int:
        """Full forward broadcast bytes of one epoch (auto-budget base)."""
        sizes = self.graph.part.sizes()
        total = 0
        for l in range(self.model.num_layers):
            d_in, d_out = self.model.dims_of(l)
            w = broadcast_width(d_in, d_out, self.config.order_optimization)
            total += sum(sizes) * w * FLOAT_SIZE
        return total

    # -- distributed SpMM hook -----------------------------------------------

    def _run_spmm(
        self,
        layer: int,
        direction: str,
        tiles,
        sources: Sequence[DeviceTensor],
        outputs: Sequence[DeviceTensor],
        deps_by_rank: Optional[Dict[int, List[Event]]] = None,
        label: str = "spmm",
    ) -> Dict[int, List[Event]]:
        """Run one distributed SpMM (``direction`` is "fwd" or "bwd").

        The single seam every parallelism scheme goes through:
        :class:`~repro.parallel.mixture.MixtureTrainer` overrides this to
        dispatch each layer to its planner-chosen scheme, while the base
        trainer always runs the paper's 1D multi-stage broadcast.
        """
        return distributed_spmm(
            self.ctx,
            self.comm,
            self.cost_models,
            tiles,
            self.graph.row_blocks(direction),
            sources,
            outputs,
            self.buffers,
            overlap=self.config.overlap,
            overlap_bw_fraction=self._overlap_bw_fraction,
            deps_by_rank=deps_by_rank,
            label=label,
            cache=self._spmm_cache(direction),
        )

    def _spmm_cache(self, direction: str) -> Optional[TrainingTileCache]:
        """The tile cache for this SpMM, or None.

        Only forward broadcasts are cached (activations re-broadcast the
        same rows every epoch; backward gradient tiles change freely),
        and only inside ``train_epoch`` — ``evaluate``/``predict`` run
        exact forward passes.
        """
        if direction != "fwd" or not self._cache_active:
            return None
        return self.training_cache

    # -- forward pass ----------------------------------------------------------------

    def _forward(self) -> List[List[DeviceTensor]]:
        """Run the forward pass; returns per-layer per-rank outputs.

        Every per-rank kernel loop is one batched group
        (:func:`gemm_many` / :func:`relu_many`): one engine call and one
        group closure per loop, with the trace and the timeline of
        the op-at-a-time loop.
        """
        P = self.ctx.num_gpus
        engine = self.ctx.engine
        streams = [self.ctx.device(i).compute_stream for i in range(P)]
        inputs: Sequence[DeviceTensor] = self.graph.features
        layer_outputs: List[List[DeviceTensor]] = []
        for l in range(self.model.num_layers):
            d_in, d_out = self.model.dims_of(l)
            order = choose_forward_order(
                d_in, d_out, self.config.order_optimization
            )
            outs = [self.buffers[i].layer_output(l) for i in range(P)]
            if order is ComputeOrder.GEMM_FIRST:
                hw_views = [self.buffers[i].hw_view(d_out) for i in range(P)]
                events = gemm_many(
                    engine,
                    [
                        (streams[i], self.cost_models[i], inputs[i],
                         self.adam.weights[i][l], hw_views[i], ())
                        for i in range(P)
                    ],
                    name=f"fwd{l}/gemm",
                )
                self._run_spmm(
                    l,
                    "fwd",
                    self.graph.forward_tiles,
                    hw_views,
                    outs,
                    deps_by_rank={i: [ev] for i, ev in enumerate(events)},
                    label=f"fwd{l}/spmm",
                )
            else:
                ah_views = [self.buffers[i].hw_view(d_in) for i in range(P)]
                self._run_spmm(
                    l,
                    "fwd",
                    self.graph.forward_tiles,
                    list(inputs),
                    ah_views,
                    label=f"fwd{l}/spmm",
                )
                gemm_many(
                    engine,
                    [
                        (streams[i], self.cost_models[i], ah_views[i],
                         self.adam.weights[i][l], outs[i], ())
                        for i in range(P)
                    ],
                    name=f"fwd{l}/gemm",
                )
            if l < self.model.num_layers - 1:
                relu_many(
                    engine,
                    [(streams[i], self.cost_models[i], outs[i], ())
                     for i in range(P)],
                    name=f"fwd{l}/relu",
                )
            layer_outputs.append(outs)
            inputs = outs
        return layer_outputs

    # -- loss --------------------------------------------------------------------------

    def _loss(self, logits: Sequence[DeviceTensor]) -> Optional[float]:
        """Masked softmax-CE; the gradient replaces the logits in place."""
        P = self.ctx.num_gpus
        total = 0.0
        for i in range(P):
            local_loss, _ = softmax_cross_entropy(
                self.ctx.engine,
                self.cost_models[i],
                self.ctx.device(i).compute_stream,
                logits[i],
                self.graph.labels[i],
                self.graph.train_masks[i],
                grad_out=logits[i],
                total_train=self.graph.num_train,
                name="loss",
            )
            total += local_loss
        if self.mode is Mode.SYMBOLIC:
            return None
        return total / self.graph.num_train

    # -- backward pass --------------------------------------------------------------------

    def _backward(self, layer_outputs: List[List[DeviceTensor]]) -> None:
        P = self.ctx.num_gpus
        engine = self.ctx.engine
        L = self.model.num_layers
        streams = [self.ctx.device(i).compute_stream for i in range(P)]
        self.adam.t += 1
        for l in range(L - 1, -1, -1):
            d_in, d_out = self.model.dims_of(l)
            grads = layer_outputs[l]  # holds AHW_G^(l) (mask already applied)
            if l == 0 and self.config.first_layer_skip:
                hwg: Sequence[DeviceTensor] = grads  # §4.4 identity scaling
            else:
                hwg_views = [self.buffers[i].hw_view(d_out) for i in range(P)]
                self._run_spmm(
                    l,
                    "bwd",
                    self.graph.backward_tiles,
                    list(grads),
                    hwg_views,
                    label=f"bwd{l}/spmm",
                )
                hwg = hwg_views
            h_in = (
                self.graph.features if l == 0 else layer_outputs[l - 1]
            )
            events = gemm_many(
                engine,
                [
                    (streams[i], self.cost_models[i], h_in[i], hwg[i],
                     self.adam.grads[i][l], ())
                    for i in range(P)
                ],
                transpose_a=True,
                name=f"bwd{l}/wgrad",
            )
            wg_events = {i: [ev] for i, ev in enumerate(events)}
            # Propagate H_G into the previous layer's buffer *before* the
            # weight update (it reads the pre-update W), fusing the ReLU
            # mask of layer l-1's stored activation.
            if l > 0:
                gemm_relu_backward_many(
                    engine,
                    [
                        (streams[i], self.cost_models[i], hwg[i],
                         self.adam.weights[i][l], layer_outputs[l - 1][i], ())
                        for i in range(P)
                    ],
                    transpose_b=True,
                    name=f"bwd{l}/hgrad",
                )
            allreduce_events = self.comm.allreduce(
                {i: self.adam.grads[i][l] for i in range(P)},
                op="sum",
                deps_by_rank=wg_events,
                name=f"bwd{l}/allreduce_wg",
            )
            for i in range(P):
                self.adam.step(i, l, self.cost_models[i],
                               deps=[allreduce_events[i]])

    # -- epoch loop --------------------------------------------------------------------------

    def train_epoch(self) -> EpochStats:
        """One full-batch epoch; returns its stats.

        With ``capture_epochs`` on, the first epoch under a plan
        signature (partitioning, model dims, schedule flags, cache
        generation) runs eagerly as a warm-up, the second is captured
        into an :class:`~repro.plan.ExecutionPlan`, and later epochs are
        replayed from it (bit-identical trace, loss, and weights; see
        ``docs/performance.md``). A signature change drops every plan
        and warms up again; an active fault plan forces eager epochs.

        With the training cache enabled, the epoch counter advances here
        (phase: refresh vs serve) and forward broadcasts go through the
        cache for the duration of the epoch; the per-epoch hit/byte
        counters are flushed to telemetry (when a hub is attached) after
        the epoch. The trainer keeps one plan per cache phase, so at
        ``cache_staleness_epochs > 0`` both the refresh and the serve
        schedule replay; see ``docs/caching.md``.
        """
        if self.training_cache is not None:
            self.training_cache.begin_epoch()
            self._cache_active = True
            try:
                stats = self._train_epoch_planned()
            finally:
                self._cache_active = False
            self._flush_cache_telemetry()
            return stats
        return self._train_epoch_planned()

    def _train_epoch_planned(self) -> EpochStats:
        """Warm-up/capture/replay dispatch (see :meth:`train_epoch`)."""
        if self.capture_epochs:
            if not self._capture_allowed():
                # never replay through faults — they must surface eagerly.
                self.invalidate_plan()
            else:
                sig = self._plan_signature()
                if sig == self._plan_sig:
                    phase = (None if self.training_cache is None
                             else self.training_cache.phase)
                    plan = self._plans.get(phase)
                    if plan is None:
                        return self._capture_epoch(phase)
                    return self._replay_epoch(plan)
                # a new world: drop every plan and warm up eagerly.
                self.invalidate_plan()
                self._plan_sig = sig
        self.plan_stats.eager_epochs += 1
        return self._run_epoch(self._passes)

    def _passes(self) -> Optional[float]:
        """One eagerly-scheduled epoch (the reference path): forward,
        loss, and backward with the Adam steps; returns the loss."""
        layer_outputs = self._forward()
        loss = self._loss(layer_outputs[-1])
        self._backward(layer_outputs)
        return loss

    def _capture_epoch(self, phase: Optional[str]) -> EpochStats:
        """Run one eager epoch while recording it into ``phase``'s plan."""

        def body() -> Optional[float]:
            capture = PlanCapture(self.ctx.engine)
            capture.begin()
            try:
                loss = self._passes()
            finally:
                capture.end()
            self._plans[phase] = capture.finalize()
            self.plan_stats.captures += 1
            return loss

        return self._run_epoch(body)

    def _replay_epoch(self, plan: ExecutionPlan) -> EpochStats:
        """Re-execute a captured plan instead of eager scheduling."""

        def body() -> Optional[float]:
            # _backward normally advances the Adam step; the captured
            # closures read it through their callable ``t``.
            self.adam.t += 1
            # run_epoch's barrier put every stream at the epoch start.
            result = plan.replay(self.ctx.engine, self.ctx.elapsed())
            self.plan_stats.replays += 1
            if self.mode is Mode.SYMBOLIC:
                return None
            return result.loss_sum / self.graph.num_train

        return self._run_epoch(body)

    def _flush_cache_telemetry(self) -> None:
        """Push the cache's per-epoch counters into the telemetry hub."""
        telemetry = getattr(self.ctx.engine, "telemetry", None)
        cache = self.training_cache
        if telemetry is None or cache is None:
            return
        epoch = cache.epoch
        telemetry.inc("repro_cache_epochs_total", phase=cache.phase)
        telemetry.inc("repro_cache_rows_hit_total", epoch.hit_rows)
        telemetry.inc("repro_cache_rows_missed_total", epoch.miss_rows)
        telemetry.inc("repro_cache_bytes_saved_total", epoch.bytes_saved)
        telemetry.set_gauge("repro_cache_hit_rate", epoch.hit_rate)
        telemetry.set_gauge(
            "repro_cache_resident_bytes", float(cache.resident_bytes)
        )
        flight_note = getattr(telemetry, "flight_note", None)
        if flight_note is not None:
            flight_note(
                "cache_epoch",
                phase=cache.phase,
                hit_rate=epoch.hit_rate,
                bytes_saved=epoch.bytes_saved,
            )

    # -- plan lifecycle ------------------------------------------------------------------------

    def _capture_allowed(self) -> bool:
        injector = self.config.fault_injector
        return injector is None or injector.is_trivial

    def _plan_signature(self):
        """Everything a captured plan's validity depends on.

        Weights and Adam state are *not* part of the signature — closures
        read them in place — but the partitioning, tensor geometry, and
        schedule-shaping flags are: any of them changing means the
        captured op DAG no longer describes the epoch. So is the
        training cache's generation (its resident contents); its phase
        is not — the phase selects which per-phase plan an epoch uses.
        """
        P = self.ctx.num_gpus
        return (
            P,
            tuple(self.model.layer_dims),
            tuple(self.graph.local_rows(i) for i in range(P)),
            tuple(f.shape for f in self.graph.features),
            self.config.overlap,
            self.config.order_optimization,
            self.config.first_layer_skip,
            self.config.hierarchical_collectives,
            self.config.partition_strategy,
            None if self.training_cache is None
            else self.training_cache.generation,
            self.mode,
        )

    def invalidate_plan(self) -> None:
        """Drop every captured plan; the next epoch warms up again."""
        self.plan_stats.invalidations += len(self._plans)
        self._plans.clear()
        self._plan_sig = None

    # -- evaluation ---------------------------------------------------------------------------

    def predict(self) -> np.ndarray:
        """Argmax class predictions for every vertex, in the dataset's
        ORIGINAL vertex order (the §5.2 permutation is inverted), so the
        output aligns with ``dataset.labels``. Functional mode only."""
        if self.mode is not Mode.FUNCTIONAL:
            raise ConfigurationError("predict() requires functional mode")
        logits = self._forward()[-1]
        parts = [np.argmax(logits[i].data, axis=1) for i in range(self.ctx.num_gpus)]
        permuted_order = np.concatenate(parts)
        if self.graph.perm is None:
            return permuted_order
        # permuted_order[perm[v]] is vertex v's prediction
        return permuted_order[self.graph.perm]

    def _scored_rows(self, split: str):
        """Each rank's local logits, labels and ``split`` mask."""
        masks = split_mask(self.graph, split, per_rank=True)
        logits = self._forward()[-1]
        return [(logits[i].data, self.graph.labels[i], masks[i])
                for i in range(self.ctx.num_gpus)]
