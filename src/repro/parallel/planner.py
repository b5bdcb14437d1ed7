"""The cost-model-driven parallelism planner (MixGCN-style mixture).

Given a dataset, a model and a cluster, :class:`ParallelismPlanner`
estimates — per GCN layer — the communication and compute cost of each
per-layer scheme (:data:`~repro.parallel.strategies.LAYER_SCHEMES`) and
picks the cheapest feasible one; it also estimates whole-model 1.5D and
2D grids so the plan can say whether a fixed grid would beat the
mixture. Every estimate reuses the simulator's own models:

* communication via real :class:`~repro.comm.collectives.Communicator`
  / :class:`~repro.parallel.hierarchy.HierarchicalCommunicator`
  instances over a throwaway :class:`SimContext` (``broadcast_duration``
  & friends), so predictions and measured epochs share one model;
* compute via :class:`~repro.kernels.cost.CostModel` (the MG-GCN-tuned
  roofline), including the colder ``dense_rows = n`` working set the
  replicated-operand scheme pays;
* memory via the same CSR/tensor byte formulas the device pools
  enforce — a scheme whose extra footprint would blow the per-GPU
  memory budget is excluded with an explicit reason, never chosen.

The output :class:`ParallelismPlan` is explainable: per-layer choices
carry every candidate's numbers and a one-line reason, and
:meth:`ParallelismPlan.explain` renders the table the
``repro parallel plan`` CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cache.policy import CachePolicy
from repro.comm.collectives import Communicator
from repro.config import FLOAT_SIZE, INDEX_SIZE, OFFSET_SIZE
from repro.device.engine import SimContext
from repro.errors import ConfigurationError
from repro.hardware.spec import MachineSpec, spans_nodes
from repro.kernels.cost import CostModel, KernelCosts
from repro.nn.model import GCNModelSpec
from repro.parallel.hierarchy import HierarchicalCommunicator
from repro.parallel.strategies import LAYER_SCHEMES


def _csr_bytes(rows: int, nnz: int) -> int:
    """Device bytes of a CSR block (indptr + indices + vals)."""
    return (rows + 1) * OFFSET_SIZE + nnz * (INDEX_SIZE + FLOAT_SIZE)


@dataclass(frozen=True)
class SchemeCost:
    """One candidate scheme's estimate for one layer."""

    scheme: str
    comm_time: float
    compute_time: float
    extra_memory: int
    feasible: bool
    note: str = ""

    @property
    def total(self) -> float:
        return self.comm_time + self.compute_time


@dataclass(frozen=True)
class LayerChoice:
    """The planner's decision for one layer, with its alternatives."""

    layer: int
    d_in: int
    d_out: int
    scheme: str
    reason: str
    candidates: Tuple[SchemeCost, ...]

    def candidate(self, scheme: str) -> SchemeCost:
        for c in self.candidates:
            if c.scheme == scheme:
                return c
        raise KeyError(scheme)


@dataclass
class ParallelismPlan:
    """Per-layer parallelism choices plus whole-model alternatives."""

    dataset_name: str
    machine_name: str
    num_gpus: int
    num_nodes: int
    choices: List[LayerChoice]
    #: "flat" | "hierarchical" — how weight gradients are allreduced.
    weight_sync: str
    #: predicted epoch time of the per-layer mixture.
    mixture_estimate: float
    #: predicted epoch times of uniform schemes ("1d", "1d_hier") and
    #: fixed grids ("15d", "2d"); absent keys were infeasible.
    fixed_estimates: Dict[str, float] = field(default_factory=dict)
    #: why an absent fixed scheme was excluded.
    exclusions: Dict[str, str] = field(default_factory=dict)
    #: extra per-GPU bytes the mixture needs beyond the 1D baseline.
    extra_memory_per_gpu: int = 0

    def scheme(self, layer: int) -> str:
        return self.choices[layer].scheme

    @property
    def schemes(self) -> List[str]:
        return [c.scheme for c in self.choices]

    @property
    def best_overall(self) -> str:
        """"mixture" or the name of a strictly cheaper fixed scheme."""
        best = "mixture"
        best_t = self.mixture_estimate
        for name, t in self.fixed_estimates.items():
            if t < best_t:
                best, best_t = name, t
        return best

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset_name,
            "machine": self.machine_name,
            "num_gpus": self.num_gpus,
            "num_nodes": self.num_nodes,
            "weight_sync": self.weight_sync,
            "mixture_estimate": self.mixture_estimate,
            "fixed_estimates": dict(self.fixed_estimates),
            "exclusions": dict(self.exclusions),
            "extra_memory_per_gpu": self.extra_memory_per_gpu,
            "best_overall": self.best_overall,
            "layers": [
                {
                    "layer": c.layer,
                    "dims": [c.d_in, c.d_out],
                    "scheme": c.scheme,
                    "reason": c.reason,
                    "candidates": {
                        cand.scheme: {
                            "comm_time": cand.comm_time,
                            "compute_time": cand.compute_time,
                            "extra_memory": cand.extra_memory,
                            "feasible": cand.feasible,
                            "note": cand.note,
                        }
                        for cand in c.candidates
                    },
                }
                for c in self.choices
            ],
        }

    def explain(self) -> str:
        """The human-readable plan table (the CLI's output)."""
        lines = [
            f"parallelism plan: {self.dataset_name} x {self.machine_name} "
            f"({self.num_gpus} GPUs, {self.num_nodes} node"
            f"{'s' if self.num_nodes != 1 else ''})",
            f"{'layer':<6}{'dims':<14}{'scheme':<14}{'comm(s)':<12}"
            f"{'compute(s)':<12}reason",
        ]
        for c in self.choices:
            chosen = c.candidate(c.scheme)
            lines.append(
                f"{c.layer:<6}{f'{c.d_in}->{c.d_out}':<14}{c.scheme:<14}"
                f"{chosen.comm_time:<12.3e}{chosen.compute_time:<12.3e}"
                f"{c.reason}"
            )
        lines.append(f"weight sync: {self.weight_sync} allreduce")
        est = " | ".join(
            [f"mixture {self.mixture_estimate:.3e}"]
            + [f"{k} {v:.3e}" for k, v in sorted(self.fixed_estimates.items())]
        )
        lines.append(f"epoch estimates (s): {est}")
        for name, why in sorted(self.exclusions.items()):
            lines.append(f"excluded {name}: {why}")
        lines.append(f"recommendation: {self.best_overall}")
        return "\n".join(lines)


class ParallelismPlanner:
    """Choose 1D / 1.5D / 2D parallelism per layer from the cost model."""

    #: the replicated-operand scheme must beat the best staged scheme by
    #: this factor before it is chosen — its estimate is the least
    #: certain (cache model of the wide SpMM), so the planner demands a
    #: clear win rather than flapping on noise.
    ALLGATHER_MARGIN = 0.9

    def __init__(
        self,
        dataset,
        model: GCNModelSpec,
        machine: MachineSpec,
        num_gpus: Optional[int] = None,
        kernel_costs: Optional[KernelCosts] = None,
        overlap: bool = True,
        order_optimization: bool = True,
        first_layer_skip: bool = True,
        memory_headroom: float = 0.9,
        cache_policy: Optional[CachePolicy] = None,
    ):
        self.dataset = dataset
        self.model = model
        self.machine = machine
        self.P = num_gpus if num_gpus is not None else machine.num_gpus
        if self.P < 1:
            raise ConfigurationError(f"num_gpus must be >= 1, got {self.P}")
        self.overlap = overlap
        self.order_optimization = order_optimization
        self.first_layer_skip = first_layer_skip
        #: training-time embedding cache the trainer will run with; folds
        #: the amortised (refresh + serve) payload shrinkage of forward
        #: broadcasts into the staged-scheme pricing.
        self.cache_policy = cache_policy
        if not (0.0 < memory_headroom <= 1.0):
            raise ConfigurationError(
                f"memory_headroom must be in (0, 1], got {memory_headroom}"
            )
        #: usable fraction of the GPU memory (allocator slack, fragmentation).
        self.memory_budget = int(machine.gpu.memory_bytes * memory_headroom)
        self.cost = CostModel(machine.gpu, kernel_costs or KernelCosts())
        # throwaway context: communicators for duration queries only.
        self._ctx = SimContext(
            machine, num_gpus=self.P, record_trace=False
        )
        self._flat = Communicator(self._ctx)
        self._hier = HierarchicalCommunicator(self._ctx)
        self._multi_node = spans_nodes(machine, list(range(self.P)))

        n = dataset.n
        self.n = n
        self.m = dataset.m
        self.rows_p = -(-n // self.P)  # ceil
        self.tile_nnz = max(self.m // (self.P * self.P), 1)
        self.row_nnz = max(self.m // self.P, 1)

    # -- per-layer estimates -------------------------------------------------

    def _fwd_payload_factor(self, width: int) -> float:
        """Amortised broadcast-payload multiplier of the cache, for one
        forward stage tile of ``width`` columns (1.0 when uncached)."""
        if self.cache_policy is None or self.P <= 1:
            return 1.0
        frac = self.cache_policy.expected_cached_fraction(
            self.rows_p,
            width * FLOAT_SIZE,
            self.model.num_layers * self.P,
        )
        return self.cache_policy.amortized_payload_factor(frac)

    def _staged_cost(
        self, width: int, comm: Communicator, payload_factor: float = 1.0
    ) -> Tuple[float, float]:
        """(comm, compute) of the P-stage broadcast SpMM at ``width``."""
        nbytes = int(self.rows_p * width * FLOAT_SIZE * payload_factor)
        stage_comm = comm.broadcast_duration(0, nbytes)
        comm_total = self.P * stage_comm
        compute_total = self.P * self.cost.spmm_time(
            self.rows_p, self.tile_nnz, width, dense_rows=self.rows_p
        )
        if self.overlap and self.P > 1:
            # pipelined: the longer side hides the shorter, plus the fill.
            return (
                max(comm_total, compute_total) - compute_total + stage_comm
                if comm_total > compute_total
                else stage_comm,
                compute_total,
            )
        return comm_total, compute_total

    def _allgather_cost(self, width: int) -> Tuple[float, float]:
        """(comm, compute) of the replicated-operand SpMM at ``width``."""
        comm_total = self._hier.allgather_duration(self.n * width * FLOAT_SIZE)
        compute_total = self.cost.spmm_time(
            self.rows_p, self.row_nnz, width, dense_rows=self.n
        )
        return comm_total, compute_total

    def _allgather_extra_memory(self, max_width: int) -> int:
        """Gather buffer + the row blocks it multiplies, per GPU."""
        gather = self.n * max_width * FLOAT_SIZE
        wide_tiles = 2 * _csr_bytes(self.rows_p, self.row_nnz)  # fwd + bwd
        return gather + wide_tiles

    def _baseline_memory(self) -> int:
        """Approximate per-GPU bytes of the 1D trainer's resident state."""
        dims = self.model.layer_dims
        rows = self.rows_p
        feats = rows * dims[0] * FLOAT_SIZE
        adjacency = 2 * _csr_bytes(rows, self.row_nnz)
        outputs = sum(rows * d * FLOAT_SIZE for d in dims[1:])
        max_d = max(dims)
        scratch = 3 * rows * max_d * FLOAT_SIZE  # hw view + 2 bcast buffers
        weights = 4 * sum(
            dims[l] * dims[l + 1] for l in range(self.model.num_layers)
        ) * FLOAT_SIZE
        return feats + adjacency + outputs + scratch + weights

    def _layer_widths(self, layer: int) -> Tuple[int, Optional[int]]:
        """(forward SpMM width, backward SpMM width or None if skipped)."""
        d_in, d_out = self.model.dims_of(layer)
        w_fwd = min(d_in, d_out) if self.order_optimization else d_in
        w_bwd = None if (layer == 0 and self.first_layer_skip) else d_out
        return w_fwd, w_bwd

    def _layer_candidates(
        self, layer: int, memory_left: int
    ) -> Tuple[SchemeCost, ...]:
        w_fwd, w_bwd = self._layer_widths(layer)
        widths = [w_fwd] + ([w_bwd] if w_bwd is not None else [])
        # only forward broadcasts are cacheable (gradient tiles change
        # every epoch); the factor prices the refresh/serve amortisation.
        factors = [self._fwd_payload_factor(w_fwd)] + [1.0] * (len(widths) - 1)

        def staged(comm: Communicator, scheme: str, note: str) -> SchemeCost:
            comm_t = compute_t = 0.0
            for w, f in zip(widths, factors):
                c, k = self._staged_cost(w, comm, payload_factor=f)
                comm_t += c
                compute_t += k
            return SchemeCost(scheme, comm_t, compute_t, 0, True, note)

        flat = staged(self._flat, "1d", "paper 1D staged broadcast")
        hier = staged(
            self._hier, "1d_hier", "staged broadcast, hierarchical phases"
        )
        ag_comm = ag_compute = 0.0
        for w in widths:
            c, k = self._allgather_cost(w)
            ag_comm += c
            ag_compute += k
        ag_mem = self._allgather_extra_memory(max(widths))
        ag_ok = ag_mem <= memory_left
        ag_note = (
            "replicated operand, single wide SpMM"
            if ag_ok
            else (
                f"needs {ag_mem} B extra, {memory_left} B left of the "
                f"per-GPU budget"
            )
        )
        allgather = SchemeCost(
            "1d_allgather", ag_comm, ag_compute, ag_mem, ag_ok, ag_note
        )
        return (flat, hier, allgather)

    def _choose(self, layer: int, memory_left: int) -> LayerChoice:
        d_in, d_out = self.model.dims_of(layer)
        candidates = self._layer_candidates(layer, memory_left)
        flat, hier, allgather = candidates
        staged_best = min((flat, hier), key=lambda c: c.total)
        chosen = staged_best
        if (
            allgather.feasible
            and allgather.total < self.ALLGATHER_MARGIN * staged_best.total
        ):
            chosen = allgather
        if chosen is allgather:
            reason = (
                f"replicating the operand saves "
                f"{staged_best.total / max(allgather.total, 1e-30):.1f}x over "
                f"staged ({staged_best.scheme})"
            )
        elif chosen is hier and self._multi_node:
            reason = (
                f"hierarchical phases cut the staged comm "
                f"{flat.comm_time / max(hier.comm_time, 1e-30):.1f}x vs flat"
            )
        else:
            reason = "single tier: flat staged broadcast is already optimal"
            if not allgather.feasible:
                reason += "; allgather over memory budget"
        return LayerChoice(
            layer=layer,
            d_in=d_in,
            d_out=d_out,
            scheme=chosen.scheme,
            reason=reason,
            candidates=candidates,
        )

    def broadcast_bytes_per_epoch(
        self, cache_policy: Optional[CachePolicy] = None
    ) -> int:
        """Staged-broadcast bytes of one 1D epoch (fwd + bwd SpMMs).

        With ``cache_policy``, forward stages are scaled by the
        amortised refresh/serve payload factor — the ``repro parallel
        plan`` CLI prints this next to the uncached total so the
        expected wire savings of the training cache are visible before
        a run.
        """
        if self.P <= 1:
            return 0
        total = 0.0
        for layer in range(self.model.num_layers):
            w_fwd, w_bwd = self._layer_widths(layer)
            fwd_factor = 1.0
            if cache_policy is not None:
                frac = cache_policy.expected_cached_fraction(
                    self.rows_p,
                    w_fwd * FLOAT_SIZE,
                    self.model.num_layers * self.P,
                )
                fwd_factor = cache_policy.amortized_payload_factor(frac)
            total += self.P * self.rows_p * w_fwd * FLOAT_SIZE * fwd_factor
            if w_bwd is not None:
                total += self.P * self.rows_p * w_bwd * FLOAT_SIZE
        return int(total)

    # -- whole-model fixed grids ---------------------------------------------

    def _estimate_gemms(self, rows: int) -> float:
        """Shared dense work of one epoch on ``rows`` local rows."""
        total = 0.0
        for l in range(self.model.num_layers):
            d_in, d_out = self.model.dims_of(l)
            total += self.cost.gemm_time(rows, d_out, d_in)  # fwd
            total += self.cost.gemm_time(d_in, d_out, rows)  # wgrad
            if l > 0:
                total += self.cost.gemm_time(rows, d_in, d_out)  # hgrad
        return total

    def _weight_sync_cost(self, comm: Communicator) -> float:
        total = 0.0
        for l in range(self.model.num_layers):
            d_in, d_out = self.model.dims_of(l)
            total += comm.allreduce_duration(d_in * d_out * FLOAT_SIZE)
        return total

    def _estimate_15d(self, c: int) -> Optional[float]:
        P = self.P
        if c < 1 or P % c != 0 or c == P:
            return None
        R = P // c
        rows = -(-self.n // R)
        nnz_tile = max(self.m // (R * R), 1)
        if R > 1:
            group = Communicator(self._ctx, ranks=list(range(R)))
            if spans_nodes(self.machine, group.ranks):
                group = HierarchicalCommunicator(
                    self._ctx, ranks=list(range(R))
                )
        else:
            group = None
        replica_ranks = [l * R for l in range(c)]
        replica = Communicator(self._ctx, ranks=replica_ranks)
        if spans_nodes(self.machine, replica_ranks):
            replica = HierarchicalCommunicator(self._ctx, ranks=replica_ranks)
        stages = -(-R // c)
        total = 0.0
        for layer in range(self.model.num_layers):
            w_fwd, w_bwd = self._layer_widths(layer)
            # the 1.5D baseline always multiplies at the layer's operand
            # width (no order optimisation in that code path).
            d_in, d_out = self.model.dims_of(layer)
            for w in [d_in] + ([d_out] if w_bwd is not None else []):
                if group is not None:
                    total += stages * group.broadcast_duration(
                        0, rows * w * FLOAT_SIZE
                    )
                total += stages * self.cost.spmm_time(
                    rows, nnz_tile, w, dense_rows=rows
                )
                total += replica.allreduce_duration(rows * w * FLOAT_SIZE)
        total += self._estimate_gemms(rows)
        world = self._hier if self._multi_node else self._flat
        total += self._weight_sync_cost(world)
        # feasibility: c-fold adjacency replication
        adjacency = 2 * c * _csr_bytes(rows, max(self.m // R, 1))
        feats = rows * self.model.layer_dims[0] * FLOAT_SIZE
        if adjacency + feats > self.memory_budget:
            return None
        return total

    def _estimate_2d(self) -> Optional[Tuple[float, str]]:
        P = self.P
        r = int(P ** 0.5)
        while r * r < P:
            r += 1
        if r * r != P or r < 2:
            return None, f"needs a square GPU count, got {P}"
        if min(self.model.layer_dims) < r:
            return None, (
                f"grid of {r} columns cannot split width "
                f"{min(self.model.layer_dims)}"
            )
        rows = -(-self.n // r)
        nnz_tile = max(self.m // (r * r), 1)
        row_ranks = list(range(r))
        col_ranks = [i * r for i in range(r)]

        def comm_for(ranks):
            if spans_nodes(self.machine, ranks):
                return HierarchicalCommunicator(self._ctx, ranks=ranks)
            return Communicator(self._ctx, ranks=ranks)

        row_comm = comm_for(row_ranks)
        col_comm = comm_for(col_ranks)
        total = 0.0
        a_tile_bytes = _csr_bytes(rows, nnz_tile)
        for layer in range(self.model.num_layers):
            d_in, d_out = self.model.dims_of(layer)
            w_bwd = None if (layer == 0 and self.first_layer_skip) else d_out
            for w in [d_in] + ([w_bwd] if w_bwd is not None else []):
                w_r = -(-w // r)
                slice_bytes = rows * w_r * FLOAT_SIZE
                per_stage = row_comm.broadcast_duration(
                    0, a_tile_bytes
                ) + col_comm.broadcast_duration(0, slice_bytes)
                total += r * per_stage
                total += r * self.cost.spmm_time(
                    rows, nnz_tile, w_r, dense_rows=rows
                )
                total += row_comm.allreduce_duration(rows * w * FLOAT_SIZE)
        total += self._estimate_gemms(rows) / r  # columns split the widths
        world = self._hier if self._multi_node else self._flat
        total += self._weight_sync_cost(world)
        return total, ""

    # -- the plan ------------------------------------------------------------

    def plan(self) -> ParallelismPlan:
        memory_left = max(self.memory_budget - self._baseline_memory(), 0)
        choices: List[LayerChoice] = []
        extra_memory = 0
        for layer in range(self.model.num_layers):
            choice = self._choose(layer, memory_left - extra_memory)
            choices.append(choice)
            if choice.scheme == "1d_allgather":
                # the gather buffer and wide tiles are shared across
                # allgather layers; charge them once, at the widest use.
                extra_memory = max(
                    extra_memory, choice.candidate(choice.scheme).extra_memory
                )

        weight_sync = "hierarchical" if self._multi_node else "flat"
        sync_comm = self._hier if self._multi_node else self._flat
        sync_cost = self._weight_sync_cost(sync_comm)
        gemms = self._estimate_gemms(self.rows_p)

        def epoch_total(schemes: List[str]) -> float:
            total = gemms + sync_cost
            for layer, scheme in enumerate(schemes):
                cand = choices[layer].candidate(scheme)
                total += cand.total
            return total

        mixture_estimate = epoch_total([c.scheme for c in choices])
        fixed: Dict[str, float] = {
            "1d": epoch_total(["1d"] * len(choices)) - sync_cost
            + self._weight_sync_cost(self._flat),
            "1d_hier": epoch_total(["1d_hier"] * len(choices)),
        }
        exclusions: Dict[str, str] = {}
        best_15d = None
        for c in (self.machine.num_nodes, 2):
            est = self._estimate_15d(c)
            if est is not None and (best_15d is None or est < best_15d):
                best_15d = est
        if best_15d is not None:
            fixed["15d"] = best_15d
        else:
            exclusions["15d"] = (
                "no feasible replication factor (divisibility or memory)"
            )
        est_2d, why = self._estimate_2d()
        if est_2d is not None:
            fixed["2d"] = est_2d
        else:
            exclusions["2d"] = why

        return ParallelismPlan(
            dataset_name=getattr(self.dataset, "name", "dataset"),
            machine_name=self.machine.name,
            num_gpus=self.P,
            num_nodes=self.machine.num_nodes,
            choices=choices,
            weight_sync=weight_sync,
            mixture_estimate=mixture_estimate,
            fixed_estimates=fixed,
            exclusions=exclusions,
            extra_memory_per_gpu=extra_memory,
        )
