"""Core package: order policy, partitioner, distributed SpMM, stats."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.comm import Communicator
from repro.core import (
    ComputeOrder,
    MGGCNTrainer,
    TrainerConfig,
    choose_forward_order,
    distributed_spmm,
    partition_dataset,
)
from repro.core.order import broadcast_width, forward_orders, max_broadcast_width
from repro.core.stats import BREAKDOWN_CATEGORIES, EpochStats, OpBreakdown
from repro.datasets import load_dataset
from repro.device import Mode, SimContext, TraceEvent
from repro.errors import ConfigurationError
from repro.hardware import dgx1
from repro.kernels import CostModel
from repro.nn import GCNModelSpec, SharedBufferManager
from repro.sparse import CSRMatrix, uniform_partition, tile_grid


class TestOrder:
    def test_gemm_first_when_shrinking(self):
        assert choose_forward_order(602, 512) is ComputeOrder.GEMM_FIRST
        assert choose_forward_order(512, 512) is ComputeOrder.GEMM_FIRST

    def test_spmm_first_when_growing(self):
        assert choose_forward_order(128, 512) is ComputeOrder.SPMM_FIRST

    def test_disabled_always_gemm_first(self):
        assert (
            choose_forward_order(128, 512, order_optimization=False)
            is ComputeOrder.GEMM_FIRST
        )

    def test_broadcast_width_follows_order(self):
        assert broadcast_width(128, 512) == 128
        assert broadcast_width(602, 512) == 512
        assert broadcast_width(128, 512, order_optimization=False) == 512

    def test_forward_orders_per_layer(self):
        orders = forward_orders([128, 512, 40])
        assert orders == [ComputeOrder.SPMM_FIRST, ComputeOrder.GEMM_FIRST]

    def test_max_broadcast_width_includes_backward(self):
        # forward widths: min(128,512)=128, min(512,40)=40
        # backward widths: 512, 40 -> max 512
        assert max_broadcast_width([128, 512, 40]) == 512

    def test_invalid_dims(self):
        with pytest.raises(ConfigurationError):
            choose_forward_order(0, 5)


class TestPartitioner:
    def test_functional_partition_shards(self, small_dataset):
        ctx = SimContext(dgx1(), num_gpus=4)
        graph = partition_dataset(ctx, small_dataset, permute=True, seed=0)
        assert graph.num_parts == 4
        assert sum(graph.part.sizes()) == small_dataset.n
        total_train = sum(int(m.sum()) for m in graph.train_masks)
        assert total_train == small_dataset.num_train
        # forward tiles cover all edges
        fwd_nnz = sum(t.nnz for row in graph.forward_tiles for t in row)
        assert fwd_nnz == small_dataset.m

    def test_features_are_permuted_consistently(self, small_dataset):
        ctx = SimContext(dgx1(), num_gpus=2)
        graph = partition_dataset(ctx, small_dataset, permute=True, seed=1)
        perm = graph.perm
        # row that vertex 0 landed on must carry vertex 0's features
        new_pos = perm[0]
        rank = graph.part.owner(new_pos)
        r0, _ = graph.part.part(rank)
        row = new_pos - r0
        assert np.allclose(
            graph.features[rank].data[row], small_dataset.features[0]
        )
        assert graph.labels[rank][row] == small_dataset.labels[0]

    def test_no_permute_keeps_order(self, small_dataset):
        ctx = SimContext(dgx1(), num_gpus=2)
        graph = partition_dataset(ctx, small_dataset, permute=False)
        assert graph.perm is None
        assert np.allclose(
            graph.features[0].data,
            small_dataset.features[: graph.part.size(0)],
        )

    def test_adjacency_memory_accounted(self, small_dataset):
        ctx = SimContext(dgx1(), num_gpus=2)
        graph = partition_dataset(ctx, small_dataset, permute=True)
        for i in range(2):
            tags = ctx.device(i).pool.usage_by_tag()
            assert tags.get("adjacency", 0) > 0
            assert tags.get("features", 0) > 0

    def test_symbolic_partition_balanced(self):
        ds = load_dataset("products", symbolic=True)
        ctx = SimContext(dgx1(), num_gpus=4, mode=Mode.SYMBOLIC)
        graph = partition_dataset(ctx, ds, permute=True)
        nnz = [t.nnz for row in graph.forward_tiles for t in row]
        assert max(nnz) <= 1.05 * min(nnz)
        assert abs(sum(nnz) - ds.m) <= 16  # rounding only

    def test_symbolic_requires_permute(self):
        ds = load_dataset("products", symbolic=True)
        ctx = SimContext(dgx1(), num_gpus=4, mode=Mode.SYMBOLIC)
        with pytest.raises(ConfigurationError):
            partition_dataset(ctx, ds, permute=False)

    def test_mode_mismatch_rejected(self, small_dataset):
        sym_ctx = SimContext(dgx1(), num_gpus=2, mode=Mode.SYMBOLIC)
        with pytest.raises(ConfigurationError):
            partition_dataset(sym_ctx, small_dataset)
        ds = load_dataset("products", symbolic=True)
        fun_ctx = SimContext(dgx1(), num_gpus=2)
        with pytest.raises(ConfigurationError):
            partition_dataset(fun_ctx, ds)

    def test_stage_nnz_diagnostic(self, small_dataset):
        ctx = SimContext(dgx1(), num_gpus=4)
        graph = partition_dataset(ctx, small_dataset, permute=True)
        stages = graph.stage_nnz(0, "forward")
        assert len(stages) == 4
        assert sum(stages) == sum(t.nnz for t in graph.forward_tiles[0])


def _count_csr_kernel_calls(monkeypatch):
    """Count compiled CSR kernel calls of matrices first used from now on."""
    from repro.sparse import csr as csr_module

    kernel = csr_module._csr_matvecs()
    calls = []

    def counting(*args):
        calls.append(args[0])
        return kernel(*args)

    monkeypatch.setattr(csr_module, "_CSR_MATVECS", counting)
    return calls


def test_replayed_epoch_makes_one_kernel_call_per_rank(monkeypatch,
                                                        tiny_dataset):
    """A replayed epoch runs each distributed SpMM as P kernel calls
    (one per rank), while its trace still has P ops per stage."""
    calls = _count_csr_kernel_calls(monkeypatch)
    ds = tiny_dataset
    P = 8
    # every layer as wide as the classes: all HW views span the whole
    # scratch buffer, so every SpMM output is C-contiguous.
    model = GCNModelSpec.build(ds.d0, ds.num_classes, ds.num_classes, 3)
    trainer = MGGCNTrainer(ds, model, machine=dgx1(), num_gpus=P,
                           config=TrainerConfig(capture_epochs=True))
    trainer.train_epoch()  # warm-up
    trainer.train_epoch()  # capture
    del calls[:]
    stats = trainer.train_epoch()
    assert trainer.plan_stats.replays == 1
    spmm_ops = sum(e.category == "spmm" for e in stats.trace)
    assert spmm_ops > 0 and spmm_ops % (P * P) == 0
    assert len(calls) == spmm_ops // P


class TestDistributedSpMM:
    def _setup(self, P, n=24, d=5, overlap=True, seed=0):
        rng = np.random.default_rng(seed)
        dense = (rng.random((n, n)) < 0.3).astype(np.float32)
        matrix = CSRMatrix.from_dense(dense)
        part = uniform_partition(n, P)
        tiles = tile_grid(matrix, part, part)
        rows = [matrix.row_block(*part.part(i)) for i in range(P)]
        ctx = SimContext(dgx1(), num_gpus=P)
        comm = Communicator(ctx)
        costs = [CostModel(dgx1().gpu) for _ in range(P)]
        x = rng.random((n, d)).astype(np.float32)
        managers = [
            SharedBufferManager(
                ctx.device(i), part.size(i), (d, d, d),
                bc_rows=max(part.sizes()), bc_dim=d, overlap=overlap,
            )
            for i in range(P)
        ]
        sources = [
            ctx.device(i).from_numpy(x[part.part(i)[0] : part.part(i)[1]])
            for i in range(P)
        ]
        outputs = [ctx.device(i).zeros((part.size(i), d)) for i in range(P)]
        return (ctx, comm, costs, tiles, rows, sources, outputs, managers,
                dense, x, part)

    @pytest.mark.parametrize("P", [1, 2, 4, 8])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_matches_dense_product(self, P, overlap):
        (ctx, comm, costs, tiles, rows, sources, outputs, managers,
         dense, x, part) = self._setup(P, overlap=overlap)
        distributed_spmm(
            ctx, comm, costs, tiles, rows, sources, outputs, managers,
            overlap=overlap,
        )
        expected = dense @ x
        for i in range(P):
            r0, r1 = part.part(i)
            assert np.allclose(outputs[i].data, expected[r0:r1], atol=1e-4), (P, i)

    def test_overlap_faster_than_serialized(self):
        res_s = self._setup(4, n=4000, d=256, overlap=False, seed=1)
        distributed_spmm(*res_s[:8], overlap=False)
        t_serial = res_s[0].elapsed()
        res_o = self._setup(4, n=4000, d=256, overlap=True, seed=1)
        distributed_spmm(
            *res_o[:8], overlap=True, overlap_bw_fraction=5 / 6,
        )
        t_overlap = res_o[0].elapsed()
        assert t_overlap < t_serial

    def test_stage_events_recorded(self):
        (ctx, comm, costs, tiles, rows, sources, outputs, managers,
         *_rest) = self._setup(4)
        events = distributed_spmm(
            ctx, comm, costs, tiles, rows, sources, outputs, managers,
            label="x",
        )
        assert set(events) == {0, 1, 2, 3}
        assert all(len(v) == 4 for v in events.values())
        stages = {ev.stage for ev in ctx.engine.trace if ev.stage is not None}
        assert stages == {0, 1, 2, 3}

    def test_one_kernel_call_per_rank(self, monkeypatch):
        """Contiguous outputs, no cache: one CSR kernel call per rank,
        on the rank's row block, not one per tile."""
        calls = _count_csr_kernel_calls(monkeypatch)
        P = 8
        (ctx, comm, costs, tiles, rows, sources, outputs, managers,
         *_rest) = self._setup(P, n=48)
        assert all(out.data.flags.c_contiguous for out in outputs)
        distributed_spmm(ctx, comm, costs, tiles, rows, sources, outputs,
                         managers)
        assert len(calls) == P

    @pytest.mark.parametrize("strided", [False, True])
    def test_bitwise_equal_to_per_tile_sequence(self, strided):
        """Row-block numerics give the floats of the stage-ordered
        per-tile accumulation, for contiguous and strided outputs."""
        P = 4
        (ctx, comm, costs, tiles, rows, sources, outputs, managers,
         *_rest) = self._setup(P, n=64, d=6, seed=3)
        if strided:
            outputs = [
                ctx.device(i).zeros((out.rows, out.cols + 3)).view2d(
                    out.rows, out.cols)
                for i, out in enumerate(outputs)
            ]
            assert not outputs[0].data.flags.c_contiguous
        distributed_spmm(ctx, comm, costs, tiles, rows, sources, outputs,
                         managers)
        for i in range(P):
            rows_i, d = outputs[i].shape
            # the reference accumulates into the same memory layout
            expected = np.zeros((rows_i, d + 3), np.float32)[:, :d] \
                if strided else np.zeros((rows_i, d), np.float32)
            for j in range(P):
                tiles[i][j].spmm_into(sources[j].data, expected,
                                      accumulate=j > 0)
            assert np.array_equal(outputs[i].data, expected)

    def test_rank_count_mismatch(self):
        (ctx, comm, costs, tiles, rows, sources, outputs, managers,
         *_rest) = self._setup(2)
        with pytest.raises(ConfigurationError):
            distributed_spmm(
                ctx, comm, costs, tiles, rows, sources[:1], outputs, managers
            )


def test_stage_plans_retain_no_host_arrays():
    """Stage plans hold no per-call host arrays between calls.

    A no-cache SpMM stacks its sources into one ``n x d`` host array per
    call (8.7 MB here) and drops it when the call returns; building and
    replaying the plans of one ``evaluate()`` may retain only plan
    metadata (specs, closures, views), well under one such array.
    """
    ds = load_dataset("arxiv", scale=0.05, seed=1)
    model = GCNModelSpec.build(ds.d0, 256, ds.num_classes, 3)
    trainer = MGGCNTrainer(
        ds, model, machine=dgx1(), num_gpus=4,
        config=TrainerConfig(capture_epochs=True),
    )
    # the warm-up epoch is eager and builds the training stage plans;
    # drop them so only the plans evaluate() builds are measured.
    trainer.train_epoch()
    trainer.ctx.spmm_plan_cache.clear()
    # a captured epoch runs the validated loop: it warms every buffer
    # and per-tile cache without building any stage plan.
    trainer.train_epoch()
    assert trainer.plan_stats.captures == 1
    assert not trainer.ctx.spmm_plan_cache
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trainer.evaluate()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert trainer.ctx.spmm_plan_cache
    assert retained <= 512 * 1024, retained


class TestStats:
    def test_breakdown_from_trace(self):
        trace = [
            TraceEvent("gpu0", "compute", "a", "spmm", 0.0, 2.0),
            TraceEvent("gpu0", "compute", "b", "gemm", 2.0, 3.0),
            TraceEvent("gpu1", "compute", "c", "spmm", 0.0, 1.0),
        ]
        b = OpBreakdown.from_trace(trace)
        assert b.totals["spmm"] == pytest.approx(3.0)
        assert b.percentage("spmm") == pytest.approx(75.0)
        assert sum(b.percentages().values()) == pytest.approx(100.0)

    def test_empty_breakdown(self):
        b = OpBreakdown.from_trace([])
        assert b.total == 0.0
        assert b.percentage("spmm") == 0.0

    def test_epoch_stats_accessors(self):
        stats = EpochStats(
            epoch_time=1.0,
            loss=0.5,
            breakdown=OpBreakdown({"spmm": 0.6, "comm": 0.2}),
            peak_memory=1024,
        )
        assert stats.spmm_time == pytest.approx(0.6)
        assert stats.comm_time == pytest.approx(0.2)
        assert stats.category_time("gemm") == 0.0

    def test_categories_match_figure5(self):
        assert BREAKDOWN_CATEGORIES == ("activation", "adam", "gemm", "loss", "spmm")


class TestTrainerConfig:
    def test_defaults_enable_optimizations(self):
        cfg = TrainerConfig()
        assert cfg.permute and cfg.overlap
        assert cfg.order_optimization and cfg.first_layer_skip

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrainerConfig(lr=0)
        with pytest.raises(ConfigurationError):
            TrainerConfig(overlap_comm_derate=0)

    def test_trainer_rejects_model_mismatch(self, small_dataset):
        bad = GCNModelSpec.build(3, 4, small_dataset.num_classes, 2)
        with pytest.raises(ConfigurationError):
            MGGCNTrainer(small_dataset, bad)

    def test_trainer_rejects_bad_epochs(self, small_dataset, small_model):
        trainer = MGGCNTrainer(small_dataset, small_model, num_gpus=1)
        with pytest.raises(ConfigurationError):
            trainer.fit(-1)
