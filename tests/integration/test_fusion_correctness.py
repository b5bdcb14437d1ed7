"""Integration: the one eager path changes *nothing* observable.

The trainer's eager epoch fuses every per-rank kernel loop into one
batched group (one ``Engine.submit_many`` call, one group closure) and
runs each distributed SpMM through the epoch-invariant stage plans of
:mod:`repro.core.spmm_mg`. A non-trivial fault plan sends it down the
per-op fallback (sequential submits, validated per-stage broadcasts),
and an active capture records the validated loop for replay.

The oracle is :class:`PerOpTrainer` below: the op-at-a-time schedule —
one engine submit per rank per kernel, one validated ``comm.broadcast``
per stage, scheduled eagerly every epoch (``capture_epochs=False``).
On every path the losses, epoch times, the full trace
(event order included) and the final weights are *bitwise* equal to it.
The engine-level suite pins the mechanism: ``submit_many`` emits trace
events equal to the sequential submits it replaces. The mixture
trainer's 1D layers ride the same path; its parity with
:class:`~repro.nn.ReferenceGCN` is
``tests/integration/test_parallel_trainers.py::test_mixture_matches_reference``.
"""

from typing import Dict, List, Optional, Sequence

import numpy as np
import pytest

from repro.core.order import ComputeOrder, choose_forward_order
from repro.core.trainer import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.device import Engine, VirtualGPU
from repro.device.stream import Event
from repro.hardware import dgx1, multi_node_cluster
from repro.hardware.machines import V100
from repro.kernels.ops import gemm, gemm_relu_backward, relu_forward, spmm
from repro.nn import GCNModelSpec
from repro.resilience import DeviceFailure, FaultInjector, FaultPlan

EPOCHS = 4


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("cora", scale=0.1, learnable=True, seed=7)


@pytest.fixture(scope="module")
def model(dataset):
    return GCNModelSpec.build(dataset.d0, 8, dataset.num_classes, 3)


def _never_firing_injector() -> FaultInjector:
    """A non-trivial fault plan whose only fault lies past any epoch."""
    return FaultInjector(
        FaultPlan(device_failures=(DeviceFailure(rank=0, time=1e9),))
    )


# -- the op-at-a-time reference schedule -----------------------------------


def per_op_spmm(ctx, comm, cost_models, tiles, sources, outputs,
                buffer_managers, overlap, overlap_bw_fraction,
                deps_by_rank=None, label="spmm", cache=None):
    """The multi-stage broadcast SpMM, one ``spmm`` submit per rank."""
    P = ctx.num_gpus
    deps_by_rank = deps_by_rank or {}
    engine = ctx.engine
    if P == 1:
        ev = spmm(engine, cost_models[0], ctx.device(0).compute_stream,
                  tiles[0][0], sources[0], outputs[0], accumulate=False,
                  deps=tuple(deps_by_rank.get(0, ())), stage=0,
                  name=f"{label}[0]")
        return {0: [ev]}
    compute_bw = overlap_bw_fraction if overlap else 1.0
    extra_deps = {r: tuple(deps_by_rank.get(r, ())) for r in range(P)}
    spmm_events: Dict[int, List[Event]] = {r: [] for r in range(P)}
    for j in range(P):
        src = sources[j]
        dsts = {
            r: buffer_managers[r].bc_view(j if overlap else 0, src.rows,
                                          src.cols)
            for r in range(P) if r != j
        }
        bcast_deps: Dict[int, List[Event]] = {r: [] for r in range(P)}
        guard_stage = j - 2 if overlap else j - 1
        if guard_stage >= 0:
            for r in range(P):
                bcast_deps[r].append(spmm_events[r][guard_stage])
        for r in range(P):
            bcast_deps[r].extend(extra_deps[r])
        payload = None
        copy_fn = None
        if cache is not None:
            entry = cache.stage_entry(label, j, src)
            if entry is not None:
                payload = cache.payload_nbytes(label, j, src)
                copy_fn = cache.stage_copy(entry, src, tuple(dsts.values()))
        events = comm.broadcast(
            root=j, src=src, dsts=dsts, deps_by_rank=bcast_deps, stage=j,
            name=f"{label}/bcast[{j}]", payload_nbytes=payload,
            copy_fn=copy_fn,
        )
        next_bcast_time = 0.0
        if overlap and j < P - 1:
            next_nbytes = sources[j + 1].nbytes
            if cache is not None:
                next_nbytes = cache.payload_nbytes(label, j + 1,
                                                   sources[j + 1])
            next_bcast_time = comm.broadcast_duration(j + 1, next_nbytes)
        stage_bw = compute_bw if (overlap and j < P - 1) else 1.0
        for r in range(P):
            operand = sources[j] if r == j else dsts[r]
            deps = [events[r], *extra_deps[r]]
            spmm_events[r].append(spmm(
                engine, cost_models[r], ctx.device(r).compute_stream,
                tiles[r][j], operand, outputs[r], accumulate=(j > 0),
                deps=deps, stage=j, name=f"{label}[{j}]",
                bw_fraction=stage_bw, overlap_comm_time=next_bcast_time,
            ))
    return spmm_events


class PerOpTrainer(MGGCNTrainer):
    """:class:`MGGCNTrainer` with every per-rank loop submitted op by op."""

    def _run_spmm(self, layer, direction, tiles, sources, outputs,
                  deps_by_rank=None, label="spmm"):
        return per_op_spmm(
            self.ctx, self.comm, self.cost_models, tiles, sources, outputs,
            self.buffers, self.config.overlap, self._overlap_bw_fraction,
            deps_by_rank=deps_by_rank, label=label,
            cache=self._spmm_cache(direction),
        )

    def _forward(self):
        P = self.ctx.num_gpus
        engine = self.ctx.engine
        stream = [self.ctx.device(i).compute_stream for i in range(P)]
        inputs: Sequence = self.graph.features
        layer_outputs = []
        for l in range(self.model.num_layers):
            d_in, d_out = self.model.dims_of(l)
            order = choose_forward_order(d_in, d_out,
                                         self.config.order_optimization)
            outs = [self.buffers[i].layer_output(l) for i in range(P)]
            if order is ComputeOrder.GEMM_FIRST:
                hw = [self.buffers[i].hw_view(d_out) for i in range(P)]
                events = {
                    i: [gemm(engine, self.cost_models[i], stream[i],
                             inputs[i], self.adam.weights[i][l], hw[i],
                             name=f"fwd{l}/gemm")]
                    for i in range(P)
                }
                self._run_spmm(l, "fwd", self.graph.forward_tiles, hw, outs,
                               deps_by_rank=events, label=f"fwd{l}/spmm")
            else:
                ah = [self.buffers[i].hw_view(d_in) for i in range(P)]
                self._run_spmm(l, "fwd", self.graph.forward_tiles,
                               list(inputs), ah, label=f"fwd{l}/spmm")
                for i in range(P):
                    gemm(engine, self.cost_models[i], stream[i], ah[i],
                         self.adam.weights[i][l], outs[i], name=f"fwd{l}/gemm")
            if l < self.model.num_layers - 1:
                for i in range(P):
                    relu_forward(engine, self.cost_models[i], stream[i],
                                 outs[i], name=f"fwd{l}/relu")
            layer_outputs.append(outs)
            inputs = outs
        return layer_outputs

    def _backward(self, layer_outputs):
        P = self.ctx.num_gpus
        engine = self.ctx.engine
        stream = [self.ctx.device(i).compute_stream for i in range(P)]
        self.adam.t += 1
        for l in range(self.model.num_layers - 1, -1, -1):
            d_in, d_out = self.model.dims_of(l)
            grads = layer_outputs[l]
            if l == 0 and self.config.first_layer_skip:
                hwg = grads
            else:
                hwg = [self.buffers[i].hw_view(d_out) for i in range(P)]
                self._run_spmm(l, "bwd", self.graph.backward_tiles,
                               list(grads), hwg, label=f"bwd{l}/spmm")
            h_in = self.graph.features if l == 0 else layer_outputs[l - 1]
            wg_events = {
                i: [gemm(engine, self.cost_models[i], stream[i], h_in[i],
                         hwg[i], self.adam.grads[i][l], transpose_a=True,
                         name=f"bwd{l}/wgrad")]
                for i in range(P)
            }
            if l > 0:
                for i in range(P):
                    gemm_relu_backward(
                        engine, self.cost_models[i], stream[i], hwg[i],
                        self.adam.weights[i][l], layer_outputs[l - 1][i],
                        transpose_b=True, name=f"bwd{l}/hgrad",
                    )
            allreduce_events = self.comm.allreduce(
                {i: self.adam.grads[i][l] for i in range(P)}, op="sum",
                deps_by_rank=wg_events, name=f"bwd{l}/allreduce_wg",
            )
            for i in range(P):
                self.adam.step(i, l, self.cost_models[i],
                               deps=[allreduce_events[i]])


# -- helpers ---------------------------------------------------------------


def _run(dataset, model, num_gpus, trainer_cls=MGGCNTrainer,
         injector: Optional[FaultInjector] = None, **config):
    trainer = trainer_cls(
        dataset, model, num_gpus=num_gpus,
        config=TrainerConfig(fault_injector=injector, **config),
    )
    stats = trainer.fit(EPOCHS)
    trace = [
        (e.device, e.stream, e.name, e.category, e.start, e.end, e.stage,
         e.nbytes, e.correlation, e.flops)
        for s in stats for e in s.trace
    ]
    return (
        [s.loss for s in stats],
        [s.epoch_time for s in stats],
        trace,
        trainer.get_weights(),
        trainer,
    )


def _assert_identical(got, want):
    assert got[0] == want[0]  # losses, bitwise
    assert got[1] == want[1]  # epoch times, bitwise
    assert got[2] == want[2]  # full trace, order included
    assert len(got[3]) == len(want[3])
    for gw, ww in zip(got[3], want[3]):
        assert np.array_equal(gw, ww)


#: schedule-shaping configs: the default (GeMM-first where it pays,
#: first-layer backward SpMM skipped), and SpMM-first everywhere with the
#: layer-0 backward SpMM and a serialised (single-buffer) broadcast.
CONFIGS = [
    dict(),
    dict(order_optimization=False, first_layer_skip=False, overlap=False),
]
CONFIG_IDS = ["default", "spmm_first_serial"]


@pytest.mark.parametrize("num_gpus", [1, 8], ids=["P1", "P8"])
class TestEagerFusionIdentity:
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_fast_path_is_bitwise_identical(self, dataset, model, num_gpus,
                                            config):
        reference = _run(dataset, model, num_gpus, PerOpTrainer,
                         capture_epochs=False, **config)
        eager = _run(dataset, model, num_gpus, capture_epochs=False,
                     **config)
        _assert_identical(eager, reference)
        assert eager[4].plan_stats.eager_epochs == EPOCHS
        if num_gpus > 1:
            # the stage-plan fast path actually ran.
            assert eager[4].ctx.spmm_plan_cache

    def test_fused_trace_is_nonempty_and_covers_categories(
        self, dataset, model, num_gpus
    ):
        _, _, trace, _, _ = _run(dataset, model, num_gpus)
        categories = {t[3] for t in trace}
        assert {"gemm", "spmm", "activation", "loss", "adam"} <= categories
        if num_gpus > 1:
            assert "comm" in categories

    def test_untraced_weights_are_bitwise_identical(self, dataset, model,
                                                    num_gpus):
        reference = _run(dataset, model, num_gpus, PerOpTrainer,
                         capture_epochs=False, record_trace=False)
        eager = _run(dataset, model, num_gpus, capture_epochs=False,
                     record_trace=False)
        assert eager[0] == reference[0]
        assert eager[1] == reference[1]
        for gw, ww in zip(eager[3], reference[3]):
            assert np.array_equal(gw, ww)


@pytest.mark.parametrize("num_gpus", [1, 8], ids=["P1", "P8"])
class TestFaultedFallbackIdentity:
    def test_per_op_fallback_is_bitwise_identical(self, dataset, model,
                                                  num_gpus):
        reference = _run(dataset, model, num_gpus, PerOpTrainer,
                         injector=_never_firing_injector(),
                         capture_epochs=False)
        faulted = _run(dataset, model, num_gpus,
                       injector=_never_firing_injector())
        _assert_identical(faulted, reference)
        # every SpMM took the validated per-stage loop.
        assert not faulted[4].ctx.spmm_plan_cache


@pytest.mark.parametrize("num_gpus", [1, 8], ids=["P1", "P8"])
class TestReplayFusionIdentity:
    def test_captured_fast_path_matches_plain_eager(self, dataset, model,
                                                    num_gpus):
        reference = _run(dataset, model, num_gpus, PerOpTrainer,
                         capture_epochs=False)
        replayed = _run(dataset, model, num_gpus, capture_epochs=True)
        assert replayed[4].plan_stats.captures == 1
        assert replayed[4].plan_stats.replays == EPOCHS - 2
        _assert_identical(replayed, reference)


def test_hierarchical_eager_epoch_matches_replay():
    """Across nodes the broadcast is hierarchical; the eager epoch must
    price it as such, exactly as the captured (validated) epoch does."""
    ds = load_dataset("arxiv", symbolic=True)
    model = GCNModelSpec.build(ds.d0, 256, ds.num_classes, 2)
    cluster = multi_node_cluster(2, dgx1())

    def epochs(**flags):
        trainer = MGGCNTrainer(
            ds, model, machine=cluster,
            config=TrainerConfig(hierarchical_collectives=True, **flags),
        )
        return [trainer.train_epoch().epoch_time for _ in range(3)]

    assert epochs(capture_epochs=False) == epochs(capture_epochs=True)


class TestEngineFusedSubmission:
    """``submit_many`` vs sequential ``submit`` calls."""

    PARTS = [
        ("spmm0", "spmm", 2.0, 0, 64, 100.0),
        ("gemm0", "gemm", 3.0, None, 0, 200.0),
        ("relu0", "activation", 0.5, None, 0, 10.0),
    ]

    def _sequential_trace(self):
        engine = Engine()
        dev = VirtualGPU(V100, rank=0)
        stream = dev.compute_stream
        dep = engine.submit(dev.comm_stream, "bcast", "comm", 1.0)
        prev = [dep]
        for name, category, duration, stage, nbytes, flops in self.PARTS:
            prev = [engine.submit(stream, name, category, duration, deps=prev,
                                  stage=stage, nbytes=nbytes, flops=flops)]
        return engine.trace, prev[0].time

    def test_submit_many_trace_matches_sequential(self):
        want_trace, _ = self._sequential_trace()
        engine = Engine()
        dev = VirtualGPU(V100, rank=0)
        stream = dev.compute_stream
        dep = engine.submit(dev.comm_stream, "bcast", "comm", 1.0)
        specs = []
        prev = [dep]
        # batch with intra-batch stream serialisation (repeated stream)
        for name, category, duration, stage, nbytes, flops in self.PARTS:
            specs.append((stream, name, category, duration, tuple(prev),
                          stage, nbytes, None, None, flops))
            prev = []  # later parts serialise via the shared stream
        events = engine.submit_many(specs)
        assert [e.time for e in events] == [3.0, 6.0, 6.5]
        assert engine.trace == want_trace

    def test_submit_many_empty_batch(self):
        assert Engine().submit_many([]) == []

    def test_submit_many_large_batch_matches_sequential(self):
        """72 specs over 8 streams, each stream repeated, with deps on
        events of other streams and a pending stream wait."""

        def setup():
            engine = Engine()
            devs = [VirtualGPU(V100, rank=r) for r in range(4)]
            prelude = [
                engine.submit(d.comm_stream, f"bcast{r}", "comm", 1.0 + r)
                for r, d in enumerate(devs)
            ]
            devs[2].compute_stream.wait_event(prelude[3])
            streams = [s for d in devs for s in (d.compute_stream,
                                                 d.comm_stream)]
            specs = []
            for i in range(72):
                deps = ((prelude[i % 4],), (prelude[(i + 1) % 4],
                                            prelude[(i + 2) % 4]), ())[i % 3]
                specs.append((streams[(i * 5) % 8], f"op{i}", "gemm",
                              0.25 * (1 + i % 7), deps, i % 4 or None,
                              8 * i, None, None, float(i)))
            return engine, streams, specs

        engine, streams, specs = setup()
        events = engine.submit_many(specs)
        want_engine, want_streams, want_specs = setup()
        want = [
            want_engine.submit(s[0], s[1], s[2], s[3], deps=s[4], stage=s[5],
                               nbytes=s[6], compute=s[7], correlation=s[8],
                               flops=s[9])
            for s in want_specs
        ]
        assert len(events) >= 64
        assert [e.time for e in events] == [e.time for e in want]
        assert [e.name for e in events] == [e.name for e in want]
        assert engine.trace == want_engine.trace
        assert ([s.ready_time for s in streams]
                == [s.ready_time for s in want_streams])
