"""Integration: epoch capture & replay is bit-identical to eager training.

The acceptance bar for the sim-graph subsystem: with ``capture_epochs``
on, epoch 1 warms up eagerly, epoch 2 is captured and
every later epoch replays the plan — and nothing observable changes. Losses, epoch times, the full trace
(device/stream/name/category/start/end/stage/nbytes), and the final
weights must be *bitwise* equal to an eager run, on both the serialised
and overlapped schedules. The eager reference pins
``capture_epochs=False``. Replay must also never mask a fault: with an
active fault plan the trainer falls back to eager scheduling, and an
elastic recovery (which re-partitions the world) recaptures on the
shrunken world.
"""

import numpy as np
import pytest

from repro.core.trainer import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.errors import ConfigurationError
from repro.hardware import dgx1, multi_node_cluster
from repro.nn import GCNModelSpec
from repro.resilience import (
    DeviceFailure,
    FaultInjector,
    FaultPlan,
    StragglerSlowdown,
)
from repro.resilience.recovery import ElasticTrainer
from repro.telemetry import Telemetry
from repro.training.loop import TrainingLoop

EPOCHS = 5


def _trace_tuples(stats):
    return [
        (e.device, e.stream, e.name, e.category, e.start, e.end, e.stage,
         e.nbytes)
        for s in stats
        for e in s.trace
    ]


@pytest.fixture(scope="module")
def replay_dataset():
    return load_dataset("cora", scale=0.2, learnable=True, seed=3)


@pytest.fixture(scope="module")
def replay_model(replay_dataset):
    ds = replay_dataset
    return GCNModelSpec.build(ds.d0, 16, ds.num_classes, 3)


class TestBitIdenticalReplay:
    @pytest.mark.parametrize("overlap", [False, True],
                             ids=["serialised", "overlapped"])
    def test_replay_matches_eager(self, replay_dataset, replay_model, overlap):
        eager = MGGCNTrainer(
            replay_dataset, replay_model, num_gpus=4,
            config=TrainerConfig(overlap=overlap, capture_epochs=False),
        )
        captured = MGGCNTrainer(
            replay_dataset, replay_model, num_gpus=4,
            config=TrainerConfig(overlap=overlap, capture_epochs=True),
        )
        es = eager.fit(EPOCHS)
        cs = captured.fit(EPOCHS)

        assert [s.loss for s in es] == [s.loss for s in cs]  # bitwise
        assert [s.epoch_time for s in es] == [s.epoch_time for s in cs]
        assert _trace_tuples(es) == _trace_tuples(cs)
        for we, wc in zip(eager.get_weights(), captured.get_weights()):
            assert np.array_equal(we, wc)
        assert captured.plan_stats.captures == 1
        assert captured.plan_stats.replays == EPOCHS - 2
        assert captured.plan_stats.eager_epochs == 1  # the warm-up
        assert eager.plan_stats.eager_epochs == EPOCHS
        # per-epoch breakdowns regenerate identically from the bulk trace
        assert es[-1].breakdown == cs[-1].breakdown

    def test_single_gpu_replay(self, replay_dataset, replay_model):
        eager = MGGCNTrainer(replay_dataset, replay_model, num_gpus=1,
                             config=TrainerConfig(capture_epochs=False))
        captured = MGGCNTrainer(
            replay_dataset, replay_model, num_gpus=1,
            config=TrainerConfig(capture_epochs=True),
        )
        es = eager.fit(EPOCHS)
        cs = captured.fit(EPOCHS)
        assert [s.loss for s in es] == [s.loss for s in cs]
        assert _trace_tuples(es) == _trace_tuples(cs)
        for we, wc in zip(eager.get_weights(), captured.get_weights()):
            assert np.array_equal(we, wc)

    def test_symbolic_mode_replay(self):
        ds = load_dataset("reddit", symbolic=True)
        model = GCNModelSpec.build(ds.d0, 128, ds.num_classes, 2)
        eager = MGGCNTrainer(ds, model, num_gpus=4,
                             config=TrainerConfig(capture_epochs=False))
        captured = MGGCNTrainer(
            ds, model, num_gpus=4, config=TrainerConfig(capture_epochs=True)
        )
        es = eager.fit(3)
        cs = captured.fit(3)
        assert all(s.loss is None for s in cs)
        assert [s.epoch_time for s in es] == [s.epoch_time for s in cs]
        assert _trace_tuples(es) == _trace_tuples(cs)
        assert captured.plan_stats.replays == 1

    def test_evaluate_between_replays_is_safe(self, replay_dataset,
                                              replay_model):
        """An eval forward pass between epochs must not corrupt replay."""
        eager = MGGCNTrainer(replay_dataset, replay_model, num_gpus=4,
                             config=TrainerConfig(capture_epochs=False))
        captured = MGGCNTrainer(
            replay_dataset, replay_model, num_gpus=4,
            config=TrainerConfig(capture_epochs=True),
        )
        accs_e, accs_c = [], []
        for _ in range(EPOCHS):
            eager.train_epoch()
            captured.train_epoch()
            accs_e.append(eager.evaluate("val"))
            accs_c.append(captured.evaluate("val"))
        assert accs_e == accs_c
        for we, wc in zip(eager.get_weights(), captured.get_weights()):
            assert np.array_equal(we, wc)


class TestCapturePolicy:
    def test_warm_up_then_capture_then_replay(self, replay_dataset,
                                              replay_model):
        """Epoch 1 eager, epoch 2 captured, epochs 3+ replayed."""
        trainer = MGGCNTrainer(replay_dataset, replay_model, num_gpus=4,
                               config=TrainerConfig(capture_epochs=True))
        seen = []
        for _ in range(EPOCHS):
            trainer.train_epoch()
            stats = trainer.plan_stats
            seen.append((stats.eager_epochs, stats.captures, stats.replays))
        assert seen == [(1, 0, 0), (1, 1, 0)] + [
            (1, 1, k) for k in range(1, EPOCHS - 1)
        ]
        assert trainer.plan_stats.invalidations == 0


class TestInvalidation:
    def test_fault_plan_forces_eager(self, replay_dataset, replay_model):
        """A non-trivial fault plan keeps a capturing trainer eager;
        faults still surface."""
        plan = FaultPlan(
            stragglers=(StragglerSlowdown(rank=0, factor=3.0, start=0.0),)
        )
        faulty = MGGCNTrainer(
            replay_dataset, replay_model, num_gpus=4,
            config=TrainerConfig(
                capture_epochs=True, fault_injector=FaultInjector(plan)
            ),
        )
        clean = MGGCNTrainer(replay_dataset, replay_model, num_gpus=4)
        fs = faulty.fit(3)
        ks = clean.fit(3)
        assert faulty.plan_stats.captures == 0
        assert faulty.plan_stats.replays == 0
        assert faulty.plan_stats.eager_epochs == 3
        # the straggler dilates epoch time — replay would have masked it
        assert all(f.epoch_time > k.epoch_time for f, k in zip(fs, ks))

    def test_signature_change_recaptures(self, replay_dataset, replay_model):
        eager = MGGCNTrainer(replay_dataset, replay_model, num_gpus=4,
                             config=TrainerConfig(capture_epochs=False))
        captured = MGGCNTrainer(
            replay_dataset, replay_model, num_gpus=4,
            config=TrainerConfig(capture_epochs=True),
        )
        es = eager.fit(EPOCHS + 1)
        # warm-up, capture, replay
        cs = [captured.train_epoch() for _ in range(3)]
        # simulate a world change: the stored signature no longer matches.
        captured._plan_sig = ("stale",)
        # warm-up, capture, replay again on the "new" world
        cs += [captured.train_epoch() for _ in range(3)]
        assert captured.plan_stats.invalidations == 1
        assert captured.plan_stats.captures == 2
        assert captured.plan_stats.replays == 2
        assert [s.loss for s in es] == [s.loss for s in cs]
        assert _trace_tuples(es) == _trace_tuples(cs)
        for we, wc in zip(eager.get_weights(), captured.get_weights()):
            assert np.array_equal(we, wc)

    def test_manual_invalidate(self, replay_dataset, replay_model):
        trainer = MGGCNTrainer(
            replay_dataset, replay_model, num_gpus=2,
            config=TrainerConfig(capture_epochs=True),
        )
        trainer.fit(2)  # warm-up, capture
        assert trainer._plans
        trainer.invalidate_plan()
        assert not trainer._plans
        assert trainer.plan_stats.invalidations == 1
        trainer.invalidate_plan()  # idempotent on empty
        assert trainer.plan_stats.invalidations == 1
        trainer.fit(2)  # warm-up again, then recapture
        assert trainer.plan_stats.captures == 2
        assert trainer.plan_stats.eager_epochs == 2

    def test_capture_toggle_mid_training(self, replay_dataset, replay_model):
        eager_config = TrainerConfig(capture_epochs=False)
        eager = MGGCNTrainer(replay_dataset, replay_model, num_gpus=2,
                             config=eager_config)
        mixed = MGGCNTrainer(replay_dataset, replay_model, num_gpus=2,
                             config=eager_config)
        es = eager.fit(5)
        ms = [mixed.train_epoch() for _ in range(2)]
        mixed.capture_epochs = True
        ms += [mixed.train_epoch() for _ in range(3)]
        assert mixed.plan_stats == type(mixed.plan_stats)(
            captures=1, replays=1, eager_epochs=3, invalidations=0
        )
        assert [s.loss for s in es] == [s.loss for s in ms]
        assert _trace_tuples(es) == _trace_tuples(ms)


#: the counters an eager epoch adds per op and per collective.
ACCOUNTED = ("repro_ops_total", "repro_op_seconds_total", "repro_flops_total",
             "repro_comm_bytes_total", "repro_comm_link_")


def _accounted(telemetry):
    return {k: v for k, v in telemetry.registry.flatten().items()
            if k.startswith(ACCOUNTED)}


class TestReplayAccounting:
    @pytest.mark.parametrize("machine", ["flat", "two_node"])
    def test_replayed_epoch_adds_the_eager_counters(
        self, replay_dataset, replay_model, machine
    ):
        if machine == "flat":
            trainer = MGGCNTrainer(replay_dataset, replay_model, num_gpus=4,
                                   config=TrainerConfig(capture_epochs=True))
        else:
            trainer = MGGCNTrainer(
                replay_dataset, replay_model,
                machine=multi_node_cluster(2, dgx1()),
                config=TrainerConfig(capture_epochs=True,
                                     hierarchical_collectives=True),
            )
        telemetry = Telemetry()
        trainer.ctx.engine.telemetry = telemetry
        trainer.train_epoch()  # warm-up
        before = _accounted(telemetry)
        trainer.train_epoch()  # captured while running eagerly
        middle = _accounted(telemetry)
        trainer.train_epoch()  # replayed
        after = _accounted(telemetry)
        assert trainer.plan_stats.replays == 1
        assert set(before) == set(middle) == set(after)
        assert not any('device="all"' in key for key in after)
        if machine == "two_node":
            assert any('link="inter_node"' in key for key in after)
        for key in after:
            eager = middle[key] - before[key]
            replayed = after[key] - middle[key]
            assert replayed == pytest.approx(eager, rel=1e-12, abs=0), key

    def test_replayed_trace_shares_its_time_floats(self, replay_dataset,
                                                   replay_model):
        trainer = MGGCNTrainer(replay_dataset, replay_model, num_gpus=4,
                               config=TrainerConfig(capture_epochs=True))
        trainer.fit(2)  # warm-up, capture
        stats = trainer.train_epoch()
        assert trainer.plan_stats.replays == 1
        times = {id(t) for e in stats.trace for t in (e.start, e.end)}
        assert len(times) <= trainer._plans[None].num_ops + 1


class TestElasticRecapture:
    def test_recovery_recaptures_on_shrunken_world(
        self, replay_dataset, replay_model
    ):
        """Replay never masks a failure; capture resumes after recovery."""
        ref = ElasticTrainer(
            replay_dataset, replay_model, num_gpus=4, plan=FaultPlan()
        )
        ref_stats = ref.fit(EPOCHS)
        fail_at = 0.5 * sum(s.epoch_time for s in ref_stats[:2])

        plan = FaultPlan(device_failures=(DeviceFailure(rank=1, time=fail_at),))
        plain = ElasticTrainer(
            replay_dataset, replay_model, num_gpus=4, plan=plan,
            config=TrainerConfig(capture_epochs=False),
        )
        capturing = ElasticTrainer(
            replay_dataset, replay_model, num_gpus=4, plan=plan,
            config=TrainerConfig(capture_epochs=False),
        )
        capturing.capture_epochs = True
        assert capturing.capture_epochs
        assert not plain.capture_epochs

        ps = plain.fit(EPOCHS)
        cs = capturing.fit(EPOCHS)

        assert capturing.num_gpus == 3
        assert len(capturing.recovery_log) == 1
        # the failure surfaced eagerly (no capture before recovery), and
        # the rebuilt trainer — whose remapped plan dropped the retired
        # rank's failure — recaptured on the 3-GPU world.
        assert capturing.plan_stats.captures == 1
        assert capturing.plan_stats.replays >= 1
        # identical trajectory to the non-capturing elastic run, bitwise.
        assert [s.loss for s in ps] == [s.loss for s in cs]
        assert [s.epoch_time for s in ps] == [s.epoch_time for s in cs]
        for wp, wc in zip(plain.get_weights(), capturing.get_weights()):
            assert np.array_equal(wp, wc)


class TestTrainingLoopIntegration:
    def test_loop_capture_epochs(self, replay_dataset, replay_model):
        eager_loop = TrainingLoop(
            MGGCNTrainer(replay_dataset, replay_model, num_gpus=4,
                         config=TrainerConfig(capture_epochs=False)),
            max_epochs=EPOCHS, eval_every=0,
        )
        capture_loop = TrainingLoop(
            MGGCNTrainer(replay_dataset, replay_model, num_gpus=4),
            max_epochs=EPOCHS, eval_every=0, capture_epochs=True,
        )
        he = eager_loop.run()
        hc = capture_loop.run()
        assert he.losses == hc.losses
        assert he.epoch_times == hc.epoch_times
        assert he.total_simulated_time == hc.total_simulated_time
        assert capture_loop.trainer.plan_stats.replays == EPOCHS - 2

    def test_loop_rejects_unsupported_trainer(self):
        class NoCapture:
            def train_epoch(self):  # pragma: no cover - never called
                raise AssertionError

        with pytest.raises(ConfigurationError):
            TrainingLoop(NoCapture(), max_epochs=1, eval_every=0,
                         capture_epochs=True)
