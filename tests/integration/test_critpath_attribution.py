"""Integration: critical-path attribution over real multi-GPU epochs.

The acceptance bar for the analyzer: on an 8-GPU arxiv epoch the
per-category attribution (compute, comm, wait) must tile the epoch —
summing to the measured epoch time within 1% — with a well-defined
straggler; and because replayed epochs regenerate bit-identical
timelines, eager and replayed epochs must attribute identically.
"""

import pytest

from repro.core.trainer import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.nn import GCNModelSpec
from repro.telemetry import Telemetry, critical_path
from repro.training.loop import TrainingLoop

COMPUTE_CATEGORIES = {"gemm", "spmm", "elementwise", "reduce", "opt"}


@pytest.fixture(scope="module")
def arxiv_p8_epoch():
    dataset = load_dataset("arxiv", scale=0.01, learnable=True, seed=0)
    model = GCNModelSpec.build(dataset.d0, 32, dataset.num_classes, 2)
    trainer = MGGCNTrainer(dataset, model, num_gpus=8)
    stats = trainer.train_epoch()
    return trainer, stats


class TestArxivAttribution:
    def test_shares_tile_the_epoch_within_one_percent(self, arxiv_p8_epoch):
        _trainer, stats = arxiv_p8_epoch
        report = critical_path(stats.trace)
        # the analyzer's window is the epoch the trainer measured.
        assert report.epoch_time == pytest.approx(stats.epoch_time, rel=0.01)
        # comm + compute + wait tile the window (the 1% invariant; the
        # tiling construction actually makes it near-exact).
        assert sum(report.category_seconds.values()) == pytest.approx(
            report.epoch_time, rel=1e-9
        )
        shares = {c: report.share(c) for c in report.category_seconds}
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
        assert "comm" in report.category_seconds
        assert COMPUTE_CATEGORIES & set(report.category_seconds)

    def test_straggler_and_overlap_are_attributed(self, arxiv_p8_epoch):
        _trainer, stats = arxiv_p8_epoch
        report = critical_path(stats.trace)
        assert report.straggler_device is not None
        assert report.straggler_rank in range(8)
        # straggler busy-time is a lower bound on the path window.
        assert report.device_seconds[report.straggler_device] <= (
            report.epoch_time * (1 + 1e-12)
        )
        # on-path comm time is exactly the overlap loss.
        assert report.overlap_loss_seconds == pytest.approx(
            report.category_seconds.get("comm", 0.0)
        )
        assert report.steps, "path must be non-empty"
        assert report.to_dict()["straggler_rank"] == report.straggler_rank


class TestEagerReplayEquivalence:
    def test_replayed_epoch_attributes_like_the_eager_one(
        self, small_dataset, small_model
    ):
        trainer = MGGCNTrainer(
            small_dataset, small_model, num_gpus=4,
            config=TrainerConfig(seed=0, capture_epochs=True),
        )
        trainer.train_epoch()           # warm-up
        eager = trainer.train_epoch()   # captures while running eagerly
        replay = trainer.train_epoch()  # regenerates from the plan
        assert trainer.plan_stats.replays == 1
        r_eager = critical_path(eager.trace)
        r_replay = critical_path(replay.trace)
        assert [s.name for s in r_eager.steps] == [
            s.name for s in r_replay.steps
        ]
        assert [s.category for s in r_eager.steps] == [
            s.category for s in r_replay.steps
        ]
        for a, b in zip(r_eager.steps, r_replay.steps):
            assert b.duration == pytest.approx(a.duration, rel=1e-9,
                                               abs=1e-15)
        assert r_replay.epoch_time == pytest.approx(
            r_eager.epoch_time, rel=1e-9
        )
        for category, seconds in r_eager.category_seconds.items():
            assert r_replay.category_seconds[category] == pytest.approx(
                seconds, rel=1e-9, abs=1e-15
            )
        assert r_replay.straggler_device == r_eager.straggler_device


class TestLoopDrivenAttribution:
    def test_critpath_every_populates_reports_and_gauges(
        self, small_dataset, small_model
    ):
        telemetry = Telemetry(run_id="attrib")
        trainer = MGGCNTrainer(small_dataset, small_model, num_gpus=2)
        loop = TrainingLoop(
            trainer, max_epochs=3, eval_every=0,
            telemetry=telemetry, critpath_every=1,
        )
        loop.run()
        assert sorted(loop.critpath_reports) == [1, 2, 3]
        for epoch, report in loop.critpath_reports.items():
            assert sum(report.category_seconds.values()) == pytest.approx(
                report.epoch_time, rel=1e-9
            )
        flat = telemetry.registry.flatten()
        assert flat["repro_critpath_analyses_total"] == 3.0
        assert flat["repro_critpath_epoch"] == 3.0
        assert any(k.startswith("repro_critpath_seconds") for k in flat)
        # healthy epochs: the always-on anomaly detector stays quiet.
        assert loop.anomaly_detector.anomalies == []
        assert "repro_epoch_anomalies_total" not in flat
