"""Epoch capture & replay: driver wall-clock speedup and amortization.

The sim-graph plan (:mod:`repro.plan`) is the simulator's analogue of
CUDA Graphs: epoch 1 warms up eagerly, epoch 2 runs eagerly under
capture, later epochs replay the recorded plan — same numerics, same
simulated clock, but without re-running the Python scheduling layer
(cost model, shape checks, rendezvous validation, closure
construction). This file measures the *host* wall-clock of the driver,
not simulated seconds, on a scheduling-dominated configuration (many
small tiles: 8 GPUs x 4 layers with a narrow hidden width), and emits
``BENCH_epoch_replay.json`` with:

* eager vs replay per-epoch wall-clock (median) on both the serialised
  and overlapped schedules, with the >= 2x speedup assertion the issue
  demands;
* the one-off capture overhead and the epoch count at which it
  amortizes;
* proof that fault-plan and elastic-recovery runs fall back to eager
  scheduling (replay must never mask a fault).
"""

import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.nn import GCNModelSpec
from repro.resilience import (
    DeviceFailure,
    FaultInjector,
    FaultPlan,
    StragglerSlowdown,
)
from repro.resilience.recovery import ElasticTrainer

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_epoch_replay.json"
NUM_GPUS = 8
EPOCHS = 15
MIN_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def setup():
    # Narrow layers over many GPUs: per-op numpy compute is tiny, so the
    # Python scheduling layer dominates eager epochs — the regime replay
    # is built for (same reason CUDA Graphs target launch-bound models).
    ds = load_dataset("cora", scale=0.1, learnable=True, seed=7)
    model = GCNModelSpec.build(ds.d0, 8, ds.num_classes, 4)
    return ds, model


def _config(overlap: bool, capture: bool) -> TrainerConfig:
    return TrainerConfig(
        overlap=overlap, capture_epochs=capture, record_trace=False
    )


def _epoch_walltimes(trainer, epochs: int):
    times = []
    for _ in range(epochs):
        t0 = time.perf_counter()
        trainer.train_epoch()
        times.append(time.perf_counter() - t0)
    return times


def _merge_results(update: dict) -> None:
    data = {}
    if RESULT_PATH.exists():
        data = json.loads(RESULT_PATH.read_text())
    data.update(update)
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_replay_speedup(once, setup):
    """Replayed epochs beat eager epochs >= 2x on both schedules."""
    ds, model = setup

    def run():
        results = {}
        for overlap in (False, True):
            key = "overlapped" if overlap else "serialised"
            eager = MGGCNTrainer(
                ds, model, num_gpus=NUM_GPUS, config=_config(overlap, False)
            )
            replay = MGGCNTrainer(
                ds, model, num_gpus=NUM_GPUS, config=_config(overlap, True)
            )
            # two untimed epochs each: they warm the numpy/scipy caches,
            # and the replay trainer's second one is the capture epoch,
            # timed as the one-off overhead.
            eager.fit(2)
            replay.train_epoch()  # warm-up
            t0 = time.perf_counter()
            replay.train_epoch()  # capture
            capture_s = time.perf_counter() - t0

            eager_times = _epoch_walltimes(eager, EPOCHS)
            replay_times = _epoch_walltimes(replay, EPOCHS)
            eager_med = statistics.median(eager_times)
            replay_med = statistics.median(replay_times)
            saving = eager_med - replay_med
            extra = max(capture_s - eager_med, 0.0)
            amortize = 1 + math.ceil(extra / saving) if saving > 0 else None

            assert replay.plan_stats.captures == 1
            assert replay.plan_stats.replays == EPOCHS
            # replay is a pure driver optimisation: simulated results
            # are bit-identical to eager
            assert eager.epochs_trained == replay.epochs_trained
            for we, wr in zip(eager.get_weights(), replay.get_weights()):
                assert np.array_equal(we, wr)

            results[key] = {
                "eager_epoch_ms": eager_med * 1e3,
                "replay_epoch_ms": replay_med * 1e3,
                "speedup": eager_med / replay_med,
                "capture_epoch_ms": capture_s * 1e3,
                "amortization_epochs": amortize,
                "epochs_measured": EPOCHS,
            }
        return results

    results = once(run)
    _merge_results(
        {
            "config": {
                "dataset": "cora(scale=0.1, seed=7)",
                "num_gpus": NUM_GPUS,
                "layers": 4,
                "hidden": 8,
                "min_speedup": MIN_SPEEDUP,
            },
            "schedules": results,
        }
    )
    print()
    for key, row in results.items():
        print(
            f"{key:>10}: eager {row['eager_epoch_ms']:.2f} ms -> replay "
            f"{row['replay_epoch_ms']:.2f} ms ({row['speedup']:.2f}x, "
            f"capture {row['capture_epoch_ms']:.2f} ms, amortizes after "
            f"{row['amortization_epochs']} epochs)"
        )
    for key, row in results.items():
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{key} replay speedup {row['speedup']:.2f}x < {MIN_SPEEDUP}x"
        )
        assert row["amortization_epochs"] is not None


def test_fault_and_elastic_runs_fall_back_to_eager(once, setup):
    """Capture never hides a fault: faulty runs schedule eagerly."""
    ds, model = setup

    def run():
        # an active fault plan disables capture outright
        straggler = MGGCNTrainer(
            ds,
            model,
            num_gpus=NUM_GPUS,
            config=TrainerConfig(
                capture_epochs=True,
                record_trace=False,
                fault_injector=FaultInjector(
                    FaultPlan(
                        stragglers=(
                            StragglerSlowdown(rank=0, factor=2.0, start=0.0),
                        )
                    )
                ),
            ),
        )
        straggler.fit(4)

        # elastic recovery: eager until the failure, recapture after
        probe = ElasticTrainer(
            ds, model, num_gpus=NUM_GPUS, plan=FaultPlan()
        )
        fail_at = 0.5 * sum(s.epoch_time for s in probe.fit(2))
        elastic = ElasticTrainer(
            ds,
            model,
            num_gpus=NUM_GPUS,
            plan=FaultPlan(
                device_failures=(DeviceFailure(rank=1, time=fail_at),)
            ),
        )
        elastic.capture_epochs = True
        elastic.fit(6)
        return straggler, elastic

    straggler, elastic = once(run)
    assert straggler.plan_stats.captures == 0
    assert straggler.plan_stats.replays == 0
    assert straggler.plan_stats.eager_epochs == 4
    assert len(elastic.recovery_log) == 1
    assert elastic.num_gpus == NUM_GPUS - 1
    assert elastic.plan_stats.captures == 1  # recaptured post-recovery
    assert elastic.plan_stats.replays >= 1
    _merge_results(
        {
            "fallback": {
                "fault_plan": {
                    "captures": straggler.plan_stats.captures,
                    "replays": straggler.plan_stats.replays,
                    "eager_epochs": straggler.plan_stats.eager_epochs,
                },
                "elastic": {
                    "recoveries": len(elastic.recovery_log),
                    "post_recovery_captures": elastic.plan_stats.captures,
                    "post_recovery_replays": elastic.plan_stats.replays,
                },
            }
        }
    )
    print(
        "\nfault-plan run: 4/4 epochs eager (no capture); elastic run: "
        "recovered once, recaptured on "
        f"{elastic.num_gpus} GPUs, {elastic.plan_stats.replays} replays"
    )
