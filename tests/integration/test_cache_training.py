"""Integration tests: the training-time remote-embedding cache.

Covers the cache end to end: bitwise transparency at ``staleness=0`` on
every execution path (the eager stage-plan fast path, the validated
per-stage loop a fault plan forces, plan capture/replay), accuracy parity under bounded staleness, one
replayed plan per cache phase, plan invalidation when the cache changes
mid-capture, telemetry export, and a fast smoke of the broadcast-byte
savings the cachebench benchmark measures at full scale.
"""

import numpy as np
import pytest

from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import planted_partition_dataset
from repro.datasets.loader import Dataset
from repro.hardware import dgx1
from repro.nn import ReferenceGCN
from repro.resilience import DeviceFailure, FaultInjector, FaultPlan
from repro.telemetry import Telemetry

SEED = 11
P = 4
RTOL = 5e-3
ATOL = 5e-5
# enough epochs to converge the planted-partition task: accuracy parity
# under staleness is only meaningful once the discrete metric settles.
PARITY_EPOCHS = 15


@pytest.fixture(scope="module")
def parity_dataset():
    adj, x, y, train, val, test = planted_partition_dataset(
        400, num_classes=3, feature_dim=12, avg_degree=8.0, seed=5
    )
    return Dataset(
        name="cache-parity",
        adjacency=adj,
        features=x,
        labels=y,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        num_classes=3,
    )


@pytest.fixture(scope="module")
def parity_model(parity_dataset):
    from repro.nn import GCNModelSpec

    return GCNModelSpec.build(
        parity_dataset.d0, 16, parity_dataset.num_classes, 2
    )


def _trainer(dataset, model, **kwargs):
    kwargs.setdefault("first_layer_skip", False)
    kwargs.setdefault("seed", SEED)
    cfg = TrainerConfig(**kwargs)
    return MGGCNTrainer(dataset, model, machine=dgx1(), num_gpus=P, config=cfg)


def _weights_after(dataset, model, epochs, **kwargs):
    trainer = _trainer(dataset, model, **kwargs)
    for _ in range(epochs):
        trainer.train_epoch()
    return trainer.get_weights()


@pytest.mark.parametrize(
    "mode_kwargs",
    [
        {"capture_epochs": False},
        # a fault plan that never fires still forces the validated
        # per-stage broadcast loop instead of the stage-plan fast path.
        {"fault_injector": FaultInjector(
            FaultPlan(device_failures=(DeviceFailure(rank=0, time=1e9),))
        )},
        {"capture_epochs": True},
    ],
    ids=["eager", "per_op", "capture"],
)
def test_staleness_zero_is_bitwise_on_every_path(
    small_dataset, small_model, mode_kwargs
):
    base = _weights_after(small_dataset, small_model, 4, **mode_kwargs)
    cached = _weights_after(
        small_dataset,
        small_model,
        4,
        cache_staleness_epochs=0,
        cache_budget_bytes=10**9,
        **mode_kwargs,
    )
    for a, b in zip(base, cached):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("staleness", [1, 2])
def test_stale_serving_keeps_accuracy_parity(
    parity_dataset, parity_model, staleness
):
    base = _trainer(parity_dataset, parity_model)
    for _ in range(PARITY_EPOCHS):
        base.train_epoch()
    cached = _trainer(
        parity_dataset,
        parity_model,
        cache_staleness_epochs=staleness,
        cache_budget_bytes=10**9,
    )
    for _ in range(PARITY_EPOCHS):
        cached.train_epoch()
    assert cached.evaluate("test") == pytest.approx(
        base.evaluate("test"), rel=1e-5
    )
    # serving stale rows actually removed broadcast traffic.
    assert cached.training_cache.total.bytes_saved > 0
    assert cached.training_cache.total.hit_rows > 0


@pytest.mark.parametrize("staleness", [1, 2])
def test_stale_serving_is_identical_on_every_path(
    parity_dataset, parity_model, staleness
):
    """Every execution path reads the same (stale) replica rows on serve
    epochs: the eager stage plans must not substitute the root's fresh
    tile for the rows the cache scattered into each rank's buffer."""
    per_op_plan = FaultPlan(device_failures=(DeviceFailure(rank=0, time=1e9),))
    runs = {}
    for path, mode_kwargs in (
        ("eager", {"capture_epochs": False}),
        ("per_op", {"fault_injector": FaultInjector(per_op_plan)}),
        ("capture", {"capture_epochs": True}),
    ):
        trainer = _trainer(
            parity_dataset,
            parity_model,
            cache_staleness_epochs=staleness,
            cache_budget_bytes=10**9,
            **mode_kwargs,
        )
        losses = [trainer.train_epoch().loss for _ in range(6)]
        runs[path] = (losses, trainer.get_weights())
        assert trainer.training_cache.total.hit_rows > 0
    want_losses, want_weights = runs["per_op"]
    for path in ("eager", "capture"):
        losses, weights = runs[path]
        assert losses == want_losses, path
        for got, want in zip(weights, want_weights):
            assert np.array_equal(got, want), path


@pytest.mark.parametrize("staleness", [1, 2])
def test_one_plan_per_cache_phase(parity_dataset, parity_model, staleness):
    """Both cache phases replay: two captures, then steady replay."""
    epochs = 8
    eager = _trainer(parity_dataset, parity_model, capture_epochs=False,
                     cache_staleness_epochs=staleness,
                     cache_budget_bytes=10**9)
    replayed = _trainer(parity_dataset, parity_model, capture_epochs=True,
                        cache_staleness_epochs=staleness,
                        cache_budget_bytes=10**9)
    es = eager.fit(epochs)
    rs = replayed.fit(epochs)
    # epoch 1 admits and fills (new generation), so epochs 1 and 2 warm
    # up; the next refresh and serve epochs are captured once each.
    assert replayed.plan_stats == type(replayed.plan_stats)(
        captures=2, replays=epochs - 4, eager_epochs=2, invalidations=0
    )
    assert sorted(replayed._plans) == ["refresh", "serve"]
    assert [s.loss for s in es] == [s.loss for s in rs]
    assert [s.epoch_time for s in es] == [s.epoch_time for s in rs]

    def trace(stats):
        return [(e.device, e.stream, e.name, e.start, e.end, e.nbytes)
                for st in stats for e in st.trace]

    assert trace(es) == trace(rs)
    for a, b in zip(eager.get_weights(), replayed.get_weights()):
        assert np.array_equal(a, b)
    assert (eager.training_cache.total.bytes_saved
            == replayed.training_cache.total.bytes_saved)


def test_evict_mid_capture_invalidates_plan(small_dataset, small_model):
    base = _weights_after(small_dataset, small_model, 6, capture_epochs=True)
    trainer = _trainer(
        small_dataset,
        small_model,
        capture_epochs=True,
        cache_staleness_epochs=0,
        cache_budget_bytes=10**9,
    )
    # epoch 1 warms up and admits (new generation), epoch 2 warms up
    # again, epoch 3 captures, epoch 4 is the first steady replay.
    for _ in range(4):
        trainer.train_epoch()
    assert trainer.plan_stats.replays >= 1  # steady replay reached
    before = trainer.plan_stats.invalidations
    keys = trainer.training_cache.entry_keys()
    assert keys
    assert trainer.training_cache.evict(*keys[0])
    trainer.train_epoch()  # signature changed -> recapture, not stale replay
    trainer.train_epoch()
    assert trainer.plan_stats.invalidations > before
    for a, b in zip(base, trainer.get_weights()):
        assert np.array_equal(a, b)


def test_cache_counters_reach_telemetry(small_dataset, small_model):
    trainer = _trainer(
        small_dataset,
        small_model,
        cache_staleness_epochs=1,
        cache_budget_bytes=10**9,
    )
    telemetry = Telemetry()
    trainer.ctx.engine.telemetry = telemetry
    trainer.train_epoch()  # refresh
    trainer.train_epoch()  # serve
    reg = telemetry.registry
    assert reg.counter("repro_cache_epochs_total", phase="refresh").value == 1
    assert reg.counter("repro_cache_epochs_total", phase="serve").value == 1
    assert reg.counter("repro_cache_rows_hit_total").value > 0
    assert reg.counter("repro_cache_bytes_saved_total").value > 0
    assert 0.0 < reg.gauge("repro_cache_hit_rate").value <= 1.0
    assert reg.gauge("repro_cache_resident_bytes").value > 0


def test_cachebench_smoke_savings_and_parity(parity_dataset, parity_model):
    """Tier-1 miniature of benchmarks/test_cache_partition_speedup.py:
    with a generous budget, serve epochs shed most forward broadcast
    bytes while test accuracy stays put."""
    base = _trainer(parity_dataset, parity_model)
    for _ in range(PARITY_EPOCHS):
        base.train_epoch()
    cached = _trainer(
        parity_dataset,
        parity_model,
        cache_staleness_epochs=2,
        cache_budget_bytes=10**9,
        partition_strategy="resource_aware",
    )
    for _ in range(PARITY_EPOCHS):
        cached.train_epoch()
    total = cached.training_cache.total
    assert total.bytes_sent < total.bytes_full
    saved_frac = total.bytes_saved / total.bytes_full
    assert saved_frac > 0.3  # the ISSUE floor, on intercepted traffic
    assert cached.evaluate("test") == pytest.approx(
        base.evaluate("test"), rel=1e-5
    )


def test_resource_aware_partition_matches_reference(
    small_dataset, small_model
):
    trainer = _trainer(
        small_dataset, small_model, partition_strategy="resource_aware"
    )
    assert trainer.graph.strategy == "resource_aware"
    ref = ReferenceGCN(
        small_dataset, small_model, seed=SEED, first_layer_skip=False
    )
    stats = trainer.train_epoch()
    ref_loss = ref.train_epoch()
    assert stats.loss == pytest.approx(ref_loss, rel=1e-4, abs=1e-6)
    for a, b in zip(trainer.get_weights(), ref.weights):
        assert np.allclose(a, b, rtol=RTOL, atol=ATOL)
