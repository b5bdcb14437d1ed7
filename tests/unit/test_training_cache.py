"""Unit tests of :mod:`repro.cache`: policy arithmetic, the training
tile cache's admission/eviction/phase machinery, and the shared LRU
core the serving layer now imports from here."""

import numpy as np
import pytest

from repro.cache import (
    REFRESH,
    SERVE,
    CachePolicy,
    EmbeddingCache,
    TrainingTileCache,
    pin_by_degree,
)
from repro.device.engine import SimContext
from repro.errors import ConfigurationError
from repro.hardware import dgx1


def _ctx(P=2):
    return SimContext(dgx1(), num_gpus=P, record_trace=False)


def _src(ctx, rows=10, cols=4, rank=0, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(rows, cols)).astype(np.float32)
    return ctx.device(rank).from_numpy(data, name="src", tag="test")


# -- policy -----------------------------------------------------------------


def test_policy_cadence_and_refresh_epochs():
    p0 = CachePolicy(staleness_epochs=0)
    assert p0.cadence == 1
    assert all(p0.is_refresh_epoch(e) for e in range(5))
    p2 = CachePolicy(staleness_epochs=2)
    assert p2.cadence == 3
    assert [p2.is_refresh_epoch(e) for e in range(6)] == [
        True, False, False, True, False, False,
    ]


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        CachePolicy(staleness_epochs=-1)
    with pytest.raises(ConfigurationError):
        CachePolicy(staleness_epochs=0, budget_bytes=-1)


def test_policy_expected_fraction_and_factor():
    p = CachePolicy(staleness_epochs=1, budget_bytes=None)
    assert p.expected_cached_fraction(100, 16, 4) == 1.0
    # amortized over cadence 2: refresh pays full, serve pays 1 - frac.
    assert p.amortized_payload_factor(1.0) == pytest.approx(0.5)
    assert p.amortized_payload_factor(0.0) == pytest.approx(1.0)
    limited = CachePolicy(staleness_epochs=1, budget_bytes=160)
    # 160 B over 2 entries -> 80 B per entry -> 5 rows of 16 B each.
    assert limited.expected_cached_fraction(10, 16, 2) == pytest.approx(0.5)


# -- admission / phases -----------------------------------------------------


def test_admission_is_degree_ranked_and_budget_limited():
    ctx = _ctx()
    src = _src(ctx, rows=10, cols=4)
    row_bytes = 4 * 4
    scores = [np.array([0, 5, 1, 9, 2, 8, 3, 7, 4, 6])]
    cache = TrainingTileCache(
        ctx,
        CachePolicy(staleness_epochs=1, budget_bytes=4 * row_bytes),
        stage_scores=scores,
    )
    cache.begin_epoch()
    entry = cache.stage_entry("fwd0/spmm", 0, src)
    assert entry is not None
    # the four highest-scoring rows, in sorted row order.
    assert entry.cached_rows.tolist() == sorted([3, 5, 7, 9])
    assert entry.miss_rows.tolist() == sorted(
        set(range(10)) - {3, 5, 7, 9}
    )
    assert cache.resident_bytes == 4 * row_bytes
    # a second entry finds no budget left.
    assert cache.stage_entry("fwd1/spmm", 0, src) is None


def test_generation_bumps_invalidate_plan_token():
    ctx = _ctx()
    src = _src(ctx)
    cache = TrainingTileCache(ctx, CachePolicy(staleness_epochs=1))
    cache.begin_epoch()
    t0 = cache.plan_token()
    cache.stage_entry("fwd0/spmm", 0, src)  # admit
    t1 = cache.plan_token()
    assert t1 != t0
    assert cache.stage_entry("fwd0/spmm", 0, src) is not None
    assert cache.plan_token() == t1  # steady state
    assert cache.evict("fwd0/spmm", 0)
    assert cache.plan_token() != t1
    assert not cache.evict("fwd0/spmm", 0)  # already gone
    assert cache.resident_bytes == 0


def test_phase_flip_changes_token_and_serve_requires_fill():
    ctx = _ctx()
    src = _src(ctx)
    cache = TrainingTileCache(ctx, CachePolicy(staleness_epochs=1))
    assert cache.begin_epoch() == REFRESH
    cache.stage_entry("fwd0/spmm", 0, src)
    refresh_token = cache.plan_token()
    assert cache.begin_epoch() == SERVE
    assert cache.plan_token() != refresh_token
    # the resident contents (generation) do not change with the phase:
    # the trainer keeps one epoch plan per phase under one signature.
    assert cache.generation == refresh_token[0]
    # filled during the refresh epoch -> serveable now.
    assert cache.stage_entry("fwd0/spmm", 0, src) is not None
    # an entry admitted *during* a serve epoch is unfilled: full
    # broadcast until the next refresh epoch marks it filled.
    assert cache.stage_entry("other/spmm", 0, src) is None
    assert cache.begin_epoch() == REFRESH
    assert cache.stage_entry("other/spmm", 0, src) is not None


def test_clear_drops_everything_and_frees_reservations():
    ctx = _ctx()
    src = _src(ctx)
    cache = TrainingTileCache(ctx, CachePolicy(staleness_epochs=0))
    cache.begin_epoch()
    cache.stage_entry("a", 0, src)
    cache.stage_entry("b", 0, src)
    assert len(cache) == 2
    token = cache.plan_token()
    assert cache.clear() == 2
    assert len(cache) == 0
    assert cache.resident_bytes == 0
    assert cache.plan_token() != token
    assert cache.resident_rows("a", 0).size == 0


def test_refresh_copy_is_write_through_and_serve_scatters_stale():
    ctx = _ctx()
    src = _src(ctx, rows=6, cols=3, seed=3)
    dst = ctx.device(1).zeros((6, 3), name="dst", tag="test")
    cache = TrainingTileCache(ctx, CachePolicy(staleness_epochs=1))
    cache.begin_epoch()  # refresh
    entry = cache.stage_entry("fwd0/spmm", 0, src)
    cache.stage_copy(entry, src, (dst,))()
    np.testing.assert_array_equal(dst.data, src.data)
    np.testing.assert_array_equal(entry.values, src.data[entry.cached_rows])
    frozen = src.data.copy()
    src.data += 1.0  # the tile moves on; the replica stays stale
    cache.begin_epoch()  # serve
    entry = cache.stage_entry("fwd0/spmm", 0, src)
    cache.stage_copy(entry, src, (dst,))()
    np.testing.assert_array_equal(
        dst.data[entry.cached_rows], frozen[entry.cached_rows]
    )
    np.testing.assert_array_equal(
        dst.data[entry.miss_rows], src.data[entry.miss_rows]
    )


def test_epoch_counters_track_payloads():
    ctx = _ctx()
    src = _src(ctx, rows=8, cols=2)
    dst = ctx.device(1).zeros((8, 2), name="dst", tag="test")
    row_bytes = 2 * 4
    cache = TrainingTileCache(
        ctx, CachePolicy(staleness_epochs=1, budget_bytes=4 * row_bytes)
    )
    cache.begin_epoch()  # refresh: full payload
    entry = cache.stage_entry("l", 0, src)
    assert cache.payload_nbytes("l", 0, src) == src.nbytes
    cache.stage_copy(entry, src, (dst,))()
    assert cache.epoch.bytes_sent == src.nbytes
    assert cache.epoch.bytes_saved == 0
    cache.begin_epoch()  # serve: only the 4 miss rows travel
    entry = cache.stage_entry("l", 0, src)
    assert cache.payload_nbytes("l", 0, src) == 4 * row_bytes
    cache.stage_copy(entry, src, (dst,))()
    assert cache.epoch.bytes_sent == 4 * row_bytes
    assert cache.epoch.bytes_saved == src.nbytes - 4 * row_bytes
    assert cache.epoch.hit_rate == pytest.approx(0.5)
    assert cache.total.intercepts == 2


# -- shared LRU core --------------------------------------------------------


def test_lru_cache_still_behaves():
    degrees = np.array([5, 1, 9, 3])
    pinned = pin_by_degree(degrees, 2)
    assert pinned == frozenset({0, 2})
    cache = EmbeddingCache(capacity=3, pinned=pinned)
    cache.insert(0, np.array([2]), np.ones((1, 4)), version=1)
    hit_ids, miss_ids, rows = cache.lookup(0, np.array([2, 1]), version=1)
    assert hit_ids.tolist() == [2]
    assert miss_ids.tolist() == [1]
    assert rows.shape == (1, 4)


def test_lru_invalidate_at_is_per_layer():
    cache = EmbeddingCache(capacity=16)
    for layer in (1, 2):
        cache.insert(layer, np.array([0, 1, 2, 3]),
                     np.ones((4, 4)), version=1)
    # drop (1, {1, 3}) only; layer 2 and untouched layer-1 entries stay.
    assert cache.invalidate_at(1, [1, 3, 99]) == 2
    assert cache.resident_vertices(1).tolist() == [0, 2]
    assert cache.resident_vertices(2).tolist() == [0, 1, 2, 3]
    assert cache.stats.invalidations == 2
    # pinned entries are not exempt: staleness beats pinning.
    pinned_cache = EmbeddingCache(capacity=4, pinned=[7])
    pinned_cache.insert(1, np.array([7]), np.ones((1, 4)), version=1)
    assert pinned_cache.invalidate_at(1, [7]) == 1
    assert len(pinned_cache) == 0
