"""Training-time remote-embedding cache for the staged broadcast SpMM.

During the P-stage broadcast SpMM (:func:`repro.core.spmm_mg.
distributed_spmm`) every rank receives rank ``j``'s full operand tile
at stage ``j``, every layer, every epoch. The
:class:`TrainingTileCache` keeps the highest-frontier-degree rows of
each remote tile resident on every consumer rank and, on *serve*
epochs, the broadcast moves only the uncached rows — the cached rows
are scattered from the local replica, up to
:class:`~repro.cache.policy.CachePolicy.staleness_epochs` epochs stale
(CaPGNN's training-side cache; DistGNN's delayed remote aggregates).

Consistency model: all consumer ranks cache the *same* degree-ranked
row set of a stage tile, chosen once per ``(label, stage)`` entry at
first use, so the partial collective has one well-defined payload. On
*refresh* epochs (every ``staleness + 1`` epochs, starting at the
first) the full tile crosses the wire and the resident rows are
re-captured from it (write-through) — with ``staleness = 0`` every
epoch refreshes and training is bit-exact with the uncached run, which
is what the parity tests pin down.

Captured schedules key on the cache's ``generation`` and ``phase``.
The generation changes whenever the resident contents change
(admission, fill, eviction, :meth:`clear`); it is part of the trainer's
plan signature, so every captured epoch plan is invalidated the moment
its payloads or copy closures stop describing the epoch. The phase
(refresh ↔ serve) selects which of the trainer's per-phase plans an
epoch replays. The eager stage-plan fast path keys on
:meth:`plan_token`, which carries both.

A cached SpMM keeps one numerics closure per stage: on serve epochs the
broadcast buffers hold stale replica rows that differ from the root's
tile, so each rank reads its own buffer. Without a cache the SpMM
computes each rank's product in one row-block kernel call against the
stacked sources instead, and the buffers' copies feed no kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.policy import CachePolicy
from repro.errors import ConfigurationError

#: phase names; the trainer keeps one captured plan per phase.
REFRESH = "refresh"
SERVE = "serve"


@dataclass
class CacheEpochCounters:
    """Per-epoch byte/row accounting (reset by ``begin_epoch``)."""

    bytes_full: int = 0   # what the uncached broadcasts would have moved
    bytes_sent: int = 0   # what actually crossed the wire
    hit_rows: int = 0     # rows served from the local replica
    miss_rows: int = 0    # rows that travelled
    intercepts: int = 0   # broadcasts that went through the cache

    @property
    def bytes_saved(self) -> int:
        return self.bytes_full - self.bytes_sent

    @property
    def hit_rate(self) -> float:
        total = self.hit_rows + self.miss_rows
        return self.hit_rows / total if total else 0.0


class _StageEntry:
    """Resident rows of one ``(label, stage)`` remote tile."""

    __slots__ = (
        "label", "stage", "cached_rows", "miss_rows", "values", "filled",
        "row_bytes", "allocs",
    )

    def __init__(self, label, stage, cached_rows, miss_rows, values,
                 row_bytes, allocs):
        self.label = label
        self.stage = stage
        self.cached_rows = cached_rows
        self.miss_rows = miss_rows
        #: (k, cols) replica of the cached rows (None in symbolic mode).
        self.values = values
        #: the replica holds a refreshed payload (serve epochs may use it).
        self.filled = False
        self.row_bytes = row_bytes
        self.allocs = allocs

    @property
    def nbytes(self) -> int:
        return self.cached_rows.size * self.row_bytes

    @property
    def miss_nbytes(self) -> int:
        return self.miss_rows.size * self.row_bytes


class TrainingTileCache:
    """Shared remote-tile row cache over one trainer's broadcast stages.

    ``stage_scores[j]`` ranks the rows of partition ``j``'s tile by
    frontier degree (how many stored entries across all ranks' stage-
    ``j`` tiles read the row); ``None`` (symbolic mode) falls back to
    row order, which after the §5.2 permutation is an unbiased sample.
    Admission is greedy in first-use order under ``policy.budget_bytes``
    *per rank* — every consumer rank holds the same replica, so one
    entry's bytes are charged once against the budget and reserved on
    every device pool (tag ``"cache"``).
    """

    def __init__(
        self,
        ctx,
        policy: CachePolicy,
        stage_scores: Optional[Sequence[np.ndarray]] = None,
    ):
        self.ctx = ctx
        self.policy = policy
        self.stage_scores = (
            None if stage_scores is None else list(stage_scores)
        )
        self._entries: Dict[Tuple[str, int], _StageEntry] = {}
        #: bumped on any resident-content change; part of the trainer's
        #: plan signature.
        self.generation = 0
        self._epoch = -1
        self.phase = REFRESH
        #: per-rank bytes currently resident.
        self.resident_bytes = 0
        self.epoch = CacheEpochCounters()
        self.total = CacheEpochCounters()

    # -- lifecycle -----------------------------------------------------------

    def begin_epoch(self) -> str:
        """Advance the epoch counter; returns the new phase."""
        self._epoch += 1
        self.phase = (
            REFRESH if self.policy.is_refresh_epoch(self._epoch) else SERVE
        )
        self.epoch = CacheEpochCounters()
        return self.phase

    def plan_token(self) -> Tuple[int, str]:
        """Identity of the cache state a stage plan depends on."""
        return (self.generation, self.phase)

    def clear(self) -> int:
        """Drop every entry (elastic recovery / chaos hook)."""
        count = len(self._entries)
        for entry in self._entries.values():
            self._free_entry(entry)
        self._entries.clear()
        self.resident_bytes = 0
        self.generation += 1
        return count

    def evict(self, label: str, stage: int) -> bool:
        """Drop one entry; its rows travel in full until re-admitted."""
        entry = self._entries.pop((label, stage), None)
        if entry is None:
            return False
        self._free_entry(entry)
        self.resident_bytes -= entry.nbytes
        self.generation += 1
        return True

    def invalidate_rows(self, part, rows) -> Tuple[int, int]:
        """Delta invalidation: evict only entries holding a touched row.

        ``rows`` are global (permuted-graph) row indices whose content a
        mutation batch changed; ``part`` is the trainer's
        :class:`~repro.sparse.partition.PartitionVector`. An entry
        ``(label, stage)`` is stale iff its resident replica caches one
        of the touched rows of stage ``stage``'s tile — everything else
        keeps its generation, so captured plans over untouched stages
        stay replayable. Each eviction goes through :meth:`evict`
        (generation bump), forcing recapture instead of stale replay.

        Returns ``(entries_evicted, entries_resident_before)`` — the
        pair the ``repro_dynamic_*`` counters report against the
        ``clear()`` flush-equivalent.
        """
        before = len(self._entries)
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        if not before or not rows.size:
            return 0, before
        stages = part.owners(rows)
        local_by_stage = {
            int(s): rows[stages == s] - part.boundaries[int(s)]
            for s in np.unique(stages)
        }
        evicted = 0
        for label, stage in list(self._entries):
            local = local_by_stage.get(stage)
            if local is None:
                continue
            entry = self._entries[(label, stage)]
            if np.isin(local, entry.cached_rows).any():
                self.evict(label, stage)
                evicted += 1
        return evicted, before

    def _free_entry(self, entry: _StageEntry) -> None:
        for alloc in entry.allocs:
            alloc.free()

    # -- admission -----------------------------------------------------------

    def _admit(self, label: str, stage: int, src) -> _StageEntry:
        rows, cols = src.rows, src.cols
        row_bytes = int(src.nbytes // rows) if rows else 0
        budget = self.policy.budget_bytes
        if budget is None:
            k = rows
        else:
            remaining = max(budget - self.resident_bytes, 0)
            k = min(rows, remaining // row_bytes) if row_bytes else 0
        if self.stage_scores is not None:
            scores = np.asarray(self.stage_scores[stage])
            if scores.shape[0] != rows:
                raise ConfigurationError(
                    f"cache scores for stage {stage} rank {scores.shape[0]} "
                    f"rows, tile has {rows}"
                )
            order = np.argsort(-scores, kind="stable")
        else:
            order = np.arange(rows)
        cached = np.sort(order[:k]).astype(np.int64)
        miss = np.setdiff1d(
            np.arange(rows, dtype=np.int64), cached, assume_unique=True
        )
        values = None
        if k and src.data is not None:
            values = np.empty((k, cols), dtype=src.data.dtype)
        allocs = []
        if k:
            for r in range(self.ctx.num_gpus):
                allocs.append(
                    self.ctx.device(r).pool.allocate(
                        int(k) * row_bytes, tag="cache"
                    )
                )
        entry = _StageEntry(label, stage, cached, miss, values, row_bytes,
                            allocs)
        self._entries[(label, stage)] = entry
        self.resident_bytes += entry.nbytes
        self.generation += 1
        return entry

    def stage_entry(self, label: str, stage: int, src) -> Optional[_StageEntry]:
        """The entry serving this stage's broadcast this epoch, or None.

        None means the broadcast runs uncached (nothing admitted, or the
        replica is not yet filled and this is a serve epoch — e.g. right
        after :meth:`clear`). On a refresh epoch an unfilled entry is
        marked filled here (the refresh closure *will* write it before
        any consumer runs) and the generation is bumped so serve-phase
        plans built against the unfilled state are invalidated.
        """
        entry = self._entries.get((label, stage))
        if entry is None:
            entry = self._admit(label, stage, src)
        if entry.cached_rows.size == 0:
            return None
        if self.phase == REFRESH:
            if not entry.filled:
                entry.filled = True
                self.generation += 1
            return entry
        return entry if entry.filled else None

    # -- broadcast interception ----------------------------------------------

    def payload_nbytes(self, label: str, stage: int, src) -> int:
        """Bytes this stage's broadcast moves this epoch."""
        entry = self.stage_entry(label, stage, src)
        if entry is None or self.phase == REFRESH:
            return src.nbytes
        return entry.miss_nbytes

    def stage_copy(
        self, entry: _StageEntry, src, dsts: Sequence
    ) -> Callable[[], None]:
        """The broadcast's functional closure for this phase.

        Refresh: full copy into every destination, write-through into
        the replica, then scatter the replica back over the cached rows
        — value-identical to the plain copy, but it exercises the same
        scatter path serve epochs rely on, so staleness=0 keeps the
        whole machinery parity-tested. Serve: one gathered payload of
        the miss rows plus the (possibly stale) replica rows.

        Byte/row accounting happens *inside* the closure: replayed
        schedules (stage plans, epoch plans) run the closure without
        re-planning, and the counters must follow the data movement.
        """
        dsts = tuple(dsts)
        cached = entry.cached_rows
        miss = entry.miss_rows
        full = src.nbytes
        if self.phase == REFRESH:
            def refresh() -> None:
                self._count(full, full, 0, cached.size + miss.size)
                data = src.data
                if data is None:
                    return
                entry.values[:] = data[cached]
                for dst in dsts:
                    out = dst.data
                    np.copyto(out, data)
                    out[cached] = entry.values
            return refresh

        sent = entry.miss_nbytes

        def serve() -> None:
            self._count(full, sent, cached.size, miss.size)
            data = src.data
            if data is None:
                return
            payload = data[miss]
            for dst in dsts:
                out = dst.data
                out[miss] = payload
                out[cached] = entry.values
        return serve

    def _count(self, full: int, sent: int, hits: int, misses: int) -> None:
        for c in (self.epoch, self.total):
            c.bytes_full += full
            c.bytes_sent += sent
            c.hit_rows += hits
            c.miss_rows += misses
            c.intercepts += 1

    # -- diagnostics ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def entry_keys(self) -> Tuple[Tuple[str, int], ...]:
        """All resident ``(label, stage)`` keys, in insertion order."""
        return tuple(self._entries)

    def resident_rows(self, label: str, stage: int) -> np.ndarray:
        entry = self._entries.get((label, stage))
        if entry is None:
            return np.asarray([], dtype=np.int64)
        return entry.cached_rows.copy()
