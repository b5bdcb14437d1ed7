"""Epoch statistics: per-op breakdown, timings, memory, stage timelines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.device.engine import SimContext, TraceEvent

#: op categories reported in Fig. 5's breakdown, in the figure's order.
BREAKDOWN_CATEGORIES: Tuple[str, ...] = (
    "activation",
    "adam",
    "gemm",
    "loss",
    "spmm",
)


@dataclass(frozen=True)
class OpBreakdown:
    """Total simulated op time per category (summed across devices)."""

    totals: Dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.totals.values())

    def percentage(self, category: str) -> float:
        """Share of ``category`` within the Fig. 5 categories, percent."""
        denom = sum(self.totals.get(c, 0.0) for c in BREAKDOWN_CATEGORIES)
        if denom == 0.0:
            return 0.0
        return 100.0 * self.totals.get(category, 0.0) / denom

    def percentages(self) -> Dict[str, float]:
        return {c: self.percentage(c) for c in BREAKDOWN_CATEGORIES}

    @classmethod
    def from_trace(cls, trace: List[TraceEvent]) -> "OpBreakdown":
        totals: Dict[str, float] = {}
        for ev in trace:
            totals[ev.category] = totals.get(ev.category, 0.0) + ev.duration
        return cls(totals)


@dataclass
class EpochStats:
    """Everything measured about one training epoch."""

    #: simulated wall-clock duration of the epoch (max over devices).
    epoch_time: float
    #: training loss (None for symbolic runs).
    loss: Optional[float]
    breakdown: OpBreakdown
    #: peak device memory over the epoch, bytes (max over GPUs).
    peak_memory: int
    #: the raw trace of the epoch (for timeline rendering).
    trace: List[TraceEvent] = field(default_factory=list)

    def category_time(self, category: str) -> float:
        return self.breakdown.totals.get(category, 0.0)

    @property
    def comm_time(self) -> float:
        return self.category_time("comm")

    @property
    def spmm_time(self) -> float:
        return self.category_time("spmm")


def run_epoch(
    ctx: SimContext, body: Callable[[], Optional[float]]
) -> EpochStats:
    """Run one epoch's ``body`` between two device-wide barriers.

    ``body`` submits the epoch's work and returns its loss (None when
    symbolic). The epoch's time is the span between the barriers, and
    its trace and breakdown are the events the body appended.
    """
    t0 = ctx.synchronize()
    trace_start = len(ctx.engine.trace)
    loss = body()
    t1 = ctx.synchronize()
    trace = ctx.engine.trace[trace_start:]
    return EpochStats(
        epoch_time=t1 - t0,
        loss=loss,
        breakdown=OpBreakdown.from_trace(trace),
        peak_memory=ctx.peak_memory(),
        trace=trace,
    )
