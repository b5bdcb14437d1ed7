"""Execution plans: the sim-graph analogue of CUDA Graphs.

Full-batch GCN training repeats a bit-identical op DAG every epoch (the
same premise behind the paper's L+3 buffer reuse, §4.2). An
:class:`ExecutionPlan` freezes one eagerly-scheduled epoch — every op's
streams, duration, dependency edges, trace template and functional
compute closure — so subsequent epochs replay it without re-walking the
Python scheduling path: no cost-model evaluation, no per-op dependency
resolution, no rendezvous validation.

Replay is bit-identical to eager execution because it performs the very
same floating-point operations the engine would:

* an op's start is ``max`` over its predecessors' end times (``max`` is
  exact under any grouping),
* its end is ``start + duration`` with the *captured* duration — the
  same two doubles the eager path adds.

The timeline is advanced with vectorized arithmetic: ops are grouped
into topological *levels* at finalization; within a level every start is
computed with one ``np.maximum.reduceat`` over the flattened dependency
ends, and every end with one vector add. Trace events are regenerated in
bulk from a pre-built template.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.device.engine import Engine, TraceEvent
from repro.device.stream import Stream
from repro.errors import PlanError


@dataclass
class PlanStats:
    """Capture/replay counters of one trainer (observability + tests)."""

    captures: int = 0
    replays: int = 0
    eager_epochs: int = 0
    invalidations: int = 0


@dataclass(frozen=True)
class ReplayResult:
    """What one replayed epoch produced."""

    #: sum of the per-rank local losses (closures of category "loss"),
    #: accumulated in captured program order — divide by the global
    #: training-vertex count for the epoch loss.
    loss_sum: float
    #: latest op completion time (== the epoch-end barrier time).
    end_time: float
    #: trace events appended to the engine (0 when tracing is off).
    events_emitted: int


class ExecutionPlan:
    """An immutable captured epoch: ops, dependencies, closures, trace.

    Built by :class:`~repro.plan.capture.PlanCapture`; replayed against
    the engine it was captured from. All schedule state is normalised to
    the epoch-start barrier time, so a plan captured at ``t0`` replays
    correctly at any later ``t0'``.
    """

    def __init__(
        self,
        streams: Sequence[Stream],
        durations: np.ndarray,
        levels: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        trace_template: Sequence[
            Tuple[int, str, str, str, str, Optional[int], int, Optional[str],
                  float]
        ],
        closures: Sequence[Tuple[Callable[[], object], bool]],
        last_op_per_stream: Sequence[int],
        op_totals: Dict[Tuple[str, str], Tuple[int, float]],
        flops: float = 0.0,
        nbytes: float = 0.0,
        link_totals: Optional[Dict[str, Tuple[float, float]]] = None,
    ):
        self._streams: Tuple[Stream, ...] = tuple(streams)
        self._durations = durations
        #: per level: (op indices, flattened dep op indices, reduceat offsets)
        self._levels = tuple(levels)
        self._trace_template = tuple(trace_template)
        self._closures = tuple(closures)
        self._last_op_per_stream = tuple(last_op_per_stream)
        #: one epoch's telemetry, precomputed at capture: per
        #: ``(category, device)`` op count and seconds, FLOPs and bytes
        #: over every trace event, and per link tier ``(bytes, seconds)``
        #: over every collective.
        self._op_totals = dict(op_totals)
        self._flops = float(flops)
        self._nbytes = float(nbytes)
        self._link_totals = dict(link_totals or {})

    # -- introspection -------------------------------------------------------

    @property
    def num_ops(self) -> int:
        return int(self._durations.shape[0])

    @property
    def num_streams(self) -> int:
        return len(self._streams)

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    @property
    def num_closures(self) -> int:
        return len(self._closures)

    def category_totals(self) -> Dict[str, float]:
        """Total captured op duration per category (one epoch's worth)."""
        totals: Dict[str, float] = {}
        for (category, _device), (_count, seconds) in self._op_totals.items():
            totals[category] = totals.get(category, 0.0) + seconds
        return totals

    def op_dependencies(self) -> List[Tuple[int, ...]]:
        """Per-op dependency edges, rebuilt from the level encoding.

        ``result[i]`` lists every op index ``i`` waits for (explicit
        event deps plus the implicit previous-op-per-stream edge) — the
        exact ground-truth DAG the critical-path analyzer walks.
        """
        deps: List[Tuple[int, ...]] = [()] * self.num_ops
        for idx, flat_deps, offsets in self._levels:
            if flat_deps.size == 0:
                continue
            bounds = offsets.tolist() + [int(flat_deps.size)]
            flat = flat_deps.tolist()
            for pos, op in enumerate(idx.tolist()):
                deps[op] = tuple(flat[bounds[pos]:bounds[pos + 1]])
        return deps

    def op_meta(self) -> List[Tuple[str, str, str, str]]:
        """Per-op ``(name, category, device, stream)`` labels.

        Taken from each op's first trace-template entry; ops without
        template entries — plans captured with tracing off — get a
        positional placeholder.
        """
        meta: List[Tuple[str, str, str, str]] = [
            (f"op{i}", "op", "-", "-") for i in range(self.num_ops)
        ]
        seen = [False] * self.num_ops
        for (op, device, stream_name, name, category, _stage, _nbytes,
             _correlation, _flops) in self._trace_template:
            if not seen[op]:
                seen[op] = True
                meta[op] = (name, category, device, stream_name)
        return meta

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ExecutionPlan(ops={self.num_ops}, streams={self.num_streams}, "
            f"levels={self.num_levels})"
        )

    # -- replay --------------------------------------------------------------

    def compute_timeline(self, t0: float) -> Tuple[np.ndarray, np.ndarray]:
        """Start/end times of every op for an epoch starting at ``t0``.

        Pure timeline arithmetic (no compute, no trace): level 0 ops
        start at the epoch barrier; each later level's starts are the
        segment-maxima of their dependencies' ends.
        """
        n = self.num_ops
        starts = np.empty(n, dtype=np.float64)
        ends = np.empty(n, dtype=np.float64)
        durations = self._durations
        for idx, flat_deps, offsets in self._levels:
            if flat_deps.size == 0:
                starts[idx] = t0
            elif idx.size == 1:
                starts[idx[0]] = ends[flat_deps].max()
            else:
                starts[idx] = np.maximum.reduceat(ends[flat_deps], offsets)
            ends[idx] = starts[idx] + durations[idx]
        return starts, ends

    def replay(self, engine: Engine, t0: float) -> ReplayResult:
        """Re-execute the captured epoch starting at barrier time ``t0``.

        Runs the functional closures in captured program order, advances
        the captured streams' clocks, and (when the engine records
        traces) bulk-appends the regenerated :class:`TraceEvent` list.
        """
        # 1. functional compute, in the captured sequential order.
        loss_sum = 0.0
        for fn, is_loss in self._closures:
            value = fn()
            if is_loss:
                loss_sum += value

        # 2. timeline arithmetic.
        if self.num_ops == 0:
            return ReplayResult(loss_sum=loss_sum, end_time=t0, events_emitted=0)
        starts, ends = self.compute_timeline(t0)

        # 3. stream clocks.
        for stream, last in zip(self._streams, self._last_op_per_stream):
            if last >= 0:
                stream.ready_time = float(ends[last])

        # 4. trace regeneration, in bulk. Every start is t0 or some
        # op's end, so events share one float object per distinct time
        # (as eager events do) instead of holding two fresh floats each.
        emitted = 0
        if engine.record_trace:
            end_objs = ends.tolist()
            t0 = float(t0)
            by_value = {t0: t0}
            by_value.update(zip(end_objs, end_objs))
            start_objs = [by_value[t] for t in starts.tolist()]
            events = [
                TraceEvent(
                    device=device,
                    stream=stream_name,
                    name=name,
                    category=category,
                    start=start_objs[op],
                    end=end_objs[op],
                    stage=stage,
                    nbytes=nbytes,
                    correlation=correlation,
                    flops=flops,
                )
                for op, device, stream_name, name, category, stage, nbytes,
                correlation, flops in self._trace_template
            ]
            engine.record_events(events)
            emitted = len(events)
        end_time = float(ends.max())
        telemetry = getattr(engine, "telemetry", None)
        if telemetry is not None:
            # aggregate accounting: per-event on_op calls would forfeit
            # the vectorised-replay speedup the plan exists to provide.
            telemetry.on_replay(
                start=t0,
                end=end_time,
                op_totals=self._op_totals,
                flops=self._flops,
                nbytes=self._nbytes,
                link_totals=self._link_totals,
                num_gpus=len({s.device.name for s in self._streams}),
            )
        return ReplayResult(
            loss_sum=loss_sum,
            end_time=end_time,
            events_emitted=emitted,
        )


def build_levels(
    full_deps: List[Tuple[int, ...]],
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Group ops into topological levels for vectorized replay.

    ``full_deps[i]`` lists every op index ``i`` must wait for (explicit
    event dependencies plus the implicit previous-op-per-stream edges).
    Returns per level ``(op indices, flattened deps, reduceat offsets)``.
    Level 0 holds the dependency-free ops (they start at the epoch
    barrier); within any later level every op has at least one
    dependency, so ``np.maximum.reduceat`` segments are all non-empty.
    """
    n = len(full_deps)
    level = np.zeros(n, dtype=np.int64)
    for i, deps in enumerate(full_deps):
        if deps:
            level[i] = 1 + max(level[d] for d in deps)
    out: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    if n == 0:
        return out
    for lv in range(int(level.max()) + 1):
        idx = np.nonzero(level == lv)[0]
        if idx.size == 0:  # pragma: no cover - levels are dense by construction
            raise PlanError(f"empty topological level {lv}")
        flat: List[int] = []
        offsets: List[int] = []
        for i in idx:
            offsets.append(len(flat))
            flat.extend(full_deps[i])
        out.append(
            (
                idx.astype(np.int64),
                np.asarray(flat, dtype=np.int64),
                np.asarray(offsets, dtype=np.int64),
            )
        )
    return out
