"""Graph capture for the discrete-event engine (epoch recording).

:class:`PlanCapture` attaches to an :class:`~repro.device.engine.Engine`
for the duration of one eagerly-executed epoch and records every
submitted op: the streams it occupies, its modelled duration, the
dependency edges (event deps plus the implicit in-order edge per
stream), the per-stream trace template, and the functional compute
closure the kernel registered. ``finalize()`` freezes the recording into
an immutable :class:`~repro.plan.plan.ExecutionPlan`.

Capture is refused while a non-trivial fault plan is active: injected
faults perturb durations and can abort collectives mid-epoch, and a
replayed plan must never mask a fault (the trainer falls back to eager
scheduling instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.device.engine import Engine
from repro.device.stream import Event, Stream
from repro.errors import PlanError
from repro.plan.plan import ExecutionPlan, build_levels


@dataclass
class _OpRecord:
    """One captured op (kernel, collective, or barrier)."""

    stream_ids: Tuple[int, ...]
    deps: Tuple[int, ...]
    duration: float
    #: per trace event: (device, stream, name, category, stage, nbytes,
    #: correlation, flops) — one entry per participating stream, spanning
    #: the whole op; empty for untraced ops (barriers).
    trace: Tuple[
        Tuple[str, str, str, str, Optional[int], int, Optional[str], float],
        ...,
    ] = ()
    compute: Optional[Callable[[], object]] = None
    is_loss: bool = False
    #: link tier of a collective (``Communicator.link_class``); None for
    #: kernels and barriers.
    link: Optional[str] = None


class PlanCapture:
    """Records one epoch's submitted ops into an :class:`ExecutionPlan`."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.active = False
        self._streams: List[Stream] = []
        self._stream_ids: Dict[int, int] = {}
        #: maps id(event) -> producing op index. The events themselves are
        #: kept alive in ``_events`` so ids cannot be recycled mid-capture.
        self._event_op: Dict[int, int] = {}
        self._events: List[Event] = []
        self._ops: List[_OpRecord] = []

    # -- lifecycle -----------------------------------------------------------

    def begin(self) -> None:
        """Attach to the engine; every subsequent submit is recorded."""
        if self.active:
            raise PlanError("capture already active")
        if self.engine.capture is not None:
            raise PlanError("another capture is attached to this engine")
        injector = self.engine.fault_injector
        if injector is not None and not injector.is_trivial:
            raise PlanError(
                "cannot capture an execution plan while a fault plan is "
                "active — injected faults must surface through eager "
                "scheduling"
            )
        self.active = True
        self.engine.capture = self

    def end(self) -> None:
        """Detach from the engine (idempotent)."""
        if self.engine.capture is self:
            self.engine.capture = None
        self.active = False

    # -- recording -----------------------------------------------------------

    def _sid(self, stream: Stream) -> int:
        sid = self._stream_ids.get(id(stream))
        if sid is None:
            sid = len(self._streams)
            self._stream_ids[id(stream)] = sid
            self._streams.append(stream)
        return sid

    def _dep_ids(self, deps: Sequence[Event]) -> Tuple[int, ...]:
        """Map event dependencies to producing op indices.

        Events recorded before capture began carry times at or below the
        epoch-start barrier — every captured op starts at or after that
        barrier, so dropping them preserves the timeline bit-exactly.
        """
        seen = set()
        out: List[int] = []
        for dep in deps:
            op = self._event_op.get(id(dep))
            if op is not None and op not in seen:
                seen.add(op)
                out.append(op)
        return tuple(out)

    def record_kernel(
        self,
        stream: Stream,
        event: Event,
        name: str,
        category: str,
        duration: float,
        deps: Sequence[Event],
        stage: Optional[int],
        nbytes: int,
        compute: Optional[Callable[[], object]],
        correlation: Optional[str] = None,
        flops: float = 0.0,
    ) -> None:
        """Record one single-stream op submitted through the engine."""
        sid = self._sid(stream)
        op_index = len(self._ops)
        self._ops.append(
            _OpRecord(
                stream_ids=(sid,),
                deps=self._dep_ids(deps),
                duration=float(duration),
                trace=(
                    (
                        stream.device.name,
                        stream.name,
                        name,
                        category,
                        stage,
                        nbytes,
                        correlation,
                        flops,
                    ),
                ),
                compute=compute,
                is_loss=(category == "loss"),
            )
        )
        self._event_op[id(event)] = op_index
        self._events.append(event)

    def record_collective(
        self,
        streams: Sequence[Stream],
        events: Sequence[Event],
        name: str,
        duration: float,
        deps: Sequence[Event],
        stage: Optional[int],
        nbytes: int,
        compute: Optional[Callable[[], object]] = None,
        category: str = "comm",
        correlation: Optional[str] = None,
        flops: float = 0.0,
        link_class: Optional[str] = None,
    ) -> None:
        """Record one rendezvous op spanning every participant's stream.

        ``streams``/``events`` are aligned, in the communicator's rank
        order — the same order the eager path records trace events in.
        ``link_class`` is the link tier the eager path accounts the
        collective's traffic on; replay accounts it there too.
        """
        sids = tuple(self._sid(s) for s in streams)
        op_index = len(self._ops)
        self._ops.append(
            _OpRecord(
                stream_ids=sids,
                deps=self._dep_ids(deps),
                duration=float(duration),
                trace=tuple(
                    (s.device.name, s.name, name, category, stage, nbytes,
                     correlation, flops)
                    for s in streams
                ),
                compute=compute,
                link=link_class,
            )
        )
        for event in events:
            self._event_op[id(event)] = op_index
            self._events.append(event)

    def record_barrier(self, streams: Sequence[Stream]) -> None:
        """Record an engine barrier as a zero-duration, untraced sync op."""
        sids = tuple(self._sid(s) for s in streams)
        self._ops.append(
            _OpRecord(stream_ids=sids, deps=(), duration=0.0)
        )

    # -- finalization --------------------------------------------------------

    def finalize(self) -> ExecutionPlan:
        """Freeze the recording into an immutable :class:`ExecutionPlan`."""
        if self.active:
            raise PlanError("end() the capture before finalizing")
        ops = self._ops
        n_streams = len(self._streams)
        last_on_stream = [-1] * n_streams
        full_deps: List[Tuple[int, ...]] = []
        for i, op in enumerate(ops):
            deps = set(op.deps)
            for sid in op.stream_ids:
                prev = last_on_stream[sid]
                if prev >= 0:
                    deps.add(prev)
                last_on_stream[sid] = i
            full_deps.append(tuple(sorted(deps)))
        durations = np.asarray([op.duration for op in ops], dtype=np.float64)
        trace_template = [
            (i, *entry) for i, op in enumerate(ops) for entry in op.trace
        ]
        closures = [
            (op.compute, op.is_loss) for op in ops if op.compute is not None
        ]
        # the telemetry an eager epoch adds, per trace event (on_op) and
        # per collective (on_comm), summed once here for every replay.
        op_totals: Dict[Tuple[str, str], Tuple[int, float]] = {}
        flops = 0.0
        nbytes = 0.0
        link_totals: Dict[str, Tuple[float, float]] = {}
        for op in ops:
            for entry in op.trace:
                key = (entry[3], entry[0])
                count, seconds = op_totals.get(key, (0, 0.0))
                op_totals[key] = (count + 1, seconds + op.duration)
                nbytes += entry[5]
                flops += entry[7]
            if op.link is not None and op.trace:
                link_bytes, link_seconds = link_totals.get(op.link, (0.0, 0.0))
                link_totals[op.link] = (link_bytes + op.trace[0][5],
                                        link_seconds + op.duration)
        return ExecutionPlan(
            streams=self._streams,
            durations=durations,
            levels=build_levels(full_deps),
            trace_template=trace_template,
            closures=closures,
            last_op_per_stream=last_on_stream,
            op_totals=op_totals,
            flops=flops,
            nbytes=nbytes,
            link_totals=link_totals,
        )
