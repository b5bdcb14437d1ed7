"""Chrome trace-event export of simulated execution traces.

Writes the engine's :class:`TraceEvent` list in the Trace Event Format
consumed by ``chrome://tracing`` / Perfetto, with one process per
virtual GPU and one thread per stream — so the paper's Figures 6/8
timelines can be inspected interactively, not just as ASCII art.

Traces from *different* engines (a training run and a serving run, or
two elastic-trainer generations) reuse the same device names, so their
pid/tid ids collide when naively concatenated and Perfetto folds them
into one bogus process. :func:`merge_chrome_traces` allocates each
engine's events a disjoint pid/tid range and prefixes process names
with the run id, producing one timeline with every run distinct.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.device.engine import TraceEvent

PathLike = Union[str, os.PathLike]

#: microseconds per simulated second in the exported timeline.
_TIME_SCALE = 1e6


def trace_to_chrome_events(
    trace: Sequence[TraceEvent],
    run_id: Optional[str] = None,
    pid_base: int = 0,
    tid_base: int = 0,
) -> List[dict]:
    """Convert engine trace events into trace-event dicts.

    ``run_id`` namespaces the output: process names become
    ``"{run_id}/{device}"`` and ids start at ``pid_base``/``tid_base``,
    so events from several engines can share one file without their
    (device, stream) ids colliding.
    """
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    events: List[dict] = []
    for ev in trace:
        pid = pids.setdefault(ev.device, pid_base + len(pids))
        tid = tids.setdefault((ev.device, ev.stream), tid_base + len(tids))
        args = {
            "stage": ev.stage,
            "nbytes": ev.nbytes,
        }
        if ev.correlation is not None:
            # opaque request/batch id: lets Perfetto queries group all
            # spans of one serving request across devices and streams.
            args["correlation"] = ev.correlation
        if run_id is not None:
            args["run"] = run_id
        events.append(
            {
                "name": ev.name,
                "cat": ev.category,
                "ph": "X",  # complete event
                "ts": ev.start * _TIME_SCALE,
                "dur": ev.duration * _TIME_SCALE,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    # metadata: readable process/thread names
    for device, pid in pids.items():
        label = device if run_id is None else f"{run_id}/{device}"
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": label}}
        )
    for (device, stream), tid in tids.items():
        events.append(
            {"name": "thread_name", "ph": "M", "pid": pids[device], "tid": tid,
             "args": {"name": stream}}
        )
    return events


def merge_chrome_traces(
    sections: Mapping[str, Sequence[TraceEvent]],
    extra_events: Sequence[dict] = (),
) -> List[dict]:
    """Merge traces from several engines into one event list.

    ``sections`` maps a run id (e.g. ``"train"``, ``"serve"``) to that
    engine's trace. Each section gets a disjoint pid/tid block and
    run-id-prefixed process names. ``extra_events`` (already-formed
    trace-event dicts, e.g. span events from the telemetry tracer) are
    appended verbatim — callers must give them pids outside the blocks
    allocated here, which start at 0 and grow by section size.
    """
    events: List[dict] = []
    pid_base = 0
    tid_base = 0
    for run_id, trace in sections.items():
        section = trace_to_chrome_events(
            trace, run_id=run_id, pid_base=pid_base, tid_base=tid_base
        )
        events.extend(section)
        devices = {ev.device for ev in trace}
        streams = {(ev.device, ev.stream) for ev in trace}
        pid_base += len(devices)
        tid_base += len(streams)
    events.extend(extra_events)
    return events


def export_chrome_trace(
    trace: Sequence[TraceEvent], path: PathLike, run_id: Optional[str] = None
) -> None:
    """Write ``trace`` as a Chrome/Perfetto-loadable JSON file."""
    payload = {
        "traceEvents": trace_to_chrome_events(trace, run_id=run_id),
        "displayTimeUnit": "ms",
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
