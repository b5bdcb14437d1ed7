"""repro.telemetry — unified metrics, spans, and perf-regression gating.

One :class:`MetricsRegistry` + :class:`Tracer` pair (bundled by the
:class:`Telemetry` hub) that training, plan replay, resilience, and
serving all report through; exporters for Prometheus text, JSONL event
logs, and merged Chrome traces; a regression gate that diffs a run's
snapshot against BENCH_*.json baselines; critical-path attribution
(:mod:`~repro.telemetry.critpath`), an always-on flight recorder
(:mod:`~repro.telemetry.flightrec`), and SLO burn-rate / epoch-anomaly
monitors (:mod:`~repro.telemetry.slo`). See docs/observability.md.
"""

from repro.telemetry.core import Telemetry
from repro.telemetry.critpath import (
    CritPathReport,
    PathStep,
    critical_path,
    critical_path_from_plan,
    critpath_to_chrome_events,
    publish_critpath,
)
from repro.telemetry.derived import sample_epoch
from repro.telemetry.export import (
    merged_chrome_trace,
    render_summary,
    spans_to_chrome_events,
    to_jsonl,
    to_prometheus,
    write_jsonl,
)
from repro.telemetry.flightrec import (
    FlightRecorder,
    bundle_events,
    bundle_spans,
    bundle_to_chrome_trace,
    load_bundle,
)
from repro.telemetry.gate import (
    DEFAULT_RTOL,
    GateResult,
    diff_metrics,
    flatten_numeric,
    load_metrics,
    write_snapshot,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    nearest_rank,
)
from repro.telemetry.slo import (
    SLO,
    EpochAnomaly,
    EpochTimeAnomalyDetector,
    SLOBreach,
    SLOMonitor,
    default_serving_slos,
)
from repro.telemetry.spans import Span, Tracer

__all__ = [
    "Counter",
    "CritPathReport",
    "DEFAULT_RTOL",
    "EpochAnomaly",
    "EpochTimeAnomalyDetector",
    "FlightRecorder",
    "Gauge",
    "GateResult",
    "Histogram",
    "MetricsRegistry",
    "PathStep",
    "SLO",
    "SLOBreach",
    "SLOMonitor",
    "Span",
    "Telemetry",
    "Tracer",
    "bundle_events",
    "bundle_spans",
    "bundle_to_chrome_trace",
    "critical_path",
    "critical_path_from_plan",
    "critpath_to_chrome_events",
    "default_serving_slos",
    "diff_metrics",
    "flatten_numeric",
    "load_bundle",
    "load_metrics",
    "merged_chrome_trace",
    "nearest_rank",
    "publish_critpath",
    "render_summary",
    "sample_epoch",
    "spans_to_chrome_events",
    "to_jsonl",
    "to_prometheus",
    "write_jsonl",
    "write_snapshot",
]
