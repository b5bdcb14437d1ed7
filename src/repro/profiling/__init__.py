"""Profiling: op breakdowns, stage timelines, memory sweeps."""

from repro.profiling.breakdown import runtime_breakdown, breakdown_table
from repro.profiling.timeline import (
    StageSpan,
    extract_stage_timeline,
    render_timeline,
    spmm_span,
)
from repro.profiling.memory import max_layers_that_fit, memory_for_layers
from repro.profiling.trace_export import (
    export_chrome_trace,
    merge_chrome_traces,
    trace_to_chrome_events,
)
from repro.profiling.utilization import (
    DeviceUtilization,
    load_balance,
    publish_utilization,
    utilization_by_device,
    utilization_report,
)

__all__ = [
    "runtime_breakdown",
    "breakdown_table",
    "StageSpan",
    "extract_stage_timeline",
    "render_timeline",
    "spmm_span",
    "max_layers_that_fit",
    "export_chrome_trace",
    "merge_chrome_traces",
    "trace_to_chrome_events",
    "DeviceUtilization",
    "load_balance",
    "publish_utilization",
    "utilization_by_device",
    "utilization_report",
    "memory_for_layers",
]
