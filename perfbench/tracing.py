"""Span tracing for the benchmark's traced run (``--trace 1``).

The traced run wraps the public entry points of each ``repro`` layer
(listed in :data:`LAYERS`) from outside the program: every call made
while a root span is open becomes a span ``[bucket, start, end, parent]``
in that root's list. Root spans are opened by the benchmark itself, one
per epoch, read slice, commit or set-up. When a root closes, its spans
are reduced to per-bucket self time (duration minus the part of the
interval its child spans cover); the root's own self time is the
``other`` bucket, so the self times of a root always sum to its length.

Wrappers are installed before any set-up runs, so plans captured during
set-up bind the wrapped callables, and they cost one attribute check per
call while no traced root is open.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict, deque
from typing import Callable, Dict, List, Sequence, Tuple

OTHER = "other"
#: raw span lists kept per scope for the dump written at exit.
KEEP_ROOTS = 4

#: ``(bucket, module, class or None, attribute names)`` — the calls each
#: layer bucket is made of. A module-level function is rebound in every
#: loaded module that imported it by name.
LAYERS: Tuple[Tuple[str, str, object, Tuple[str, ...]], ...] = (
    ("device.submit", "repro.device.engine", "Engine",
     ("submit", "submit_many", "submit_after", "submit_fused")),
    ("core.spmm", "repro.core.spmm_mg", None, ("distributed_spmm",)),
    ("core.partition", "repro.core.partitioner", None, ("partition_dataset",)),
    ("datasets.load", "repro.datasets.loader", None, ("load_dataset",)),
    ("comm.host", "repro.comm.collectives", "Communicator",
     ("broadcast", "plan_broadcast", "broadcast_replay",
      "broadcast_pipelined", "allreduce", "reduce", "allgather")),
    ("sparse.spmm", "repro.sparse.csr", "CSRMatrix", ("spmm", "spmm_into")),
    # the compiled CSR kernel both spmm paths (and replayed stage plans)
    # end in; scipy looks it up on its module at call time.
    ("sparse.spmm", "scipy.sparse._sparsetools", None, ("csr_matvecs",)),
    ("sparse.build", "repro.sparse.csr", "CSRMatrix",
     ("__init__", "from_coo", "from_dense", "hstack", "transpose",
      "row_block", "tile", "to_coo")),
    ("sparse.build", "repro.sparse.coo", "COOMatrix",
     ("__init__", "from_edges", "transpose")),
    ("sparse.build", "repro.sparse.normalize", None,
     ("add_self_loops", "gcn_normalize")),
    ("backends.gemm", "repro.backends.base", "KernelBackend",
     ("gemm", "gemm_batch", "gemm_relu_grad")),
    ("backends.other", "repro.backends.base", "KernelBackend",
     ("spmm", "relu", "relu_grad")),
    ("plan.replay", "repro.plan.plan", "ExecutionPlan", ("replay",)),
    ("plan.capture", "repro.plan.capture", "PlanCapture",
     ("begin", "end", "record_kernel", "record_collective", "record_fused",
      "record_barrier", "finalize")),
    ("cache.lookup", "repro.cache.lru", "EmbeddingCache", ("lookup",)),
    ("cache.update", "repro.cache.lru", "EmbeddingCache",
     ("insert", "invalidate_vertices", "invalidate_at", "clear")),
    ("serve.self", "repro.serve.server", "ServingEngine",
     ("serve", "query", "warm_cache", "update_weights")),
    ("dynamic.apply", "repro.dynamic.graph", "DynamicGraph", ("apply",)),
    ("dynamic.graph_commit", "repro.dynamic.graph", "DynamicGraph",
     ("commit",)),
    ("dynamic.engine", "repro.dynamic.engine", "DynamicServingEngine",
     ("commit",)),
    ("dynamic.invalidate", "repro.dynamic.invalidate", None,
     ("l_hop_affected",)),
    ("telemetry.host", "repro.telemetry.core", "Telemetry",
     ("on_op", "on_op_values", "on_comm", "on_replay", "inc", "set_gauge",
      "observe", "set_flight_section", "flight_note", "dump_postmortem")),
    ("telemetry.host", "repro.telemetry.spans", "Tracer", ("begin", "end")),
    ("telemetry.host", "repro.telemetry.derived", None, ("sample_epoch",)),
    ("telemetry.host", "repro.telemetry.critpath", None,
     ("critical_path", "publish_critpath")),
    ("telemetry.host", "repro.telemetry.slo", "EpochTimeAnomalyDetector",
     ("update",)),
    ("telemetry.host", "repro.telemetry.slo", "SLOMonitor",
     ("observe", "observe_outcomes")),
    ("training.eval", "repro.core.trainer", "MGGCNTrainer", ("evaluate",)),
)

def summarize(spans: Sequence[Sequence]) -> Tuple[Dict[str, float],
                                                   Dict[str, float],
                                                   Dict[str, int]]:
    """Reduce one root's spans to ``(self_s, total_s, calls)`` per bucket.

    ``self_s[b]`` sums, over spans of bucket ``b``, the span's duration
    minus the union of its children's intervals (clipped to the span).
    ``total_s`` and ``calls`` count only *entries* into a bucket — spans
    whose parent is of another bucket — so a layer calling itself is
    not counted twice. The root (parent ``-1``) carries the ``other``
    bucket by convention.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for bucket, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for i, (bucket, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        self_s[bucket] += (end - start) - covered
        if parent < 0 or spans[parent][0] != bucket:
            total_s[bucket] += end - start
            calls[bucket] += 1
    return dict(self_s), dict(total_s), dict(calls)


class ScopeTotals:
    """Per-bucket sums over every closed root of one scope."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.roots = 0
        self.root_s = 0.0
        #: largest |sum of self times - root length| seen, seconds.
        self.max_tiling_error = 0.0

    def add(self, spans: Sequence[Sequence]) -> None:
        self_s, total_s, calls = summarize(spans)
        for bucket, value in self_s.items():
            self.self_s[bucket] += value
        for bucket, value in total_s.items():
            self.total_s[bucket] += value
        for bucket, value in calls.items():
            self.calls[bucket] += value
        root_len = spans[0][2] - spans[0][1]
        self.roots += 1
        self.root_s += root_len
        self.max_tiling_error = max(
            self.max_tiling_error, abs(sum(self_s.values()) - root_len)
        )


class Recorder:
    """Collects spans under benchmark-opened roots; see the module doc."""

    def __init__(self) -> None:
        #: spans of the open root, or None while no traced root is open
        #: (the wrappers' fast path).
        self.spans = None
        self._stack: List[int] = []
        self._scope = ""
        self.scopes: Dict[str, ScopeTotals] = defaultdict(ScopeTotals)
        #: raw spans of the last few roots per scope, written at exit.
        self.kept: Dict[str, deque] = defaultdict(
            lambda: deque(maxlen=KEEP_ROOTS)
        )

    def begin(self, scope: str) -> None:
        if self.spans is not None:
            raise RuntimeError("a traced root is already open")
        self._scope = scope
        self._stack[:] = [0]
        self.spans = [[OTHER, time.perf_counter(), 0.0, -1]]

    def end(self) -> None:
        spans = self.spans
        spans[0][2] = time.perf_counter()
        self.spans = None
        if len(self._stack) != 1:
            raise RuntimeError("root closed with wrapped calls still open")
        self.scopes[self._scope].add(spans)
        self.kept[self._scope].append(spans)

    def abort(self) -> None:
        """Drop an open root without accounting it (a failed step)."""
        self.spans = None
        self._stack.clear()

    def wrap(self, fn: Callable, bucket: str) -> Callable:
        perf = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            if spans is None:
                return fn(*args, **kwargs)
            span = [bucket, perf(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()

        return traced

    def dump(self) -> dict:
        """Aggregates plus the kept raw spans, times relative to each root."""
        out = {"scopes": {}, "kept_roots": {}}
        for scope, totals in self.scopes.items():
            out["scopes"][scope] = {
                "roots": totals.roots,
                "root_s": totals.root_s,
                "max_tiling_error_s": totals.max_tiling_error,
                "self_s": dict(totals.self_s),
                "total_s": dict(totals.total_s),
                "calls": dict(totals.calls),
            }
        for scope, roots in self.kept.items():
            out["kept_roots"][scope] = [
                [[b, s - root[0][1], e - root[0][1], p] for b, s, e, p in root]
                for root in roots
            ]
        return out


def install(recorder: Recorder) -> List[str]:
    """Wrap every call in :data:`LAYERS` for the rest of the process.

    Returns the calls that do not exist (``module[.Class].name``): a
    layer whose entry point the program dropped is traced through the
    entry points it still has.
    """
    missing: List[str] = []
    for bucket, module, cls, names in LAYERS:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            missing += [f"{module}.{name}" for name in names]
            continue
        owner = mod if cls is None else getattr(mod, cls, None)
        where = module if cls is None else f"{module}.{cls}"
        for name in names:
            raw = None if owner is None else owner.__dict__.get(name)
            if raw is None:
                missing.append(f"{where}.{name}")
            elif cls is not None:
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(recorder.wrap(raw.__func__, bucket))
                else:
                    wrapped = recorder.wrap(raw, bucket)
                setattr(owner, name, wrapped)
            else:
                wrapped = recorder.wrap(raw, bucket)
                for key, home in list(sys.modules.items()):
                    if home is mod or (key.startswith("repro")
                                       and getattr(home, name, None) is raw):
                        setattr(home, name, wrapped)
    return missing
