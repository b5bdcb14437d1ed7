"""The :class:`Telemetry` hub — one object wiring registry + tracer.

Subsystems hold a single ``Telemetry`` handle (the engine carries it
duck-typed as ``engine.telemetry``, so ``repro.device`` never imports
this package). The hub's hot path is :meth:`on_op`, invoked by
``Engine.submit`` and ``Communicator._record`` for every simulated op:
it resolves its instruments once per (category, device) pair and then
only does float adds, keeping instrumented epochs within the overhead
budget. Op-level *spans* are opt-in (``trace_ops=True``) because a span
object per kernel is the one cost that does not amortise.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import Span, Tracer


class Telemetry:
    """Shared metrics registry + tracer with engine-facing fast paths."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        run_id: str = "run",
        trace_ops: bool = False,
        flight=None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.run_id = run_id
        self.trace_ops = trace_ops
        #: optional :class:`~repro.telemetry.flightrec.FlightRecorder`;
        #: when set, every traced op/comm/annotation lands in its ring.
        self.flight = flight
        #: section tag on flight op records ("train"/"serve"/"dynamic");
        #: postmortem Chrome traces use it for per-subsystem pid blocks.
        self._flight_section = run_id
        # (category, device) -> (ops counter, seconds counter)
        self._op_instruments: Dict[Tuple[str, str], tuple] = {}
        # link tier ("intra_node" | "inter_node") -> (bytes, seconds)
        self._link_instruments: Dict[str, tuple] = {}
        self._bytes_total = self.registry.counter(
            "repro_comm_bytes_total",
            "Bytes moved by communication ops across all ranks",
        )
        self._flops_total = self.registry.counter(
            "repro_flops_total", "Floating-point operations executed"
        )

    # -- engine-facing hot path ----------------------------------------------

    def on_op(self, ev) -> None:
        """Account one finished engine op (a ``TraceEvent``)."""
        self.on_op_values(
            ev.category,
            ev.device,
            ev.end - ev.start,
            ev.nbytes,
            getattr(ev, "flops", 0.0),
        )
        if self.flight is not None:
            # one tuple append; raw events convert to JSON at dump time.
            # (on_op_values callers carry no event, so untraced engines
            # contribute comm/annotation records only.)
            self.flight.record_op(ev, self._flight_section)
        if self.trace_ops and self.tracer.depth:
            self.tracer.record(
                ev.name,
                ev.start,
                ev.end,
                correlation=ev.correlation,
                category=ev.category,
                device=ev.device,
                stream=ev.stream,
            )

    def on_op_values(
        self,
        category: str,
        device: str,
        seconds: float,
        nbytes: float = 0.0,
        flops: float = 0.0,
    ) -> None:
        """Account one op from its raw values, skipping event construction.

        The engine takes this path when no ``TraceEvent`` would exist
        anyway (``record_trace=False`` and op spans off) — building one
        just for accounting would dominate the hook cost and blow the
        overhead budget.
        """
        ops, seconds_counter = (
            self._op_instruments.get((category, device))
            or self._op_counters(category, device)
        )
        ops.value += 1.0
        seconds_counter.value += seconds
        if nbytes:
            self._bytes_total.value += nbytes
        if flops:
            self._flops_total.value += flops

    def _op_counters(self, category: str, device: str) -> tuple:
        """Create and cache the ops/seconds counters of one pair."""
        cached = (
            self.registry.counter(
                "repro_ops_total",
                "Simulated ops executed, by category and device",
                category=category,
                device=device,
            ),
            self.registry.counter(
                "repro_op_seconds_total",
                "Simulated busy seconds, by category and device",
                category=category,
                device=device,
            ),
        )
        self._op_instruments[(category, device)] = cached
        return cached

    def _link_counters(self, link: str) -> tuple:
        """Create and cache the bytes/seconds counters of one tier."""
        cached = (
            self.registry.counter(
                "repro_comm_link_bytes_total",
                "Collective payload bytes by link tier",
                link=link,
            ),
            self.registry.counter(
                "repro_comm_link_seconds_total",
                "Collective busy seconds by link tier",
                link=link,
            ),
        )
        self._link_instruments[link] = cached
        return cached

    def on_comm(self, link: str, seconds: float, nbytes: float) -> None:
        """Account one collective's traffic on its link tier.

        Called once per collective by ``Communicator._record`` with the
        communicator's :attr:`link_class` ("intra_node" for rank sets
        confined to one node, "inter_node" for sets that cross the NIC).
        Bytes here are per payload, not per rank — summing the two tiers
        gives the wire traffic of the run, which is what the
        hierarchical-collective benches compare. Replayed plans account
        the same tiers in aggregate (see :meth:`on_replay`).
        """
        bytes_counter, seconds_counter = (
            self._link_instruments.get(link) or self._link_counters(link)
        )
        bytes_counter.value += nbytes
        seconds_counter.value += seconds
        if self.flight is not None:
            self.flight.record_comm(link, seconds, nbytes)

    def on_replay(
        self,
        *,
        start: float,
        end: float,
        op_totals: Dict[Tuple[str, str], Tuple[int, float]],
        flops: float,
        nbytes: float,
        link_totals: Dict[str, Tuple[float, float]],
        num_gpus: int,
        correlation: Optional[str] = None,
    ) -> Span:
        """Account one plan replay in aggregate (no per-event iteration).

        Captured plans replay thousands of ops via the vectorised
        timeline; iterating them through :meth:`on_op` would forfeit the
        replay speedup, so the plan hands over one epoch's totals,
        precomputed at capture: ``op_totals`` maps ``(category,
        device)`` to ``(ops, seconds)``, ``link_totals`` maps a link
        tier to ``(bytes, seconds)``. A replayed epoch so adds the same
        series an eager epoch adds (equal up to float summation order).
        """
        for (category, device), (count, seconds) in op_totals.items():
            ops, seconds_counter = (
                self._op_instruments.get((category, device))
                or self._op_counters(category, device)
            )
            ops.value += count
            seconds_counter.value += seconds
        if nbytes:
            self._bytes_total.value += nbytes
        if flops:
            self._flops_total.value += flops
        for link, (link_bytes, link_seconds) in link_totals.items():
            bytes_counter, seconds_counter = (
                self._link_instruments.get(link) or self._link_counters(link)
            )
            bytes_counter.value += link_bytes
            seconds_counter.value += link_seconds
        self.registry.counter(
            "repro_plan_replays_total", "Captured-plan replays executed"
        ).value += 1.0
        if self.flight is not None:
            category_totals: Dict[str, float] = {}
            for (category, _device), (_count, seconds) in op_totals.items():
                category_totals[category] = (
                    category_totals.get(category, 0.0) + seconds
                )
            self.flight.record(
                "replay",
                time=end,
                start=start,
                category_totals=category_totals,
                comm_nbytes=nbytes,
                num_gpus=num_gpus,
            )
        return self.tracer.record(
            "plan.replay",
            start,
            end,
            correlation=correlation,
            category="plan",
            num_gpus=num_gpus,
        )

    # -- convenience pass-throughs -------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        self.registry.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        self.registry.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        self.registry.histogram(name, **labels).observe(value)

    # -- flight recorder ------------------------------------------------------

    def set_flight_section(self, section: str) -> None:
        """Tag subsequent flight op records (``train``/``serve``/...).

        Postmortem bundles replay each section as its own Chrome-trace
        process, so a hub shared across subsystems keeps them apart.
        """
        self._flight_section = section

    def flight_note(self, kind: str, time: float = 0.0, **payload) -> None:
        """Drop an annotation (fault, degrade, cache_gen, ...) in the ring."""
        if self.flight is not None:
            self.flight.record(kind, time=time, **payload)

    def dump_postmortem(self, trigger: str, time: float = 0.0,
                        **meta) -> Optional[dict]:
        """Freeze the flight ring into a postmortem bundle (if recording)."""
        if self.flight is None:
            return None
        return self.flight.dump(trigger, time=time, telemetry=self, meta=meta)
