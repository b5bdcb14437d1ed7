"""NCCL-style collectives: broadcast, reduce, allreduce, allgather.

Functional semantics move real data between device tensors; timing uses
the machine's :class:`~repro.hardware.topology.Topology`:

* a collective is a rendezvous: it starts when the *last* participating
  stream (plus any per-rank dependencies) is ready, and all participants
  finish together — matching NCCL's synchronous kernels;
* a pipelined broadcast of ``b`` bytes proceeds at the set's collective
  bandwidth: ``t = latency + b / bw``;
* ring allreduce/reduce move ``2 (P-1)/P`` / ``(P-1)/P`` times the buffer.

Every per-rank op is recorded on that rank's chosen stream so the
timeline figures show communication per GPU (yellow bars in Figs. 6/8).

One definition per collective: :class:`Communicator` is the only place
a collective is validated, runs its payload closure and is priced.
After validation each collective builds a *phase plan* — tiers run back
to back, the phases of one tier run concurrently, each phase a
rendezvous on a (sub-)communicator priced by one of four cost-term
methods — and hands it to one executor. The flat plan is one phase on
the communicator itself; node-hierarchical collectives
(:mod:`repro.parallel.hierarchy`) override only the ``_*_phases``
methods. The ``*_duration`` predictors time the same plan in the
executor's float order, so a prediction equals the executed duration
on idle streams bit for bit.

Failure awareness (``repro.resilience``): when the context carries a
:class:`~repro.resilience.FaultInjector`, every collective checks its
participants at rendezvous time —

* a permanently failed participant makes the op *hang*; the watchdog
  ``timeout`` is charged on every surviving stream and
  :class:`~repro.errors.DeviceFailedError` is raised (elastic recovery
  picks it up from there);
* a transient collective fault costs one timed-out attempt plus an
  exponential backoff (:class:`~repro.resilience.RetryPolicy`) and is
  retried; the retries appear as ``<op>/retry<k>`` trace events, so
  robustness has a measurable timeline price;
* an active link-degradation window divides the bandwidth term.

Without an injector (or with an empty plan) the timing arithmetic is
bit-identical to the fault-free implementation.

Rendezvous validation: all ranks of a collective must agree on the
operation's geometry. Mismatched or missing per-rank buffers — which on
real NCCL silently corrupt data or deadlock — raise
:class:`~repro.errors.CollectiveMismatchError` listing every rank's
view of the call.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.device.engine import Engine, SimContext, TraceEvent
from repro.device.stream import Event, Stream
from repro.device.tensor import DeviceTensor
from repro.errors import (
    CollectiveMismatchError,
    CollectiveTimeoutError,
    CommunicationError,
    DeviceFailedError,
    PlanError,
)
from repro.hardware.spec import link_class
from repro.hardware.topology import Topology
from repro.resilience.policy import RetryPolicy

#: One phase of a collective: a rendezvous on a (sub-)communicator
#: ``(comm, (fixed, bw_time), name suffix, nbytes, flops, carries payload)``.
Phase = Tuple["Communicator", Tuple[float, float], str, int, float, bool]
#: A collective's phase plan: tiers run back to back, the phases of one
#: tier (disjoint rank sets) run concurrently.
PhasePlan = List[List[Phase]]


def _ceil_log2(n: int) -> int:
    """Tree depth of ``n`` leaves (>= 1 for n >= 2)."""
    depth = 0
    span = 1
    while span < n:
        span *= 2
        depth += 1
    return max(depth, 1)


class Communicator:
    """A communicator over a fixed set of ranks of one :class:`SimContext`."""

    def __init__(
        self,
        ctx: SimContext,
        ranks: Optional[Sequence[int]] = None,
        bw_derate: float = 1.0,
        collective_overhead: float = 12e-6,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.ctx = ctx
        self.engine: Engine = ctx.engine
        self.topology: Topology = ctx.topology
        self.ranks: List[int] = list(ranks) if ranks is not None else ctx.ranks
        if len(set(self.ranks)) != len(self.ranks) or not self.ranks:
            raise CommunicationError(f"invalid rank set {self.ranks!r}")
        for r in self.ranks:
            if not (0 <= r < ctx.num_gpus):
                raise CommunicationError(
                    f"rank {r} outside context with {ctx.num_gpus} GPUs"
                )
        if not (0.0 < bw_derate <= 1.0):
            raise CommunicationError(f"bw_derate must be in (0, 1], got {bw_derate}")
        #: effective-bandwidth multiplier, used to model comm slowdown
        #: while overlapped with compute (§6.3).
        self.bw_derate = bw_derate
        if collective_overhead < 0:
            raise CommunicationError("collective_overhead must be >= 0")
        #: fixed software cost of one collective call (NCCL kernel launch
        #: + rendezvous, ~10-20 us in practice). This floor is what keeps
        #: tiny graphs (Cora) from scaling — each of the P broadcast
        #: stages pays it regardless of message size.
        self.collective_overhead = collective_overhead
        if timeout is not None and timeout <= 0:
            raise CommunicationError(f"timeout must be > 0, got {timeout}")
        #: watchdog charged when an attempt fails / a peer is dead; None
        #: falls back to the attempt's own modelled duration.
        self.timeout = timeout
        #: retry budget + backoff schedule for transient faults.
        self.retry = retry if retry is not None else RetryPolicy()
        #: fault injector shared with the context (None = fault-free).
        self.fault_injector = getattr(ctx, "fault_injector", None)
        #: (root, nbytes) -> predicted broadcast duration. The topology
        #: walk behind :meth:`broadcast_duration` is time-independent
        #: (degradation windows are applied at rendezvous, not here), so
        #: the overlap scheduler's per-stage queries are memoizable.
        self._bcast_duration_cache: Dict[Tuple[int, int], float] = {}
        #: (root, tree) -> (fixed, effective bandwidth) for broadcasts:
        #: the topology walk + latency max depend only on (root, ranks),
        #: both frozen for a communicator's lifetime.
        self._bcast_timing_cache: Dict[Tuple[int, bool], Tuple[float, float]] = {}
        #: which link tier this communicator's traffic transits. A rank
        #: set confined to one node moves bytes over NVLink/PCIe only
        #: ("intra_node"); a set spanning nodes is bottlenecked by the
        #: NIC and every payload is accounted as "inter_node". The
        #: hierarchical collectives (:mod:`repro.parallel.hierarchy`)
        #: decompose multi-node ops into sub-communicators so each
        #: phase's bytes land in the correct tier.
        self.link_class = link_class(ctx.machine, self.ranks)

    @property
    def size(self) -> int:
        return len(self.ranks)

    @property
    def plans_broadcasts(self) -> bool:
        """Do :meth:`plan_broadcast`/:meth:`broadcast_replay` time a
        broadcast exactly as :meth:`broadcast` does?

        True for this flat single-rendezvous broadcast; a subclass whose
        broadcast is shaped differently (multi-phase, per-tier timing)
        returns False, and pipelined callers fall back to
        :meth:`broadcast`.
        """
        return True

    # -- shared rendezvous machinery ----------------------------------------

    def _streams(
        self, streams: Optional[Mapping[int, Stream]] = None
    ) -> Dict[int, Stream]:
        if streams is not None:
            return dict(streams)
        return {r: self.ctx.device(r).comm_stream for r in self.ranks}

    def _check_rendezvous(
        self, name: str, shapes_by_rank: Mapping[int, Optional[Tuple[int, ...]]]
    ) -> None:
        """All ranks must post matching buffers for the same op.

        ``shapes_by_rank`` maps every expected participant to the shape
        it brought to the rendezvous (None = the rank never posted a
        buffer). Any disagreement raises
        :class:`CollectiveMismatchError` with each rank's view, instead
        of the silent corruption / deadlock real NCCL exhibits.
        """
        views = {r: shapes_by_rank.get(r) for r in self.ranks}
        missing = [r for r, s in views.items() if s is None]
        shapes = {s for s in views.values() if s is not None}
        if missing or len(shapes) > 1:
            detail = ", ".join(
                f"rank {r}: {'<absent>' if s is None else s}"
                for r, s in sorted(views.items())
            )
            raise CollectiveMismatchError(
                f"{name}: rendezvous mismatch — all ranks must agree on "
                f"op and shape ({detail})"
            )

    def _record(
        self,
        streams: Mapping[int, Stream],
        start: float,
        end: float,
        name: str,
        stage: Optional[int],
        nbytes: int,
        flops: float = 0.0,
        event_names: Optional[Mapping[int, str]] = None,
    ) -> Dict[int, Event]:
        """Advance every rank's stream to ``end`` and record the op.

        ``flops`` is the per-rank reduction arithmetic of reducing
        collectives (allreduce/reduce); pure data movement passes 0.
        ``event_names`` optionally supplies precomputed per-rank event
        names (the planned-broadcast path caches them across epochs).
        """
        events: Dict[int, Event] = {}
        record_trace = self.engine.record_trace
        telemetry = getattr(self.engine, "telemetry", None)
        build_events = record_trace or (
            telemetry is not None and getattr(telemetry, "trace_ops", False)
        )
        duration = end - start
        for rank in self.ranks:
            stream = streams[rank]
            stream.ready_time = end
            ev = Event(
                name=event_names[rank] if event_names is not None
                else f"{name}@{rank}"
            )
            ev.time = end
            events[rank] = ev
            if build_events:
                trace_ev = TraceEvent(
                    device=stream.device.name,
                    stream=stream.name,
                    name=name,
                    category="comm",
                    start=start,
                    end=end,
                    stage=stage,
                    nbytes=nbytes,
                    flops=flops,
                )
                if record_trace:
                    self.engine.record_event(trace_ev)
                if telemetry is not None:
                    telemetry.on_op(trace_ev)
            elif telemetry is not None:
                # metrics-only fast path: no event object needed
                telemetry.on_op_values(
                    "comm", stream.device.name, duration, nbytes, flops
                )
        if telemetry is not None:
            # link-tier accounting: one entry per collective (the payload
            # crossing the wire), not per rank — getattr keeps the engine
            # compatible with duck-typed telemetry stand-ins.
            on_comm = getattr(telemetry, "on_comm", None)
            if on_comm is not None:
                on_comm(self.link_class, duration, nbytes)
        return events

    def _rendezvous(
        self,
        streams: Mapping[int, Stream],
        fixed: float,
        bw_time: float,
        name: str,
        deps_by_rank: Optional[Mapping[int, Sequence[Event]]] = None,
        stage: Optional[int] = None,
        nbytes: int = 0,
        compute: Optional[Callable[[], object]] = None,
        flops: float = 0.0,
    ) -> Dict[int, Event]:
        """Start all ranks together; finish all ranks together.

        ``fixed`` is the bandwidth-independent part of the duration
        (launch overhead + latency), ``bw_time`` the bandwidth term —
        kept separate so an active link-degradation window can rescale
        only the bytes-on-the-wire portion.

        ``compute`` is the collective's functional data-movement closure
        (already executed by the caller); recorded only when an epoch
        capture is attached to the engine.
        """
        deps_by_rank = deps_by_rank or {}
        start = 0.0
        for rank in self.ranks:
            stream = streams[rank]
            start = max(start, stream.consume_waits())
            for dep in deps_by_rank.get(rank, ()):
                start = max(start, dep.require_time())

        injector = self.fault_injector
        if injector is None or injector.is_trivial:
            duration = fixed + bw_time
            events = self._record(
                streams, start, start + duration, name, stage, nbytes,
                flops=flops,
            )
            capture = self.engine.capture
            if capture is not None:
                # the *captured duration* (not end - start) is what replay
                # adds back, keeping the timeline bit-exact.
                flat_deps: List[Event] = []
                for rank in self.ranks:
                    flat_deps.extend(deps_by_rank.get(rank, ()))
                capture.record_collective(
                    streams=[streams[r] for r in self.ranks],
                    events=[events[r] for r in self.ranks],
                    name=name,
                    duration=duration,
                    deps=flat_deps,
                    stage=stage,
                    nbytes=nbytes,
                    compute=compute,
                    flops=flops,
                    link_class=self.link_class,
                )
            return events
        return self._faulty_rendezvous(
            injector, streams, start, fixed, bw_time, name, stage, nbytes,
            flops=flops,
        )

    def _faulty_rendezvous(
        self,
        injector,
        streams: Mapping[int, Stream],
        start: float,
        fixed: float,
        bw_time: float,
        name: str,
        stage: Optional[int],
        nbytes: int,
        flops: float = 0.0,
    ) -> Dict[int, Event]:
        """Rendezvous under an active fault plan: degrade, retry, or die."""
        if self.engine.capture is not None:
            raise PlanError(
                f"{name}: cannot capture a collective under an active fault "
                "plan — replay would mask retries, degradation, or failures"
            )
        telemetry = getattr(self.engine, "telemetry", None)
        attempts = 0
        t = start
        while True:
            factor = self.topology.bandwidth_factor(t, self.ranks)
            duration = fixed + (bw_time / factor if factor != 1.0 else bw_time)
            watchdog = self.timeout if self.timeout is not None else duration

            dead = injector.first_failure_among(self.ranks, t + duration)
            if dead is not None:
                # a participant dies before the op can complete: the
                # collective hangs until the watchdog fires on the
                # survivors, then the failure surfaces.
                detect = max(t, dead.time) + watchdog
                self._record(streams, t, detect, f"{name}/timeout", stage, 0)
                if telemetry is not None:
                    telemetry.inc("repro_comm_timeouts_total", op=name)
                raise DeviceFailedError(
                    device=f"gpu{dead.rank}",
                    rank=dead.rank,
                    failed_at=dead.time,
                    detected_at=detect,
                )

            if injector.take_collective_fault(t):
                if attempts >= self.retry.max_retries:
                    self._record(
                        streams, t, t + watchdog, f"{name}/timeout", stage, 0
                    )
                    if telemetry is not None:
                        telemetry.inc("repro_comm_timeouts_total", op=name)
                    raise CollectiveTimeoutError(
                        name, attempts + 1, (t + watchdog) - start
                    )
                delay = watchdog + self.retry.backoff(attempts)
                self._record(
                    streams, t, t + delay, f"{name}/retry{attempts}", stage, 0
                )
                if telemetry is not None:
                    telemetry.inc("repro_comm_retries_total", op=name)
                t += delay
                attempts += 1
                continue

            return self._record(
                streams, t, t + duration, name, stage, nbytes, flops=flops
            )

    # -- cost terms: (fixed, bw_time) of one rendezvous on this rank set ----
    #
    # The only place the collective bandwidth model is read. ``fixed`` is
    # the bandwidth-independent part (launch overhead + hop latency;
    # allgather has no launch term), ``bw_time`` the bytes on the wire
    # over the effective bandwidth. ``tree=True`` prices the binary-tree
    # algorithm the inter-node leader tier runs: ``ceil(log2 P)`` hops
    # instead of the ring's ``P - 1``. A single rank costs nothing.

    def _broadcast_terms(
        self, root: int, nbytes: int, tree: bool = False
    ) -> Tuple[float, float]:
        """Pipelined broadcast of ``nbytes`` from ``root``."""
        if self.size <= 1:
            return 0.0, 0.0
        timing = self._bcast_timing_cache.get((root, tree))
        if timing is None:
            bw = self.topology.broadcast_bandwidth(root, self.ranks) * self.bw_derate
            latency = max(
                self.topology.p2p_latency(root, r) for r in self.ranks if r != root
            )
            if tree:
                latency *= _ceil_log2(self.size)
            timing = (self.collective_overhead + latency, bw)
            self._bcast_timing_cache[(root, tree)] = timing
        fixed, bw = timing
        return fixed, nbytes / bw

    def _reduce_terms(self, nbytes: int, tree: bool = False) -> Tuple[float, float]:
        """Reduce moving ``(P-1)/P`` of the buffer."""
        if self.size <= 1:
            return 0.0, 0.0
        bw = self.topology.allreduce_bandwidth(self.ranks) * self.bw_derate
        volume = (self.size - 1) / self.size * nbytes
        hops = _ceil_log2(self.size) if tree else self.size - 1
        latency = hops * self.topology.p2p_latency(self.ranks[0], self.ranks[1])
        return self.collective_overhead + latency, volume / bw

    def _allreduce_terms(
        self, nbytes: int, tree: bool = False
    ) -> Tuple[float, float]:
        """Allreduce moving ``2 (P-1)/P`` of the buffer."""
        if self.size <= 1:
            return 0.0, 0.0
        bw = self.topology.allreduce_bandwidth(self.ranks) * self.bw_derate
        volume = 2.0 * (self.size - 1) / self.size * nbytes
        hops = 2 * (_ceil_log2(self.size) if tree else self.size - 1)
        latency = hops * self.topology.p2p_latency(self.ranks[0], self.ranks[1])
        return self.collective_overhead + latency, volume / bw

    def _allgather_terms(self, nbytes: int) -> Tuple[float, float]:
        """Ring allgather of ``nbytes`` gathered bytes."""
        if self.size <= 1:
            return 0.0, 0.0
        bw = self.topology.collective_bandwidth(self.ranks) * self.bw_derate
        volume = (self.size - 1) / self.size * nbytes
        latency = (self.size - 1) * self.topology.p2p_latency(
            self.ranks[0], self.ranks[1]
        )
        return latency, volume / bw

    def _reduction_flops(self, count: int, mean: bool = False) -> float:
        """Per-rank arithmetic of a ring reduction over ``count`` elements:
        each rank adds ``(P-1)/P`` of the buffer; a mean also divides its
        ``1/P`` shard."""
        if self.size <= 1:
            return 0.0
        flops = (self.size - 1) / self.size * count
        if mean:
            flops += count / self.size
        return flops

    # -- phase plans ---------------------------------------------------------
    #
    # What a collective runs once it is validated. The flat plan is one
    # phase on this communicator; a subclass whose collectives are shaped
    # differently (node-hierarchical tiers) overrides only these four.

    def _broadcast_phases(self, root: int, nbytes: int) -> PhasePlan:
        return [[(self, self._broadcast_terms(root, nbytes), "", nbytes, 0.0,
                  True)]]

    def _allreduce_phases(
        self, nbytes: int, count: int = 0, mean: bool = False
    ) -> PhasePlan:
        """``count`` (elements) and ``mean`` size only the FLOPs."""
        return [[(self, self._allreduce_terms(nbytes), "", nbytes,
                  self._reduction_flops(count, mean), True)]]

    def _reduce_phases(self, root: int, nbytes: int, count: int) -> PhasePlan:
        return [[(self, self._reduce_terms(nbytes), "", nbytes,
                  self._reduction_flops(count), True)]]

    def _allgather_phases(
        self, nbytes_of: Callable[[Sequence[int]], int]
    ) -> PhasePlan:
        """``nbytes_of(ranks)`` is the source bytes a rank subset holds."""
        nbytes = nbytes_of(self.ranks)
        return [[(self, self._allgather_terms(nbytes), "", nbytes, 0.0, True)]]

    def _run_plan(
        self,
        plan: PhasePlan,
        streams: Optional[Mapping[int, Stream]],
        deps_by_rank: Optional[Mapping[int, Sequence[Event]]],
        name: str,
        compute: Callable[[], object],
        stage: Optional[int] = None,
    ) -> Dict[int, Event]:
        """Run ``plan``: one rendezvous per phase, tier after tier.

        A rank's caller dependencies gate the first phase it joins; the
        payload closure (already executed by the caller) rides the phase
        flagged to carry it, so a captured plan replays the data
        movement exactly once.
        """
        pending = dict(deps_by_rank) if deps_by_rank else {}
        events: Dict[int, Event] = {}
        for tier in plan:
            for comm, (fixed, bw_time), suffix, nbytes, flops, payload in tier:
                deps = {r: pending.pop(r) for r in comm.ranks if r in pending}
                events.update(
                    comm._rendezvous(
                        comm._streams(streams), fixed, bw_time, name + suffix,
                        deps, stage, nbytes, compute if payload else None,
                        flops=flops,
                    )
                )
        return events

    @staticmethod
    def _plan_duration(plan: PhasePlan) -> float:
        """What :meth:`_run_plan` takes on idle streams, bit for bit.

        Tiers run back to back and each lasts as long as its slowest
        phase; every phase costs ``fixed + bw_time``, grouped as
        :meth:`_rendezvous` groups it.
        """
        t = 0.0
        for tier in plan:
            if tier:
                t += max(fixed + bw_time for _, (fixed, bw_time), *_ in tier)
        return t

    # -- predictors ----------------------------------------------------------

    def broadcast_duration(self, root: int, nbytes: int) -> float:
        """Predicted duration of a broadcast of ``nbytes`` from ``root``.

        Used by the overlap scheduler to size the bandwidth-sharing
        window of the SpMM that runs concurrently with the broadcast.
        """
        key = (root, nbytes)
        duration = self._bcast_duration_cache.get(key)
        if duration is None:
            duration = self._plan_duration(self._broadcast_phases(root, nbytes))
            self._bcast_duration_cache[key] = duration
        return duration

    def allreduce_duration(self, nbytes: int) -> float:
        """Predicted duration of an allreduce of ``nbytes`` per rank.

        Used by the parallelism planner (:mod:`repro.parallel.planner`)
        so its predictions share the simulator's communication model.
        """
        return self._plan_duration(self._allreduce_phases(nbytes))

    def allgather_duration(self, total_nbytes: int) -> float:
        """Predicted duration of an allgather moving ``total_nbytes``.

        ``total_nbytes`` is the sum of all ranks' source buffers (the
        gathered payload size), assumed spread evenly over the ranks.
        """
        size = self.size
        return self._plan_duration(
            self._allgather_phases(lambda ranks: total_nbytes * len(ranks) // size)
        )

    # -- collectives -----------------------------------------------------------

    def broadcast(
        self,
        root: int,
        src: DeviceTensor,
        dsts: Mapping[int, DeviceTensor],
        streams: Optional[Mapping[int, Stream]] = None,
        deps_by_rank: Optional[Mapping[int, Sequence[Event]]] = None,
        stage: Optional[int] = None,
        name: str = "broadcast",
        payload_nbytes: Optional[int] = None,
        copy_fn: Optional[Callable[[], None]] = None,
    ) -> Dict[int, Event]:
        """Broadcast ``src`` (on ``root``) into each non-root rank's ``dsts``.

        ``dsts`` maps rank -> destination tensor (the root may be omitted
        or map to its own tile; it is not copied to itself).

        Partial (sub-row) broadcasts — the training-time embedding cache
        serving part of a tile locally — pass ``payload_nbytes`` (the
        bytes actually on the wire; timing, trace ``nbytes`` and the
        telemetry link accounting of every phase all use it instead of
        the full tile size) and ``copy_fn``, the data movement replacing
        the full copy. Destination *shapes* still rendezvous on the full
        tile: every rank posts the same buffer, only the payload shrinks.
        """
        if root not in self.ranks:
            raise CommunicationError(f"broadcast root {root} not in {self.ranks}")
        shapes: Dict[int, Optional[Tuple[int, ...]]] = {root: src.shape}
        for rank in self.ranks:
            if rank == root:
                continue
            dst = dsts.get(rank)
            shapes[rank] = dst.shape if dst is not None else None
        self._check_rendezvous(name, shapes)

        def full_copy() -> None:
            src_data = src.data
            if src_data is None:
                return
            for rank, dst in dsts.items():
                if rank != root and dst.data is not None:
                    np.copyto(dst.data, src_data)

        compute = copy_fn if copy_fn is not None else full_copy
        compute()
        nbytes = src.nbytes if payload_nbytes is None else int(payload_nbytes)
        return self._run_plan(
            self._broadcast_phases(root, nbytes), streams, deps_by_rank, name,
            compute, stage,
        )

    def plan_broadcast(
        self,
        root: int,
        src: DeviceTensor,
        dsts: Mapping[int, DeviceTensor],
        name: str = "broadcast",
        payload_nbytes: Optional[int] = None,
        copy_fn: Optional[Callable[[], None]] = None,
    ) -> tuple:
        """Precompute the epoch-invariant half of a pipelined broadcast.

        Shapes, streams, the duration (root/nbytes/bandwidth are all
        frozen for the communicator's lifetime, like the broadcast
        terms cache), and the per-rank event-name strings never change
        across epochs — only the start floor does. The returned plan is
        an opaque tuple for :meth:`broadcast_replay`; it is the flat
        one-phase broadcast, so only callers of a communicator whose
        :attr:`plans_broadcasts` holds may use it.

        ``payload_nbytes``/``copy_fn`` mirror :meth:`broadcast`: a
        partial (cached) broadcast freezes its wire bytes and custom
        data movement into the plan. The caller must invalidate the
        plan when the cache state changes (the stage-plan cache in
        :mod:`repro.core.spmm_mg` keys on the cache's plan token).
        """
        nbytes = src.nbytes if payload_nbytes is None else int(payload_nbytes)
        fixed, bw_time = self._broadcast_terms(root, nbytes)
        # same float grouping as _rendezvous: duration built first, then
        # added to the start at replay time.
        duration = fixed + bw_time
        ctx = self.ctx
        streams = {r: ctx.device(r).comm_stream for r in self.ranks}
        copy_dsts = tuple(
            dst for rank, dst in dsts.items() if rank != root
        )
        event_names = {r: f"{name}@{r}" for r in self.ranks}
        return (src, copy_dsts, streams, duration, name, event_names,
                nbytes, copy_fn)

    def broadcast_replay(
        self,
        plan: tuple,
        start_floor: float,
        stage: Optional[int] = None,
    ) -> Dict[int, Event]:
        """Run one planned broadcast: copy payloads, advance streams.

        Identical timing, trace, and data movement to :meth:`broadcast`,
        minus the per-call validation and dependency plumbing: the caller
        (``distributed_spmm``'s batched stage loop) has already validated
        shapes by construction and folds all dependency times into
        ``start_floor``. Must only be used with no epoch capture active
        and a trivial fault injector — the caller checks both.
        """
        (src, copy_dsts, streams, duration, name, event_names, nbytes,
         copy_fn) = plan
        if copy_fn is not None:
            copy_fn()
        else:
            src_data = src.data
            if src_data is not None:
                for dst in copy_dsts:
                    if dst.data is not None:
                        np.copyto(dst.data, src_data)
        start = start_floor
        for stream in streams.values():
            t = stream.consume_waits()
            if t > start:
                start = t
        return self._record(
            streams, start, start + duration, name, stage, nbytes,
            event_names=event_names,
        )

    def allreduce(
        self,
        tensors: Mapping[int, DeviceTensor],
        op: str = "sum",
        streams: Optional[Mapping[int, Stream]] = None,
        deps_by_rank: Optional[Mapping[int, Sequence[Event]]] = None,
        name: str = "allreduce",
    ) -> Dict[int, Event]:
        """In-place allreduce across ranks (``sum`` or ``mean``)."""
        if op not in ("sum", "mean"):
            raise CommunicationError(f"unsupported allreduce op {op!r}")
        self._check_uniform(tensors, name)

        def compute() -> None:
            arrays = [
                tensors[r].data for r in self.ranks if tensors[r].data is not None
            ]
            if not arrays:
                return
            total = arrays[0].copy()
            for a in arrays[1:]:
                total += a
            if op == "mean":
                total /= self.size
            for r in self.ranks:
                if tensors[r].data is not None:
                    np.copyto(tensors[r].data, total)

        compute()
        ref = tensors[self.ranks[0]]
        return self._run_plan(
            self._allreduce_phases(ref.nbytes, ref.size, op == "mean"),
            streams, deps_by_rank, name, compute,
        )

    def reduce(
        self,
        root: int,
        tensors: Mapping[int, DeviceTensor],
        streams: Optional[Mapping[int, Stream]] = None,
        deps_by_rank: Optional[Mapping[int, Sequence[Event]]] = None,
        name: str = "reduce",
    ) -> Dict[int, Event]:
        """Sum all ranks' tensors into ``root``'s tensor (in place)."""
        if root not in self.ranks:
            raise CommunicationError(f"reduce root {root} not in {self.ranks}")
        self._check_uniform(tensors, name)
        root_tensor = tensors[root]

        def compute() -> None:
            if root_tensor.data is None:
                return
            for r in self.ranks:
                if r == root:
                    continue
                src = tensors[r]
                if src.data is not None:
                    root_tensor.data += src.data

        compute()
        return self._run_plan(
            self._reduce_phases(root, root_tensor.nbytes, root_tensor.size),
            streams, deps_by_rank, name, compute,
        )

    def allgather(
        self,
        srcs: Mapping[int, DeviceTensor],
        dsts: Mapping[int, DeviceTensor],
        row_offsets: Optional[Mapping[int, int]] = None,
        streams: Optional[Mapping[int, Stream]] = None,
        deps_by_rank: Optional[Mapping[int, Sequence[Event]]] = None,
        name: str = "allgather",
    ) -> Dict[int, Event]:
        """Gather every rank's ``srcs`` rows into every rank's ``dsts``.

        ``dsts[r]`` must have ``sum_r srcs[r].rows`` rows; ``row_offsets``
        gives each source's starting row in the gathered layout (defaults
        to rank-order concatenation).
        """
        # each rank may gather a different row count, so the rendezvous
        # agreement is on presence (src AND dst posted) and column width.
        self._check_rendezvous(
            name,
            {
                r: ((srcs[r].cols,) if r in srcs and r in dsts else None)
                for r in self.ranks
            },
        )
        total_rows = sum(srcs[r].rows for r in self.ranks)
        offsets: Dict[int, int] = {}
        if row_offsets is None:
            cursor = 0
            for r in self.ranks:
                offsets[r] = cursor
                cursor += srcs[r].rows
        else:
            offsets = dict(row_offsets)
        for r in self.ranks:
            dst = dsts[r]
            if dst.rows != total_rows:
                raise CommunicationError(
                    f"allgather: rank {r} dst has {dst.rows} rows, need {total_rows}"
                )

        def compute() -> None:
            for r in self.ranks:
                dst = dsts[r]
                if dst.data is None:
                    continue
                for s in self.ranks:
                    src = srcs[s]
                    if src.data is not None:
                        dst.data[offsets[s] : offsets[s] + src.rows] = src.data

        compute()
        return self._run_plan(
            self._allgather_phases(lambda ranks: sum(srcs[r].nbytes for r in ranks)),
            streams, deps_by_rank, name, compute,
        )

    # -- helpers ------------------------------------------------------------------

    def _check_uniform(
        self, tensors: Mapping[int, DeviceTensor], name: str = "collective"
    ) -> None:
        self._check_rendezvous(
            name,
            {r: (tensors[r].shape if r in tensors else None) for r in self.ranks},
        )
