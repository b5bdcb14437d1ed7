"""The benchmark's three workloads, driven through ``repro``'s public API.

Each workload sets up ``SETUPS`` times (reporting the median), then runs
steps until both ``--seconds`` have passed and its fixed window of
``window`` steps is complete. Host times come from every step; the
simulated-clock metrics, the memory high-waters and the output digests
come from the window alone, so they do not depend on how fast the host
ran and repeat exactly for a seed.

* ``train-eager-launch`` — a step is one ``MGGCNTrainer.train_epoch()``.
* ``train-replay-compute`` — a step is one ``TrainingLoop`` epoch (the
  interval between two ``on_epoch`` callbacks, so every
  :data:`EVAL_EVERY`-th one includes validation).
* ``serve-mixed-rw`` — a step is the traffic of one 10 ms tick of
  simulated time: ``ServingEngine.serve`` on the reads due before each
  mutation batch, then that batch's ``apply`` + ``commit`` — the order
  ``DynamicServingEngine.run`` uses — and the tick's remaining reads.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.datasets as datasets
from repro.core import MGGCNTrainer, TrainerConfig
from repro.dynamic import DynamicGraph, DynamicServingEngine, poisson_mutations
from repro.hardware import dgx1, dgx_a100
from repro.nn import GCNModelSpec
from repro.nn.init import init_weights
from repro.nn.reference import ReferenceGCN
from repro.serve import ServingConfig, ServingEngine, poisson_workload
from repro.serve.workload import InferenceRequest
from repro.telemetry import SLOMonitor, Telemetry, critical_path
from repro.telemetry import default_serving_slos
from repro.training import TrainingLoop

from tracing import OTHER, Recorder

perf = time.perf_counter

SETUPS = 5
#: steps per traced / untraced block in a traced run.
BLOCK = 4
#: loss parity against the single-device reference, first three epochs.
LOSS_RTOL, LOSS_ATOL = 1e-4, 1e-6
MB = float(1 << 20)
#: validation cadence of the replay workload. One epoch in five keeps
#: the p90 inside the validating epochs; at one in ten it would sit on
#: the boundary between the two populations and jump between them.
EVAL_EVERY = 5


def derive(seed: int, count: int) -> List[int]:
    """``count`` independent generator seeds from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


#: host times are reported at the machine speed at which one
#: :func:`calibrate` call takes exactly this long (see :class:`Steps`).
CALIB_NOMINAL_S = 5e-4
_CALIB_MATRIX = np.random.default_rng(0).random((64, 64), dtype=np.float32)


class _Slot:
    value = 0


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and small-BLAS work
    that no ``repro`` code runs in."""
    t0 = perf()
    table = {}
    slot = _Slot()
    for i in range(3000):
        slot.value = i
        table[i & 63] = slot.value + 1
    for _ in range(40):
        _CALIB_MATRIX @ _CALIB_MATRIX
    return perf() - t0


def local_speeds(calibration: List[float], count: int) -> List[float]:
    """Nominal-over-measured speed factor around each of ``count`` steps.

    ``calibration[i]`` ran just before step ``i`` and ``calibration[i+1]``
    just after it; the factor of step ``i`` uses the median of the three
    calibrations before it and the three after, which rides out a single
    interrupted one.
    """
    return [
        CALIB_NOMINAL_S / float(np.median(calibration[max(0, i - 2): i + 4]))
        for i in range(count)
    ]


class Steps:
    """Times a workload's steps from outside the program.

    A step is one or more timed parts (an epoch; a read slice and a
    commit). In a traced run, blocks of :data:`BLOCK` steps alternate
    between traced and untraced, so the two medians give the tracing
    overhead under the same conditions.

    Before the first step and after every step, untimed, :func:`calibrate`
    runs once. A shared virtual machine can switch between speeds that
    differ by half, for a second or more at a time, and interpreter and
    BLAS work slow down together; so each step's host time is reported
    at the nominal speed, scaled by :func:`local_speeds`.
    """

    def __init__(self, recorder: Optional[Recorder]):
        self.recorder = recorder
        #: ``(raw host seconds, traced)`` per finished step, in order.
        self.samples: List[Tuple[float, bool]] = []
        self.calibration: List[float] = [calibrate()]
        self._part_s = 0.0
        self._traced = False
        self._t0: Optional[float] = None

    @property
    def count(self) -> int:
        return len(self.samples)

    def start_step(self) -> None:
        self._part_s = 0.0
        self._traced = (
            self.recorder is not None and (self.count // BLOCK) % 2 == 0
        )

    def begin(self) -> None:
        if self._traced:
            self.recorder.begin("step")
        self._t0 = perf()

    def end(self) -> None:
        self._part_s += perf() - self._t0
        self._t0 = None
        if self._traced:
            self.recorder.end()

    def abort(self) -> None:
        """A part raised: drop it, untimed."""
        if self._t0 is not None:
            self._t0 = None
            if self._traced:
                self.recorder.abort()

    def finish_step(self) -> None:
        self.samples.append((self._part_s, self._traced))
        self.calibration.append(calibrate())

    def nominal(self, traced: bool) -> List[float]:
        """Speed-normalised seconds of the traced or untraced steps."""
        speeds = local_speeds(self.calibration, self.count)
        return [seconds * speed
                for (seconds, was_traced), speed in zip(self.samples, speeds)
                if was_traced == traced]

    def traced_speed(self) -> float:
        """Median speed factor over the traced steps."""
        speeds = local_speeds(self.calibration, self.count)
        traced = [speed for (_, t), speed in zip(self.samples, speeds) if t]
        return float(np.median(traced)) if traced else 1.0


def timed_setups(recorder: Optional[Recorder], build: Callable):
    """Run ``build`` :data:`SETUPS` times; returns the last state and the
    speed-normalised set-up seconds of each (calibrated by the five
    :func:`calibrate` runs just before and the five just after it)."""
    times = []
    state = None
    for _ in range(SETUPS):
        state = None
        gc.collect()
        calibration = [calibrate() for _ in range(5)]
        if recorder is not None:
            recorder.begin("setup")
        t0 = perf()
        state = build()
        seconds = perf() - t0
        if recorder is not None:
            recorder.end()
        calibration += [calibrate() for _ in range(5)]
        times.append(seconds * CALIB_NOMINAL_S / float(np.median(calibration)))
    gc.collect()
    return state, times


@dataclass
class SimTotals:
    """Simulated-clock sums over a window of trace events."""

    comm_bytes: float = 0.0
    comm_s: float = 0.0
    spmm_s: float = 0.0
    gemm_s: float = 0.0
    flops: float = 0.0

    def add(self, trace) -> None:
        for ev in trace:
            dur = ev.end - ev.start
            cat = ev.category
            if cat == "comm":
                self.comm_bytes += ev.nbytes
                self.comm_s += dur
            elif cat == "spmm":
                self.spmm_s += dur
            elif cat == "gemm":
                self.gemm_s += dur
            self.flops += ev.flops


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: List[float]
    steps: Steps
    attempted: int
    failed: int
    #: end-to-end values other than set-up and host step times.
    e2e: Dict[str, float]
    #: per-layer values measured on the simulated clock or by counting.
    sim_layers: Dict[str, float]
    notes: List[str]


def _exposed_comm_s(trace) -> float:
    return critical_path(trace).overlap_loss_seconds if trace else 0.0


def _sim_layers(totals: SimTotals, count: int, exposed_comm_s: float,
                trace_events: int) -> Dict[str, float]:
    """Per-step simulated layer metrics from ``count`` steps' totals."""
    return {
        "device.trace_events": float(trace_events),
        "comm.bytes": totals.comm_bytes / count,
        "comm.sim_ms": totals.comm_s * 1e3 / count,
        "comm.exposed_sim_ms": exposed_comm_s * 1e3,
        "kernels.sim_spmm_ms": totals.spmm_s * 1e3 / count,
        "kernels.sim_gemm_ms": totals.gemm_s * 1e3 / count,
        "kernels.gflop": totals.flops / 1e9 / count,
    }


# -- training ----------------------------------------------------------------


class _WindowDone(Exception):
    """Raised from the training loop's callback when the run is over."""


class TrainWindow:
    """The first ``size`` measured epochs: sim clock, memory, digests."""

    def __init__(self, size: int, setup_loss: float):
        self.size = size
        self.epochs = 0
        #: the set-up epoch's loss, then each window epoch's.
        self.losses = [setup_loss]
        self.sim_epoch_s: List[float] = []
        self.totals = SimTotals()
        self.last_trace = None
        self.closed: Dict[str, float] = {}

    @property
    def full(self) -> bool:
        return self.epochs >= self.size

    def add(self, stats, trainer) -> None:
        if self.full:
            return
        self.epochs += 1
        self.losses.append(stats.loss)
        self.sim_epoch_s.append(stats.epoch_time)
        self.totals.add(stats.trace)
        self.last_trace = stats.trace
        if self.full:
            self.close(trainer)

    def close(self, trainer) -> None:
        self.closed = {
            "rss_mb": peak_rss_mb(),
            "peak_mem_mb": trainer.ctx.peak_memory() / MB,
            "trace_events": float(len(trainer.ctx.engine.trace)),
        }
        self.loss_digest = digest([np.asarray(self.losses, dtype=np.float64)])
        self.weight_digest = digest(trainer.get_weights())


def _reference_mismatches(dataset, spec, config, losses) -> int:
    ref = ReferenceGCN(dataset, spec, lr=config.lr, seed=config.seed,
                       first_layer_skip=config.first_layer_skip)
    expect = ref.fit(3)
    got = np.asarray(losses[:3], dtype=np.float64)
    if got.size < 3:
        return 3 - got.size
    return int((~np.isclose(got, expect, rtol=LOSS_RTOL,
                            atol=LOSS_ATOL)).sum())


def _train_outcome(name, seed, setup_s, steps, window, trainer, dataset,
                   spec, attempted, failed, notes,
                   replays_in_window=0) -> Outcome:
    mismatches = _reference_mismatches(dataset, spec, trainer.config,
                                       window.losses)
    if mismatches:
        notes.append(f"{mismatches} of the first 3 epoch losses differ "
                     f"from ReferenceGCN")
    failed += mismatches
    if not window.full:
        notes.append(f"window incomplete: {window.epochs}/{window.size}")
        failed += 1
        window.close(trainer)
    else:
        notes.append(f"digest {name} seed={seed}: losses@{window.size + 1}="
                     f"{window.loss_digest} weights@{window.size + 1}="
                     f"{window.weight_digest}")
    sim_ms = np.asarray(window.sim_epoch_s or [0.0]) * 1e3
    e2e = {
        "sim_latency_ms_p50": float(np.percentile(sim_ms, 50)),
        "sim_latency_ms_p99": float(np.percentile(sim_ms, 99)),
        "sim_peak_mem_mb": window.closed["peak_mem_mb"],
        "peak_rss_mb": window.closed["rss_mb"],
    }
    layers = _sim_layers(window.totals, max(window.epochs, 1),
                         _exposed_comm_s(window.last_trace),
                         int(window.closed["trace_events"]))
    layers.update({
        "plan.replay_ratio": replays_in_window / max(window.epochs, 1),
        # serving-only layers, not exercised by training
        "cache.hit_rate": 0.0,
        "cache.eviction_fraction": 0.0,
        "serve.mean_batch_size": 0.0,
        "serve.sim_queue_wait_ms": 0.0,
        "dynamic.rows_rebuilt": 0.0,
    })
    return Outcome(setup_s, steps, attempted, failed, e2e, layers, notes)


def train_eager_launch(seed: int, seconds: float,
                       recorder: Optional[Recorder]) -> Outcome:
    """arxiv@0.005 on 8 DGX-1 GPUs, 4 layers of width 8, default config."""
    (ds_seed,) = derive(seed, 1)

    def build():
        dataset = datasets.load_dataset("arxiv", scale=0.005, seed=ds_seed)
        spec = GCNModelSpec.build(dataset.d0, 8, dataset.num_classes, 4)
        trainer = MGGCNTrainer(dataset, spec, machine=dgx1(), num_gpus=8,
                               config=TrainerConfig())
        first = trainer.train_epoch()
        return dataset, spec, trainer, first

    (dataset, spec, trainer, first), setup_s = timed_setups(recorder, build)
    window = TrainWindow(200, first.loss)
    steps = Steps(recorder)
    attempted = failed = 0
    notes: List[str] = []
    t_start = perf()
    while not window.full or perf() - t_start < seconds:
        attempted += 1
        steps.start_step()
        steps.begin()
        try:
            stats = trainer.train_epoch()
        except Exception as exc:  # an epoch that raises is a failed epoch
            steps.abort()
            failed += 1
            notes.append(f"epoch raised {exc!r}")
            break
        steps.end()
        steps.finish_step()
        if not np.isfinite(stats.loss):
            failed += 1
        window.add(stats, trainer)
    return _train_outcome("train-eager-launch", seed, setup_s, steps, window,
                          trainer, dataset, spec, attempted, failed, notes)


def train_replay_compute(seed: int, seconds: float,
                         recorder: Optional[Recorder]) -> Outcome:
    """arxiv@0.05 on 4 DGX-A100 GPUs, 3 layers of width 256, epoch
    capture & replay under a ``TrainingLoop`` with telemetry and
    validation every :data:`EVAL_EVERY` epochs."""
    (ds_seed,) = derive(seed, 1)

    def build():
        dataset = datasets.load_dataset("arxiv", scale=0.05, seed=ds_seed)
        spec = GCNModelSpec.build(dataset.d0, 256, dataset.num_classes, 3)
        trainer = MGGCNTrainer(dataset, spec, machine=dgx_a100(), num_gpus=4,
                               config=TrainerConfig())
        hub = Telemetry()
        loop = TrainingLoop(trainer, max_epochs=1, eval_every=EVAL_EVERY,
                            capture_epochs=True, telemetry=hub)
        loop.run()  # the capture epoch
        return dataset, spec, trainer, hub, loop.history.losses[0]

    (dataset, spec, trainer, hub, first_loss), setup_s = timed_setups(
        recorder, build)
    window = TrainWindow(40, first_loss)
    steps = Steps(recorder)
    notes: List[str] = []
    counts = {"attempted": 0, "failed": 0}
    replays_before = trainer.plan_stats.replays
    replays_in_window = 0
    t_start = perf()

    def on_epoch(epoch, stats, val_acc):
        nonlocal replays_in_window
        steps.end()
        steps.finish_step()
        if stats.loss is None or not np.isfinite(stats.loss):
            counts["failed"] += 1
        if not window.full:
            window.add(stats, trainer)
            if window.full:
                replays_in_window = (trainer.plan_stats.replays
                                     - replays_before)
        if window.full and perf() - t_start >= seconds:
            raise _WindowDone
        counts["attempted"] += 1
        steps.start_step()
        steps.begin()

    loop = TrainingLoop(trainer, max_epochs=10 ** 9, eval_every=EVAL_EVERY,
                        capture_epochs=True, telemetry=hub, on_epoch=on_epoch)
    counts["attempted"] += 1
    steps.start_step()
    steps.begin()
    try:
        loop.run()
    except _WindowDone:
        pass
    except Exception as exc:  # an epoch that raises is a failed epoch
        steps.abort()
        counts["failed"] += 1
        notes.append(f"epoch raised {exc!r}")
    plan = trainer.plan_stats
    if plan.captures != 1 or plan.invalidations != 0:
        notes.append(f"expected one capture and no invalidation, got {plan}")
        counts["failed"] += 1
    return _train_outcome("train-replay-compute", seed, setup_s, steps,
                          window, trainer, dataset, spec,
                          counts["attempted"], counts["failed"], notes,
                          replays_in_window=replays_in_window)


# -- serving -----------------------------------------------------------------

READ_RATE = 3000.0      # requests per simulated second, open loop
READ_SKEW = 1.2         # Zipf over degree rank
WRITE_RATE = READ_RATE / 20.0   # one mutation batch per ~20 reads
EDGES_PER_BATCH = 10
#: one step is the traffic of this much simulated time (~30 reads and
#: ~1.5 commits). Steps of fixed simulated length have Poisson-sized
#: work; a step per generation would have geometric-sized read slices,
#: whose tail moves the p90 from run to run.
TICK_S = 0.01
#: the streams are generated this many ticks at a time (0.5 simulated
#: seconds), so any prefix of them is the same for a seed.
CHUNK_TICKS = 50
LATENCY_SLO_S = 2e-3
HIT_RATE_TARGET = 0.5


class MixedStream:
    """Open-loop Poisson reads and writes, generated chunk by chunk."""

    def __init__(self, dataset, seed: int):
        self.dataset = dataset
        self.seed = seed
        self._next_id = 0

    @staticmethod
    def _poisson(make, rate: float, start: float, end: float, seed: int):
        """Every event of ``make``'s Poisson stream in ``[start, end)``."""
        count = int(rate * (end - start) * 1.5) + 16
        while True:
            items = list(make(count, start, seed))
            if items and items[-1].arrival >= end:
                return [x for x in items if x.arrival < end]
            count *= 2  # the prefix of a longer draw is the same draw

    def chunk(self, index: int):
        read_seed, write_seed = derive(self.seed * 1_000_003 + index, 2)
        start = index * CHUNK_TICKS * TICK_S
        end = (index + 1) * CHUNK_TICKS * TICK_S
        reads = self._poisson(
            lambda n, s, sd: poisson_workload(
                self.dataset, n, rate=READ_RATE, skew=READ_SKEW, start=s,
                seed=sd),
            READ_RATE, start, end, read_seed)
        reads = [
            InferenceRequest(self._next_id + i, r.vertices, r.arrival)
            for i, r in enumerate(reads)
        ]
        self._next_id += len(reads)
        writes = self._poisson(
            lambda n, s, sd: poisson_mutations(
                self.dataset, n, rate=WRITE_RATE,
                edges_per_batch=EDGES_PER_BATCH, skew=READ_SKEW, start=s,
                seed=sd),
            WRITE_RATE, start, end, write_seed)
        return reads, writes

    def ticks(self):
        """Per tick, its operations in ``DynamicServingEngine.run``'s
        order: ``(reads, None)`` — the reads due before the next batch or
        the tick's end — and ``(None, batch)``."""
        index = 0
        while True:
            reads, writes = self.chunk(index)
            r = w = 0
            for tick in range(CHUNK_TICKS):
                last = tick == CHUNK_TICKS - 1
                end = (index * CHUNK_TICKS + tick + 1) * TICK_S
                ops = []
                while w < len(writes) and (last or writes[w].arrival < end):
                    batch = writes[w]
                    j = r
                    while j < len(reads) and reads[j].arrival <= batch.arrival:
                        j += 1
                    if j > r:
                        ops.append((reads[r:j], None))
                        r = j
                    ops.append((None, batch))
                    w += 1
                j = r
                while j < len(reads) and (last or reads[j].arrival < end):
                    j += 1
                if j > r:
                    ops.append((reads[r:j], None))
                    r = j
                yield ops
            index += 1


def _bad_logits(reads, logits, num_classes: int) -> int:
    bad = 0
    for req in reads:
        out = logits.get(req.request_id)
        if (out is None or out.shape != (req.num_vertices, num_classes)
                or not np.isfinite(out).all()):
            bad += 1
    return bad


def _cache_resident_mb(engine, spec) -> float:
    cache = engine.cache
    nbytes = sum(
        cache.resident_vertices(layer).size * spec.layer_dims[layer] * 4
        for layer in range(spec.num_layers + 1)
    )
    return nbytes / MB


def serve_mixed_rw(seed: int, seconds: float,
                   recorder: Optional[Recorder]) -> Outcome:
    """reddit@0.002 on 4 DGX-A100 GPUs, 3 layers of width 32, a cache of
    ``n`` entries, telemetry and SLO monitoring, reads and writes mixed."""
    ds_seed, w_seed, stream_seed, check_seed = derive(seed, 4)

    def build():
        dataset = datasets.load_dataset("reddit", scale=0.002, seed=ds_seed)
        spec = GCNModelSpec.build(dataset.d0, 32, dataset.num_classes, 3)
        weights = init_weights(spec.layer_dims, seed=w_seed)
        config = ServingConfig(machine=dgx_a100(), num_gpus=4,
                               cache_entries=dataset.n)
        slo = SLOMonitor(default_serving_slos(
            LATENCY_SLO_S, hit_rate_target=HIT_RATE_TARGET))
        dyn = DynamicServingEngine(DynamicGraph(dataset), weights, spec,
                                   config=config, telemetry=Telemetry(),
                                   slo=slo)
        dyn.engine.warm_cache()
        return dataset, spec, weights, config, dyn

    (dataset, spec, weights, config, dyn), setup_s = timed_setups(
        recorder, build)
    engine = dyn.engine
    sim = engine.ctx.engine
    window_size = 200
    steps = Steps(recorder)
    counts = {"attempted": 0, "failed": 0}
    notes: List[str] = []
    trace0 = len(sim.trace)
    lookups0, hits0 = engine.cache.stats.lookups, engine.cache.stats.hits
    logit_hash = hashlib.sha256()
    cache_peak_mb = 0.0
    closed: Optional[Dict[str, float]] = None

    def close_window() -> Dict[str, float]:
        stats = engine.cache.stats
        return {"rss_mb": peak_rss_mb(), "cache_mb": cache_peak_mb,
                "requests": len(engine.metrics.records),
                "generations": len(dyn.generations),
                "trace_end": len(sim.trace),
                "lookups": stats.lookups - lookups0,
                "hits": stats.hits - hits0}

    def run_op(reads, batch) -> bool:
        """One read slice or one write, timed; False if it raised."""
        nonlocal cache_peak_mb
        if batch is not None:
            counts["attempted"] += 1
            steps.begin()
            try:
                dyn.apply(batch)
                dyn.commit(arrival=batch.arrival)
            except Exception as exc:  # a commit that raises is a failed write
                steps.abort()
                counts["failed"] += 1
                notes.append(f"commit raised {exc!r}")
                return False
            steps.end()
            return True
        counts["attempted"] += len(reads)
        steps.begin()
        try:
            result = engine.serve(reads)
        except Exception as exc:  # every read of the slice failed
            steps.abort()
            counts["failed"] += len(reads)
            notes.append(f"serve raised {exc!r}")
            return False
        steps.end()
        counts["failed"] += _bad_logits(reads, result.logits,
                                        dataset.num_classes)
        if steps.count < window_size:
            for req in reads:
                out = result.logits.get(req.request_id)
                if out is not None:
                    logit_hash.update(out.tobytes())
            cache_peak_mb = max(cache_peak_mb,
                                _cache_resident_mb(engine, spec))
        return True

    t_start = perf()
    for ops in MixedStream(dataset, stream_seed).ticks():
        if steps.count >= window_size and perf() - t_start >= seconds:
            break
        if not ops:
            continue
        steps.start_step()
        if not all(run_op(reads, batch) for reads, batch in ops):
            break
        steps.finish_step()
        if steps.count == window_size:
            closed = close_window()
    if closed is None:
        notes.append(f"window incomplete: {steps.count}/{window_size}")
        counts["failed"] += 1
        closed = close_window()
    else:
        notes.append(f"digest serve-mixed-rw seed={seed}: "
                     f"logits@{window_size}={logit_hash.hexdigest()[:16]}")

    # after the run: the live engine answers exactly as a cold engine
    # built on the final graph does.
    snapshot = dyn.graph.snapshot_dataset()
    cold = ServingEngine(snapshot, weights, spec, config=config)
    targets = datasets.sample_query_vertices(snapshot, 64, skew=READ_SKEW,
                                             seed=check_seed)
    counts["attempted"] += 1
    if not np.array_equal(engine.query(targets), cold.query(targets)):
        counts["failed"] += 1
        notes.append("live engine differs from a cold engine on the final "
                     "graph")

    records = engine.metrics.records[: closed["requests"]]
    latency_ms = np.asarray([r.latency for r in records] or [0.0]) * 1e3
    window_gens = dyn.generations[: closed["generations"]]
    flush = sum(g.cache_flush_equivalent for g in window_gens)
    evicted = sum(g.cache_entries_delta_evicted for g in window_gens)
    window_trace = sim.trace[trace0: closed["trace_end"]]
    totals = SimTotals()
    totals.add(window_trace)
    ticks = max(min(steps.count, window_size), 1)
    e2e = {
        "sim_latency_ms_p50": float(np.percentile(latency_ms, 50)),
        "sim_latency_ms_p99": float(np.percentile(latency_ms, 99)),
        "sim_peak_mem_mb": closed["cache_mb"],
        "peak_rss_mb": closed["rss_mb"],
    }
    layers = _sim_layers(totals, ticks, _exposed_comm_s(window_trace) / ticks,
                         closed["trace_end"])
    layers.update({
        "plan.replay_ratio": 0.0,
        "cache.hit_rate": closed["hits"] / max(closed["lookups"], 1),
        "cache.eviction_fraction": evicted / max(flush, 1),
        "serve.mean_batch_size": (
            float(np.mean([r.batch_size for r in records])) if records
            else 0.0),
        "serve.sim_queue_wait_ms": (
            float(np.mean([r.queue_wait for r in records])) * 1e3 if records
            else 0.0),
        "dynamic.rows_rebuilt": sum(g.rows_rebuilt for g in window_gens)
        / ticks,
    })
    return Outcome(setup_s, steps, counts["attempted"], counts["failed"],
                   e2e, layers, notes)


WORKLOADS = {
    "train-eager-launch": train_eager_launch,
    "train-replay-compute": train_replay_compute,
    "serve-mixed-rw": serve_mixed_rw,
}


# -- metrics -----------------------------------------------------------------


def end_to_end(outcome: Outcome) -> Dict[str, float]:
    host_ms = np.asarray(outcome.steps.nominal(traced=False) or [0.0]) * 1e3
    metrics = {
        "setup_s": float(np.median(outcome.setup_s)),
        "step_host_ms_p50": float(np.percentile(host_ms, 50)),
        "step_host_ms_p90": float(np.percentile(host_ms, 90)),
    }
    metrics.update(outcome.e2e)
    metrics["ok_ratio"] = 1.0 - outcome.failed / max(outcome.attempted, 1)
    return metrics


#: per-layer host metrics: name -> (scope, bucket, kind, scale). ``self``
#: is the bucket's self time, ``total`` the time inside its entries,
#: ``calls`` the number of entries; ``step`` values are per traced step,
#: ``setup`` values per set-up.
HOST_LAYERS = {
    "device.submit_ms": ("step", "device.submit", "self", 1e3),
    "device.submit_calls": ("step", "device.submit", "calls", 1.0),
    "core.spmm_ms": ("step", "core.spmm", "self", 1e3),
    "core.partition_s": ("setup", "core.partition", "self", 1.0),
    "datasets.load_s": ("setup", "datasets.load", "self", 1.0),
    "comm.host_ms": ("step", "comm.host", "self", 1e3),
    "sparse.spmm_ms": ("step", "sparse.spmm", "self", 1e3),
    "sparse.spmm_calls": ("step", "sparse.spmm", "calls", 1.0),
    "sparse.build_ms": ("step", "sparse.build", "self", 1e3),
    "backends.gemm_ms": ("step", "backends.gemm", "self", 1e3),
    "backends.other_ms": ("step", "backends.other", "self", 1e3),
    "plan.replay_ms": ("step", "plan.replay", "self", 1e3),
    "plan.capture_ms": ("setup", "plan.capture", "self", 1e3),
    "cache.lookup_ms": ("step", "cache.lookup", "self", 1e3),
    "cache.update_ms": ("step", "cache.update", "self", 1e3),
    "serve.self_ms": ("step", "serve.self", "self", 1e3),
    "dynamic.apply_ms": ("step", "dynamic.apply", "self", 1e3),
    "dynamic.graph_commit_ms": ("step", "dynamic.graph_commit", "self", 1e3),
    "dynamic.engine_ms": ("step", "dynamic.engine", "self", 1e3),
    "dynamic.invalidate_ms": ("step", "dynamic.invalidate", "self", 1e3),
    "telemetry.host_ms": ("step", "telemetry.host", "self", 1e3),
    "training.eval_ms": ("step", "training.eval", "total", 1e3),
    "trace.other_ms": ("step", OTHER, "self", 1e3),
}

#: a root's self times may miss its length by float rounding only.
TILING_TOLERANCE_S = 1e-6


def per_layer(outcome: Outcome, recorder: Recorder) -> Dict[str, float]:
    steps = outcome.steps
    scopes = recorder.scopes
    for scope in ("setup", "step"):
        err = scopes[scope].max_tiling_error
        if err > TILING_TOLERANCE_S:
            raise RuntimeError(
                f"self times miss a {scope} root's length by {err:.3g} s")
    traced = steps.nominal(traced=True)
    untraced = steps.nominal(traced=False)
    denominators = {"step": max(len(traced), 1),
                    "setup": max(len(outcome.setup_s), 1)}
    speed = steps.traced_speed()
    metrics: Dict[str, float] = {}
    for name, (scope, bucket, kind, scale) in HOST_LAYERS.items():
        totals = scopes[scope]
        if kind == "calls":
            value = totals.calls.get(bucket, 0)
        else:
            source = totals.self_s if kind == "self" else totals.total_s
            value = source.get(bucket, 0.0) * speed
        metrics[name] = value * scale / denominators[scope]
    metrics.update(outcome.sim_layers)
    metrics["trace.overhead_ratio"] = (
        float(np.median(traced) / np.median(untraced))
        if traced and untraced else 0.0)
    return metrics
