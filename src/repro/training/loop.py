"""A training loop with validation tracking and early stopping.

The paper reports end-to-end results like "a test accuracy of 95.95% …
after 466 epochs … in only 1 minute" — epochs-until-target plus total
(simulated) wall time. :class:`TrainingLoop` provides that protocol for
any trainer exposing ``train_epoch() -> EpochStats`` and
``evaluate(split) -> float`` (MG-GCN, the DGL-like baseline, …).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.stats import EpochStats
from repro.errors import ConfigurationError, DeviceFailedError


@dataclass
class TrainingHistory:
    """Per-epoch records accumulated by the loop."""

    losses: List[float] = field(default_factory=list)
    val_accuracies: List[Optional[float]] = field(default_factory=list)
    epoch_times: List[float] = field(default_factory=list)
    #: epoch numbers (1-based) at which an elastic recovery happened.
    recoveries: List[int] = field(default_factory=list)
    # incremental accumulator behind total_simulated_time: the running
    # sum and how many epoch_times entries it already covers.
    _time_sum: float = field(default=0.0, init=False, repr=False, compare=False)
    _time_cursor: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def epochs(self) -> int:
        return len(self.losses)

    @property
    def total_simulated_time(self) -> float:
        """Total simulated seconds across all recorded epochs.

        Accumulated incrementally: each call only sums the epochs
        appended since the last one (O(new) instead of O(all), which
        mattered once per-epoch callbacks started reading it every
        epoch). Entries appended externally are picked up by the
        catch-up loop; replacing/truncating the list resets the sum.
        """
        times = self.epoch_times
        n = len(times)
        if n < self._time_cursor:
            self._time_sum = 0.0
            self._time_cursor = 0
        while self._time_cursor < n:
            self._time_sum += times[self._time_cursor]
            self._time_cursor += 1
        return self._time_sum

    @property
    def best_val_accuracy(self) -> Optional[float]:
        vals = [a for a in self.val_accuracies if a is not None]
        return max(vals) if vals else None


class EarlyStopping:
    """Patience-based early stopping on validation accuracy."""

    def __init__(self, patience: int = 10, min_delta: float = 0.0):
        if patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {patience}")
        if min_delta < 0:
            raise ConfigurationError(f"min_delta must be >= 0, got {min_delta}")
        self.patience = patience
        self.min_delta = min_delta
        self.best: Optional[float] = None
        self.stale = 0

    def update(self, value: float) -> bool:
        """Record a new validation value; returns True to STOP."""
        if self.best is None or value > self.best + self.min_delta:
            self.best = value
            self.stale = 0
            return False
        self.stale += 1
        return self.stale >= self.patience


class TrainingLoop:
    """Drives a trainer for up to ``max_epochs``, with optional stopping.

    Parameters
    ----------
    trainer:
        Any object with ``train_epoch()`` and (if validation is used)
        ``evaluate(split)``.
    max_epochs:
        Hard epoch cap.
    eval_every:
        Validate every N epochs (0 disables validation entirely).
    early_stopping:
        Optional :class:`EarlyStopping` applied to validation accuracy.
    target_accuracy:
        Stop as soon as validation accuracy reaches this value (the
        paper's epochs-to-accuracy protocol).
    on_epoch:
        Optional callback ``(epoch, stats, val_acc)`` for logging.
    recover_on_failure:
        When True and the trainer exposes ``recover(exc)`` (e.g.
        :class:`~repro.resilience.recovery.ElasticTrainer` with
        ``auto_recover=False``), a :class:`DeviceFailedError` raised
        mid-epoch triggers recovery and the epoch is retried on the
        shrunken world instead of aborting the loop.
    capture_epochs:
        Opt-in epoch capture & replay (:mod:`repro.plan`): sets the
        trainer's ``capture_epochs`` flag so epoch 1 warms up eagerly,
        epoch 2 is recorded and later epochs replay its execution plan.
        False leaves the trainer's own setting. The trainer itself
        falls back to eager scheduling while a fault plan is active and
        recaptures after elastic recovery re-partitions the graph.
        Requires a trainer that supports the flag.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` hub. The loop
        attaches it to the trainer's engine (re-attaching after elastic
        recovery swaps the engine), wraps every epoch in an
        ``epoch-<n>``-correlated span, records loss/epoch-time
        instruments, and samples the derived per-epoch gauges (overlap
        efficiency, straggler skew, roofline fractions) from the
        epoch's trace.
    anomaly_detector:
        Optional :class:`~repro.telemetry.slo.EpochTimeAnomalyDetector`
        scoring each epoch time against the rolling median + MAD of
        recent epochs. Defaults to a fresh detector whenever a
        telemetry hub is attached; pass one explicitly to tune the
        window, or without a hub to still collect ``.anomalies``.
    critpath_every:
        Also run critical-path attribution every N epochs (0 = only on
        anomalies). Reports land in :attr:`critpath_reports` and the
        ``repro_critpath_*`` gauges.
    """

    def __init__(
        self,
        trainer,
        max_epochs: int = 100,
        eval_every: int = 5,
        eval_split: str = "val",
        early_stopping: Optional[EarlyStopping] = None,
        target_accuracy: Optional[float] = None,
        on_epoch: Optional[Callable[[int, EpochStats, Optional[float]], None]] = None,
        recover_on_failure: bool = False,
        capture_epochs: bool = False,
        telemetry=None,
        anomaly_detector=None,
        critpath_every: int = 0,
    ):
        if max_epochs < 1:
            raise ConfigurationError(f"max_epochs must be >= 1, got {max_epochs}")
        if eval_every < 0:
            raise ConfigurationError(f"eval_every must be >= 0, got {eval_every}")
        if target_accuracy is not None and not (0.0 < target_accuracy <= 1.0):
            raise ConfigurationError(
                f"target_accuracy must be in (0, 1], got {target_accuracy}"
            )
        if (early_stopping or target_accuracy) and eval_every == 0:
            raise ConfigurationError(
                "early stopping / target accuracy need eval_every > 0"
            )
        self.trainer = trainer
        self.max_epochs = max_epochs
        self.eval_every = eval_every
        self.eval_split = eval_split
        self.early_stopping = early_stopping
        self.target_accuracy = target_accuracy
        self.on_epoch = on_epoch
        self.recover_on_failure = recover_on_failure
        if capture_epochs:
            if not hasattr(trainer, "capture_epochs"):
                raise ConfigurationError(
                    "capture_epochs=True requires a trainer supporting "
                    "epoch capture & replay (repro.plan)"
                )
            trainer.capture_epochs = True
        if critpath_every < 0:
            raise ConfigurationError(
                f"critpath_every must be >= 0, got {critpath_every}"
            )
        self.telemetry = telemetry
        if anomaly_detector is None and telemetry is not None:
            from repro.telemetry.slo import EpochTimeAnomalyDetector

            anomaly_detector = EpochTimeAnomalyDetector()
        #: rolling median + MAD detector over epoch times; always on
        #: when a telemetry hub is attached.
        self.anomaly_detector = anomaly_detector
        #: analyze the critical path every N epochs (0 = only when an
        #: epoch-time anomaly fires).
        self.critpath_every = critpath_every
        #: epoch (1-based) -> CritPathReport for analyzed epochs.
        self.critpath_reports = {}
        self.history = TrainingHistory()
        self.stopped_reason: Optional[str] = None

    # -- telemetry plumbing --------------------------------------------------

    def _engine(self):
        ctx = getattr(self.trainer, "ctx", None)
        return getattr(ctx, "engine", None)

    def _attach_telemetry(self) -> None:
        """Point the trainer's (possibly new) engine at the hub.

        Elastic recovery rebuilds the trainer around a fresh SimContext,
        so this runs before every epoch, not just once.
        """
        engine = self._engine()
        if engine is not None:
            engine.telemetry = self.telemetry

    def _clock(self) -> float:
        ctx = getattr(self.trainer, "ctx", None)
        return ctx.elapsed() if ctx is not None else 0.0

    def _check_epoch_health(self, epoch: int, stats: EpochStats) -> None:
        """Anomaly-score the epoch time; attribute slow epochs.

        Anomalous epochs (and every ``critpath_every``-th one) get a
        critical-path report published into the registry, kept in
        :attr:`critpath_reports`, and noted in the flight recorder — so
        "why was epoch 7 slow" is answered from the run itself.
        """
        telemetry = self.telemetry
        anomaly = None
        if self.anomaly_detector is not None:
            anomaly = self.anomaly_detector.update(epoch, stats.epoch_time)
            if telemetry is not None:
                if anomaly is not None:
                    telemetry.inc("repro_epoch_anomalies_total")
                    telemetry.set_gauge("repro_epoch_anomaly_z", anomaly.z)
                    flight_note = getattr(telemetry, "flight_note", None)
                    if flight_note is not None:
                        flight_note(
                            "epoch_anomaly",
                            time=self._clock(),
                            epoch=epoch,
                            seconds=stats.epoch_time,
                            median=anomaly.median,
                            z=anomaly.z,
                        )
        scheduled = self.critpath_every and epoch % self.critpath_every == 0
        if (anomaly is None and not scheduled) or telemetry is None:
            return
        trace = getattr(stats, "trace", None)
        if not trace:
            return
        from repro.telemetry.critpath import critical_path, publish_critpath

        report = critical_path(trace)
        self.critpath_reports[epoch] = report
        publish_critpath(telemetry, report, epoch=epoch)

    def _sample_derived(self, stats: EpochStats, epoch: int) -> None:
        trace = getattr(stats, "trace", None)
        if not trace:
            return
        from repro.telemetry.derived import sample_epoch

        ctx = getattr(self.trainer, "ctx", None)
        cost_models = getattr(self.trainer, "cost_models", None)
        sample_epoch(
            self.telemetry,
            trace,
            machine=getattr(ctx, "machine", None),
            cost_model=cost_models[0] if cost_models else None,
            epoch_time=stats.epoch_time,
            epoch=epoch,
        )

    def run(self) -> TrainingHistory:
        """Train until a stop condition fires; returns the history."""
        telemetry = self.telemetry
        for epoch in range(1, self.max_epochs + 1):
            span = None
            if telemetry is not None:
                self._attach_telemetry()
                span = telemetry.tracer.begin(
                    f"epoch-{epoch}",
                    self._clock(),
                    correlation=f"epoch-{epoch}",
                    category="training",
                )
            try:
                while True:
                    try:
                        stats = self.trainer.train_epoch()
                    except DeviceFailedError as exc:
                        recover = getattr(self.trainer, "recover", None)
                        if not self.recover_on_failure or not callable(recover):
                            raise
                        recover(exc)
                        self.history.recoveries.append(epoch)
                        if telemetry is not None:
                            self._attach_telemetry()
                        continue  # retry this epoch on the shrunken world
                    break
            finally:
                if span is not None:
                    telemetry.tracer.end(span, self._clock())
            if telemetry is not None:
                telemetry.inc("repro_train_epochs_total")
                telemetry.observe("repro_train_epoch_seconds", stats.epoch_time)
                if stats.loss is not None:
                    telemetry.set_gauge("repro_train_loss", stats.loss)
                self._sample_derived(stats, epoch)
            self._check_epoch_health(epoch, stats)
            val_acc: Optional[float] = None
            if self.eval_every and epoch % self.eval_every == 0:
                val_acc = self.trainer.evaluate(self.eval_split)
                if telemetry is not None:
                    telemetry.set_gauge("repro_val_accuracy", val_acc)
            self.history.losses.append(
                stats.loss if stats.loss is not None else float("nan")
            )
            self.history.val_accuracies.append(val_acc)
            self.history.epoch_times.append(stats.epoch_time)
            if self.on_epoch is not None:
                self.on_epoch(epoch, stats, val_acc)
            if val_acc is not None:
                if (
                    self.target_accuracy is not None
                    and val_acc >= self.target_accuracy
                ):
                    self.stopped_reason = "target_accuracy"
                    break
                if self.early_stopping is not None and self.early_stopping.update(
                    val_acc
                ):
                    self.stopped_reason = "early_stopping"
                    break
        else:
            self.stopped_reason = "max_epochs"
        return self.history
