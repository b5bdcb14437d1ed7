"""Warm-start retraining on a mutated graph.

When the graph changes, the model serving it is stale — but rarely *very*
stale: a few thousand edge flips barely move the loss surface, so
restarting Adam from random init throws away almost-converged weights.
:class:`IncrementalTrainer` reuses the elastic-recovery machinery
(:mod:`repro.resilience.recovery`'s checkpoint-restore -> repartition ->
continue protocol) across *generation* boundaries instead of *failure*
boundaries: checkpoint the live trainer (weights + Adam moments), build
a fresh :class:`~repro.core.trainer.MGGCNTrainer` on the mutated
snapshot (which re-permutes and re-partitions it), restore the
checkpoint into it, and keep training.

:meth:`IncrementalTrainer.compare_to_scratch` quantifies the payoff:
train a from-scratch trainer for ``scratch_epochs``, take its final
validation loss as the target, and count how many epochs the
warm-started trainer needs to match it — the benchmark gates that the
warm count is *strictly* smaller.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.core.base import split_mask
from repro.core.trainer import MGGCNTrainer, TrainerConfig
from repro.dynamic.graph import DynamicGraph
from repro.errors import ConfigurationError
from repro.nn.checkpoint import load_checkpoint, save_checkpoint
from repro.nn.model import GCNModelSpec
from repro.sparse.csr import CSRMatrix


def full_batch_loss(
    a_hat_t: CSRMatrix,
    features: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
    weights: Sequence[np.ndarray],
) -> float:
    """Masked softmax cross-entropy of a full-batch forward.

    Partitioning-independent (plain NumPy over the whole graph, the
    :class:`~repro.nn.reference.ReferenceGCN` arithmetic), so warm and
    scratch trainers are compared on identical ground regardless of how
    each sharded the graph. Averaged over the masked vertex count.
    """
    rows = np.nonzero(mask)[0]
    if rows.size == 0:
        raise ConfigurationError("full_batch_loss: empty evaluation mask")
    h = features
    L = len(weights)
    for l, w in enumerate(weights):
        hw = h @ w
        ahw = a_hat_t.spmm(hw)
        if l < L - 1:
            np.maximum(ahw, 0.0, out=ahw)
        h = ahw.astype(FLOAT_DTYPE, copy=False)
    sub = h[rows]
    shifted = sub - sub.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    picked = log_probs[np.arange(rows.size), labels[rows]]
    return float(-picked.sum() / rows.size)


@dataclass(frozen=True)
class RetrainReport:
    """Warm-start vs from-scratch convergence on one mutated generation."""

    target_loss: float
    warm_epochs: int
    scratch_epochs: int
    warm_losses: Tuple[float, ...]
    scratch_losses: Tuple[float, ...]
    warm_reached_target: bool

    @property
    def epochs_saved(self) -> int:
        return self.scratch_epochs - self.warm_epochs


class IncrementalTrainer:
    """A trainer that follows a :class:`DynamicGraph` across generations."""

    def __init__(
        self,
        graph: DynamicGraph,
        model: GCNModelSpec,
        machine=None,
        num_gpus: Optional[int] = None,
        config: Optional[TrainerConfig] = None,
        checkpoint_dir=None,
        retrain_epochs_per_generation: int = 1,
    ):
        self.graph = graph
        self.model = model
        self._machine = machine
        self._num_gpus = num_gpus
        self.config = config or TrainerConfig()
        #: epochs a DynamicServingEngine trains after each refresh();
        #: 0 disables retraining in the mixed loop.
        self.retrain_epochs_per_generation = retrain_epochs_per_generation
        if checkpoint_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(
                prefix="repro-dynamic-"
            )
            self._ckpt_dir = Path(self._tmpdir.name)
        else:
            self._tmpdir = None
            self._ckpt_dir = Path(checkpoint_dir)
            self._ckpt_dir.mkdir(parents=True, exist_ok=True)
        self.trainer = self._build_trainer()
        #: the graph generation the live trainer was built against.
        self.generation = graph.generation
        self.refreshes = 0

    def _build_trainer(self) -> MGGCNTrainer:
        return MGGCNTrainer(
            self.graph.snapshot_dataset(),
            self.model,
            machine=self._machine,
            num_gpus=self._num_gpus,
            config=self.config,
        )

    @property
    def stale(self) -> bool:
        """The graph committed past the trainer's generation."""
        return self.graph.generation != self.generation

    def refresh(self) -> MGGCNTrainer:
        """Re-anchor on the current generation, warm-starting the model.

        The ElasticTrainer protocol pointed at a generation boundary:
        checkpoint the live trainer (weights, Adam moments, epoch
        counter), rebuild on the mutated snapshot — which re-partitions
        it, giving every rank fresh tiles and a fresh plan signature —
        and restore the checkpoint into the replacement. No-op when the
        trainer is already current.
        """
        if not self.stale:
            return self.trainer
        path = self._ckpt_dir / f"gen{self.generation}.npz"
        save_checkpoint(self.trainer, path)
        replacement = self._build_trainer()
        load_checkpoint(replacement, path)
        self.trainer = replacement
        self.generation = self.graph.generation
        self.refreshes += 1
        return self.trainer

    def validation_loss(self, split: str = "val") -> float:
        """Full-batch masked loss of the live weights on the live graph."""
        return full_batch_loss(
            self.graph.a_hat_t,
            self.graph.features,
            self.graph.labels,
            split_mask(self.graph, split),
            self.trainer.get_weights(),
        )

    def train_until(
        self,
        target_loss: float,
        max_epochs: int,
        split: str = "val",
    ) -> Tuple[int, List[float]]:
        """Epochs until the masked loss reaches ``target_loss``.

        Evaluates before the first epoch (a warm start may already be
        there: 0 epochs). Returns ``(epochs, losses)`` with
        ``epochs == max_epochs`` (and a final losses entry above the
        target) when the target was not reached.
        """
        losses = [self.validation_loss(split)]
        if losses[0] <= target_loss:
            return 0, losses
        for epoch in range(1, max_epochs + 1):
            self.trainer.train_epoch()
            losses.append(self.validation_loss(split))
            if losses[-1] <= target_loss:
                return epoch, losses
        return max_epochs, losses

    def compare_to_scratch(
        self,
        scratch_epochs: int,
        max_epochs: Optional[int] = None,
        split: str = "val",
        scratch_seed_offset: int = 1,
    ) -> RetrainReport:
        """Warm-start vs scratch on the current generation.

        The scratch baseline trains a fresh random-init trainer for
        ``scratch_epochs`` on the same snapshot; its best loss is the
        target. ``scratch_seed_offset`` decorrelates the scratch init
        from the warm trainer's original one.
        """
        if self.stale:
            self.refresh()
        cfg = self.config
        scratch_cfg = TrainerConfig(
            **{
                **{
                    f: getattr(cfg, f)
                    for f in cfg.__dataclass_fields__
                },
                "seed": cfg.seed + scratch_seed_offset,
            }
        )
        scratch = MGGCNTrainer(
            self.graph.snapshot_dataset(),
            self.model,
            machine=self._machine,
            num_gpus=self._num_gpus,
            config=scratch_cfg,
        )
        mask = split_mask(self.graph, split)
        scratch_losses: List[float] = []
        for _ in range(scratch_epochs):
            scratch.train_epoch()
            scratch_losses.append(
                full_batch_loss(
                    self.graph.a_hat_t,
                    self.graph.features,
                    self.graph.labels,
                    mask,
                    scratch.get_weights(),
                )
            )
        target = min(scratch_losses)
        warm_epochs, warm_losses = self.train_until(
            target, max_epochs if max_epochs is not None else scratch_epochs,
            split=split,
        )
        return RetrainReport(
            target_loss=target,
            warm_epochs=warm_epochs,
            scratch_epochs=scratch_epochs,
            warm_losses=tuple(warm_losses),
            scratch_losses=tuple(scratch_losses),
            warm_reached_target=warm_losses[-1] <= target,
        )
