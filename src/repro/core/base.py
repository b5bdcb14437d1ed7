"""The skeleton every GCN trainer shares.

MG-GCN and its baselines (CAGNET 1D/1.5D/2D, DGL-like, mini-batch)
differ in how they distribute and schedule an epoch, not in how they
check the model against the dataset, count epochs, score a split or
expose their weights. :class:`TrainerBase` holds that common part once,
so the comparisons of §6 are like for like.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.stats import EpochStats, run_epoch
from repro.device.engine import SimContext
from repro.device.tensor import Mode
from repro.errors import ConfigurationError
from repro.nn.adam import ReplicatedAdam
from repro.nn.model import GCNModelSpec

#: the dataset splits a trainer can be scored on.
SPLITS = ("train", "val", "test")


def split_mask(source: object, split: str, per_rank: bool = False):
    """``source``'s mask of ``split``: its ``<split>_mask`` attribute, or
    ``<split>_masks`` (one mask per rank) when ``per_rank`` is set."""
    if split not in SPLITS:
        raise ConfigurationError(f"unknown split {split!r}")
    return getattr(source, f"{split}_masks" if per_rank else f"{split}_mask")


def masked_accuracy(
    rows: Iterable[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]],
    split: str,
) -> float:
    """Argmax accuracy over the masked rows of ``(logits, labels, mask)``
    parts (one per rank or row block); raises on an empty split."""
    correct = 0
    count = 0
    for logits, labels, mask in rows:
        if mask is None or not mask.any():
            continue
        pred = np.argmax(logits[mask], axis=1)
        correct += int((pred == labels[mask]).sum())
        count += int(mask.sum())
    if count == 0:
        raise ConfigurationError(f"empty {split!r} split")
    return correct / count


class TrainerBase:
    """Shared trainer plumbing.

    A subclass builds ``self.ctx`` and, unless it keeps host weights of
    its own, a :class:`~repro.nn.adam.ReplicatedAdam` as ``self.adam``;
    it runs each epoch through :meth:`_run_epoch` and yields the scored
    rows of a split from :meth:`_scored_rows`.
    """

    ctx: SimContext
    adam: ReplicatedAdam

    def __init__(self, dataset, model: GCNModelSpec):
        if model.layer_dims[0] != dataset.d0:
            raise ConfigurationError(
                f"model input width {model.layer_dims[0]} != "
                f"dataset d0 {dataset.d0}"
            )
        if model.layer_dims[-1] != dataset.num_classes:
            raise ConfigurationError(
                f"model output width {model.layer_dims[-1]} != "
                f"num_classes {dataset.num_classes}"
            )
        self.dataset = dataset
        self.model = model
        self.epochs_trained = 0

    @property
    def mode(self) -> Mode:
        return self.ctx.mode

    def get_weights(self) -> List[np.ndarray]:
        """Host copies of the (rank-0) weights, functional mode only."""
        return [w.copy_to_numpy() for w in self.adam.weights[0]]

    def fit(self, epochs: int) -> List[EpochStats]:
        """Train ``epochs`` epochs; returns per-epoch stats."""
        if epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {epochs}")
        return [self.train_epoch() for _ in range(epochs)]

    def _run_epoch(self, body: Callable[[], Optional[float]]) -> EpochStats:
        """:func:`~repro.core.stats.run_epoch`, counting the epoch once
        ``body`` has completed."""
        stats = run_epoch(self.ctx, body)
        self.epochs_trained += 1
        return stats

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, split: str = "test") -> float:
        """Accuracy over ``split`` ('train' | 'val' | 'test'), functional only.

        Runs a fresh forward pass, which clobbers the trainer's buffers
        (safe between epochs).
        """
        if self.mode is not Mode.FUNCTIONAL:
            raise ConfigurationError("evaluate() requires functional mode")
        return masked_accuracy(self._scored_rows(split), split)

    def _scored_rows(self, split: str):
        """``(logits, labels, mask)`` per scored part, after a forward pass."""
        raise NotImplementedError
