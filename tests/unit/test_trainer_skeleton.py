"""The pieces of the shared trainer skeleton, one at a time.

:class:`~repro.nn.adam.ReplicatedAdam` (replicated weights and Adam
state), :func:`~repro.core.stats.run_epoch` (epoch accounting) and the
split lookup and masked accuracy of :mod:`repro.core.base`. The
contract every trainer family honours through them is
``test_trainer_contract.py``.
"""

import numpy as np
import pytest

from repro.core import TrainerConfig
from repro.core.base import masked_accuracy, split_mask
from repro.core.stats import run_epoch
from repro.device import SimContext
from repro.dynamic import DynamicGraph, IncrementalTrainer
from repro.errors import ConfigurationError
from repro.hardware import dgx1
from repro.kernels.cost import CostModel, KernelCosts
from repro.nn.adam import ReplicatedAdam


def test_replicated_adam_layout():
    ctx = SimContext(dgx1(), num_gpus=2)
    adam = ReplicatedAdam(ctx, (5, 4, 3), lr=1e-2, seed=0)
    for rank in range(2):
        assert [w.name for w in adam.weights[rank]] == ["W0", "W1"]
        assert [g.name for g in adam.grads[rank]] == ["WG0", "WG1"]
        assert [m.allocation.tag for m in adam.m[rank]] == ["adam", "adam"]
        assert [v.shape for v in adam.v[rank]] == [(5, 4), (4, 3)]
        for a, b in zip(adam.weights[rank], adam.weights[0]):
            assert np.array_equal(a.data, b.data)
    assert adam.t == 0


def test_replicated_adam_first_step_moves_weights_by_lr():
    ctx = SimContext(dgx1(), num_gpus=1)
    adam = ReplicatedAdam(ctx, (2, 2), lr=1e-2, seed=0)
    cost = CostModel(dgx1().gpu, KernelCosts())
    adam.grads[0][0].load_(np.ones((2, 2), dtype=np.float32))
    before = adam.weights[0][0].copy_to_numpy()
    adam.t = 1
    adam.step(0, 0, cost)
    # the first bias-corrected Adam step moves every weight by lr.
    np.testing.assert_allclose(before - adam.weights[0][0].data, 1e-2,
                               rtol=1e-4)


def test_run_epoch_accounts_only_the_body():
    ctx = SimContext(dgx1(), num_gpus=2)
    stream = ctx.device(1).compute_stream
    ctx.engine.submit(stream, "before", "gemm", 1.0)

    def body():
        ctx.engine.submit(stream, "body", "gemm", 2.0)
        return 0.5

    stats = run_epoch(ctx, body)
    assert stats.epoch_time == 2.0
    assert stats.loss == 0.5
    assert [e.name for e in stats.trace] == ["body"]
    assert stats.breakdown.totals == {"gemm": 2.0}


def test_split_lookup_and_accuracy():
    class Source:
        train_mask = np.array([True, False])
        val_mask = np.array([False, False])
        test_mask = None

    assert split_mask(Source, "train") is Source.train_mask
    with pytest.raises(ConfigurationError, match="unknown split"):
        split_mask(Source, "validation")
    logits = np.array([[0.0, 1.0], [1.0, 0.0]])
    labels = np.array([1, 1])
    assert masked_accuracy([(logits, labels, np.array([True, True]))],
                           "train") == 0.5
    for split in ("val", "test"):
        with pytest.raises(ConfigurationError, match="empty"):
            masked_accuracy(
                [(logits, labels, split_mask(Source, split))], split
            )


def test_incremental_trainer_rejects_unknown_split(tiny_dataset, tiny_model):
    inc = IncrementalTrainer(DynamicGraph(tiny_dataset), tiny_model,
                             num_gpus=2, config=TrainerConfig(seed=1))
    assert inc.validation_loss("train") > 0.0
    with pytest.raises(ConfigurationError, match="unknown split"):
        inc.validation_loss("holdout")
