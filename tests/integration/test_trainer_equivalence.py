"""Functional equivalence: every trainer produces the oracle's weights.

This is the reproduction's central correctness claim: the multi-GPU
schedule (partitioned SpMM, broadcast tiles, buffer reuse, fused
epilogues, gradient allreduce) computes *exactly* the same training
trajectory as a single-process NumPy GCN, for every GPU count and every
combination of the paper's optimisations.
"""

import numpy as np
import pytest

from repro.baselines import CAGNETTrainer, DGLLikeTrainer
from repro.core import MGGCNTrainer, TrainerConfig
from repro.hardware import dgx1, dgx_a100
from repro.nn import GCNModelSpec, ReferenceGCN

EPOCHS = 4
RTOL, ATOL = 5e-3, 5e-5


def _assert_weights_match(trainer_weights, ref_weights, label):
    for layer, (a, b) in enumerate(zip(trainer_weights, ref_weights)):
        assert np.allclose(a, b, rtol=RTOL, atol=ATOL), (
            f"{label}: layer {layer} max err {np.abs(a - b).max()}"
        )


@pytest.mark.parametrize("gpus", [1, 2, 3, 4, 8])
def test_mggcn_matches_reference_all_gpu_counts(small_dataset, small_model, gpus):
    cfg = TrainerConfig(first_layer_skip=False, seed=21)
    trainer = MGGCNTrainer(
        small_dataset, small_model, machine=dgx1(), num_gpus=gpus, config=cfg
    )
    ref = ReferenceGCN(small_dataset, small_model, seed=21, first_layer_skip=False)
    for _ in range(EPOCHS):
        stats = trainer.train_epoch()
        ref_loss = ref.train_epoch()
        assert stats.loss == pytest.approx(ref_loss, rel=1e-4, abs=1e-6)
    _assert_weights_match(trainer.get_weights(), ref.weights, f"P={gpus}")


@pytest.mark.parametrize("overlap", [False, True])
@pytest.mark.parametrize("permute", [False, True])
@pytest.mark.parametrize("order_opt", [False, True])
def test_mggcn_optimizations_preserve_math(
    small_dataset, small_model, overlap, permute, order_opt
):
    cfg = TrainerConfig(
        permute=permute,
        overlap=overlap,
        order_optimization=order_opt,
        first_layer_skip=False,
        seed=22,
    )
    trainer = MGGCNTrainer(
        small_dataset, small_model, machine=dgx1(), num_gpus=4, config=cfg
    )
    ref = ReferenceGCN(small_dataset, small_model, seed=22, first_layer_skip=False)
    for _ in range(EPOCHS):
        trainer.train_epoch()
        ref.train_epoch()
    _assert_weights_match(
        trainer.get_weights(), ref.weights,
        f"overlap={overlap} permute={permute} order={order_opt}",
    )


def test_first_layer_skip_matches_skipping_reference(small_dataset, small_model):
    """§4.4's skip is an intentional gradient modification; with the
    same flag the reference and the trainer still agree exactly."""
    cfg = TrainerConfig(first_layer_skip=True, seed=23)
    trainer = MGGCNTrainer(
        small_dataset, small_model, machine=dgx1(), num_gpus=4, config=cfg
    )
    ref = ReferenceGCN(small_dataset, small_model, seed=23, first_layer_skip=True)
    for _ in range(EPOCHS):
        trainer.train_epoch()
        ref.train_epoch()
    _assert_weights_match(trainer.get_weights(), ref.weights, "skip")


def test_three_layer_model(small_dataset):
    model = GCNModelSpec.build(small_dataset.d0, 12, small_dataset.num_classes, 3)
    cfg = TrainerConfig(first_layer_skip=False, seed=24)
    trainer = MGGCNTrainer(
        small_dataset, model, machine=dgx_a100(), num_gpus=4, config=cfg
    )
    ref = ReferenceGCN(small_dataset, model, seed=24, first_layer_skip=False)
    for _ in range(3):
        trainer.train_epoch()
        ref.train_epoch()
    _assert_weights_match(trainer.get_weights(), ref.weights, "3-layer")


def test_single_layer_model(small_dataset):
    model = GCNModelSpec.build(small_dataset.d0, small_dataset.num_classes,
                               small_dataset.num_classes, 1)
    # a 1-layer GCN: layer_dims collapses to (d0, classes)
    model = GCNModelSpec((small_dataset.d0, small_dataset.num_classes))
    cfg = TrainerConfig(first_layer_skip=False, seed=25)
    trainer = MGGCNTrainer(
        small_dataset, model, machine=dgx1(), num_gpus=2, config=cfg
    )
    ref = ReferenceGCN(small_dataset, model, seed=25, first_layer_skip=False)
    for _ in range(3):
        trainer.train_epoch()
        ref.train_epoch()
    _assert_weights_match(trainer.get_weights(), ref.weights, "1-layer")


def test_all_trainers_agree_with_each_other(small_dataset, small_model):
    seed = 26
    mg = MGGCNTrainer(
        small_dataset, small_model, machine=dgx1(), num_gpus=4,
        config=TrainerConfig(first_layer_skip=False, seed=seed),
    )
    dgl = DGLLikeTrainer(small_dataset, small_model, machine=dgx1(), seed=seed)
    cag = CAGNETTrainer(
        small_dataset, small_model, machine=dgx1(), num_gpus=2, seed=seed
    )
    for _ in range(3):
        mg.train_epoch()
        dgl.train_epoch()
        cag.train_epoch()
    for a, b, c in zip(mg.get_weights(), dgl.get_weights(), cag.get_weights()):
        assert np.allclose(a, b, rtol=RTOL, atol=ATOL)
        assert np.allclose(b, c, rtol=RTOL, atol=ATOL)


def test_weight_replicas_stay_synchronized(small_dataset, small_model):
    """After any number of epochs, every rank holds identical weights —
    the allreduce + deterministic Adam invariant of §4.1."""
    trainer = MGGCNTrainer(
        small_dataset, small_model, machine=dgx1(), num_gpus=4,
        config=TrainerConfig(seed=27),
    )
    trainer.fit(3)
    for layer in range(small_model.num_layers):
        base = trainer.adam.weights[0][layer].data
        for rank in range(1, 4):
            assert np.array_equal(trainer.adam.weights[rank][layer].data, base)
