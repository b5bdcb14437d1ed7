"""Every trainer family honours one contract.

MG-GCN, CAGNET 1D/1.5D/2D, DGL-like and mini-batch are compared like for
like only if they reject the same model/dataset mismatches, take the
same replicated-weight Adam step (10 FLOPs per parameter per rank, in
both modes), count epochs and score splits the same way.
"""

import pytest

from repro.baselines import (
    CAGNET15DTrainer,
    CAGNET2DTrainer,
    CAGNETTrainer,
    DGLLikeTrainer,
)
from repro.core import MGGCNTrainer
from repro.datasets import load_dataset
from repro.device.tensor import Mode
from repro.errors import ConfigurationError
from repro.hardware import dgx1
from repro.nn import GCNModelSpec
from repro.sampling import MiniBatchGCNTrainer

FAMILIES = {
    "mggcn": lambda ds, m: MGGCNTrainer(ds, m, num_gpus=4),
    "cagnet-1d": lambda ds, m: CAGNETTrainer(ds, m, num_gpus=4, permute=True),
    "cagnet-1.5d": lambda ds, m: CAGNET15DTrainer(ds, m, num_gpus=4,
                                                  replication=2),
    "cagnet-2d": lambda ds, m: CAGNET2DTrainer(ds, m, num_gpus=4),
    "dgl-like": lambda ds, m: DGLLikeTrainer(ds, m, machine=dgx1()),
    "minibatch": lambda ds, m: MiniBatchGCNTrainer(ds, m, batch_size=16),
}
#: families with a symbolic (metadata-only) mode.
SYMBOLIC_FAMILIES = sorted(set(FAMILIES) - {"minibatch"})


@pytest.mark.parametrize(
    "d_in, d_out, match",
    [(0, 3, "output width"), (0, -3, "output width"), (1, 0, "input width")],
    ids=["wider-output", "narrower-output", "wider-input"],
)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_model_widths_must_match_dataset(tiny_dataset, family, d_in, d_out,
                                         match):
    ds = tiny_dataset
    model = GCNModelSpec((ds.d0 + d_in, 8, ds.num_classes + d_out))
    with pytest.raises(ConfigurationError, match=match):
        FAMILIES[family](ds, model)


@pytest.mark.parametrize("family", SYMBOLIC_FAMILIES)
def test_symbolic_adam_flops_cover_every_replica(family):
    """Each rank charges 10 FLOPs per parameter per step, as it does in
    functional mode."""
    ds = load_dataset("arxiv", symbolic=True)
    model = GCNModelSpec.build(ds.d0, 16, ds.num_classes, 2)
    trainer = FAMILIES[family](ds, model)
    stats = trainer.train_epoch()
    adam_flops = sum(e.flops for e in stats.trace if e.category == "adam")
    assert adam_flops == 10 * model.num_parameters * trainer.ctx.num_gpus


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fit_counts_epochs_and_scores_every_split(tiny_dataset, tiny_model,
                                                  family):
    trainer = FAMILIES[family](tiny_dataset, tiny_model)
    assert trainer.fit(2)[-1].loss is not None
    assert trainer.epochs_trained == 2
    assert trainer.mode is Mode.FUNCTIONAL
    for split in ("train", "val", "test"):
        assert 0.0 <= trainer.evaluate(split) <= 1.0
    with pytest.raises(ConfigurationError, match="unknown split"):
        trainer.evaluate("holdout")
    with pytest.raises(ConfigurationError):
        trainer.fit(-1)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_functional_kernels_count_flops(tiny_dataset, tiny_model, family):
    """GeMM, SpMM and activation ops all report FLOPs, in every family."""
    trainer = FAMILIES[family](tiny_dataset, tiny_model)
    stats = trainer.train_epoch()
    for category in ("gemm", "spmm", "activation"):
        flops = sum(e.flops for e in stats.trace if e.category == category)
        assert flops > 0, category
