"""Golden simulated numbers for MG-GCN and every baseline trainer.

No perfbench workload runs a baseline, so these pins are what guards
the simulated numbers the paper's comparisons rest on: CAGNET 1D, 1.5D
and 2D, their multi-node promotions, DGL-like, mini-batch, and MG-GCN
(eager and captured) for reference.

Functional rows pin, over three epochs, the ``repr`` of every epoch time
and loss, a digest of the final weights, the peak memory and a digest of
the trace rows. Symbolic rows pin the epoch times, the peak memory and
the per-category breakdown seconds. FLOPs are left out of both: they are
a derived annotation, not a simulated time. Every value is compared with
``==``; a change here is a change to the simulated numbers, not noise.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines import (
    CAGNET15DTrainer,
    CAGNET2DTrainer,
    CAGNETTrainer,
    DGLLikeTrainer,
)
from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.hardware import dgx1, multi_node_cluster
from repro.nn import GCNModelSpec
from repro.parallel import Parallel15DTrainer, Parallel2DTrainer
from repro.sampling import MiniBatchGCNTrainer

EPOCHS = 3
SYMBOLIC_EPOCHS = 2
SEED = 5


def _cluster():
    return multi_node_cluster(2, dgx1())


#: name -> builder(dataset, model); every builder runs in both modes
#: unless listed in FUNCTIONAL_ONLY (mini-batch sampling needs real
#: adjacency, and symbolic runs model only the permuted distribution).
BUILDERS = {
    "cagnet-1d": lambda ds, m: CAGNETTrainer(ds, m, num_gpus=4, seed=SEED),
    "cagnet-1d-permuted": lambda ds, m: CAGNETTrainer(
        ds, m, num_gpus=4, seed=SEED, permute=True),
    "cagnet-1.5d": lambda ds, m: CAGNET15DTrainer(
        ds, m, num_gpus=4, replication=2, seed=SEED),
    "cagnet-2d": lambda ds, m: CAGNET2DTrainer(ds, m, num_gpus=4, seed=SEED),
    "parallel-1.5d": lambda ds, m: Parallel15DTrainer(
        ds, m, machine=_cluster(), replication=2, seed=SEED),
    "parallel-2d": lambda ds, m: Parallel2DTrainer(
        ds, m, machine=_cluster(), seed=SEED),
    "dgl-like": lambda ds, m: DGLLikeTrainer(ds, m, machine=dgx1(), seed=SEED),
    "minibatch": lambda ds, m: MiniBatchGCNTrainer(
        ds, m, fanouts=[4, 4], batch_size=16, seed=SEED),
    "mggcn-eager": lambda ds, m: MGGCNTrainer(
        ds, m, num_gpus=4, config=TrainerConfig(seed=SEED)),
    "mggcn-capture": lambda ds, m: MGGCNTrainer(
        ds, m, num_gpus=4,
        config=TrainerConfig(seed=SEED, capture_epochs=True)),
}
FUNCTIONAL_ONLY = {"minibatch", "cagnet-1d"}
FUNCTIONAL = sorted(BUILDERS)
SYMBOLIC = sorted(set(BUILDERS) - FUNCTIONAL_ONLY)

#: name -> (epoch times, losses, weight digest, peak bytes, trace digest)
FUNCTIONAL_GOLDEN = {
    "cagnet-1.5d": (
        ["0.0008130347495768496",
         "0.0008130347495768496",
         "0.0008130347495768483"],
        ["5.221789157751835",
         "2.5325551466508345",
         "1.0471238800973603"],
        "1b89e5c5498aa69c", 2927104, "e4b452eaf40c6d5c"),
    "cagnet-1d": (
        ["0.0011139504255555557",
         "0.0011139504255555561",
         "0.0011139504255555568"],
        ["5.221789042154948",
         "2.5325553344957754",
         "1.047123857858506"],
        "669298a9dabef614", 1487872, "49704363f62d22e9"),
    "cagnet-1d-permuted": (
        ["0.0011139504255555557",
         "0.0011139504255555557",
         "0.0011139504255555563"],
        ["5.221789273348722",
         "2.5325550599531694",
         "1.0471238006245007"],
        "b533fae5bd3bd573", 1487872, "50f9bff23c60d296"),
    "cagnet-2d": (
        ["0.0008951776922222223",
         "0.0008951776922222216",
         "0.0008951776922222208"],
        ["5.221789157751835",
         "2.5325549732555044",
         "1.047123908996582"],
        "70c04b852ab49363", 2189312, "3c2e37376cc29072"),
    "dgl-like": (
        ["0.001719348798756799",
         "0.0017193487987567987",
         "0.0017193487987568002"],
        ["5.221789273348722",
         "2.5325553200461646",
         "1.0471238800973603"],
        "7203f1c7e0e34695", 1472768, "7fa4187227763291"),
    "mggcn-capture": (
        ["0.0002678473481481482",
         "0.000267847348148148",
         "0.000267847348148148"],
        ["5.221789042154948",
         "3.0825036655772817",
         "1.2911591276978"],
        "019006a78a5fd59e", 732416, "cbe0b8c5c9dbc74e"),
    "mggcn-eager": (
        ["0.0002678473481481482",
         "0.000267847348148148",
         "0.000267847348148148"],
        ["5.221789042154948",
         "3.0825036655772817",
         "1.2911591276978"],
        "019006a78a5fd59e", 732416, "cbe0b8c5c9dbc74e"),
    "minibatch": (
        ["0.0002669517145969499",
         "0.0002733606405228756",
         "0.0002693897254901961"],
        ["5.4276340621890355",
         "1.5891381245332235",
         "1.830412835785837"],
        "ba90987cc4c0d8ce", 978944, "bfd88c2be86ae24e"),
    "parallel-1.5d": (
        ["0.0005647048607843139",
         "0.0005647048607843143",
         "0.0005647048607843139"],
        ["5.221789215550278",
         "2.532555010818848",
         "1.0471239056663983"],
        "1e368aa779446818", 1146368, "097303b19ed37e23"),
    "parallel-2d": (
        ["0.00093294776",
         "0.0009329477600000005",
         "0.0009329477600000002"],
        ["5.221788984356505",
         "2.5325551611004453",
         "1.0471239156569496"],
        "f7051c2966a68302", 1169664, "7508efb442c4dafd"),
}

#: name -> (epoch times, peak bytes, per-category breakdown seconds)
SYMBOLIC_GOLDEN = {
    "cagnet-1.5d": (
        ["0.009236735903972927",
         "0.009236735903972934"],
        342044416,
        [("activation", "0.00083288888888889"),
         ("adam", "0.0002529066666666635"),
         ("comm", "0.028640020480000014"),
         ("elementwise", "0.0002379733333333356"),
         ("gemm", "0.008771631073221188"),
         ("loss", "0.0003413333333333324"),
         ("memset", "0.0020396444444444467"),
         ("spmm", "0.00513534648790287")]),
    "cagnet-1d-permuted": (
        ["0.005901487491051651",
         "0.005901487491051667"],
        150828544,
        [("activation", "0.0005324444444444465"),
         ("adam", "0.00025290666666667044"),
         ("comm", "0.009038420480000035"),
         ("gemm", "0.005659589078556265"),
         ("loss", "0.00045733333333333737"),
         ("spmm", "0.009047550361205914")]),
    "cagnet-2d": (
        ["0.008313461006606215",
         "0.008313461006606212"],
        181833216,
        [("activation", "0.00083288888888889"),
         ("adam", "0.0002529066666666635"),
         ("comm", "0.02859490815999998"),
         ("gemm", "0.006263849523000714"),
         ("loss", "0.0003413333333333324"),
         ("memset", "0.0018284888888888892"),
         ("spmm", "0.005607398748440302")]),
    "dgl-like": (
        ["0.007235567911020107",
         "0.007235567911020108"],
        405404160,
        [("activation", "0.0005161481481481475"),
         ("adam", "0.00021336068376068447"),
         ("gemm", "0.003447802676248028"),
         ("loss", "0.0005440740740740753"),
         ("spmm", "0.002514182328789173")]),
    "mggcn-capture": (
        ["0.002644071736715233",
         "0.002644071736715233"],
        79172352,
        [("activation", "0.00012910849673202635"),
         ("adam", "5.1676862745098084e-05"),
         ("comm", "0.005145267199999996"),
         ("gemm", "0.004814618463701403"),
         ("loss", "0.00012203921568627527"),
         ("spmm", "0.0032949041310469107")]),
    "mggcn-eager": (
        ["0.002644071736715233",
         "0.002644071736715233"],
        79172352,
        [("activation", "0.00012910849673202635"),
         ("adam", "5.1676862745098084e-05"),
         ("comm", "0.005145267199999996"),
         ("gemm", "0.004814618463701403"),
         ("loss", "0.00012203921568627527"),
         ("spmm", "0.0032949041310469107")]),
    "parallel-1.5d": (
        ["0.002960369899802137",
         "0.0029603698998021395"],
        87668736,
        [("activation", "0.0007554509803921541"),
         ("adam", "0.00020670745098039234"),
         ("comm", "0.03322750890666687"),
         ("elementwise", "0.00015048784313725916"),
         ("gemm", "0.010008732545103621"),
         ("loss", "0.00044047058823529217"),
         ("memset", "0.0015582535947712278"),
         ("spmm", "0.012357775472997726")]),
    "parallel-2d": (
        ["0.005682822755159532",
         "0.005682822755159532"],
        68064768,
        [("activation", "0.001259084967320273"),
         ("adam", "0.00020670745098039234"),
         ("comm", "0.06253782272000047"),
         ("gemm", "0.007943934996078428"),
         ("loss", "0.0004881568627450872"),
         ("memset", "0.0014529673202614835"),
         ("spmm", "0.012023639037035516")]),
}


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def _trace_digest(stats) -> str:
    return _digest(
        repr((e.device, e.stream, e.name, e.category, e.start, e.end,
              e.stage, e.nbytes)).encode()
        for s in stats for e in s.trace
    )


def _functional_row(name):
    dataset = load_dataset("cora", scale=0.02, learnable=True, seed=2)
    model = GCNModelSpec.build(dataset.d0, 8, dataset.num_classes, 2)
    trainer = BUILDERS[name](dataset, model)
    stats = trainer.fit(EPOCHS)
    return (
        [repr(s.epoch_time) for s in stats],
        [repr(s.loss) for s in stats],
        _digest(np.ascontiguousarray(w).tobytes()
                for w in trainer.get_weights()),
        max(s.peak_memory for s in stats),
        _trace_digest(stats),
    )


def _symbolic_row(name):
    dataset = load_dataset("arxiv", symbolic=True)
    model = GCNModelSpec.build(dataset.d0, 64, dataset.num_classes, 2)
    stats = BUILDERS[name](dataset, model).fit(SYMBOLIC_EPOCHS)
    return (
        [repr(s.epoch_time) for s in stats],
        max(s.peak_memory for s in stats),
        sorted((c, repr(t)) for c, t in stats[-1].breakdown.totals.items()),
    )


@pytest.mark.parametrize("name", FUNCTIONAL)
def test_functional_golden(name):
    assert _functional_row(name) == FUNCTIONAL_GOLDEN[name]


@pytest.mark.parametrize("name", SYMBOLIC)
def test_symbolic_golden(name):
    assert _symbolic_row(name) == SYMBOLIC_GOLDEN[name]
