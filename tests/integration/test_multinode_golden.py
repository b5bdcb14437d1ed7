"""Golden simulated numbers for node-spanning runs.

No perfbench workload spans nodes, so these pins are what guards the
hierarchical timing model: epoch times and a weight digest of the
1D and mixture trainers on two DGX-1 nodes, plus the trace rows of one
of each collective on a flat and a hierarchical communicator. Every
value is compared with ``==`` on ``repr(float)``; a change here is a
change to the simulated numbers, not noise.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.comm import Communicator
from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.device import SimContext
from repro.device.stream import Event
from repro.hardware import dgx1, multi_node_cluster
from repro.nn import GCNModelSpec
from repro.parallel import (
    HierarchicalCommunicator,
    MixtureTrainer,
    ParallelismPlanner,
)

EPOCHS = 3

CONFIGS = {
    "flat_eager": {},
    "flat_capture": {"capture_epochs": True},
    "hier_eager": {"hierarchical_collectives": True},
    "hier_capture": {"hierarchical_collectives": True, "capture_epochs": True},
    "hier_stale1": {"hierarchical_collectives": True,
                    "cache_staleness_epochs": 1},
}

#: config -> (repr of each epoch time, weight digest)
MGGCN_GOLDEN = {
    "flat_eager": (
        ["0.0010668373344226568", "0.0010668373344226568",
         "0.0010668373344226633"], "80574f45e3184b24"),
    "flat_capture": (
        ["0.0010668373344226568", "0.0010668373344226568",
         "0.0010668373344226633"], "80574f45e3184b24"),
    "hier_eager": (
        ["0.0017180903122004359", "0.001718090312200441",
         "0.0017180903122004324"], "80574f45e3184b24"),
    "hier_capture": (
        ["0.0017180903122004359", "0.001718090312200441",
         "0.0017180903122004324"], "80574f45e3184b24"),
    "hier_stale1": (
        ["0.0017180903122004359", "0.0017179944899782186",
         "0.001718090312200432"], "60f0025e0375f1d6"),
}

MIXTURE_GOLDEN = {
    "flat_eager": (
        ["0.0005828416492374728", "0.0005828416492374734",
         "0.0005828416492374732"], "80574f45e3184b24"),
    "flat_capture": (
        ["0.0005828416492374728", "0.0005828416492374734",
         "0.0005828416492374732"], "80574f45e3184b24"),
    "hier_eager": (
        ["0.0007550567603485838", "0.0007550567603485843",
         "0.0007550567603485836"], "80574f45e3184b24"),
    "hier_capture": (
        ["0.0007550567603485838", "0.0007550567603485843",
         "0.0007550567603485836"], "80574f45e3184b24"),
    "hier_stale1": (
        ["0.0007550567603485838", "0.0007549621825708069",
         "0.0007550567603485836"], "35bdd0c60ab3b6ff"),
}

#: communicator -> distinct (name, start, end, nbytes, flops) trace rows
COLLECTIVE_GOLDEN = {
    "flat": [
        ("allreduce", "0.0", "5.9304e-05", 3840, "960.0"),
        ("reduce", "5.9304e-05", "9.495599999999999e-05", 3840, "900.0"),
        ("broadcast", "0.001", "0.00101896608", 6144, "0.0"),
        ("allgather", "0.00101896608", "0.0010463044799999999", 16128, "0.0"),
    ],
    "hier": [
        ("allreduce/intra_reduce", "0.0", "2.2522400000000003e-05", 3840,
         "840.0"),
        ("allreduce/inter", "2.2522400000000003e-05",
         "4.4676000000000004e-05", 3840, "960.0"),
        ("allreduce/intra_bcast", "4.4676000000000004e-05",
         "5.9701600000000005e-05", 3840, "0.0"),
        ("reduce/intra", "5.9701600000000005e-05", "8.2224e-05", 3840,
         "840.0"),
        ("reduce/inter", "8.2224e-05", "9.93008e-05", 3840, "480.0"),
        ("broadcast/inter", "9.93008e-05", "0.00011654656", 6144, "0.0"),
        ("broadcast/intra", "0.00011654656", "0.00013158752", 6144, "0.0"),
        ("broadcast/intra", "0.001", "0.00101504096", 6144, "0.0"),
        ("allgather/intra_gather", "0.00013158752", "0.00014211664", 4992,
         "0.0"),
        ("allgather/intra_gather", "0.00101504096", "0.0010256059200000002",
         11136, "0.0"),
        ("allgather/inter", "0.0010256059200000002", "0.0010309284800000002",
         16128, "0.0"),
        ("allgather/intra_bcast", "0.0010309284800000002",
         "0.0010460027200000002", 11136, "0.0"),
        ("allgather/intra_bcast", "0.0010309284800000002",
         "0.0010459617600000002", 4992, "0.0"),
    ],
}


@pytest.fixture(scope="module")
def setup():
    dataset = load_dataset("cora", scale=0.02, learnable=True, seed=2)
    model = GCNModelSpec.build(dataset.d0, 8, dataset.num_classes, 2)
    return dataset, model, multi_node_cluster(2, dgx1())


def _digest(weights) -> str:
    h = hashlib.sha256()
    for w in weights:
        h.update(np.ascontiguousarray(w).tobytes())
    return h.hexdigest()[:16]


def _run(trainer):
    times = [repr(trainer.train_epoch().epoch_time) for _ in range(EPOCHS)]
    return times, _digest(trainer.get_weights())


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_mggcn_two_node_golden(setup, config):
    dataset, model, cluster = setup
    trainer = MGGCNTrainer(dataset, model, machine=cluster,
                           config=TrainerConfig(seed=3, **CONFIGS[config]))
    assert _run(trainer) == MGGCN_GOLDEN[config]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_mixture_two_node_golden(setup, config):
    """Layer 0 staged (flat or hierarchical broadcasts), layer 1 on the
    allgather scheme; weight sync follows the staged tier."""
    dataset, model, cluster = setup
    kw = dict(CONFIGS[config])
    hier = kw.pop("hierarchical_collectives", False)
    base = ParallelismPlanner(dataset, model, cluster).plan()
    plan = dataclasses.replace(
        base,
        choices=[
            dataclasses.replace(base.choices[0],
                                scheme="1d_hier" if hier else "1d"),
            dataclasses.replace(base.choices[1], scheme="1d_allgather"),
        ],
        weight_sync="hierarchical" if hier else "flat",
    )
    trainer = MixtureTrainer(dataset, model, machine=cluster,
                             config=TrainerConfig(seed=3, **kw), plan=plan)
    assert _run(trainer) == MIXTURE_GOLDEN[config]


@pytest.mark.parametrize("kind", ["flat", "hier"])
def test_collective_trace_golden(kind):
    """allreduce(mean), reduce, a stage-tagged broadcast with a late
    caller dependency on one non-leader rank, and a ragged allgather."""
    ctx = SimContext(multi_node_cluster(2, dgx1()), num_gpus=16)
    comm = (HierarchicalCommunicator if kind == "hier" else Communicator)(ctx)
    rng = np.random.default_rng(7)
    dev = ctx.device

    def payloads(shape):
        return {r: dev(r).from_numpy(rng.random(shape).astype(np.float32))
                for r in range(16)}

    comm.allreduce(payloads((40, 24)), op="mean")
    comm.reduce(5, payloads((40, 24)))
    late = Event("late")
    late.time = 1e-3
    src = dev(3).from_numpy(rng.random((64, 24)).astype(np.float32))
    comm.broadcast(
        3, src, {r: dev(r).empty((64, 24)) for r in range(16) if r != 3},
        deps_by_rank={10: [late]}, stage=2,
    )
    srcs = {r: dev(r).from_numpy(rng.random((3 + r, 24)).astype(np.float32))
            for r in range(16)}
    total = sum(s.rows for s in srcs.values())
    comm.allgather(srcs, {r: dev(r).empty((total, 24)) for r in range(16)})
    rows = []
    for ev in ctx.engine.trace:
        row = (ev.name, repr(ev.start), repr(ev.end), ev.nbytes,
               repr(ev.flops))
        if row not in rows:
            rows.append(row)
    assert rows == COLLECTIVE_GOLDEN[kind]
