"""BFS ordering, Chrome trace export, checkpointing, CLI."""

import json

import numpy as np
import pytest

from repro.core import MGGCNTrainer, TrainerConfig
from repro.errors import ConfigurationError
from repro.hardware import dgx1
from repro.nn import GCNModelSpec, load_checkpoint, save_checkpoint
from repro.profiling import export_chrome_trace, trace_to_chrome_events
from repro.sparse import (
    COOMatrix,
    CSRMatrix,
    bfs_permutation,
    apply_permutation,
    invert_permutation,
)
from repro.__main__ import main as cli_main


class TestBFSPermutation:
    def test_is_permutation(self, rng):
        dense = (rng.random((30, 30)) < 0.2).astype(np.float32)
        coo = COOMatrix(dense.shape, *np.nonzero(dense))
        perm = bfs_permutation(coo)
        assert sorted(perm) == list(range(30))

    def test_bfs_order_respects_layers(self):
        # path graph 0-1-2-3-4: BFS from 0 visits in order
        coo = COOMatrix.from_edges(
            5, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]), symmetrize=True
        )
        perm = bfs_permutation(coo, start=0)
        assert list(invert_permutation(perm)) == [0, 1, 2, 3, 4]

    def test_disconnected_components_covered(self):
        coo = COOMatrix.from_edges(6, np.array([[0, 1], [3, 4]]), symmetrize=True)
        perm = bfs_permutation(coo)
        assert sorted(perm) == list(range(6))

    def test_improves_bandwidth_locality(self, rng):
        """BFS ordering reduces the average |row - col| distance of the
        nonzeros on a ring-of-cliques graph scrambled randomly."""
        import itertools

        blocks = 6
        size = 5
        edges = []
        for b in range(blocks):
            base = b * size
            edges.extend(
                (base + i, base + j)
                for i, j in itertools.combinations(range(size), 2)
            )
            edges.append((base, ((b + 1) % blocks) * size))
        n = blocks * size
        coo = COOMatrix.from_edges(n, np.array(edges), symmetrize=True)
        scramble = np.random.default_rng(1).permutation(n)
        scrambled = apply_permutation(coo, scramble.astype(np.int64))

        def mean_span(m):
            return float(np.abs(m.rows - m.cols).mean())

        bfs = apply_permutation(scrambled, bfs_permutation(scrambled))
        assert mean_span(bfs) < mean_span(scrambled)

    def test_invalid_start(self):
        coo = COOMatrix.from_edges(3, np.array([[0, 1]]))
        with pytest.raises(ValueError):
            bfs_permutation(coo, start=9)


class TestChromeTrace:
    def test_export_loads_as_json(self, tmp_path, small_dataset, small_model):
        trainer = MGGCNTrainer(small_dataset, small_model, machine=dgx1(),
                               num_gpus=4)
        stats = trainer.train_epoch()
        path = tmp_path / "trace.json"
        export_chrome_trace(stats.trace, path)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(stats.trace)
        # metadata rows name all four GPUs
        names = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert names == {"gpu0", "gpu1", "gpu2", "gpu3"}

    def test_durations_scaled_to_us(self, small_dataset, small_model):
        trainer = MGGCNTrainer(small_dataset, small_model, machine=dgx1(),
                               num_gpus=2)
        stats = trainer.train_epoch()
        events = trace_to_chrome_events(stats.trace)
        first = next(e for e in events if e["ph"] == "X")
        src = stats.trace[0]
        assert first["dur"] == pytest.approx(src.duration * 1e6)


class TestCheckpoint:
    def test_roundtrip_resumes_identically(self, tmp_path, small_dataset,
                                           small_model):
        cfg = TrainerConfig(seed=13)
        a = MGGCNTrainer(small_dataset, small_model, machine=dgx1(),
                         num_gpus=4, config=cfg)
        a.fit(3)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(a, path)
        continued = [s.loss for s in a.fit(3)]

        b = MGGCNTrainer(small_dataset, small_model, machine=dgx1(),
                         num_gpus=4, config=cfg)
        load_checkpoint(b, path)
        assert b.epochs_trained == 3
        resumed = [s.loss for s in b.fit(3)]
        assert resumed == pytest.approx(continued, rel=1e-6)

    def test_restores_all_replicas(self, tmp_path, small_dataset, small_model):
        a = MGGCNTrainer(small_dataset, small_model, machine=dgx1(), num_gpus=2)
        a.fit(2)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(a, path)
        b = MGGCNTrainer(small_dataset, small_model, machine=dgx1(), num_gpus=2)
        load_checkpoint(b, path)
        for layer in range(small_model.num_layers):
            assert np.array_equal(
                b.adam.weights[0][layer].data, b.adam.weights[1][layer].data
            )

    def test_architecture_mismatch_rejected(self, tmp_path, small_dataset,
                                            small_model):
        a = MGGCNTrainer(small_dataset, small_model, machine=dgx1(), num_gpus=1)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(a, path)
        other_model = GCNModelSpec.build(
            small_dataset.d0, 24, small_dataset.num_classes, 2
        )
        b = MGGCNTrainer(small_dataset, other_model, machine=dgx1(), num_gpus=1)
        with pytest.raises(ConfigurationError):
            load_checkpoint(b, path)

    def test_garbage_file_rejected(self, tmp_path, small_dataset, small_model):
        path = tmp_path / "junk.npz"
        np.savez(path, something=np.zeros(3))
        t = MGGCNTrainer(small_dataset, small_model, machine=dgx1(), num_gpus=1)
        with pytest.raises(ConfigurationError):
            load_checkpoint(t, path)


class TestCLI:
    def test_datasets_command(self, capsys):
        assert cli_main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "reddit" in out and "papers" in out

    def test_machines_command(self, capsys):
        assert cli_main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "DGX-1-V100" in out and "NVSwitch" in out

    def test_plan_command(self, capsys):
        assert cli_main(["plan", "reddit", "--hidden", "512"]) == 0
        out = capsys.readouterr().out
        assert "max layers" in out

    def test_train_command(self, capsys):
        code = cli_main([
            "train", "cora", "--scale", "0.05", "--gpus", "2",
            "--epochs", "3", "--hidden", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "test accuracy" in out

    def test_experiment_command(self, capsys):
        assert cli_main(["experiment", "sec51"]) == 0
        out = capsys.readouterr().out
        assert "1.5D" in out

    def test_unknown_dataset_is_clean_error(self, capsys):
        code = cli_main(["train", "imagenet"])
        assert code == 1
        assert "error" in capsys.readouterr().err
