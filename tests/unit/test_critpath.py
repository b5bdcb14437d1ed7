"""Unit tests for repro.telemetry.critpath: the attribution analyzer."""

import pytest

from repro.device.engine import TraceEvent
from repro.errors import ConfigurationError
from repro.telemetry import (
    MetricsRegistry,
    Telemetry,
    critical_path,
    critical_path_from_plan,
    critpath_to_chrome_events,
    publish_critpath,
)
from repro.telemetry.critpath import CRITPATH_PID, WAIT_CATEGORY


def _ev(name, category, start, end, device="gpu0", stream="compute",
        nbytes=0):
    return TraceEvent(
        device=device, stream=stream, name=name, category=category,
        start=start, end=end, nbytes=nbytes,
    )


# -- synthetic-DAG ground truth ----------------------------------------------


class TestSyntheticDag:
    def test_recovers_known_critical_path_exactly(self):
        # dev0: a(0-2) -> b(2-5); dev1: c(0-1) -> d(1-3) (slack).
        # ground truth path: a, b.
        trace = [
            _ev("a", "gemm", 0.0, 2.0),
            _ev("c", "comm", 0.0, 1.0, device="gpu1"),
            _ev("d", "spmm", 1.0, 3.0, device="gpu1"),
            _ev("b", "spmm", 2.0, 5.0),
        ]
        report = critical_path(trace)
        assert [s.name for s in report.steps] == ["a", "b"]
        assert report.epoch_time == 5.0
        assert report.category_seconds == {"gemm": 2.0, "spmm": 3.0}
        # off-path work is slack: all of c, all of d.
        assert report.category_slack["comm"] == 1.0
        assert report.category_slack["spmm"] == 2.0

    def test_diamond_follows_binding_predecessor(self):
        # a(0-1) fans out to b(1-4) and c(1-2); d starts at max(4,2)=4.
        trace = [
            _ev("a", "gemm", 0.0, 1.0),
            _ev("b", "comm", 1.0, 4.0, device="gpu1"),
            _ev("c", "gemm", 1.0, 2.0),
            _ev("d", "spmm", 4.0, 6.0),
        ]
        report = critical_path(trace)
        assert [s.name for s in report.steps] == ["a", "b", "d"]
        assert report.overlap_loss_seconds == 3.0  # b is comm on the path

    def test_steps_tile_window_and_sum_to_epoch_time(self):
        trace = [
            _ev("a", "gemm", 0.0, 1.5),
            _ev("b", "comm", 1.5, 2.25, device="gpu1"),
            _ev("c", "spmm", 2.25, 7.0),
        ]
        report = critical_path(trace)
        assert report.path_seconds == pytest.approx(report.epoch_time, rel=0,
                                                    abs=1e-12)
        assert sum(report.category_seconds.values()) == pytest.approx(
            report.epoch_time, abs=1e-12
        )
        for earlier, later in zip(report.steps, report.steps[1:]):
            assert earlier.end == later.start

    def test_wait_gap_is_charged_to_wait_category(self):
        # b starts at 3.0 but nothing ends there: 1.0..3.0 is a wait.
        trace = [
            _ev("a", "gemm", 0.0, 1.0),
            _ev("b", "spmm", 3.0, 5.0),
        ]
        report = critical_path(trace)
        names = [s.name for s in report.steps]
        assert names == ["a", "(wait)", "b"]
        assert report.category_seconds[WAIT_CATEGORY] == 2.0
        assert sum(report.category_seconds.values()) == pytest.approx(5.0)
        # waits never appear in slack or device attribution.
        assert WAIT_CATEGORY not in report.category_slack
        assert set(report.device_seconds) == {"gpu0"}

    def test_leading_wait_reaches_the_floor(self):
        trace = [_ev("a", "gemm", 2.0, 4.0)]
        report = critical_path(trace, floor=0.0)
        assert [s.category for s in report.steps] == [WAIT_CATEGORY, "gemm"]
        assert report.epoch_time == 4.0
        assert report.category_seconds[WAIT_CATEGORY] == 2.0

    def test_straggler_device_and_rank(self):
        trace = [
            _ev("a", "gemm", 0.0, 1.0, device="gpu0"),
            _ev("b", "gemm", 1.0, 5.0, device="gpu3"),
        ]
        report = critical_path(trace)
        assert report.straggler_device == "gpu3"
        assert report.straggler_rank == 3

    def test_cache_stall_patterns(self):
        trace = [
            _ev("serve.gather.l1", "comm", 0.0, 2.0),
            _ev("fwd0/spmm/bcast[0]", "comm", 2.0, 3.0),
            _ev("gemm", "gemm", 3.0, 4.0),
        ]
        report = critical_path(trace)
        assert report.cache_stall_seconds == pytest.approx(3.0)

    def test_determinism_under_ties(self):
        # two candidates end at the terminal time; pick is deterministic.
        trace = [
            _ev("x", "gemm", 0.0, 2.0, device="gpu1"),
            _ev("y", "gemm", 0.0, 2.0, device="gpu0"),
        ]
        r1 = critical_path(trace)
        r2 = critical_path(list(reversed(trace)))
        assert [s.name for s in r1.steps] == [s.name for s in r2.steps]

    def test_empty_trace_raises(self):
        with pytest.raises(ConfigurationError):
            critical_path([])

    def test_empty_window_raises(self):
        with pytest.raises(ConfigurationError):
            critical_path([_ev("a", "gemm", 1.0, 2.0)], floor=5.0)


# -- report surface -----------------------------------------------------------


class TestReport:
    def _report(self):
        return critical_path(
            [
                _ev("a", "gemm", 0.0, 2.0),
                _ev("a", "gemm", 2.0, 3.0),
                _ev("b", "comm", 3.0, 4.0),
            ]
        )

    def test_top_ops_aggregates_by_name(self):
        report = self._report()
        assert report.top_ops[0] == ("a", "gemm", 2, 3.0)
        assert report.num_ops == 3

    def test_to_dict_round_trips_through_json(self):
        import json

        payload = json.loads(json.dumps(self._report().to_dict()))
        assert payload["epoch_time"] == 4.0
        assert payload["category_seconds"]["gemm"] == 3.0
        assert payload["top_ops"][0]["name"] == "a"

    def test_render_mentions_headline_numbers(self):
        text = self._report().render()
        assert "critical path: 4 s" in text
        assert "gemm" in text
        assert "overlap loss" in text

    def test_share(self):
        report = self._report()
        assert report.share("gemm") == pytest.approx(0.75)
        assert report.share("nope") == 0.0

    def test_publish_critpath_gauges(self):
        telemetry = Telemetry(registry=MetricsRegistry())
        publish_critpath(telemetry, self._report(), epoch=7)
        flat = telemetry.registry.flatten()
        assert flat["repro_critpath_analyses_total"] == 1.0
        assert flat['repro_critpath_seconds{category="gemm"}'] == 3.0
        assert flat['repro_critpath_share{category="comm"}'] == 0.25
        assert flat["repro_critpath_overlap_loss_seconds"] == 1.0
        assert flat["repro_critpath_epoch"] == 7.0

    def test_chrome_events(self):
        events = critpath_to_chrome_events(self._report())
        xs = [e for e in events if e.get("ph") == "X"]
        assert len(xs) == 3
        assert all(e["pid"] == CRITPATH_PID for e in xs)
        metas = [e for e in events if e.get("ph") == "M"]
        assert {"critical path", "path"} == {
            m["args"]["name"] for m in metas
        }


# -- plan-DAG variant ---------------------------------------------------------


class TestPlanCriticalPath:
    def _captured_plan(self):
        from repro.core import MGGCNTrainer, TrainerConfig
        from repro.datasets import load_dataset
        from repro.nn import GCNModelSpec

        dataset = load_dataset("arxiv", scale=0.002, learnable=True, seed=0)
        model = GCNModelSpec.build(dataset.d0, 8, dataset.num_classes, 2)
        trainer = MGGCNTrainer(
            dataset, model, num_gpus=2,
            config=TrainerConfig(seed=0, capture_epochs=True),
        )
        trainer.fit(2)  # warm-up, capture
        return trainer._plans[None]

    def test_plan_walk_matches_trace_walk_epoch_time(self):
        plan = self._captured_plan()
        report = critical_path_from_plan(plan, t0=0.0)
        starts, ends = plan.compute_timeline(0.0)
        assert report.window_end == pytest.approx(float(ends.max()), rel=0)
        # a true dependency chain: never contains wait steps, and the
        # category seconds sum to the epoch makespan exactly.
        assert all(not s.is_wait for s in report.steps)
        assert sum(report.category_seconds.values()) == pytest.approx(
            report.epoch_time, rel=1e-12
        )

    def test_plan_edges_are_rebuilt_consistently(self):
        plan = self._captured_plan()
        deps = plan.op_dependencies()
        meta = plan.op_meta()
        assert len(deps) == plan.num_ops
        assert len(meta) == plan.num_ops
        assert all(all(0 <= d < plan.num_ops for d in dd) for dd in deps)
        # the timeline must respect every rebuilt edge.
        starts, ends = plan.compute_timeline(0.0)
        for i, dd in enumerate(deps):
            for d in dd:
                assert ends[d] <= starts[i]

    def test_empty_plan_raises(self):
        class Empty:
            num_ops = 0

        with pytest.raises(ConfigurationError):
            critical_path_from_plan(Empty())
