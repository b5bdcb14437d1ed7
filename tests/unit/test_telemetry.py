"""Unit tests for repro.telemetry: registry, spans, hub, exporters, gate."""

import json

import pytest

from repro.device.engine import TraceEvent
from repro.errors import ConfigurationError
from repro.telemetry import (
    DEFAULT_RTOL,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    Telemetry,
    Tracer,
    diff_metrics,
    flatten_numeric,
    load_metrics,
    merged_chrome_trace,
    nearest_rank,
    render_summary,
    spans_to_chrome_events,
    to_jsonl,
    to_prometheus,
    write_snapshot,
)
from repro.telemetry.derived import sample_epoch
from repro.telemetry.export import SPAN_PID


# -- nearest-rank percentiles -------------------------------------------------


class TestNearestRank:
    def test_known_order_statistics(self):
        values = [float(v) for v in range(1, 11)]  # 1..10
        assert nearest_rank(values, 50) == 5.0
        assert nearest_rank(values, 95) == 10.0
        assert nearest_rank(values, 99) == 10.0
        assert nearest_rank(values, 100) == 10.0
        assert nearest_rank(values, 10) == 1.0

    def test_single_value(self):
        assert nearest_rank([7.0], 1) == 7.0
        assert nearest_rank([7.0], 99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            nearest_rank([], 50)

    @pytest.mark.parametrize("q", [0.0, -1.0, 100.5])
    def test_out_of_range_q_raises(self, q):
        with pytest.raises(ConfigurationError):
            nearest_rank([1.0], q)


# -- instruments --------------------------------------------------------------


class TestInstruments:
    def test_counter_monotone(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ConfigurationError):
            c.inc(-1.0)

    def test_gauge_set_and_inc(self):
        g = Gauge()
        g.set(4.0)
        g.inc(-1.5)
        assert g.value == 2.5

    def test_histogram_stats(self):
        h = Histogram()
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 6.0
        assert h.mean == 2.0
        assert h.max == 3.0
        assert h.percentile(50) == 2.0
        # cached sort invalidated by a new observation
        h.observe(0.5)
        assert h.percentile(50) == 1.0
        assert h.values() == [3.0, 1.0, 2.0, 0.5]

    def test_empty_histogram(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.max == 0.0
        with pytest.raises(ConfigurationError):
            h.percentile(50)


# -- registry -----------------------------------------------------------------


class TestMetricsRegistry:
    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")

    def test_labels_make_distinct_series(self):
        reg = MetricsRegistry()
        a = reg.counter("ops_total", category="gemm")
        b = reg.counter("ops_total", category="spmm")
        assert a is not b
        # label order must not matter
        c = reg.counter("ops_total", category="gemm", device="gpu0")
        d = reg.counter("ops_total", device="gpu0", category="gemm")
        assert c is d

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")

    def test_contains_and_clear(self):
        reg = MetricsRegistry()
        reg.gauge("loss")
        assert "loss" in reg
        reg.clear()
        assert "loss" not in reg

    def test_flatten_expands_histograms(self):
        reg = MetricsRegistry()
        reg.counter("n_total").inc(3)
        hist = reg.histogram("lat_seconds", device="gpu0")
        for v in (0.1, 0.2, 0.3):
            hist.observe(v)
        flat = reg.flatten()
        assert flat["n_total"] == 3.0
        assert flat['lat_seconds_count{device="gpu0"}'] == 3.0
        assert flat['lat_seconds_sum{device="gpu0"}'] == pytest.approx(0.6)
        assert flat['lat_seconds_p50{device="gpu0"}'] == 0.2
        assert flat['lat_seconds_p99{device="gpu0"}'] == 0.3
        assert flat['lat_seconds_max{device="gpu0"}'] == 0.3

    def test_flatten_empty_histogram_has_count_only(self):
        reg = MetricsRegistry()
        reg.histogram("empty_seconds")
        flat = reg.flatten()
        assert flat["empty_seconds_count"] == 0.0
        assert "empty_seconds_p50" not in flat


# -- tracer -------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_correlation_inheritance(self):
        tr = Tracer()
        outer = tr.begin("epoch-1", 0.0, correlation="epoch-1", category="training")
        inner = tr.begin("spmm", 0.1)
        assert inner.parent_id == outer.span_id
        assert inner.correlation == "epoch-1"
        tr.end(inner, 0.2)
        tr.end(outer, 0.3)
        assert tr.depth == 0
        assert tr.children_of(outer) == [inner]
        assert tr.by_correlation("epoch-1") == [outer, inner]

    def test_end_closes_dangling_children(self):
        tr = Tracer()
        outer = tr.begin("outer", 0.0)
        child = tr.begin("child", 0.1)
        tr.end(outer, 0.5)  # child never explicitly ended
        assert child.closed and child.end == 0.5
        assert tr.depth == 0

    def test_end_clamps_to_start(self):
        tr = Tracer()
        s = tr.begin("s", 1.0)
        tr.end(s, 0.5)
        assert s.end == 1.0
        assert s.duration == 0.0

    def test_record_leaf_under_current(self):
        tr = Tracer()
        outer = tr.begin("outer", 0.0, correlation="c1")
        leaf = tr.record("op", 0.1, 0.2, category="gemm", device="gpu0")
        assert leaf.parent_id == outer.span_id
        assert leaf.correlation == "c1"
        assert leaf.closed
        assert tr.depth == 1  # record never pushes onto the stack

    def test_context_manager(self):
        tr = Tracer()
        clock = iter([0.0, 1.0])
        with tr.span("w", lambda: next(clock)) as s:
            pass
        assert s.start == 0.0 and s.end == 1.0

    def test_clear_resets_ids(self):
        tr = Tracer()
        tr.begin("a", 0.0)
        tr.clear()
        assert tr.begin("b", 0.0).span_id == 1


# -- telemetry hub ------------------------------------------------------------


def _event(name="gemm0", category="gemm", device="gpu0", start=0.0, end=1.0,
           nbytes=0, flops=0.0, correlation=None):
    return TraceEvent(device, "compute", name, category, start, end,
                      None, nbytes, correlation, flops)


class TestTelemetryHub:
    def test_on_op_accumulates(self):
        t = Telemetry()
        t.on_op(_event(start=0.0, end=1.5, flops=100.0))
        t.on_op(_event(start=2.0, end=3.0, flops=50.0))
        t.on_op(_event(category="comm", device="gpu1", nbytes=4096))
        flat = t.registry.flatten()
        assert flat['repro_ops_total{category="gemm",device="gpu0"}'] == 2.0
        assert flat['repro_op_seconds_total{category="gemm",device="gpu0"}'] == 2.5
        assert flat["repro_flops_total"] == 150.0
        assert flat["repro_comm_bytes_total"] == 4096.0

    def test_trace_ops_records_only_under_open_span(self):
        t = Telemetry(trace_ops=True)
        t.on_op(_event())  # no open span: not recorded
        assert t.tracer.spans == []
        root = t.tracer.begin("epoch-1", 0.0, correlation="epoch-1")
        t.on_op(_event(correlation="epoch-1"))
        t.tracer.end(root, 5.0)
        leaves = t.tracer.children_of(root)
        assert [s.name for s in leaves] == ["gemm0"]
        assert leaves[0].correlation == "epoch-1"

    def test_trace_ops_off_by_default(self):
        t = Telemetry()
        root = t.tracer.begin("epoch-1", 0.0)
        t.on_op(_event())
        t.tracer.end(root, 5.0)
        assert t.tracer.children_of(root) == []

    def test_on_replay_aggregates(self):
        t = Telemetry()
        span = t.on_replay(
            start=0.0, end=2.0,
            op_totals={("gemm", "gpu0"): (10, 1.5), ("comm", "gpu1"): (4, 0.5)},
            flops=3e6,
            nbytes=1 << 20,
            link_totals={"intra_node": (float(1 << 18), 0.125)},
            num_gpus=4,
            correlation="epoch-2",
        )
        flat = t.registry.flatten()
        # the same per-device series an eager epoch adds to
        assert flat['repro_ops_total{category="gemm",device="gpu0"}'] == 10.0
        assert flat['repro_op_seconds_total{category="comm",device="gpu1"}'] == 0.5
        assert not any('device="all"' in k for k in flat)
        assert flat["repro_comm_bytes_total"] == float(1 << 20)
        assert flat["repro_flops_total"] == 3e6
        assert flat['repro_comm_link_bytes_total{link="intra_node"}'] == float(1 << 18)
        assert flat['repro_comm_link_seconds_total{link="intra_node"}'] == 0.125
        assert flat["repro_plan_replays_total"] == 1.0
        assert span.name == "plan.replay"
        assert span.correlation == "epoch-2"

    def test_pass_throughs(self):
        t = Telemetry()
        t.inc("c_total", 2.0)
        t.set_gauge("g", 7.0)
        t.observe("h_seconds", 0.25)
        flat = t.registry.flatten()
        assert flat["c_total"] == 2.0
        assert flat["g"] == 7.0
        assert flat["h_seconds_count"] == 1.0


# -- derived instruments ------------------------------------------------------


class TestDerived:
    def test_overlap_and_skew_from_synthetic_trace(self):
        t = Telemetry()
        trace = [
            # gpu0: compute [0,2], comm [1,3] -> 1s hidden, 1s exposed
            _event(device="gpu0", start=0.0, end=2.0, flops=10.0),
            _event(name="ar", category="comm", device="gpu0",
                   start=1.0, end=3.0, nbytes=100),
            # gpu1: compute [0,1], no comm
            _event(device="gpu1", start=0.0, end=1.0, flops=10.0),
        ]
        out = sample_epoch(t, trace, epoch_time=3.0, epoch=1)
        assert out["overlap_efficiency"] == pytest.approx(0.5)
        # busies are 2.0 and 1.0 -> max/mean = 2/1.5
        assert out["straggler_skew"] == pytest.approx(2.0 / 1.5)
        flat = t.registry.flatten()
        assert flat['repro_device_compute_busy_seconds{device="gpu0"}'] == 2.0
        assert flat['repro_device_exposed_comm_seconds{device="gpu0"}'] == 1.0
        assert flat['repro_device_bytes_moved{device="gpu0"}'] == 100.0
        assert flat["repro_last_sampled_epoch"] == 1.0
        # no machine/cost model: roofline gauges skipped
        assert "repro_roofline_flops_fraction" not in t.registry

    def test_empty_trace_is_noop(self):
        t = Telemetry()
        assert sample_epoch(t, []) == {}
        assert "repro_overlap_efficiency" not in t.registry

    def test_no_comm_means_full_overlap(self):
        t = Telemetry()
        out = sample_epoch(t, [_event()], epoch_time=1.0)
        assert out["overlap_efficiency"] == 1.0


# -- exporters ----------------------------------------------------------------


class TestExporters:
    def _populated(self):
        t = Telemetry(run_id="test")
        t.inc("repro_train_epochs_total", 3.0)
        t.set_gauge("repro_train_loss", 0.5)
        hist = t.registry.histogram("repro_lat_seconds", "latency")
        for v in (0.1, 0.2):
            hist.observe(v)
        root = t.tracer.begin("epoch-1", 0.0, correlation="epoch-1",
                              category="training")
        t.tracer.record("gemm", 0.1, 0.2, category="gemm")
        t.tracer.end(root, 1.0)
        return t

    def test_prometheus_text(self):
        t = self._populated()
        text = to_prometheus(t.registry)
        assert "# TYPE repro_train_epochs_total counter" in text
        assert "# TYPE repro_train_loss gauge" in text
        assert "# TYPE repro_lat_seconds summary" in text
        assert "# HELP repro_lat_seconds latency" in text
        assert 'repro_lat_seconds{quantile="0.5"} 0.1' in text
        assert "repro_lat_seconds_count 2" in text
        assert "repro_train_loss 0.5" in text
        assert text.endswith("\n")

    def test_jsonl_lines(self):
        t = self._populated()
        lines = [json.loads(line) for line in to_jsonl(
            t.registry, t.tracer, meta={"run": "test"})]
        assert lines[0]["type"] == "metrics"
        assert lines[0]["meta"] == {"run": "test"}
        assert lines[0]["metrics"]["repro_train_epochs_total"] == 3.0
        spans = [rec for rec in lines[1:] if rec["type"] == "span"]
        assert [s["name"] for s in spans] == ["epoch-1", "gemm"]
        assert spans[1]["parent_id"] == spans[0]["span_id"]

    def test_spans_to_chrome_events_depth_rows(self):
        t = self._populated()
        events = spans_to_chrome_events(t.tracer)
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in complete} == {SPAN_PID}
        by_name = {e["name"]: e for e in complete}
        assert by_name["epoch-1"]["tid"] == 0
        assert by_name["gemm"]["tid"] == 1
        assert by_name["gemm"]["args"]["correlation"] == "epoch-1"
        meta = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} >= {"spans", "depth0", "depth1"}

    def test_merged_chrome_trace_disjoint_pids(self):
        t = self._populated()
        trace_a = [_event(device="gpu0"), _event(device="gpu1")]
        trace_b = [_event(device="gpu0")]
        merged = merged_chrome_trace({"train": trace_a, "serve": trace_b},
                                     t.tracer)
        pids = {}
        for ev in merged:
            if ev["ph"] == "M" and ev["name"] == "process_name":
                pids.setdefault(ev["args"]["name"], ev["pid"])
        # 2 train devices, 1 serve device, 1 span process — all distinct
        assert pids["train/gpu0"] == 0
        assert pids["train/gpu1"] == 1
        assert pids["serve/gpu0"] == 2
        assert pids["spans"] == SPAN_PID
        assert len(set(pids.values())) == 4

    def test_render_summary_mentions_metrics_and_spans(self):
        t = self._populated()
        text = render_summary(t.registry, t.tracer)
        assert "repro_train_loss" in text
        assert "spans: 2" in text
        assert "epoch-1" in text


# -- regression gate ----------------------------------------------------------


class TestGate:
    def test_flatten_numeric(self):
        flat = flatten_numeric(
            {"a": 1, "b": {"c": 2.5, "flag": True}, "d": [3, {"e": 4}], "s": "x"}
        )
        assert flat == {"a": 1.0, "b.c": 2.5, "d.0": 3.0, "d.1.e": 4.0}

    def test_identical_passes(self):
        base = {"m": 1.0, "n": 2.0}
        result = diff_metrics(base, dict(base))
        assert result.passed and result.compared == 2

    def test_within_default_tolerance_passes(self):
        result = diff_metrics({"m": 100.0}, {"m": 104.0})
        assert result.passed
        assert DEFAULT_RTOL == 0.05

    def test_beyond_tolerance_fails(self):
        result = diff_metrics({"m": 100.0}, {"m": 106.0})
        assert not result.passed
        assert result.failures[0].name == "m"
        assert "FAIL" in result.report()

    def test_missing_metric_fails_new_metric_noted(self):
        result = diff_metrics({"gone": 1.0}, {"fresh": 1.0})
        assert not result.passed
        assert result.failures[0].name == "gone"
        assert result.new_metrics[0].name == "fresh"

    def test_tolerance_patterns_first_match_wins(self):
        result = diff_metrics(
            {"lat_p99": 1.0, "lat_p50": 1.0},
            {"lat_p99": 1.2, "lat_p50": 1.2},
            tolerances={"lat_p99": 0.3, "lat_*": 0.01},
        )
        assert [d.name for d in result.failures] == ["lat_p50"]

    def test_ignore_patterns(self):
        result = diff_metrics({"noise": 1.0}, {"noise": 99.0}, ignore=["noi*"])
        assert result.passed and result.compared == 0

    def test_zero_baseline(self):
        assert diff_metrics({"z": 0.0}, {"z": 0.0}).passed
        assert not diff_metrics({"z": 0.0}, {"z": 0.1}).passed

    def test_snapshot_roundtrip(self, tmp_path):
        path = tmp_path / "snap.json"
        write_snapshot(path, {"m": 1.5}, meta={"run": "t"})
        assert load_metrics(path) == {"m": 1.5}
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-telemetry-snapshot"
        assert payload["meta"] == {"run": "t"}

    def test_bench_json_flattened_wholesale(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"results": [{"time": 1.0}], "name": "x"}))
        assert load_metrics(path) == {"results.0.time": 1.0}

    def test_tolerance_precedence_insertion_order(self):
        # first match wins in insertion order: a broad pattern listed
        # first shadows a narrower one listed later.
        from repro.telemetry import gate

        assert gate.resolve_tolerance(
            "lat_p99", {"lat_*": 0.5, "lat_p99": 0.0}, 0.05
        ) == 0.5
        assert gate.resolve_tolerance(
            "lat_p99", {"lat_p99": 0.0, "lat_*": 0.5}, 0.05
        ) == 0.0
        assert gate.resolve_tolerance("other", {"lat_*": 0.5}, 0.05) == 0.05

    def test_tolerance_precedence_gates_differently_by_order(self):
        base, cur = {"lat_p99": 1.0}, {"lat_p99": 1.2}
        loose_first = diff_metrics(base, cur,
                                   tolerances={"lat_*": 0.3, "lat_p99": 0.0})
        tight_first = diff_metrics(base, cur,
                                   tolerances={"lat_p99": 0.0, "lat_*": 0.3})
        assert loose_first.passed
        assert not tight_first.passed


class TestGateLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_metrics(tmp_path / "nope.json")

    def test_directory(self, tmp_path):
        with pytest.raises(ConfigurationError, match="directory"):
            load_metrics(tmp_path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="malformed JSON"):
            load_metrics(path)

    def test_no_numeric_metrics(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"name": "x", "notes": ["a", "b"]}))
        with pytest.raises(ConfigurationError, match="no numeric metrics"):
            load_metrics(path)

    def test_cli_summary_exits_cleanly(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["telemetry", "summary",
                         str(tmp_path / "nope.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_cli_diff_exits_cleanly_on_malformed(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        good = tmp_path / "good.json"
        good.write_text(json.dumps({"m": 1.0}))
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert cli_main(["telemetry", "diff", str(good), str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "malformed" in err

    def test_cli_diff_still_gates_good_files(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        a = tmp_path / "a.json"
        a.write_text(json.dumps({"m": 1.0}))
        assert cli_main(["telemetry", "diff", str(a), str(a)]) == 0
        assert "PASS" in capsys.readouterr().out


# -- bounded histograms -------------------------------------------------------


class TestBoundedHistogram:
    def test_exact_mode_is_bit_identical_to_reference(self):
        h = Histogram(max_exact=100, reservoir_size=100)
        values = [(i * 37 % 11) / 7.0 for i in range(100)]
        total = 0.0
        for v in values:
            h.observe(v)
            total += v
        assert h.exact
        assert h.count == 100
        assert h.sum == total
        assert h.max == max(values)
        assert h.mean == total / 100
        assert h.values() == values
        ordered = sorted(values)
        for q in (50, 95, 99):
            assert h.percentile(q) == nearest_rank(ordered, q)

    def test_degrades_past_threshold_and_stays_bounded(self):
        h = Histogram(max_exact=200, reservoir_size=64)
        for i in range(10_000):
            h.observe(float(i))
        assert not h.exact
        assert len(h.values()) == 64
        # count/sum/max stay exact forever.
        assert h.count == 10_000
        assert h.sum == float(sum(range(10_000)))
        assert h.max == 9999.0
        assert h.mean == h.sum / 10_000
        # quantiles are estimates from a uniform sample: sane bounds.
        assert 0.0 <= h.percentile(50) <= 9999.0

    def test_degradation_is_deterministic(self):
        def build():
            h = Histogram(max_exact=128, reservoir_size=32)
            for i in range(1000):
                h.observe(float(i * 13 % 997))
            return h

        a, b = build(), build()
        assert a.values() == b.values()
        assert a.percentile(99) == b.percentile(99)

    def test_reservoir_samples_cover_the_stream(self):
        h = Histogram(max_exact=100, reservoir_size=100)
        for i in range(50_000):
            h.observe(float(i))
        # Algorithm R keeps a uniform sample: the median estimate of
        # 0..49999 must land near the middle, not stick to the prefix.
        assert 10_000 < h.percentile(50) < 40_000

    def test_default_threshold_keeps_tier1_exact(self):
        from repro.telemetry.registry import DEFAULT_MAX_EXACT

        assert DEFAULT_MAX_EXACT >= 65536
        h = Histogram()
        for i in range(1000):
            h.observe(float(i))
        assert h.exact

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Histogram(reservoir_size=0)
        with pytest.raises(ConfigurationError):
            Histogram(max_exact=10, reservoir_size=100)

    def test_registry_flatten_unchanged_by_degradation(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_seconds")
        h.max_exact = 50
        h.reservoir_size = 16
        for i in range(200):
            h.observe(float(i))
        flat = reg.flatten()
        assert flat["repro_lat_seconds_count"] == 200.0
        assert flat["repro_lat_seconds_max"] == 199.0
        assert "repro_lat_seconds_p99" in flat


# -- serving metrics delegate -------------------------------------------------


class TestServingDelegation:
    def test_latency_percentile_delegates(self):
        from repro.serve.metrics import latency_percentile

        assert latency_percentile([3.0, 1.0, 2.0], 50) == 2.0
        with pytest.raises(ConfigurationError):
            latency_percentile([], 50)

    def test_serving_metrics_mirror_into_registry(self):
        from repro.serve.metrics import ServingMetrics

        class FakeRequest:
            def __init__(self, rid, arrival):
                self.request_id = rid
                self.arrival = arrival

        class FakeBatch:
            batch_id = 0
            dispatch_time = 1.0
            queue_depth = 2
            requests = [FakeRequest(0, 0.5), FakeRequest(1, 0.8)]
            size = 2

        reg = MetricsRegistry()
        metrics = ServingMetrics(registry=reg)
        metrics.observe_batch(FakeBatch(), completion=1.5)
        flat = reg.flatten()
        assert flat["repro_serving_requests_total"] == 2.0
        assert flat["repro_serving_batches_total"] == 1.0
        assert flat["repro_serving_latency_seconds_count"] == 2.0
        assert flat["repro_serving_queue_depth"] == 2.0
        # summary math stays on the private histogram
        assert metrics.summary()["latency_p99"] == pytest.approx(1.0)


@pytest.mark.telemetry
def test_exporter_sweep_large_registry():
    """Slow sweep: every exporter over a wide labeled registry."""
    t = Telemetry(run_id="sweep")
    root = t.tracer.begin("sweep", 0.0, correlation="sweep")
    for rank in range(8):
        for cat in ("gemm", "spmm", "comm", "opt"):
            for i in range(50):
                t.on_op(_event(
                    name=f"{cat}{i}", category=cat, device=f"gpu{rank}",
                    start=i * 1e-3, end=i * 1e-3 + 5e-4,
                    nbytes=1024 if cat == "comm" else 0,
                    flops=100.0 if cat != "comm" else 0.0,
                ))
        t.observe("repro_lat_seconds", rank * 0.01 + 0.001, device=f"gpu{rank}")
    t.tracer.end(root, 1.0)

    flat = t.registry.flatten()
    assert flat['repro_ops_total{category="gemm",device="gpu7"}'] == 50.0
    text = to_prometheus(t.registry)
    assert text.count("# TYPE") == len(list(t.registry.families()))
    lines = to_jsonl(t.registry, t.tracer)
    assert len(lines) == 1 + len(t.tracer.spans)
    merged = merged_chrome_trace(
        {"sweep": [_event(device=f"gpu{r}") for r in range(8)]}, t.tracer
    )
    assert any(e.get("ph") == "X" for e in merged)
    # gate against itself: always green
    assert diff_metrics(flat, dict(flat)).passed
