"""The benchmark's own tests: span arithmetic and metric sensitivity.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The sensitivity tests start the benchmark in subprocesses (about two
minutes in all).
"""

import json
import os
import statistics
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

from tracing import OTHER, Recorder, summarize  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BOUNDS = {m["name"]: (m["bound"], m["better"])
              for m in json.load(_fh)["end_to_end"]}


def test_self_times_of_a_synthetic_nest():
    spans = [
        [OTHER, 0.0, 10.0, -1],
        ["x", 1.0, 5.0, 0],
        ["y", 2.0, 3.0, 1],
        ["y", 3.5, 4.5, 1],
        ["x", 6.0, 9.0, 0],
        ["x", 7.0, 8.0, 4],   # x re-entered from inside x
        ["y", 7.2, 7.7, 5],
    ]
    self_s, total_s, calls = summarize(spans)
    assert self_s == pytest.approx({OTHER: 3.0, "x": 4.5, "y": 2.5})
    assert sum(self_s.values()) == pytest.approx(10.0)
    # entries only: the nested x call is not a second entry into x.
    assert calls == {OTHER: 1, "x": 2, "y": 3}
    assert total_s == pytest.approx({OTHER: 10.0, "x": 7.0, "y": 2.5})


def test_child_coverage_is_clipped_and_merged():
    spans = [
        [OTHER, 0.0, 4.0, -1],
        ["x", 1.0, 3.0, 0],
        ["y", 0.5, 1.5, 1],   # starts before its parent
        ["y", 1.2, 2.0, 1],   # overlaps its sibling
    ]
    self_s, _, _ = summarize(spans)
    assert self_s["x"] == pytest.approx(2.0 - 1.0)
    assert self_s[OTHER] == pytest.approx(2.0)


def test_recorder_tiles_each_root_and_ignores_calls_outside_roots():
    recorder = Recorder()

    def leaf():
        return sum(range(100))

    def outer():
        return leaf() + leaf()

    leaf = recorder.wrap(leaf, "leaf")
    outer = recorder.wrap(outer, "outer")
    outer()  # no root open: not recorded
    for _ in range(3):
        recorder.begin("step")
        outer()
        leaf()
        recorder.end()
    totals = recorder.scopes["step"]
    assert totals.roots == 3
    assert totals.calls["outer"] == 3
    assert totals.calls["leaf"] == 9
    assert sum(totals.self_s.values()) == pytest.approx(totals.root_s)
    assert totals.max_tiling_error < 1e-9


def _bench(workload, trace, delay_ms=None, seconds=3, seed=11):
    cmd = [sys.executable]
    if delay_ms is None:
        cmd.append(os.path.join(PERFBENCH, "run.py"))
    else:
        cmd += [os.path.join(PERFBENCH, "tests", "delayed_run.py"),
                str(delay_ms)]
    cmd += ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


DELAY_MS = 40.0


def test_replay_delay_moves_replay_compute():
    base = _bench("train-replay-compute", 0)
    slow = _bench("train-replay-compute", 0, DELAY_MS)
    bound, _ = BOUNDS["step_host_ms_p50"]
    moved = slow["step_host_ms_p50"] - base["step_host_ms_p50"]
    assert moved == pytest.approx(DELAY_MS, rel=0.5)
    assert slow["step_host_ms_p50"] > base["step_host_ms_p50"] * (1 + bound)
    base_t = _bench("train-replay-compute", 1)
    slow_t = _bench("train-replay-compute", 1, DELAY_MS)
    moved = slow_t["plan.replay_ms"] - base_t["plan.replay_ms"]
    assert moved == pytest.approx(DELAY_MS, rel=0.5)


def test_replay_delay_leaves_eager_launch_within_bounds():
    runs = {"base": [], "slow": []}
    for _ in range(3):  # alternate, and compare medians, as a gate would
        runs["base"].append(_bench("train-eager-launch", 0, seconds=5))
        runs["slow"].append(_bench("train-eager-launch", 0, DELAY_MS,
                                   seconds=5))
    for name, (bound, better) in BOUNDS.items():
        base = statistics.median(r[name] for r in runs["base"])
        slow = statistics.median(r[name] for r in runs["slow"])
        if better == "lower":
            assert slow <= base * (1 + bound), name
        else:
            assert slow >= base * (1 - bound), name
