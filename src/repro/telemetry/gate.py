"""Perf-regression gating: diff a metrics snapshot against a baseline.

The gate compares flat ``name -> value`` maps with per-metric relative
tolerances. Baselines can be telemetry snapshots (written by
``repro telemetry run`` / :func:`write_snapshot`) or the repo's
benchmark emissions (``BENCH_epoch_replay.json``, ``BENCH_serving.json``,
``BENCH_telemetry.json``) — arbitrary nested JSON is flattened into
dotted paths so any numeric leaf becomes a gateable metric.

Semantics: a metric present in the baseline but missing from the
current run FAILS (a deleted measurement hides regressions); a new
metric only noted. Tolerance patterns are ``fnmatch`` globs matched
against the flattened name, first match wins, so a config can say
``{"*_p99*": 0.15, "repro_flops_total": 0.0}``.
"""

from __future__ import annotations

import fnmatch
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError

PathLike = Union[str, os.PathLike]

SNAPSHOT_FORMAT = "repro-telemetry-snapshot"

#: default relative tolerance: 5%, matching the instrumentation budget.
DEFAULT_RTOL = 0.05


def flatten_numeric(obj, prefix: str = "") -> Dict[str, float]:
    """Flatten nested dicts/lists to ``a.b.0.c -> float`` leaves.

    Non-numeric leaves are dropped; bools are not numbers here.
    """
    out: Dict[str, float] = {}
    if isinstance(obj, Mapping):
        for key in obj:
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_numeric(obj[key], path))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            path = f"{prefix}.{i}" if prefix else str(i)
            out.update(flatten_numeric(item, path))
    elif isinstance(obj, bool):
        pass
    elif isinstance(obj, (int, float)):
        out[prefix] = float(obj)
    return out


def load_metrics(path: PathLike) -> Dict[str, float]:
    """Load a baseline: snapshot files use their ``metrics`` map, any
    other JSON (BENCH_*.json) is flattened wholesale.

    Missing, unreadable, malformed, or metric-free files raise
    :class:`~repro.errors.ConfigurationError` — the CLI turns that into
    a one-line message and a non-zero exit, not a traceback.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"metrics file not found: {path}") from None
    except IsADirectoryError:
        raise ConfigurationError(
            f"metrics path is a directory, expected a JSON file: {path}"
        ) from None
    except json.JSONDecodeError as err:
        raise ConfigurationError(
            f"malformed JSON in metrics file {path}: {err}"
        ) from None
    except OSError as err:
        raise ConfigurationError(
            f"cannot read metrics file {path}: {err}"
        ) from None
    if isinstance(payload, Mapping) and payload.get("format") == SNAPSHOT_FORMAT:
        flat = flatten_numeric(payload.get("metrics", {}))
    else:
        flat = flatten_numeric(payload)
    if not flat:
        raise ConfigurationError(
            f"no numeric metrics found in {path} (empty or non-numeric JSON)"
        )
    return flat


def write_snapshot(
    path: PathLike, metrics: Mapping[str, float], meta: Optional[dict] = None
) -> None:
    payload = {
        "format": SNAPSHOT_FORMAT,
        "meta": dict(meta or {}),
        "metrics": dict(metrics),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class Deviation:
    name: str
    baseline: Optional[float]
    current: Optional[float]
    rtol: float

    def describe(self) -> str:
        if self.current is None:
            return f"{self.name}: missing from current run (baseline {self.baseline:g})"
        if self.baseline is None:
            return f"{self.name}: new metric (current {self.current:g})"
        rel = _relative_delta(self.baseline, self.current)
        return (
            f"{self.name}: {self.baseline:g} -> {self.current:g} "
            f"({rel:+.1%}, tolerance ±{self.rtol:.0%})"
        )


@dataclass
class GateResult:
    passed: bool
    failures: List[Deviation] = field(default_factory=list)
    new_metrics: List[Deviation] = field(default_factory=list)
    compared: int = 0

    def report(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"telemetry gate: {verdict} ({self.compared} metrics compared)"]
        for dev in self.failures:
            lines.append(f"  FAIL {dev.describe()}")
        for dev in self.new_metrics:
            lines.append(f"  note {dev.describe()}")
        return "\n".join(lines)


def _relative_delta(baseline: float, current: float) -> float:
    if baseline == 0.0:
        return 0.0 if current == 0.0 else float("inf")
    return (current - baseline) / abs(baseline)


def resolve_tolerance(
    name: str,
    tolerances: Optional[Mapping[str, float]],
    default_rtol: float,
) -> float:
    """First-match-wins fnmatch lookup over the tolerance patterns."""
    if tolerances:
        for pattern, rtol in tolerances.items():
            if fnmatch.fnmatchcase(name, pattern):
                return rtol
    return default_rtol


def diff_metrics(
    baseline: Mapping[str, float],
    current: Mapping[str, float],
    default_rtol: float = DEFAULT_RTOL,
    tolerances: Optional[Mapping[str, float]] = None,
    ignore: Sequence[str] = (),
) -> GateResult:
    """Gate ``current`` against ``baseline``; see module docstring."""
    result = GateResult(passed=True)
    for name in sorted(baseline):
        if any(fnmatch.fnmatchcase(name, pat) for pat in ignore):
            continue
        rtol = resolve_tolerance(name, tolerances, default_rtol)
        base = baseline[name]
        if name not in current:
            result.failures.append(Deviation(name, base, None, rtol))
            continue
        result.compared += 1
        cur = current[name]
        if abs(_relative_delta(base, cur)) > rtol:
            result.failures.append(Deviation(name, base, cur, rtol))
    for name in sorted(set(current) - set(baseline)):
        if any(fnmatch.fnmatchcase(name, pat) for pat in ignore):
            continue
        result.new_metrics.append(
            Deviation(name, None, current[name], default_rtol)
        )
    result.passed = not result.failures
    return result
