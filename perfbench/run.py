"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-eager-launch --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps each layer's public calls (see ``tracing.py``),
prints the per-layer metrics, and writes the kept spans to
``.perfbench/spans-<workload>-<seed>.json``. Lines before the last one
are notes (output digests, failed checks); the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def bootstrap() -> None:
    """Make the checkout's ``repro`` importable, and only that one."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro sources under {SRC}")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    # one thread per BLAS call: the benchmark is a single process and
    # must not oversubscribe the cores it shares.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()

    import tracing

    recorder = None
    notes = []
    if args.trace:
        recorder = tracing.Recorder()
        notes += [f"not traced, absent: {name}"
                  for name in tracing.install(recorder)]

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    outcome = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, recorder)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    if recorder is None:
        values = workloads.end_to_end(outcome)
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    else:
        values = workloads.per_layer(outcome, recorder)
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir,
                            f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(recorder.dump(), fh)
    for note in notes + outcome.notes:
        print(note)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
