"""Run the benchmark with a fixed delay injected into plan replay.

Usage::

    python3 perfbench/tests/delayed_run.py <delay-ms> <run.py arguments>

Every ``ExecutionPlan.replay`` call first repeats the benchmark's
calibration loop until it has done ``delay-ms`` of work at the nominal
speed. A delay made of work, not of sleeping, slows with the machine
as the rest of the step does, so the speed-normalised metrics should
move by exactly ``delay-ms``.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402


def main() -> int:
    delay_ms = float(sys.argv[1])
    run.bootstrap()
    from repro.plan.plan import ExecutionPlan

    import workloads

    repeats = round(delay_ms / (workloads.CALIB_NOMINAL_S * 1e3))
    replay = ExecutionPlan.replay

    def delayed_replay(self, engine, t0):
        for _ in range(repeats):
            workloads.calibrate()
        return replay(self, engine, t0)

    ExecutionPlan.replay = delayed_replay
    return run.main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
