#!/usr/bin/env python
"""Smoke-run the repository benchmark (`make hostbench-smoke`).

Runs every hostbench workload once, briefly, at the pinned seed::

    python3 benchmarks/hostbench/run.py --workload W --seed 0 \
        --seconds 1 --trace 0

and fails unless each run's last line of standard output is a JSON
object with ``"correct": true``.  Seed 0 is the pinned scenario, so
this checks the simulated results and the seed-0 pins of
``benchmarks/perf/baseline.json`` end to end; the timings it prints are
not compared with anything.

Exit codes: 0 every workload correct, 1 otherwise.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RUN = REPO / "benchmarks" / "hostbench" / "run.py"


def _workloads() -> tuple:
    spec = importlib.util.spec_from_file_location("hostbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def run_workload(workload: str) -> tuple[bool, str]:
    """Run one workload; returns (correct, the result line or error)."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=REPO, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return False, f"exit {done.returncode}: {tail}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return False, f"last line is not JSON: {lines[-1]}"
    return result.get("correct") is True, lines[-1]


def main() -> int:
    failed = []
    for workload in _workloads():
        correct, detail = run_workload(workload)
        print(f"{workload}: {'ok' if correct else 'FAILED'} {detail}")
        if not correct:
            failed.append(workload)
    if failed:
        print(f"hostbench-smoke FAILED: {', '.join(failed)}")
        return 1
    print("hostbench-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
