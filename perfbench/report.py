#!/usr/bin/env python3
"""Print every end-to-end and per-layer metric of every workload, with units.

Usage (from the repository root):

    python3 perfbench/report.py

Runs ``perfbench/run.py`` once untraced and once traced per workload, at
seed 1 for ``run_seconds`` from ``BENCHMARK.json``, and prints one table
per workload.  For another seed or a single workload, call ``run.py``.
Per-layer metrics of layers the workload does not call read 0.  Exits 1
if any run fails or reports an incorrect output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        seconds = str(json.load(fh)["run_seconds"])
    ok = True
    for name in WORKLOADS:
        print(f"== {name} (seed 1)")
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", "1", "--seconds", seconds, "--trace", str(trace)],
                cwd=os.path.dirname(HERE), capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            print(f"  {'per-layer' if trace else 'end-to-end'}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                print(f"    {line}")
            for metric, m in result["metrics"].items():
                print(f"    {metric:<52} {m['value']:>16.6g} {m['unit']}")
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
