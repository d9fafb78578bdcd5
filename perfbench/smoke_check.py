"""Smoke check of the benchmark itself: every workload at tiny sizes.

    python3 perfbench/smoke_check.py

Runs ``run.py --scale tiny`` on each workload, untraced and traced, and
fails unless the last line of each run names exactly the metrics declared in
``BENCHMARK.json`` (end-to-end untraced, per-layer traced), each with its
declared unit and a finite value, and no operation or check failed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def check_run(workload: str, trace: int, declared: list[dict]) -> list[str]:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: fail_ratio {result['failed']}/{result['attempted']}\n"
                        f"{proc.stdout}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"{where}: emitted {sorted(metrics)}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r} != {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            found = check_run(workload, trace, spec[key])
            print(f"{workload:<14} trace={trace} {'ok' if not found else 'FAIL'}", flush=True)
            problems.extend(found)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
