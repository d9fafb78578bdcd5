"""Run every workload on several seeds and summarise the run-to-run spread.

    python3 perfbench/baseline.py --trace-seed 1 --out perfbench/baseline/BENCH_<tag>.json
    python3 perfbench/baseline.py --against perfbench/baseline/BENCH_<tag>.json \\
        --out perfbench/baseline/BENCH_<tag>_set2.json

Each run is ``run.py --trace 0`` on one of the seeds 1..10; the workloads of
``BENCHMARK.json`` run one after another, never two at once.  For every
end-to-end metric the summary gives the median of the runs, the first and
third quartiles as ``statistics.quantiles(values, n=4)`` computes them, and
their distance as a share of the median, next to the metric's bound.  Every
named metric is summarised twice: normalised to the reference speed, as
reported, and as timed, so that the two spreads can be compared.  With
``--trace-seed`` one traced run per workload adds the per-layer metrics.
With ``--against`` the summary also gives each end-to-end median's change
from an earlier summary, as a share of the earlier median, and whether every
seed's output digest is the same in both.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.splitlines()[-1])
    detail = BENCH_DIR / ".work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return {"last_line": last, "detail": json.loads(detail.read_text(encoding="utf-8"))}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--against", default=None, help="an earlier summary to compare with")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    earlier = (json.loads(Path(args.against).read_text(encoding="utf-8"))
               if args.against else None)
    summary = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = []
        for seed in SEEDS:
            r = run(name, seed, spec["run_seconds"], 0)
            runs.append(r)
            print(name, seed, json.dumps({k: round(v["value"], 4) for k, v in
                                          r["last_line"]["metrics"].items()}), flush=True)
        entry = {
            "provenance": runs[0]["detail"]["provenance"],
            "all_correct": all(r["last_line"]["correct"] for r in runs),
            "failed": sum(r["last_line"]["failed"] for r in runs),
            "digests": {str(s): r["detail"]["digest"] for s, r in zip(SEEDS, runs)},
            "end_to_end": {},
            "named": {},
        }
        for metric in spec["end_to_end"]:
            values = [r["last_line"]["metrics"][metric["name"]]["value"] for r in runs]
            entry["end_to_end"][metric["name"]] = {**spread(values), "bound": metric["bound"],
                                                   "unit": metric["unit"], "values": values}
        for key, first in runs[0]["detail"]["named"].items():
            entry["named"][key] = {**spread([r["detail"]["named"][key]["value"] for r in runs]),
                                   "unit": first["unit"]}
            if key in runs[0]["detail"]["named_raw"]:
                raw = spread([r["detail"]["named_raw"][key] for r in runs])
                entry["named"][key]["raw_median"] = raw["median"]
                entry["named"][key]["raw_spread"] = raw["spread"]
        if args.trace_seed is not None:
            traced = run(name, args.trace_seed, spec["run_seconds"], 1)
            entry["per_layer_seed"] = args.trace_seed
            entry["per_layer"] = traced["last_line"]["metrics"]
        if earlier is not None:
            before = earlier["workloads"][name]
            entry["against"] = {
                "digests_equal": before["digests"] == entry["digests"],
                "median_change": {m: s["median"] / before["end_to_end"][m]["median"] - 1.0
                                  for m, s in entry["end_to_end"].items()},
            }
        summary["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            change = (f" change {entry['against']['median_change'][metric]:+.4f}"
                      if earlier is not None else "")
            print(f"{name:<14} {metric:<12} median {s['median']:.4f} spread {s['spread']:.4f} "
                  f"bound {s['bound']}{change}", flush=True)
        print(f"{name:<14} digests {len(set(entry['digests'].values()))} distinct over "
              f"{len(SEEDS)} seeds, failed {entry['failed']}"
              + (f", equal to the earlier set: {entry['against']['digests_equal']}"
                 if earlier is not None else ""), flush=True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
