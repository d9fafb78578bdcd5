"""Run one benchmark workload against the polyfreq source in this checkout.

    python3 perfbench/run.py --workload rate_tar --seed 1 --seconds 20 --trace 0

The code under test is imported from ``src/``; the package need not be
installed.  Set-up (a fresh-interpreter ``import polyfreq`` plus the
workload's inputs) runs several times and reports its median, as timed.
Passes of the workload then repeat until ``--seconds`` have elapsed, and each
timing is the median over passes.  Pass timings are normalised to a reference
machine speed by a short pure-Python probe run around every operation (see
``workloads.Stopwatch``); the raw timings are reported beside them.  Outputs
are checked after the timed region, and every pass must produce the same
output digest.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including the
tracing overhead; its spans are written under ``perfbench/.work/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
named metric, the checks, the output digest and the provenance.
``--workload all`` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK = BENCH_DIR / ".work"

#: set-ups per run; ``setup_s`` is their median.  Set-up is mostly fresh
#: interpreters, which the in-process speed probe cannot follow, so it is
#: reported as timed
SETUP_REPEATS = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("rate_tar", "decompose_ar1", "cli_roundtrip")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="problem sizes; tiny is for the smoke check")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "polyfreq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT / "src"),
    }


def median(values) -> float:
    return float(statistics.median(values))


def measure(wl, seconds: float, tracer, package):
    """Repeat passes for about ``seconds``; with a tracer, every second pass is traced.

    Another pass starts only if it would end less than half a pass past the
    deadline, judged by the previous pass, so a run takes about ``seconds``.
    """
    import tracing

    passes, failures = [], 0
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        run_id = f"{wl.name}-seed{wl.seed}-pass{index}"
        if traced:
            tracer.begin(run_id)
            tracer.install(package)
        try:
            result = wl.run_pass()
        except Exception:
            failures += 1
            traceback.print_exc(file=sys.stderr)
            break
        finally:
            if traced:
                tracer.restore()
        layers = None
        if traced:
            spans = [s for s in tracer.spans if s.run_id == run_id]
            layers = tracing.layer_metrics(spans, tracer.counts)
        passes.append((traced, result, layers))
        now = time.perf_counter()
        if now + 0.5 * (now - started) >= deadline and (tracer is None or len(passes) >= 2):
            break
    return passes, failures


def run_workload(args, spec: dict) -> int:
    nproc = len(os.sched_getaffinity(0))
    src = ROOT / "src"
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p)
    sys.path.insert(0, str(src))
    os.chdir(ROOT)

    import polyfreq
    if Path(polyfreq.__file__).resolve().parent != (src / "polyfreq").resolve():
        print(f"perfbench: imported polyfreq from {polyfreq.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import tracing
    import workloads

    env = workloads.Env(ROOT, WORK, nproc, child_env)
    wl = workloads.WORKLOADS[args.workload](env, args.seed, args.scale, bool(args.trace))
    setup_times, import_times = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_times.append(env.import_probe())
        wl.setup()
        setup_times.append(time.perf_counter() - start)

    tracer = tracing.Tracer(tracing.make_hooks(polyfreq)) if args.trace else None
    try:
        passes, failures = measure(wl, args.seconds, tracer, polyfreq)
        self_rss = workloads.self_peak_rss_mb()
        if not passes:
            print("perfbench: no pass completed", file=sys.stderr)
            return 1
        checks = wl.checks(passes[-1][1].outputs)
    finally:
        wl.cleanup()
    digests = [p.digest for _, p, _ in passes]
    checks.append(workloads.Check("outputs_repeat", len(set(digests)) == 1,
                                  f"{len(set(digests))} distinct digest(s) over "
                                  f"{len(digests)} passes"))
    attempted = (len(passes) + failures) * wl.ops + len(checks)
    failed = failures + sum(not c.ok for c in checks)

    plain = [p for traced, p, _ in passes if not traced]
    named = {"setup_s": median(setup_times)}
    named_raw = {}
    for key in plain[0].timings:
        named[key] = median(p.timings[key] for p in plain)
        named_raw[key] = median(p.raw[key] for p in plain)
    named.update(wl.setup_metrics())
    named["peak_rss_mb"] = self_rss
    named["fail_ratio"] = failed / attempted

    if args.trace:
        traced = [(p, layers) for t, p, layers in passes if t]
        if not traced:
            print("perfbench: no traced pass completed", file=sys.stderr)
            return 1
        computed = {name: median(layers[name] for _, layers in traced)
                    for name in traced[0][1]}
        computed["cli.import_s"] = median(import_times)
        computed["trace.overhead_ratio"] = (median(p.timings["wall_s"] for p, _ in traced)
                                            / named["wall_s"])
        declared = spec["per_layer"]
        tracer.dump(str(WORK / "spans" / f"{wl.name}-seed{wl.seed}.jsonl"))
    else:
        computed = {
            "setup_s": named["setup_s"],
            "wall_s": named["wall_s"],
            "main_s": named[wl.main],
            "second_s": named[wl.second],
            "peak_rss_mb": named["peak_rss_mb"],
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "passes": len(passes),
        "traced_passes": sum(t for t, _, _ in passes),
        "named": {k: {"value": v, "unit": workloads.NAMED_UNITS[k]} for k, v in named.items()},
        "named_raw": named_raw,
        "pass_timings": [p.timings for _, p, _ in passes],
        "pass_raw_timings": [p.raw for _, p, _ in passes],
        "checks": [vars(c) for c in checks],
        "digest": digests[0],
        "provenance": provenance(nproc),
        "metrics": metrics,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out_path = WORK / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"# {wl.name} seed={args.seed} trace={args.trace} scale={args.scale} "
          f"passes={len(passes)}")
    print(f"# provenance {json.dumps(result['provenance'], sort_keys=True)}")
    for key, value in named.items():
        raw = f"  (raw {named_raw[key]:.6f})" if key in named_raw else ""
        print(f"{wl.name:<14} {key:<22} {value:>14.6f} {workloads.NAMED_UNITS[key]:<5}{raw}")
    for c in checks:
        print(f"check {'ok  ' if c.ok else 'FAIL'} {c.name:<26} {c.detail}")
    print(f"digest {digests[0]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        child = json.loads(lines[-1])
        total["correct"] = total["correct"] and child["correct"]
        total["attempted"] += child["attempted"]
        total["failed"] += child["failed"]
        for key, value in child["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "polyfreq" / "__init__.py").is_file():
        print(f"perfbench: no polyfreq source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
