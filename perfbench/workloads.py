"""The benchmark's three workloads; each puts most of its time in another module.

- ``rate_tar``: a rate experiment on TAR(0.6, -0.3), then its delta profile
  and summability check.  The per-step Python Markov loop in ``models``
  dominates; it is the only workload that runs the Markov kernel.
- ``decompose_ar1``: the error decomposition of one AR(1) sample (the modulus
  sweep in ``diagnostics``), its delta profile (the ``lfilter`` path in
  ``dependence``) and frequency polygon queries on the sample's histogram
  (the query path in ``estimators``, the paper's cost claim).  ``models``
  only runs its vectorised path here, in set-up.
- ``cli_roundtrip``: the CLI's ``simulate`` to a file and ``estimate`` from
  it, through ``cli.main``, with ``--version`` in a fresh interpreter timed
  in set-up.  Interpreter start-up, imports and per-line parsing and
  formatting in ``cli`` dominate; ``estimators`` bins in chunks here.

The package is always reached through module attributes at call time, so a
traced pass runs the wrapped functions.  Checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from polyfreq import cli, dependence, diagnostics, estimators, models

#: problem sizes; ``tiny`` is for the smoke check only
SIZES = {
    "full": {
        "rate_log2n": (9, 16),
        "rate_reps": 10,
        "delta_kmax": 10,
        "delta_reps": 10_000,
        "decompose_n": 2**19,
        "query_batch": 10**6,
        "query_scalar": 10**4,
        "cli_rows": 10**6,
    },
    "tiny": {
        "rate_log2n": (6, 13),
        "rate_reps": 10,
        "delta_kmax": 10,
        "delta_reps": 1_000,
        "decompose_n": 2**14,
        "query_batch": 10**4,
        "query_scalar": 10**3,
        "cli_rows": 10**4,
    },
}

#: every named metric a workload reports, with its unit
NAMED_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
    "rate_s": "s",
    "delta_s": "s",
    "decompose_s": "s",
    "query_batch_s": "s",
    "query_s": "s",
    "query_scalar_p50_us": "us",
    "query_scalar_p99_us": "us",
    "cli_start_s": "s",
    "cli_start_rss_mb": "MB",
    "cli_simulate_s": "s",
    "cli_estimate_s": "s",
}

#: AR(1) delta estimates may sit this many standard errors from 0.5**k * sqrt(2)
DELTA_SE_LIMIT = 4.0

#: runs of each sub-second operation in an untraced pass, so that its median
#: rests on more samples than a run has passes
SHORT_OP_REPEATS = 3

#: iterations of the speed probe's loop, and the probe time that defines the
#: reference speed: a normalised second is a second at that speed
PROBE_LOOP = 100_000
PROBE_REF_S = 4.0e-3

CHILD_TIMEOUT_S = 150.0


@dataclass
class Env:
    """Where the code under test lives and how children are started."""

    root: Path
    work: Path
    nproc: int
    child_env: dict

    def import_probe(self) -> float:
        """Seconds a fresh interpreter spends in ``import polyfreq``."""
        code = ("import time; t = time.perf_counter(); import polyfreq; "
                "print(time.perf_counter() - t)")
        out = subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.child_env,
                             capture_output=True, text=True, check=True,
                             timeout=CHILD_TIMEOUT_S)
        return float(out.stdout.strip())


def speed_probe() -> float:
    """Median of five timings of a fixed pure-Python loop (about 4 ms each here)."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Stopwatch:
    """Times named operations, raw and normalised to the reference speed.

    The shared 2-core Xeon this benchmark was built on drifts in speed by up
    to 1.7x for seconds to minutes at a time, and every workload here is
    bound by the interpreter, like the probe.  The probe runs before the first operation and after each one;
    an operation's normalised time is its raw time times ``PROBE_REF_S``
    over the mean of the two probes around it.  An operation run ``repeat``
    times keeps the median of each.
    """

    def __init__(self):
        self.raw: dict[str, float] = {}
        self.norm: dict[str, float] = {}
        self._last = speed_probe()

    def time(self, name: str, fn, *args, repeat: int = 1, **kwargs):
        raws, norms = [], []
        for _ in range(repeat):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            raws.append(time.perf_counter() - start)
            after = speed_probe()
            norms.append(raws[-1] * PROBE_REF_S / (0.5 * (self._last + after)))
            self._last = after
        self.raw[name] = statistics.median(raws)
        self.norm[name] = statistics.median(norms)
        return result

    def timings(self, names: dict[str, str]) -> tuple[dict, dict]:
        """Normalised and raw timings under their metric names, plus ``wall_s``:
        the sum over the pass's operations, each counted once."""
        norm = {metric: self.norm[op] for metric, op in names.items()}
        raw = {metric: self.raw[op] for metric, op in names.items()}
        norm["wall_s"] = sum(self.norm.values())
        raw["wall_s"] = sum(self.raw.values())
        return norm, raw


@dataclass
class Pass:
    """One timed pass: named timings, outputs for the checks, their digest.

    ``timings`` are normalised to the reference speed; ``raw`` are as timed.
    """

    timings: dict
    raw: dict
    outputs: object
    digest: str


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def stage_seeds(seed: int, count: int) -> list[int]:
    """Independent stream seeds for the stages of one workload."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def digest(*parts) -> str:
    """sha256 over floats (exact hex form), arrays (raw bytes) and other reprs."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (list, tuple)):
            for item in x:
                feed(item)
        elif isinstance(x, float):
            h.update(x.hex().encode())
        else:
            h.update(repr(x).encode())
        h.update(b"|")

    feed(parts)
    return h.hexdigest()


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    name = ""
    main = ""    # named timing reported as the end-to-end ``main_s``
    second = ""  # named timing reported as ``second_s``

    @property
    def ops(self) -> int:
        """Operations one pass attempts."""
        raise NotImplementedError

    def __init__(self, env: Env, seed: int, scale: str, trace_mode: bool):
        self.env = env
        self.seed = seed
        self.size = SIZES[scale]
        # a traced run runs each operation once, so that per-layer sums
        # describe one execution
        self.repeats = 1 if trace_mode else SHORT_OP_REPEATS

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def checks(self, outputs) -> list[Check]:
        raise NotImplementedError

    def setup_metrics(self) -> dict:
        """Named metrics measured during set-up, as medians over its repeats."""
        return {}

    def cleanup(self) -> None:
        pass


class RateTar(Workload):
    name = "rate_tar"
    main = "rate_s"
    second = "delta_s"

    @property
    def ops(self) -> int:
        return 1 + 2 * self.repeats

    def setup(self) -> None:
        self.model = models.TarModel(0.6, -0.3)
        models.require_valid(self.model)
        lo, hi = self.size["rate_log2n"]
        self.n_values = [2**k for k in range(lo, hi + 1)]
        self.rate_seed, self.delta_seed = stage_seeds(self.seed, 2)

    def _delta(self):
        deltas = dependence.estimate_delta_profile(self.model, self.size["delta_kmax"],
                                                   self.size["delta_reps"], seed=self.delta_seed)
        return deltas, dependence.check_summability(deltas, 0.6)

    def run_pass(self) -> Pass:
        sw = Stopwatch()
        report = sw.time("rate", lambda: diagnostics.rate_experiment(
            self.model, self.n_values, self.size["rate_reps"], seed=self.rate_seed,
            max_workers=self.env.nproc))
        deltas, summary = sw.time("delta", self._delta, repeat=self.repeats)
        timings, raw = sw.timings({"rate_s": "rate", "delta_s": "delta"})
        out_digest = digest(
            [(r.n, r.replication, r.sup_error, r.grid_error_bound) for r in report.records],
            report.median_errors, report.fitted_slope, report.slope_ci,
            [(d.delta_hat, d.std_error) for d in deltas],
            summary.slope, summary.used_lags, summary.certificate_total,
        )
        return Pass(timings, raw, (report, summary), out_digest)

    def checks(self, outputs) -> list[Check]:
        report, summary = outputs
        slope = report.fitted_slope
        ci_lo, ci_hi = report.slope_ci
        shrink = report.median_errors[0] / report.median_errors[-1]
        return [
            Check("slope_in_gate", -0.45 <= slope <= -0.22,
                  f"slope {slope:.4f} in [-0.45, -0.22]"),
            Check("ci_brackets_slope", ci_lo <= slope <= ci_hi,
                  f"{ci_lo:.4f} <= {slope:.4f} <= {ci_hi:.4f}"),
            Check("median_error_shrinks_3x", shrink >= 3.0, f"shrink x{shrink:.3f}"),
            Check("summability_decay_ok", summary.conclusive and summary.decay_ok is True,
                  f"conclusive={summary.conclusive} decay_ok={summary.decay_ok} "
                  f"slope={summary.slope}"),
        ]


class DecomposeAr1(Workload):
    name = "decompose_ar1"
    main = "decompose_s"
    second = "query_s"

    @property
    def ops(self) -> int:
        return 1 + 2 * self.repeats + self.size["query_scalar"]

    def setup(self) -> None:
        self.model = models.ArmaModel(ar=(0.5,))
        sim_seed, query_seed, self.delta_seed = stage_seeds(self.seed, 3)
        n = self.size["decompose_n"]
        self.sample = models.simulate(self.model, n, seed=sim_seed)
        self.truth = models.marginal_truth(self.model)
        self.bandwidth = estimators.stone_bandwidth(n)
        self.hist = estimators.build_histogram(self.sample,
                                               estimators.BinningScheme(self.bandwidth))
        rng = np.random.default_rng(query_seed)
        lo = float(self.sample.min()) - 4.0 * self.bandwidth
        hi = float(self.sample.max()) + 4.0 * self.bandwidth
        self.queries = rng.uniform(lo, hi, self.size["query_batch"])
        self.scalar_queries = self.queries[: self.size["query_scalar"]].tolist()

    def _scalar_queries(self) -> tuple[np.ndarray, np.ndarray]:
        m = len(self.scalar_queries)
        scalar = np.empty(m)
        latency = np.empty(m)
        fp_eval = estimators.fp_eval
        hist = self.hist
        for i, x in enumerate(self.scalar_queries):
            start = time.perf_counter()
            scalar[i] = fp_eval(hist, x)
            latency[i] = time.perf_counter() - start
        return scalar, latency

    def run_pass(self) -> Pass:
        sw = Stopwatch()
        decomposition = sw.time("decompose", diagnostics.error_decomposition,
                                self.truth, self.sample, self.bandwidth)
        deltas = sw.time("delta", lambda: dependence.estimate_delta_profile(
            self.model, self.size["delta_kmax"], self.size["delta_reps"], seed=self.delta_seed),
            repeat=self.repeats)
        batch = sw.time("query_batch", lambda: estimators.fp_eval(self.hist, self.queries),
                        repeat=self.repeats)
        scalar, latency = sw.time("query_scalar", self._scalar_queries)
        timings, raw = sw.timings({"decompose_s": "decompose", "delta_s": "delta",
                                   "query_batch_s": "query_batch"})
        # the estimators query path: the batch and every scalar call
        for named, own in ((timings, sw.norm), (raw, sw.raw)):
            named["query_s"] = own["query_batch"] + own["query_scalar"]
        for q in (50, 99):
            raw[f"query_scalar_p{q}_us"] = float(np.percentile(latency, q)) * 1e6
            timings[f"query_scalar_p{q}_us"] = (raw[f"query_scalar_p{q}_us"]
                                                * sw.norm["query_scalar"]
                                                / sw.raw["query_scalar"])
        out_digest = digest(sorted(decomposition.items()),
                            [(d.delta_hat, d.std_error) for d in deltas], batch, scalar)
        return Pass(timings, raw, (decomposition, deltas, batch, scalar), out_digest)

    def checks(self, outputs) -> list[Check]:
        decomposition, deltas, batch, scalar = outputs
        classic = estimators.fp_eval_classic(self.hist, self.queries)
        route_gap = float(np.max(np.abs(batch - classic)))
        z = [abs(d.delta_hat - 0.5**d.lag * math.sqrt(2.0)) / d.std_error for d in deltas]
        # the coupled AR(1) difference at lag k is exactly 0.5**k times the
        # lag-0 difference, so the ratios hold to rounding on every seed
        ratio_gap = max(abs(d.delta_hat / deltas[0].delta_hat / 0.5**d.lag - 1.0)
                        for d in deltas)
        return [
            Check("sup_error_within_bound", decomposition["sup_error"] <= decomposition["bound"],
                  f"{decomposition['sup_error']:.6g} <= {decomposition['bound']:.6g}"),
            Check("operator_identity", route_gap <= 1e-12,
                  f"max |fp_eval - fp_eval_classic| = {route_gap:.3g}"),
            Check("scalar_equals_batch",
                  np.array_equal(scalar, batch[: len(scalar)]), f"{len(scalar)} queries"),
            Check("ar1_deltas_within_se", max(z) <= DELTA_SE_LIMIT,
                  f"max |delta - 0.5^k sqrt2| / SE = {max(z):.3f} <= {DELTA_SE_LIMIT}"),
            Check("ar1_delta_ratios", ratio_gap <= 1e-9,
                  f"max |delta_k / delta_0 / 0.5^k - 1| = {ratio_gap:.3g}"),
        ]


@dataclass
class CliRun:
    exit_code: int
    rss_mb: float | None
    stderr: str


class CliRoundtrip(Workload):
    name = "cli_roundtrip"
    main = "cli_estimate_s"
    second = "cli_simulate_s"

    def __init__(self, env: Env, seed: int, scale: str, trace_mode: bool):
        super().__init__(env, seed, scale, trace_mode)
        self.starts: list[tuple[float, float]] = []

    @property
    def ops(self) -> int:
        return 2

    def setup(self) -> None:
        self.model = models.ArmaModel(ar=(0.5,))
        (self.sim_seed,) = stage_seeds(self.seed, 1)
        self.env.work.mkdir(parents=True, exist_ok=True)
        # start-up is timed here, as a fresh interpreter, while the timed
        # passes call cli.main in-process: child timings here spread by up
        # to 0.25 from one set of ten runs to the next
        start = time.perf_counter()
        version = self._child(["--version"], "version")
        if version.exit_code != 0:
            raise RuntimeError(f"polyfreq --version exited {version.exit_code}: "
                               f"{version.stderr.strip()}")
        self.starts.append((time.perf_counter() - start, version.rss_mb))
        # paths relative to the checkout root keep the output headers, and so
        # the digests, independent of where the checkout sits
        work = self.env.work.relative_to(self.env.root)
        self.spec_path = work / "ar1.json"
        self.sim_path = work / "sample.csv"
        self.est_path = work / "estimate.csv"
        (self.env.root / self.spec_path).write_text(
            json.dumps(models.model_to_spec(self.model)), encoding="utf-8")

    def _child(self, argv: list[str], tag: str) -> CliRun:
        out_path = self.env.work / f"{tag}.stdout"
        err_path = self.env.work / f"{tag}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "polyfreq.cli", *argv],
                                    cwd=self.env.root, env=self.env.child_env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
                # keep the largest of every child reaped so far
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CliRun(proc.returncode, usage.ru_maxrss / 1024.0,
                      err_path.read_text(encoding="utf-8", errors="replace"))

    def _in_process(self, argv: list[str]) -> CliRun:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return CliRun(code, None, err.getvalue())

    def setup_metrics(self) -> dict:
        return {"cli_start_s": statistics.median(t for t, _ in self.starts),
                "cli_start_rss_mb": statistics.median(r for _, r in self.starts)}

    def run_pass(self) -> Pass:
        sw = Stopwatch()
        runs = []
        for tag, argv in (
            ("simulate", ["simulate", "--model", str(self.spec_path),
                          "--n", str(self.size["cli_rows"]), "--seed", str(self.sim_seed),
                          "--output", str(self.sim_path)]),
            ("estimate", ["estimate", "--input", str(self.sim_path),
                          "--output", str(self.est_path)]),
        ):
            runs.append(sw.time(tag, self._in_process, argv))
            if runs[-1].exit_code != 0:
                raise RuntimeError(f"polyfreq {tag} exited {runs[-1].exit_code}: "
                                   f"{runs[-1].stderr.strip()}")
        estimate = runs[-1]
        timings, raw = sw.timings({"cli_simulate_s": "simulate", "cli_estimate_s": "estimate"})
        files = [hashlib.sha256((self.env.root / p).read_bytes()).hexdigest()
                 for p in (self.sim_path, self.est_path)]
        out_digest = digest(files, estimate.stderr)
        return Pass(timings, raw, [r.exit_code for r in runs] + [estimate.stderr], out_digest)

    def checks(self, outputs) -> list[Check]:
        *codes, est_stderr = outputs
        rows = self.size["cli_rows"]
        sim_lines = (self.env.root / self.sim_path).read_text(encoding="utf-8").splitlines()
        values = np.array([float(s) for s in sim_lines if s and not s.startswith("#")])
        expected = models.simulate(self.model, rows, seed=self.sim_seed)
        summary = dict(field.split("=", 1) for field in est_stderr.split() if "=" in field)
        hist = estimators.build_histogram(
            values, estimators.BinningScheme(estimators.stone_bandwidth(rows)))
        est_lines = (self.env.root / self.est_path).read_text(encoding="utf-8").splitlines()
        table = np.array([[float(v) for v in line.split(",")] for line in est_lines
                          if line and not line.startswith(("#", "x,"))])
        grid, fp = table[:, 0], table[:, 2]
        mass = float(np.sum(0.5 * (fp[1:] + fp[:-1]) * np.diff(grid)))
        return [
            Check("exit_codes_zero", codes == [0, 0], f"exit codes {codes}"),
            Check("simulate_rows_bit_equal",
                  values.size == rows and np.array_equal(values, expected),
                  f"{values.size} rows against simulate(model, {rows}, seed)"),
            Check("estimate_p_n", int(summary.get("p_n", -1)) == hist.occupied,
                  f"stderr p_n={summary.get('p_n')} vs occupied={hist.occupied}"),
            Check("fp_column_equals_fp_eval",
                  np.array_equal(fp, estimators.fp_eval(hist, grid)), f"{grid.size} grid points"),
            Check("fp_mass_near_one", abs(mass - 1.0) <= 1e-3, f"trapezoid mass {mass:.6f}"),
        ]

    def cleanup(self) -> None:
        for p in (self.sim_path, self.est_path):
            (self.env.root / p).unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (RateTar, DecomposeAr1, CliRoundtrip)}
