"""Sup-norm error measurement and empirical-process diagnostics.

This module quantifies how far a density estimate sits from the truth
(:func:`sup_error`), computes the exact modulus of continuity of the scaled
empirical process ``sqrt(n) (F_n - F)`` over windows of a given width
(:func:`modulus_exact`), and runs the convergence-rate experiment that
checks the estimator's sup-norm error against the expected
``(log(n)/n)**(1/3)`` schedule (:func:`rate_experiment`) along one sample
path per replication: each sample size takes a prefix of the same paths.

The modulus is computed by structural search rather than grid scanning:
over half-open windows ``(v, u]`` the positive excursions of the
empirical-minus-truth mass are extremal with the window's right end at a
sample point, and the negative excursions with the window opening at one
of three anchor families: a width-b downshift of a sample point, the
sample point itself, or a peak of the truth's window mass
``F(v + b) - F(v)``.  Each truth gives its peaks exactly
(``MarginalTruth.window_peaks``): ``mean - b/2`` for a gaussian truth and
the interpolation kinks for the TAR oracle.  The families are searched one
at a time, each reusing what the positive half already holds, with the
maximum of each window read from a sparse-table range query: the exact
supremum in O(n log n) time and O(n) memory.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .estimators import (
    BinningScheme,
    EmpiricalCdf,
    SparseHistogram,
    build_histogram,
    cdf_bin_density,
    fp_eval,
    stone_bandwidth,
)
from .models import (
    MarginalTruth,
    Model,
    _check_batch,
    _check_seeds,
    _count,
    marginal_truth,
    resolve_burn_in,
    simulate_rows,
)

__all__ = [
    "SupErrorRecord",
    "RateReport",
    "DegenerateFitError",
    "make_eval_grid",
    "sup_error",
    "modulus_exact",
    "modulus_envelope",
    "fit_loglog_slope",
    "rate_experiment",
    "fp_max_slope",
    "error_decomposition",
]

#: evaluation grids place this many points per bin width (discretization
#: error then sits provably below the estimator error scale)
GRID_POINTS_PER_BIN = 10

#: evaluation grids extend this many bin widths beyond the truth's support
GRID_MARGIN_BINS = 4

#: largest evaluation grid, 80 MB per evaluated column
MAX_GRID_POINTS = 10**7


class DegenerateFitError(ValueError):
    """Slope fit rejected: the errors carry no usable variation."""


# ---------------------------------------------------------------------------
# sup-norm error
# ---------------------------------------------------------------------------


def _eval_grid_span(lo: float, hi: float, bandwidth: float) -> tuple[float, float, int]:
    """Ends and point count of :func:`make_eval_grid`'s grid, counted before any allocation.

    A grid of more than ``MAX_GRID_POINTS`` points raises ``OverflowError``.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid ends lo and hi must be finite, got [{lo}, {hi}]")
    if not (hi > lo):
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    if not 0.0 < bandwidth < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth!r}")
    start = lo - GRID_MARGIN_BINS * bandwidth
    stop = hi + GRID_MARGIN_BINS * bandwidth
    spacing = bandwidth / GRID_POINTS_PER_BIN
    steps = (stop - start) / spacing
    if not steps <= MAX_GRID_POINTS - 1:
        raise OverflowError(f"an evaluation grid over [{start!r}, {stop!r}] at spacing "
                            f"{spacing!r}, more than {MAX_GRID_POINTS} points "
                            f"({steps + 1:.6g})")
    return start, stop, math.ceil(steps) + 1


def make_eval_grid(lo: float, hi: float, bandwidth: float) -> np.ndarray:
    """Uniform grid over ``[lo - 4b, hi + 4b]`` with spacing ``b/10``.

    Ends that are not finite and a bandwidth that is not positive and
    finite are refused with ``ValueError``, and a grid of more than
    ``MAX_GRID_POINTS`` points with ``OverflowError``, before it is
    allocated.
    """
    return np.linspace(*_eval_grid_span(lo, hi, bandwidth))


def sup_error(estimate: Callable, truth: Callable, eval_grid) -> float:
    """Max absolute deviation between estimate and truth over a grid."""
    grid = np.asarray(eval_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("eval_grid must be a 1-d array with at least 2 points")
    return float(np.max(np.abs(np.asarray(estimate(grid), dtype=float)
                               - np.asarray(truth(grid), dtype=float))))


def fp_max_slope(h: SparseHistogram) -> float:
    """Steepest segment slope of the frequency polygon built on ``h``."""
    b = h.scheme.bin_width
    denom = h.n * b
    dens = h.values / denom
    # keys are sorted, so bin z - 1 (z + 1), if occupied, is the entry before
    # (after) bin z's
    adjacent = np.diff(h.keys) == 1
    left = np.concatenate(([0], np.where(adjacent, h.values[:-1], 0))) / denom
    right = np.concatenate((np.where(adjacent, h.values[1:], 0), [0])) / denom
    steepest = np.maximum(np.abs(dens - left) / b, np.abs(dens - right) / b)
    return float(np.max(steepest, initial=0.0))


# ---------------------------------------------------------------------------
# empirical process and its modulus of continuity
# ---------------------------------------------------------------------------


def _range_maxima(values: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Maxima of ``values[starts[i]:stops[i]]`` for arbitrary windows.

    A sparse table for range maxima (Bender & Farach-Colton, 2000) built
    one level at a time: level ``j`` holds the maxima of every run of
    ``2**j`` values and answers the windows whose length has
    ``floor(log2) == j`` from two overlapping runs.  Only the current level
    is kept, so memory stays O(n) and time O(n log n).  Empty windows yield
    -inf.
    """
    out = np.full(len(starts), -math.inf)
    # level floor(log2(length)) from the float exponent, exact for lengths
    # below 2**53; empty windows get level -1 and keep their default
    levels = np.frexp(np.maximum(stops - starts, 0))[1] - 1
    order = np.argsort(levels, kind="stable")
    bounds = np.searchsorted(levels, np.arange(levels.max(initial=-1) + 2), sorter=order)
    layer = values
    for j in range(len(bounds) - 1):
        if j:
            half = 1 << (j - 1)
            layer = np.maximum(layer[:-half], layer[half:])
        q = order[bounds[j]:bounds[j + 1]]
        out[q] = np.maximum(layer[starts[q]], layer[stops[q] - (1 << j)])
    return out


def modulus_exact(ecdf: EmpiricalCdf, truth: MarginalTruth, b: float) -> float:
    """Exact modulus of continuity of the empirical process at width ``b``.

    Computes ``sup |G(u) - G(v)|`` over all pairs with ``|u - v| <= b``,
    where ``G = sqrt(n) (F_n - F)`` and ``F = truth.cdf``, by enumerating
    the structural candidates rather than scanning a grid.  Windows are
    half-open ``(v, u]``, matching the ECDF's right continuity; both
    excursion signs are searched, and the result is nondecreasing in ``b``.
    The negative windows open at a downshift ``y - b``, at a sample point,
    or at one of the truth's exact window-mass peaks,
    ``truth.window_peaks(b)``.  Each window's maximum comes from a
    sparse-table range query and each ECDF value from a search of the
    distinct sample points.  A negative window anchored at a downshift
    ``y - b`` reuses the positive window ending at ``y``, so only the
    downshifts whose ``(y - b) + b`` rounds off ``y`` are searched again:
    O(n log n) time and O(n) memory, about 12 sample-sized arrays at the
    peak.
    """
    if not (b > 0 and math.isfinite(b)):
        raise ValueError(f"b must be positive and finite, got {b!r}")
    n = ecdf.n
    sample = ecdf.sorted_sample
    new = np.empty(n, dtype=bool)                          # first of each run of ties
    new[0] = True
    np.not_equal(sample[1:], sample[:-1], out=new[1:])
    ys = sample[new]
    # counts[k] = number of sample points <= the k-th distinct point (1-based),
    # so a right-sided search of ys that lands at k gives F_n = counts[k] / n
    counts = np.append(np.flatnonzero(new), n)
    del new
    f_at = np.asarray(truth.cdf(ys), dtype=float)

    # Positive excursions: window mass of F_n minus mass of F is maximal with
    # the right end u at a sample point; the left end either sits at u - b or
    # approaches a sample point in (u - b, u] from the left.
    base = counts[1:] / n - f_at                           # F_n(u) - F(u)
    left_limit_gain = f_at - counts[:-1] / n               # F(y) - F_n(y-)
    del f_at
    lows = ys - b
    starts = np.searchsorted(ys, lows, side="right")       # first y strictly above u - b
    stops = np.arange(1, len(ys) + 1)                      # include u itself
    inner = _range_maxima(left_limit_gain, starts, stops)
    endpoint_gain = np.asarray(truth.cdf(lows), dtype=float) - counts[starts] / n
    positive = float(np.max(base + np.maximum(inner, endpoint_gain)))

    # Negative excursions: truth mass minus F_n mass over (v, v + b], with
    # F_n(y-) - F(y) = -left_limit_gain inside the window.  The anchor v
    # ranges over three families, and the max over the families is the max
    # over their union: the width-b downshifts v = y - b, the sample points
    # v = y, and the truth's window-mass peaks (which dominate any
    # sample-free stretch they fall in).  A downshift's window opens where
    # the positive window does, so its anchor term and inner extreme are the
    # positive half's; where (y - b) + b == y it closes just after y, whose
    # end term is base.
    ends = lows + b
    del lows
    off = np.flatnonzero(ends != ys)                       # ends that round off y
    ends = ends[off]
    term = np.minimum(base, -inner)
    del inner
    np.subtract(-endpoint_gain, term, out=term)
    term[off] = -math.inf
    negative = float(np.max(term))
    off_gain = -endpoint_gain[off]
    off_starts = starts[off]
    del term, endpoint_gain, starts, off

    # The remaining windows share one search, one CDF call and one range
    # query: v = y (opening just after y, anchor term base), the downshifts
    # whose end rounds off y, and the truth's exact window-mass peaks.
    peaks = truth.window_peaks(b)
    peak_starts = np.searchsorted(ys, peaks, side="right")
    w_ends = np.concatenate([ys + b, ends, peaks + b])
    w_stops = np.searchsorted(ys, w_ends, side="right")
    g_minus_end = counts[w_stops] / n - np.asarray(truth.cdf(w_ends), dtype=float)
    del w_ends
    w_starts = np.concatenate([stops, off_starts, peak_starts])
    del stops
    inner_max = _range_maxima(left_limit_gain, w_starts, w_stops)
    del w_starts, w_stops
    term = np.minimum(g_minus_end, -inner_max)
    del g_minus_end, inner_max
    g_minus_anchor = np.concatenate([
        base, off_gain,
        counts[peak_starts] / n - np.asarray(truth.cdf(peaks), dtype=float)])
    negative = max(negative, float(np.max(g_minus_anchor - term)))

    return math.sqrt(n) * max(positive, negative, 0.0)


def modulus_envelope(n: int, b: float) -> tuple[float, float]:
    """Theoretical modulus envelope terms ``(sqrt(b log n), b sqrt(log n) loglog n)``.

    Requires ``n >= 16`` so that the iterated logarithm is positive.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 16:
        raise ValueError(f"n must be at least 16, got {n}")
    if not (b > 0 and math.isfinite(b)):
        raise ValueError(f"b must be positive and finite, got {b!r}")
    log_n = math.log(n)
    kappa = math.sqrt(log_n) * math.log(log_n)
    return math.sqrt(b * log_n), b * kappa


# ---------------------------------------------------------------------------
# rate experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupErrorRecord:
    """One replication's sup-norm error under the bandwidth schedule.

    ``wall_time_s`` is the record's own binning and sup-error evaluation;
    the simulation of the path it takes a prefix of, and the truth on the
    grid, which every replication of a size shares, are not charged to it.
    """

    n: int
    bandwidth: float
    replication: int
    sup_error: float
    eval_points: int
    wall_time_s: float
    grid_error_bound: float


@dataclass(frozen=True)
class RateReport:
    """Per-size sup errors and the fitted log-log convergence slope."""

    records: tuple[SupErrorRecord, ...]
    n_values: tuple[int, ...]
    median_errors: tuple[float, ...]
    mean_errors: tuple[float, ...]
    fitted_slope: float
    slope_ci: tuple[float, float] | None
    target_slope: float = -1.0 / 3.0

    def __post_init__(self) -> None:
        _check_size_grid(self.n_values)


def _check_size_grid(ns: Sequence[int]) -> None:
    """A slope fit needs at least 5 distinct sizes spanning a ratio of at least 64."""
    if len(set(ns)) < 5:
        raise ValueError(f"need at least 5 distinct sample sizes, got {sorted(set(ns))}")
    if max(ns) < 64 * min(ns):
        raise ValueError(
            f"sample sizes must span a ratio of at least 64, got {min(ns)}..{max(ns)}"
        )


def fit_loglog_slope(n_values: Sequence[int], errors: Sequence[float]) -> float:
    """Least-squares slope of ``log(error)`` against ``log(n)``.

    Rejects degenerate inputs (non-positive errors, as when the truth is
    replayed as the estimate, or error sequences without variation), and
    sizes that are not positive and finite or errors that are not finite.
    """
    ns = np.asarray(n_values, dtype=float)
    errs = np.asarray(errors, dtype=float)
    if ns.size != errs.size or ns.size < 2:
        raise ValueError("need matching n/error sequences with >= 2 entries")
    if not np.all((0.0 < ns) & (ns < math.inf)):
        raise ValueError(f"n_values must be positive and finite, got {ns.tolist()}")
    if not np.isfinite(errs).all():
        raise ValueError(f"errors must be finite, got {errs.tolist()}")
    if np.any(errs <= 0.0):
        raise DegenerateFitError("errors must be strictly positive to fit a log-log slope")
    logs = np.log(errs)
    if float(np.ptp(logs)) == 0.0:
        raise DegenerateFitError("errors carry no variation; slope is undefined")
    return float(np.polyfit(np.log(ns), logs, 1)[0])


def _size_records(truth: MarginalTruth, n: int, paths: np.ndarray) -> list[SupErrorRecord]:
    """Every replication of one sample size: the first ``n`` values of each path."""
    bandwidth = stone_bandwidth(n)
    grid = make_eval_grid(*truth.support(), bandwidth)
    spacing = grid[1] - grid[0]
    # the truth is the same for every replication of a size: evaluate it once
    pdf_grid = np.asarray(truth.pdf(grid), dtype=float)
    records = []
    for rep, path in enumerate(paths):
        start = time.perf_counter()
        h = build_histogram(path[:n], BinningScheme(bandwidth))
        err = float(np.max(np.abs(fp_eval(h, grid) - pdf_grid)))
        records.append(SupErrorRecord(
            n=n, bandwidth=bandwidth, replication=rep, sup_error=err,
            eval_points=int(grid.size), wall_time_s=time.perf_counter() - start,
            grid_error_bound=(truth.lipschitz + fp_max_slope(h)) * spacing))
    return records


def _slope_ci(ns: Sequence[int], errors: np.ndarray, seed: int) -> tuple[float, float] | None:
    """Bootstrap CI of the log-log slope fitted to the medians of a ``(sizes, reps)`` table.

    Efron's percentile bootstrap over whole paths: 500 rounds, each
    resampling the replications with replacement, one index vector shared by
    every size, since each replication's sizes are prefixes of one path, and
    the 2.5/97.5 percentiles of the slopes fitted to the resampled medians.
    Rounds :func:`fit_loglog_slope` would reject are skipped; with no round
    left, or fewer than 2 replications, there is no CI.  The resampling
    table holds ``500 * sizes * reps`` values.
    """
    reps = errors.shape[1]
    if reps < 2:
        return None
    boot_rng = np.random.default_rng((seed, 0xB007))
    idx = boot_rng.integers(0, reps, (500, reps))
    meds = np.median(errors[:, idx], axis=2).T
    logs = np.log(meds[(meds > 0.0).all(axis=1)])
    logs = logs[np.ptp(logs, axis=1) != 0.0]
    if not len(logs):
        return None
    slopes = np.polyfit(np.log(np.asarray(ns, dtype=float)), logs.T, 1)[0]
    return float(np.percentile(slopes, 2.5)), float(np.percentile(slopes, 97.5))


def rate_experiment(model: Model, n_values: Sequence[int], reps: int, seed: int = 0,
                    max_workers: int | None = None) -> RateReport:
    """Measure the sup-error decay of the frequency polygon along one path per replication.

    Replication ``k`` simulates one path of ``max(n_values)`` values, seeded
    ``seed + k``, in one :func:`models.simulate_rows` call for all of them,
    and every sample size bins and evaluates the first ``n`` values of each
    path, as the paper's almost-sure consistency follows one sample path.
    For each size the bandwidth follows the ``(log n / n)**(1/3)`` schedule,
    the estimate is compared to the model's marginal truth on a grid per the
    module constants, and the median error over replications (robust to the
    occasional bad path) feeds a log-log slope fit with a bootstrap
    confidence interval that resamples whole paths.  A size repeated in
    ``n_values`` repeats its records.  Everything runs on the calling
    thread: the paths (see :func:`models.simulate_rows`), the TAR truth from
    :func:`models.tar_marginal_oracle`, and the sizes, binned and evaluated
    in order.  ``max_workers`` must be a positive integer or None, and caps
    nothing.  A Markov model too slow to burn in (see
    :func:`models.resolve_burn_in`) is refused before the truth is built.
    Right after the size grid and ``max_workers``, the ``500 * sizes *
    reps`` bootstrap table and the ``reps`` paths' draws (each Markov row
    padded to whole segments) are refused past ``models.MAX_BUFFER_VALUES``
    values, and so are seeds that are not integers or run past ``2**128``,
    before the truth is built.
    That the truth's support is a finite interval, and that the largest
    size's evaluation grid holds at most ``MAX_GRID_POINTS`` points (else
    ``OverflowError``), are checked before anything is simulated.
    """
    ns = sorted(_count(n, "n_values", 2) for n in n_values)
    _check_size_grid(ns)
    reps = _count(reps, "reps", 1)
    if reps < 10:
        warnings.warn(
            f"reps={reps} is thin for a rate experiment; slope gates are "
            "calibrated for >= 10 replications",
            stacklevel=2,
        )
    if max_workers is not None:
        _count(max_workers, "max_workers", 1)
    burn_in = resolve_burn_in(model, None)
    _count(500 * len(ns) * reps, f"a bootstrap table of 500 x {len(ns)} sizes x {reps}")
    _check_seeds([seed])
    seed = int(seed)  # a numpy integer's seed + k could wrap
    seeds = range(seed, seed + reps)
    _check_seeds(seeds)
    _check_batch(model, ns[-1], reps, burn_in)
    truth = marginal_truth(model)
    lo, hi = truth.support()
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise OverflowError(f"a marginal outside the float range (support [{lo}, {hi}])")
    _eval_grid_span(lo, hi, stone_bandwidth(ns[-1]))  # the finest grid

    paths = simulate_rows(model, ns[-1], seeds, burn_in)
    records = tuple(r for n in ns for r in _size_records(truth, n, paths))

    errors = np.array([r.sup_error for r in records]).reshape(len(ns), reps)
    medians = np.median(errors, axis=1)
    return RateReport(
        records=records,
        n_values=tuple(ns),
        median_errors=tuple(medians.tolist()),
        mean_errors=tuple(np.mean(errors, axis=1).tolist()),
        fitted_slope=fit_loglog_slope(ns, medians),
        slope_ci=_slope_ci(ns, errors, seed),
    )


# ---------------------------------------------------------------------------
# error decomposition
# ---------------------------------------------------------------------------


def error_decomposition(truth: MarginalTruth, sample, bandwidth: float) -> dict[str, float]:
    """Both sides of the estimator's error chain, evaluated numerically.

    The frequency polygon's sup error is bounded by twice the empirical
    fluctuation term ``modulus / (sqrt(n) b)`` plus twice the binning bias
    of the truth, plus the two half-width shift terms of the truth density.
    Returns the measured left side, the assembled right side, and the
    individual terms.  A small grid-resolution correction (Lipschitz
    constant times spacing, per term) keeps the comparison valid when the
    suprema on the right are realized off-grid.  Every term is evaluated on
    ``make_eval_grid`` over the truth's support.
    """
    sample = np.asarray(sample, dtype=float)
    n = sample.size
    scheme = BinningScheme(bandwidth)
    grid = make_eval_grid(*truth.support(), bandwidth)
    spacing = float(grid[1] - grid[0])

    h = build_histogram(sample, scheme)
    ecdf = EmpiricalCdf(sample)
    modulus = modulus_exact(ecdf, truth, bandwidth)
    pdf_grid = np.asarray(truth.pdf(grid), dtype=float)
    fluct = modulus / (math.sqrt(n) * bandwidth)
    bias = float(np.max(np.abs(cdf_bin_density(truth.cdf, scheme, grid) - pdf_grid)))
    half = 0.5 * bandwidth
    shift = float(np.max(np.abs(np.asarray(truth.pdf(grid - half)) - pdf_grid))) + float(
        np.max(np.abs(np.asarray(truth.pdf(grid + half)) - pdf_grid))
    )
    resolution = 4.0 * truth.lipschitz * spacing
    lhs = float(np.max(np.abs(fp_eval(h, grid) - pdf_grid)))
    rhs = 2.0 * (fluct + bias) + shift + resolution
    return {
        "sup_error": lhs,
        "bound": rhs,
        "modulus": modulus,
        "fluctuation_term": fluct,
        "bias_term": bias,
        "shift_terms": shift,
        "resolution_term": resolution,
    }
