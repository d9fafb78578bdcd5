"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines.  Every tolerance is pinned here; the runtime budgets are
asserted alongside the numeric gates.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from polyfreq.cli import run_benchmark
from polyfreq.dependence import check_summability, coupled_paths, estimate_delta_profile
from polyfreq.diagnostics import (
    make_eval_grid,
    modulus_envelope,
    modulus_exact,
    rate_experiment,
)
from polyfreq.estimators import (
    BinningScheme,
    EmpiricalCdf,
    build_histogram,
    cdf_bin_density,
    fp_eval,
    fp_eval_classic,
    histogram_eval,
    stone_bandwidth,
)
from polyfreq.models import (
    ArmaModel,
    TarModel,
    _gaussian_truth,
    marginal_truth,
    simulate,
    tar_marginal_oracle,
)
from test_diagnostics import brute_modulus

AR1 = ArmaModel(ar=(0.5,))


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _mixed_sample(rng, n, kind):
    if kind == 0:
        return rng.normal(0, 1, n)
    if kind == 1:
        return rng.uniform(-3, 5, n)
    if kind == 2:
        return rng.lognormal(0, 0.7, n)
    half = n // 2 + 1
    return np.concatenate([rng.normal(-2, 0.3, half), rng.normal(3, 1.2, half)])


def test_1_operator_identity_suite():
    """fp_eval and fp_eval_classic agree to 1e-12 over 200 samples x 1e5 points."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(10, 10_001))
        width = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
        scheme = BinningScheme(width)
        h = build_histogram(_mixed_sample(rng, n, trial % 4), scheme)
        lo, hi = h.keys[[0, -1]]
        zs = np.arange(lo - 2, hi + 3)
        structured = np.concatenate([zs * width, (zs + 0.5) * width])
        random_pts = rng.uniform((lo - 3) * width, (hi + 3) * width, 100_000 - structured.size)
        pts = np.concatenate([random_pts, structured])
        worst = max(worst, float(np.max(np.abs(fp_eval(h, pts) - fp_eval_classic(h, pts)))))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "operator identity",
        worst <= 1e-12 and elapsed < 60.0,
        f"max |fp - classic| = {worst:.3e} (gate 1e-12), {elapsed:.1f}s (budget 60s)",
    )


def test_2_fp_structural_suite():
    """Continuity at knots, nonnegativity, unit mass, midpoint interpolation."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    problems = []
    for trial, width in enumerate([0.5, 0.25, 0.1, 0.37, 1.0, 2.0]):
        scheme = BinningScheme(width)
        h = build_histogram(_mixed_sample(rng, 4000, trial % 4), scheme)
        lo, hi = h.keys[[0, -1]]
        zs = np.arange(lo - 1, hi + 2)
        mids = (zs + 0.5) * width

        # midpoint interpolation reproduces the bin density
        gap = np.max(np.abs(fp_eval(h, mids) - histogram_eval(h, mids)))
        exact_width = width in (0.5, 0.25, 1.0, 2.0)
        if gap > (0.0 if exact_width else 1e-12):
            problems.append(f"midpoint gap {gap:.2e} at width {width}")

        # continuity at knots within the piecewise-linear modulus
        eps = 1e-9 * width
        max_density = h.values.max() / (h.n * width)
        jump = np.max(np.abs(fp_eval(h, mids - eps) - fp_eval(h, mids + eps)))
        if jump > 4.0 * max_density * eps / width + 1e-15:
            problems.append(f"knot jump {jump:.2e} at width {width}")

        # nonnegativity
        pts = rng.uniform((lo - 2) * width, (hi + 2) * width, 50_000)
        if float(np.min(fp_eval(h, pts))) < 0.0:
            problems.append(f"negative density at width {width}")

        # unit mass: histogram exactly, polygon via its trapezoid integral
        dens = histogram_eval(h, mids)
        hist_mass = float(np.sum(width * dens))
        fp_mass = float(np.sum(width * (dens[:-1] + dens[1:]) / 2.0))
        fp_mass += width * (dens[0] + dens[-1]) / 2.0
        if abs(hist_mass - 1.0) > 1e-9 or abs(fp_mass - 1.0) > 1e-9:
            problems.append(f"mass {hist_mass:.12f}/{fp_mass:.12f} at width {width}")
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        "fp structure",
        not problems and elapsed < 10.0,
        f"{problems or 'all structural gates met'}, {elapsed:.1f}s (budget 10s)",
    )


def test_3_bin_average_bias_bound():
    """Bin-averaging the normal CDF misses its density by at most max|pdf'|*b."""
    start = time.perf_counter()
    rho1 = 0.24197  # max |d/dx normal pdf|, attained at +-1
    worst_margin = -math.inf
    for width in (0.5, 0.1, 0.02):
        grid = np.arange(-8.0, 8.0, width / 20.0)
        err = np.max(
            np.abs(cdf_bin_density(stats.norm.cdf, BinningScheme(width), grid) - stats.norm.pdf(grid))
        )
        worst_margin = max(worst_margin, float(err - (rho1 * width + 1e-6)))
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        "bias bound",
        worst_margin <= 0.0 and elapsed < 5.0,
        f"worst excess over 0.24197*b + 1e-6: {worst_margin:.3e}, {elapsed:.1f}s (budget 5s)",
    )


def test_4_dependence_oracle_equivalence():
    """AR(1) dependence coefficients match 0.5^k sqrt(2) within 3 SE; slope ok."""
    start = time.perf_counter()
    profile = estimate_delta_profile(AR1, 8, 10_000, seed=123)
    misses = []
    for d in profile:
        exact = 0.5**d.lag * math.sqrt(2.0)
        if abs(d.delta_hat - exact) > 3.0 * d.std_error:
            misses.append(f"k={d.lag}: {d.delta_hat:.6f} vs {exact:.6f}")
    report = check_summability(profile, 0.5)
    slope_ok = report.slope is not None and abs(report.slope - math.log(0.5)) <= 0.05
    elapsed = time.perf_counter() - start
    _verdict(
        4,
        "dependence oracle",
        not misses and slope_ok and elapsed < 60.0,
        f"{misses or 'all lags within 3 SE'}; slope {report.slope:.4f} vs {math.log(0.5):.4f}"
        f" (tol 0.05), {elapsed:.1f}s (budget 60s)",
    )


def test_5_pathwise_contraction():
    """TAR(0.6, -0.3): coupled differences contract at 0.6 on every path."""
    start = time.perf_counter()
    path, coupled = coupled_paths(TarModel(0.6, -0.3), 10, list(range(10_000)))
    diff = np.abs(path - coupled)
    lhs, rhs = diff[:, 1:], 0.6 * diff[:, :-1]
    # the contraction is tight (equality) whenever both states share a sign,
    # so the comparison carries an explicit IEEE rounding allowance: a few
    # ulps of the state magnitudes entering each step
    state_scale = (
        1.0
        + np.abs(path[:, 1:])
        + np.abs(coupled[:, 1:])
        + np.abs(path[:, :-1])
        + np.abs(coupled[:, :-1])
    )
    violations = int(np.sum(lhs > rhs + state_scale * 2.0**-48))
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        "pathwise contraction",
        violations == 0 and elapsed < 30.0,
        f"{violations} violations over 10^4 paths x 10 lags "
        f"(rounding allowance 2^-48 x state scale), {elapsed:.1f}s (budget 30s)",
    )


def test_6_rate_experiment():
    """Sup-error slope under the Stone schedule sits in [-0.45, -0.22]."""
    start = time.perf_counter()
    report = rate_experiment(AR1, [2**k for k in range(10, 18)], 20, seed=2026)
    slope = report.fitted_slope
    shrink = report.median_errors[0] / report.median_errors[-1]
    elapsed = time.perf_counter() - start
    _verdict(
        6,
        "convergence rate",
        -0.45 <= slope <= -0.22 and shrink >= 3.0 and elapsed < 600.0,
        f"slope {slope:.4f} (gate [-0.45, -0.22]), error shrink x{shrink:.2f} "
        f"(gate >= 3), {elapsed:.1f}s (budget 600s)",
    )


def test_7_modulus_machinery():
    """Exact modulus matches brute force; envelope ratio stays bounded."""
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    worst_gap = 0.0
    for n in (1, 2, 5, 20, 50):
        for width in (0.05, 0.2, 1.0):
            x = rng.normal(0.2, 1.1, n)
            truth = _gaussian_truth(0.2, 1.1**2)
            exact = modulus_exact(EmpiricalCdf(x), truth, width)
            brute = brute_modulus(x, truth.cdf, width)
            if exact < brute - 1e-12:
                worst_gap = math.inf
            worst_gap = max(worst_gap, exact - brute)

    truth = marginal_truth(AR1)
    ratios = []
    for i, n in enumerate([2**k for k in range(10, 18)]):
        b = stone_bandwidth(n)
        for rep in range(3):
            x = simulate(AR1, n, seed=9000 + 3 * i + rep)
            d = modulus_exact(EmpiricalCdf(x), truth, b)
            ratios.append(d / modulus_envelope(n, b)[0])
    ratios = np.asarray(ratios)
    spread = float(ratios.max() / np.median(ratios))
    elapsed = time.perf_counter() - start
    _verdict(
        7,
        "modulus machinery",
        worst_gap <= 1e-6 and spread <= 3.0 and elapsed < 120.0,
        f"brute-force gap {worst_gap:.2e} (gate 1e-6), envelope ratio max/median "
        f"{spread:.2f} (gate 3), {elapsed:.1f}s (budget 120s)",
    )


def test_8_cost_comparison():
    """Frequency polygon answers 1000 queries >= 10x faster than naive KDE."""
    start = time.perf_counter()
    big = run_benchmark(10**6, 1000, seed=7)
    small = run_benchmark(10**4, 1000, seed=7)
    speedup = big["kde_over_fp_total"]
    # query cost must not scale with n: allow generous timing noise, against
    # the KDE's ~100x growth over the same span
    fp_growth = big["fp_query_s"] / small["fp_query_s"]
    kde_growth = big["kde_query_s"] / small["kde_query_s"]
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        "cost comparison",
        speedup >= 10.0 and fp_growth < 10.0 and kde_growth > 20.0 and elapsed < 120.0,
        f"KDE/FP total x{speedup:.0f} (gate >= 10); query-time growth 1e4->1e6: "
        f"fp x{fp_growth:.2f} vs kde x{kde_growth:.0f}, {elapsed:.1f}s (budget 120s)",
    )


def test_9_fixed_point_marginal_oracle():
    """TAR fixed-point density matches the linear closed form and normalizes."""
    start = time.perf_counter()
    linear = TarModel(0.5, 0.5)
    grid, dens = tar_marginal_oracle(linear)
    closed = stats.norm(0.0, math.sqrt(1.0 / 0.75)).pdf(grid)
    sup_gap = float(np.max(np.abs(dens - closed)))

    mass_errs = []
    for a, b in ((0.6, -0.3), (-0.4, 0.2), (0.3, 0.7)):
        model = TarModel(a, b)
        g, dens = tar_marginal_oracle(model)
        mass = float(np.trapezoid(dens, g))
        mass_errs.append(abs(mass - 1.0))
    elapsed = time.perf_counter() - start
    _verdict(
        9,
        "fixed-point marginal",
        sup_gap <= 1e-6 and max(mass_errs) <= 1e-8 and elapsed < 60.0,
        f"closed-form gap {sup_gap:.2e} (gate 1e-6), worst mass error "
        f"{max(mass_errs):.2e} (gate 1e-8), {elapsed:.1f}s (budget 60s)",
    )
