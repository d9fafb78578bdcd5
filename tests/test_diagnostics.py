"""Tests for sup-error measurement, the modulus machinery, and rate fits."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from polyfreq.diagnostics import (
    DegenerateFitError,
    _range_extremes,
    ModulusRecord,
    SupErrorRecord,
    RateReport,
    empirical_process,
    error_decomposition,
    fit_loglog_slope,
    fp_max_slope,
    make_eval_grid,
    modulus_envelope,
    modulus_exact,
    rate_experiment,
    sup_error,
)
from polyfreq.estimators import (
    BinningScheme,
    EmpiricalCdf,
    build_histogram,
    fp_eval,
    histogram_eval,
    stone_bandwidth,
)
from polyfreq.models import (
    ArmaModel,
    ModelValidityError,
    NlarModel,
    TarModel,
    marginal_truth,
    simulate,
)

AR1 = ArmaModel(ar=(0.5,))


def brute_modulus(sample, truth_cdf, b, pad=8.0, dense=6001):
    """Grid search over window endpoints, including one-sided sample limits."""
    ys = np.sort(np.asarray(sample, dtype=float))
    pts = np.unique(
        np.concatenate(
            [
                np.linspace(ys[0] - b - pad, ys[-1] + b + pad, dense),
                ys,
                np.nextafter(ys, -np.inf),
                ys - b,
                ys + b,
                np.nextafter(ys - b, -np.inf),
                np.nextafter(ys + b, -np.inf),
            ]
        )
    )
    n = len(ys)
    g_vals = math.sqrt(n) * (
        np.searchsorted(ys, pts, side="right") / n - np.asarray(truth_cdf(pts))
    )
    lo = np.searchsorted(pts, pts - b, side="left")
    best = 0.0
    for i in range(len(pts)):
        window = g_vals[lo[i] : i + 1]
        best = max(best, abs(g_vals[i] - window.min()), abs(g_vals[i] - window.max()))
    return best


class TestEmpiricalProcess:
    def test_zero_where_both_cdfs_vanish(self):
        ecdf = EmpiricalCdf([0.5])
        uniform_cdf = lambda t: np.clip(t, 0.0, 1.0)
        assert empirical_process(ecdf, uniform_cdf, -1.0) == 0.0

    def test_single_observation_value(self):
        ecdf = EmpiricalCdf([0.0])
        assert empirical_process(ecdf, stats.norm.cdf, 0.0) == pytest.approx(0.5)

    def test_max_matches_ks_statistic_scale(self):
        x = simulate(ArmaModel(), 10**4, seed=55)
        ecdf = EmpiricalCdf(x)
        # KS candidate set: sample points and their left limits
        pts = np.concatenate([x, np.nextafter(x, -np.inf)])
        sup = np.max(np.abs(empirical_process(ecdf, stats.norm.cdf, pts)))
        ks = stats.kstest(x, stats.norm.cdf).statistic * math.sqrt(x.size)
        assert sup == pytest.approx(ks, rel=1e-9)
        assert sup < 3.0


def brute_extremes(values, windows, take_max):
    fold, empty = (max, -math.inf) if take_max else (min, math.inf)
    return [fold(values[s:e], default=empty) for s, e in windows]


@st.composite
def values_and_windows(draw):
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=150))
    n = len(values)
    windows = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=60))
    return values, windows


class TestRangeExtremes:
    @given(case=values_and_windows(), take_max=st.booleans())
    @settings(max_examples=300, deadline=None)
    @example(case=([2.5], [(0, 1), (0, 0), (1, 1), (1, 0)]), take_max=True)
    @example(case=([2.5], [(0, 1), (0, 0), (1, 1), (1, 0)]), take_max=False)
    @example(case=([3.0, -1.0, 4.0, 1.0, -5.0], [(4, 5), (0, 3), (1, 2), (2, 4), (0, 5), (3, 1)]),
             take_max=True)
    def test_equals_brute_force(self, case, take_max):
        values, windows = case
        pairs = np.array(windows, dtype=np.intp).reshape(-1, 2)
        got = _range_extremes(np.array(values), pairs[:, 0], pairs[:, 1], take_max)
        assert_array_equal(got, brute_extremes(values, windows, take_max))

    @pytest.mark.parametrize("take_max", [True, False])
    def test_every_level_on_a_long_input(self, rng, take_max):
        values = rng.normal(size=5000)
        starts = rng.integers(0, 5001, 3000)
        stops = np.minimum(starts + rng.geometric(1e-3, 3000), 5000)
        got = _range_extremes(values, starts, stops, take_max)
        assert_array_equal(got, brute_extremes(values.tolist(), zip(starts, stops), take_max))


class TestModulusExact:
    @pytest.mark.parametrize("n", [1, 2, 5, 20, 50])
    @pytest.mark.parametrize("b", [0.05, 0.2, 1.0])
    def test_matches_brute_force(self, rng, n, b):
        loc, scale = 0.3, 1.2
        x = rng.normal(loc, scale, n)
        truth = stats.norm(loc, scale).cdf
        exact = modulus_exact(EmpiricalCdf(x), truth, b)
        brute = brute_modulus(x, truth, b)
        assert exact >= brute - 1e-12
        assert exact - brute <= 1e-6

    def test_single_point_jump_dominates(self):
        # the window shrinking onto the lone observation realizes the full
        # scaled jump of the empirical CDF
        exact = modulus_exact(EmpiricalCdf([0.0]), stats.norm.cdf, 0.2)
        assert exact == pytest.approx(1.0, abs=1e-12)

    def test_small_width_limit_is_max_jump(self, rng):
        x = np.repeat(rng.normal(0, 1, 20), [3] + [1] * 19)
        ecdf = EmpiricalCdf(x)
        got = modulus_exact(ecdf, stats.norm.cdf, 1e-12)
        assert got == pytest.approx(3.0 / math.sqrt(ecdf.n), rel=1e-6)

    def test_tail_sample_interior_window_found(self):
        # both observations far out in the tail: the dominant truth-mass
        # window sits near the mode, away from any sample anchor
        x = np.array([3.0, 3.1])
        exact = modulus_exact(EmpiricalCdf(x), stats.norm.cdf, 0.5)
        brute = brute_modulus(x, stats.norm.cdf, 0.5)
        assert exact == pytest.approx(brute, abs=1e-9)

    def test_monotone_in_width(self, rng):
        x = rng.normal(0, 1, 300)
        ecdf = EmpiricalCdf(x)
        widths = [0.01, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0]
        vals = [modulus_exact(ecdf, stats.norm.cdf, b) for b in widths]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "n, seed, expected",
        [
            (2**10, 101, "0x1.3eab38dc04e80p-1"),
            (2**10, 202, "0x1.466685a1a40a0p-1"),
            (2**10, 303, "0x1.2f19f7713c280p-1"),
            (2**14, 101, "0x1.1fbc7c36e9280p-1"),
            (2**14, 202, "0x1.f5516bccea100p-2"),
            (2**14, 303, "0x1.1b92b3b56ee00p-1"),
            (2**17, 101, "0x1.776626709eee5p-2"),
            (2**17, 202, "0x1.46fad7133c5bdp-2"),
            (2**17, 303, "0x1.cb906333326d3p-2"),
        ],
    )
    def test_pinned_ar1_values(self, n, seed, expected):
        # frozen from the monotonic-deque sweep that the sparse table replaced
        x = simulate(AR1, n, seed=seed)
        got = modulus_exact(EmpiricalCdf(x), marginal_truth(AR1).cdf, stone_bandwidth(n))
        assert got.hex() == expected

    def test_bad_width(self, rng):
        ecdf = EmpiricalCdf(rng.normal(0, 1, 10))
        with pytest.raises(ValueError):
            modulus_exact(ecdf, stats.norm.cdf, 0.0)


class TestModulusEnvelope:
    def test_reference_value(self):
        term1, term2 = modulus_envelope(10**4, 0.09729530713186156)
        assert term1 == pytest.approx(0.946637678988327, rel=1e-12)
        assert term2 == pytest.approx(0.6556116098297464, rel=1e-12)

    def test_homogeneity_in_width(self):
        t1a, t2a = modulus_envelope(10**4, 0.1)
        t1b, t2b = modulus_envelope(10**4, 0.2)
        assert t1b == pytest.approx(math.sqrt(2.0) * t1a)
        assert t2b == pytest.approx(2.0 * t2a)

    @pytest.mark.parametrize("n", [15, 2, 0])
    def test_small_n_rejected(self, n):
        with pytest.raises(ValueError):
            modulus_envelope(n, 0.1)


class TestSupError:
    def test_truth_as_estimate_is_zero(self):
        truth = marginal_truth(AR1)
        grid = make_eval_grid(-6, 6, 0.1)
        assert sup_error(truth.pdf, truth.pdf, grid) == 0.0

    def test_support_coverage_enforced(self):
        truth = marginal_truth(AR1)
        grid = np.linspace(-1, 1, 100)
        with pytest.raises(ValueError, match="cover"):
            sup_error(truth.pdf, truth.pdf, grid, support=(-6, 6))

    def test_histogram_error_scale_at_one_million(self):
        x = simulate(ArmaModel(), 10**6, seed=4242)
        b = stone_bandwidth(10**6)
        h = build_histogram(x, BinningScheme(b))
        grid = make_eval_grid(-6.2, 6.2, b)
        err = sup_error(lambda t: histogram_eval(h, t), stats.norm.pdf, grid)
        assert 0.005 <= err <= 0.05

    def test_fp_beats_histogram_usually(self):
        truth = marginal_truth(AR1)
        lo, hi = truth.support()
        b = stone_bandwidth(30_000)
        grid = make_eval_grid(lo, hi, b)
        wins = 0
        for rep in range(30):
            x = simulate(AR1, 30_000, seed=6000 + rep)
            h = build_histogram(x, BinningScheme(b))
            fp_err = sup_error(lambda t: fp_eval(h, t), truth.pdf, grid)
            hist_err = sup_error(lambda t: histogram_eval(h, t), truth.pdf, grid)
            wins += fp_err <= hist_err
        assert wins >= 18  # 60% of replications

    def test_grid_spacing_follows_bandwidth(self):
        grid = make_eval_grid(-1.0, 1.0, 0.5)
        assert grid[0] <= -1.0 - 4 * 0.5 + 1e-12
        assert grid[-1] >= 1.0 + 4 * 0.5 - 1e-12
        assert np.diff(grid).max() <= 0.5 / 10 + 1e-12

    def test_fp_max_slope(self):
        h = build_histogram([0.25, 0.75], BinningScheme(1.0))
        assert fp_max_slope(h) == pytest.approx(1.0)  # density 1 to empty neighbour

        # many bins, gaps included, steepest drop on either side: equals the
        # per-bin definition exactly
        rng = np.random.default_rng(8)
        x = rng.exponential(size=2000)
        for sample in (rng.standard_t(3, size=2000), x, -x):
            h = build_histogram(sample, BinningScheme(0.2))
            b, denom = 0.2, h.n * 0.2
            best = 0.0
            counts = dict(zip(h.keys.tolist(), h.values.tolist()))
            for z, c in counts.items():
                d = c / denom
                best = max(best, abs(d - counts.get(z - 1, 0) / denom) / b,
                           abs(d - counts.get(z + 1, 0) / denom) / b)
            assert fp_max_slope(h) == best


class TestRateFit:
    def test_degenerate_zero_errors_rejected(self):
        with pytest.raises(DegenerateFitError):
            fit_loglog_slope([100, 200, 400], [0.0, 0.0, 0.0])

    def test_constant_errors_rejected(self):
        with pytest.raises(DegenerateFitError):
            fit_loglog_slope([100, 200, 400], [0.1, 0.1, 0.1])

    def test_exact_power_law_recovered(self):
        ns = [2**k for k in range(8, 14)]
        errs = [5.0 * n ** (-1.0 / 3.0) for n in ns]
        assert fit_loglog_slope(ns, errs) == pytest.approx(-1.0 / 3.0, rel=1e-12)


class TestRateExperiment:
    N_GRID = [2**k for k in range(8, 15)]  # ratio 64, 7 values: quick but valid

    def test_report_shape_and_gate(self):
        report = rate_experiment(AR1, self.N_GRID, 10, seed=314)
        assert report.n_values == tuple(self.N_GRID)
        assert len(report.records) == 10 * len(self.N_GRID)
        assert report.target_slope == pytest.approx(-1.0 / 3.0)
        assert -0.6 < report.fitted_slope < -0.15
        assert report.slope_ci is not None
        lo, hi = report.slope_ci
        assert lo <= report.fitted_slope <= hi
        # errors shrink substantially across a 64x span
        assert report.median_errors[0] / report.median_errors[-1] > 2.0

    @pytest.mark.filterwarnings("ignore:reps=:UserWarning")
    @pytest.mark.parametrize("model", [AR1, TarModel(0.6, -0.3)], ids=["AR1", "TAR"])
    def test_scheduling_independence(self, model):
        serial = rate_experiment(model, self.N_GRID, 4, seed=271, max_workers=1)
        threaded = rate_experiment(model, self.N_GRID, 4, seed=271, max_workers=2)
        assert len(serial.records) == len(threaded.records) == 4 * len(self.N_GRID)
        for a, b in zip(serial.records, threaded.records):
            assert (a.n, a.replication, a.sup_error, a.grid_error_bound) == (
                b.n, b.replication, b.sup_error, b.grid_error_bound)
        assert [(r.n, r.replication) for r in serial.records] == [
            (n, rep) for n in self.N_GRID for rep in range(4)]
        assert serial.fitted_slope == threaded.fitted_slope
        assert serial.slope_ci == threaded.slope_ci

    def test_single_rep_warns_without_ci(self):
        with pytest.warns(UserWarning, match="thin"):
            report = rate_experiment(AR1, self.N_GRID, 1, seed=3)
        assert report.slope_ci is None

    @pytest.mark.filterwarnings("ignore:reps=:UserWarning")
    def test_span_validation(self):
        with pytest.raises(ValueError, match="ratio"):
            rate_experiment(AR1, [256, 512, 1024, 2048, 4096], 2, seed=1)
        with pytest.raises(ValueError, match="distinct"):
            rate_experiment(AR1, [256, 16384], 2, seed=1)

    @pytest.mark.filterwarnings("ignore:reps=:UserWarning")
    def test_model_without_truth_rejected(self):
        model = NlarModel(transition=lambda x: 0.2 * np.asarray(x), lipschitz_bound=0.2)
        with pytest.raises(ModelValidityError):
            rate_experiment(model, self.N_GRID, 2, seed=1)

    def test_off_schedule_bandwidth_hurts_at_small_n(self):
        # quartering the bandwidth at n=2048 lands in the variance-dominated
        # regime: median sup error must increase
        truth = marginal_truth(AR1)
        lo, hi = truth.support()
        n = 2048
        b = stone_bandwidth(n)
        on_schedule, off_schedule = [], []
        for rep in range(10):
            x = simulate(AR1, n, seed=331 + rep)
            for bw, acc in ((b, on_schedule), (b / 4, off_schedule)):
                h = build_histogram(x, BinningScheme(bw))
                grid = make_eval_grid(lo, hi, bw)
                acc.append(sup_error(lambda t: fp_eval(h, t), truth.pdf, grid))
        assert np.median(off_schedule) > np.median(on_schedule)

    @pytest.mark.filterwarnings("ignore:reps=:UserWarning")
    def test_record_invariants(self):
        report = rate_experiment(AR1, self.N_GRID, 2, seed=9)
        for r in report.records:
            assert r.sup_error >= 0.0
            assert r.bandwidth == pytest.approx(stone_bandwidth(r.n))
            assert r.eval_points > 0


class TestErrorDecomposition:
    def test_bound_holds_per_replication(self):
        truth = marginal_truth(AR1)
        for i, n in enumerate([1024, 8192, 65536]):
            b = stone_bandwidth(n)
            for rep in range(2):
                x = simulate(AR1, n, seed=9000 + 10 * i + rep)
                parts = error_decomposition(truth, x, b)
                assert parts["sup_error"] <= parts["bound"]
                assert parts["modulus"] > 0

    def test_ratio_diagnostic_stays_bounded(self):
        truth = marginal_truth(AR1)
        records = []
        for i, n in enumerate([2**k for k in range(10, 17)]):
            b = stone_bandwidth(n)
            x = simulate(AR1, n, seed=880 + i)
            d = modulus_exact(EmpiricalCdf(x), truth.cdf, b)
            term1, term2 = modulus_envelope(n, b)
            records.append(ModulusRecord(n, b, d, term1, term2))
        ratios = np.asarray([r.ratio for r in records])
        assert ratios.max() <= 3.0 * np.median(ratios)
        assert all(r.envelope_sqrt > 0 and r.envelope_kappa > 0 for r in records)


class TestRateReportValidation:
    def _record(self, n):
        return SupErrorRecord(n, stone_bandwidth(n), 0, 0.1, 10, 0.0, 0.01)

    def test_too_few_sizes(self):
        ns = (256, 512, 1024, 16384)
        with pytest.raises(ValueError, match="5 distinct"):
            RateReport(
                records=tuple(self._record(n) for n in ns),
                n_values=ns,
                median_errors=(0.1,) * 4,
                mean_errors=(0.1,) * 4,
                fitted_slope=-0.3,
                slope_ci=None,
            )
