"""Tests for sup-error measurement, the modulus machinery, and rate fits."""

import json
import math
import subprocess
import sys
import textwrap
import threading
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from polyfreq import diagnostics, models
from polyfreq.diagnostics import (
    DegenerateFitError,
    _range_maxima,
    _slope_ci,
    SupErrorRecord,
    RateReport,
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
    LinearProcess,
    ModelValidityError,
    NlarModel,
    TarModel,
    marginal_truth,
    simulate,
    tar_marginal_oracle,
)

AR1 = ArmaModel(ar=(0.5,))
TAR = TarModel(0.6, -0.3)
NORMAL = models._gaussian_truth(0.0, 1.0)


def brute_modulus(sample, truth_cdf, b, pad=8.0, dense=6001, extra=()):
    """Grid search over window endpoints, including one-sided sample limits and ``extra``."""
    ys = np.sort(np.asarray(sample, dtype=float))
    pts = np.unique(
        np.concatenate(
            [
                np.linspace(ys[0] - b - pad, ys[-1] + b + pad, dense),
                np.asarray(extra, dtype=float),
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
    """The scaled ECDF deviation ``sqrt(n) * (F_n(x) - F(x))``."""

    def test_zero_where_both_cdfs_vanish(self):
        ecdf = EmpiricalCdf([0.5])
        uniform_cdf = lambda t: np.clip(t, 0.0, 1.0)
        assert math.sqrt(ecdf.n) * (ecdf(-1.0) - uniform_cdf(-1.0)) == 0.0

    def test_single_observation_value(self):
        ecdf = EmpiricalCdf([0.0])
        assert math.sqrt(ecdf.n) * (ecdf(0.0) - stats.norm.cdf(0.0)) == pytest.approx(0.5)

    def test_max_matches_ks_statistic_scale(self):
        x = simulate(ArmaModel(), 10**4, seed=55)
        ecdf = EmpiricalCdf(x)
        # KS candidate set: sample points and their left limits
        pts = np.concatenate([x, np.nextafter(x, -np.inf)])
        sup = np.max(np.abs(math.sqrt(ecdf.n) * (ecdf(pts) - stats.norm.cdf(pts))))
        ks = stats.kstest(x, stats.norm.cdf).statistic * math.sqrt(x.size)
        assert sup == pytest.approx(ks, rel=1e-9)
        assert sup < 3.0


def brute_maxima(values, windows):
    return [max(values[s:e], default=-math.inf) for s, e in windows]


@st.composite
def values_and_windows(draw):
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=150))
    n = len(values)
    windows = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=60))
    return values, windows


class TestRangeMaxima:
    @given(case=values_and_windows())
    @settings(max_examples=300, deadline=None)
    @example(case=([2.5], [(0, 1), (0, 0), (1, 1), (1, 0)]))
    @example(case=([3.0, -1.0, 4.0, 1.0, -5.0], [(4, 5), (0, 3), (1, 2), (2, 4), (0, 5), (3, 1)]))
    def test_equals_brute_force(self, case):
        values, windows = case
        pairs = np.array(windows, dtype=np.intp).reshape(-1, 2)
        got = _range_maxima(np.array(values), pairs[:, 0], pairs[:, 1])
        assert_array_equal(got, brute_maxima(values, windows))

    def test_every_level_on_a_long_input(self, rng):
        values = rng.normal(size=5000)
        starts = rng.integers(0, 5001, 3000)
        stops = np.minimum(starts + rng.geometric(1e-3, 3000), 5000)
        got = _range_maxima(values, starts, stops)
        assert_array_equal(got, brute_maxima(values.tolist(), zip(starts, stops)))


class TestModulusExact:
    @pytest.mark.parametrize("n", [1, 2, 5, 20, 50])
    @pytest.mark.parametrize("b", [0.05, 0.2, 1.0])
    def test_matches_brute_force(self, rng, n, b):
        loc, scale = 0.3, 1.2
        x = rng.normal(loc, scale, n)
        truth = models._gaussian_truth(loc, scale**2)
        exact = modulus_exact(EmpiricalCdf(x), truth, b)
        brute = brute_modulus(x, truth.cdf, b, extra=[loc - b / 2, loc + b / 2])
        assert exact >= brute - 1e-12
        assert exact - brute <= 1e-6

    @pytest.mark.parametrize("loc", [-2.5, 0.25, 7.0])
    @pytest.mark.parametrize("b", [0.25, 0.5, 1.0])
    def test_window_mass_peak_decides_for_a_nonzero_mean(self, loc, b):
        # the sample sits above the truth's bulk, so the truth's heaviest
        # window (loc - b/2, loc + b/2] holds no observation and sets the
        # modulus; dyadic loc and b make the window's ends exact floats
        truth = models._gaussian_truth(loc, 1.3**2)
        x = loc + 4 + 0.37 * np.arange(50)
        exact = modulus_exact(EmpiricalCdf(x), truth, b)
        brute = brute_modulus(x, truth.cdf, b, extra=[loc - b / 2, loc + b / 2])
        assert exact == pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("b", [0.25, 0.5, 1.0])
    def test_window_mass_peak_decides_for_the_tar_oracle(self, b):
        # the sample lies above the oracle grid, so the truth's heaviest
        # window holds no observation and sets the modulus; the oracle's CDF
        # interpolates the grid linearly, so both ends of every window with
        # an end on the grid are brute-force points
        grid, _ = tar_marginal_oracle(TAR)
        truth = marginal_truth(TAR)
        x = 12 + 0.37 * np.arange(50)
        exact = modulus_exact(EmpiricalCdf(x), truth, b)
        brute = brute_modulus(x, truth.cdf, b, extra=np.concatenate([grid - b, grid, grid + b]))
        assert exact == pytest.approx(brute, abs=1e-12)

    @given(sample=st.lists(st.integers(-30, 30).map(lambda k: k / 10), min_size=1, max_size=40),
           b=st.floats(1e-3, 4.0))
    @settings(max_examples=30, deadline=None)
    @example(sample=[-1.2, -0.3, -0.3, 0.4, 0.4, 0.4, 1.1, 2.5], b=2.9)
    @example(sample=[0.0, 0.0, 0.1], b=1e-3)
    @example(sample=[0.6, -0.6, 1.6], b=1.0)
    def test_matches_brute_force_with_ties(self, sample, b):
        # tenths tie often, and for most widths some (y - b) + b round off y;
        # the grid alone can miss the truth's heaviest window, (-b/2, b/2]
        exact = modulus_exact(EmpiricalCdf(sample), NORMAL, b)
        brute = brute_modulus(sample, NORMAL.cdf, b, extra=[-b / 2, b / 2])
        assert exact >= brute - 1e-12
        assert exact - brute <= 1e-6

    def test_single_point_jump_dominates(self):
        # the window shrinking onto the lone observation realizes the full
        # scaled jump of the empirical CDF
        exact = modulus_exact(EmpiricalCdf([0.0]), NORMAL, 0.2)
        assert exact == pytest.approx(1.0, abs=1e-12)

    def test_small_width_limit_is_max_jump(self, rng):
        x = np.repeat(rng.normal(0, 1, 20), [3] + [1] * 19)
        ecdf = EmpiricalCdf(x)
        got = modulus_exact(ecdf, NORMAL, 1e-12)
        assert got == pytest.approx(3.0 / math.sqrt(ecdf.n), rel=1e-6)

    def test_tail_sample_interior_window_found(self):
        # both observations far out in the tail: the dominant truth-mass
        # window sits near the mode, away from any sample anchor
        x = np.array([3.0, 3.1])
        exact = modulus_exact(EmpiricalCdf(x), NORMAL, 0.5)
        brute = brute_modulus(x, NORMAL.cdf, 0.5)
        assert exact == pytest.approx(brute, abs=1e-9)

    def test_monotone_in_width(self, rng):
        x = rng.normal(0, 1, 300)
        ecdf = EmpiricalCdf(x)
        widths = [0.01, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0]
        vals = [modulus_exact(ecdf, NORMAL, b) for b in widths]
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
        got = modulus_exact(EmpiricalCdf(x), marginal_truth(AR1), stone_bandwidth(n))
        assert got.hex() == expected

    @pytest.mark.parametrize(
        "n, expected",
        [
            # (Stone width, 0.5, 3.0) on the raw sample, then on it rounded to
            # 2 decimals (ties); at width 3.0 most (y - b) + b round off y
            (2**14, ["0x1.1fbc7c36e9280p-1", "0x1.a4492e5ec8b80p-1", "0x1.e5537e737bc00p+0",
                     "0x1.acb42c8b8f200p-1", "0x1.2d7af4c540300p+0", "0x1.08622afd815a0p+1"]),
            (2**19, ["0x1.1c1118e90e34ap-2", "0x1.ce0e43a75e5a7p-1", "0x1.340ffbbf4c059p+0",
                     "0x1.55fd70d84ee44p+1", "0x1.94ed0f8f59fecp+1", "0x1.ac52cc5cb5d83p+1"]),
        ],
    )
    def test_pinned_widths_and_ties(self, n, expected):
        x = simulate(AR1, n, seed=101)
        widths = [stone_bandwidth(n), 0.5, 3.0]
        got = [modulus_exact(EmpiricalCdf(s), marginal_truth(AR1), b).hex()
               for s in (x, np.round(x, 2)) for b in widths]
        assert got == expected

    def test_bad_width(self, rng):
        ecdf = EmpiricalCdf(rng.normal(0, 1, 10))
        with pytest.raises(ValueError):
            modulus_exact(ecdf, NORMAL, 0.0)


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

    def test_grid_past_the_point_limit_refused(self):
        # bandwidth 10 spaces the grid by exactly 1.0 over [lo - 40, hi + 40]
        top = float(diagnostics.MAX_GRID_POINTS - 81)
        assert make_eval_grid(0.0, top, 10.0).size == diagnostics.MAX_GRID_POINTS
        with pytest.raises(OverflowError, match="more than 10000000 points"):
            make_eval_grid(0.0, top + 1.0, 10.0)

    @pytest.mark.parametrize("lo,hi", [(-math.inf, 0.0), (0.0, math.inf),
                                       (-math.inf, math.inf), (math.nan, 1.0)])
    def test_grid_ends_must_be_finite(self, lo, hi):
        with pytest.raises(ValueError, match=r"grid ends lo and hi must be finite"):
            make_eval_grid(lo, hi, 0.1)

    @pytest.mark.parametrize("bandwidth", [0.0, -0.1, math.nan, math.inf])
    def test_grid_bandwidth_must_be_positive_and_finite(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            make_eval_grid(0.0, 1.0, bandwidth)

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

    @pytest.mark.parametrize("errors", [[1.0, math.nan, 0.5, 0.3], [1.0, math.inf, 0.5, 0.3]])
    def test_non_finite_errors_refused(self, errors):
        with pytest.raises(ValueError, match="errors must be finite"):
            fit_loglog_slope([1, 2, 4, 8], errors)

    @pytest.mark.parametrize("size", [0, -4, math.inf, math.nan])
    def test_sizes_must_be_positive_and_finite(self, size, capfd):
        with pytest.raises(ValueError, match="n_values must be positive and finite"):
            fit_loglog_slope([1, 2, size, 8], [1.0, 0.7, 0.5, 0.3])
        assert capfd.readouterr().err == ""  # nothing reaches LAPACK

    def test_exact_power_law_recovered(self):
        ns = [2**k for k in range(8, 14)]
        errs = [5.0 * n ** (-1.0 / 3.0) for n in ns]
        assert fit_loglog_slope(ns, errs) == pytest.approx(-1.0 / 3.0, rel=1e-12)


class TestRateBufferCaps:
    """A bootstrap table or one size's batch past ``models.MAX_BUFFER_VALUES``
    is refused right after the size grid: before the truth or any draw."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(diagnostics, "marginal_truth", refuse)
        monkeypatch.setattr(models.NoiseSpec, "fill", refuse)

    @pytest.mark.parametrize("model", [AR1, TarModel(0.6, -0.3)], ids=["AR1", "TAR"])
    @pytest.mark.parametrize("n_max,reps,what", [
        (2**14, 10**12, "reps: "), (10**19, 20, "n_values: "),
        # its batches fit: 2 * 10**5 x (1000 + 128) values for AR(1)
        (128, 2 * 10**5, "bootstrap table"),
        # every count and the bootstrap table fit
        (2**27, 20, "paths of n="),
    ], ids=["reps", "n-past-int64", "bootstrap", "batch"])
    def test_refused(self, model, n_max, reps, what):
        ns = [n_max // 64, n_max // 16, n_max // 8, n_max // 4, n_max]
        with pytest.raises(ValueError, match=f"{what}.* above the limit of 268435456"):
            rate_experiment(model, ns, reps)

    @pytest.mark.filterwarnings("ignore:reps=:UserWarning")
    def test_padded_markov_batch_refused(self):
        # one row of 811 + 268,434,624 columns, padded to whole segments
        ns = [4194291 * 2**k for k in range(7)]
        with pytest.raises(ValueError, match="268437756 values, above the limit"):
            rate_experiment(TarModel(0.95, -0.9), ns, 1)


class TestRateExperiment:
    N_GRID = [2**k for k in range(8, 15)]  # ratio 64, 7 values: quick but valid

    @pytest.mark.parametrize("n_values,reps,name", [
        ([256.5, 512, 1024, 4096, 32768], 10, "n_values"),
        ([256, 512, 1024, 4096, True], 10, "n_values"),
        (N_GRID, 10.5, "reps"),
        (N_GRID, True, "reps"),
    ], ids=["size-float", "size-bool", "reps-float", "reps-bool"])
    def test_counts_must_be_integers(self, n_values, reps, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            rate_experiment(AR1, n_values, reps)

    def test_slow_mixing_markov_model_is_refused_before_the_truth(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "marginal_truth", lambda *args: pytest.fail("work"))
        with pytest.raises(ModelValidityError, match=r"^contraction rho = 0\.999999 mixes too "
                                                     r"slowly: its default burn-in of 41588811 "):
            rate_experiment(TarModel(-0.0, 0.999999), self.N_GRID, 10, seed=1)

    @pytest.mark.parametrize("workers", [0, 2.5, True], ids=repr)
    def test_max_workers_must_be_a_positive_integer(self, workers, monkeypatch):
        monkeypatch.setattr(diagnostics, "marginal_truth", lambda *args: pytest.fail("work"))
        with pytest.raises(ValueError, match="^max_workers must be a positive integer"):
            rate_experiment(AR1, self.N_GRID, 10, seed=1, max_workers=workers)

    @pytest.mark.parametrize("seed", [1.5, True, "5", 2**128 - 5], ids=repr)
    def test_seeds_checked_before_any_work(self, seed, monkeypatch):
        # the last seed of the grid, 2**128 - 5 + 7 * 10 - 1, is past Philox's keys
        monkeypatch.setattr(diagnostics, "marginal_truth", lambda *args: pytest.fail("work"))
        with pytest.raises(ValueError, match="seed must be an integer|less than 2\\*\\*128"):
            rate_experiment(AR1, self.N_GRID, 10, seed=seed)

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

    @pytest.mark.filterwarnings("ignore:reps=:UserWarning")
    @pytest.mark.parametrize("model", [AR1, TarModel(0.6, -0.3)], ids=["AR1", "TAR"])
    def test_wall_time_is_the_records_own_evaluation(self, model, monkeypatch):
        # a clock that only the simulation call moves, by 1 s: no record is
        # charged for the paths it takes prefixes of
        clock, calls = [0.0], []
        inner = diagnostics.simulate_rows

        def simulate_rows(*args):
            clock[0] += 1.0
            calls.append(args[1:3])
            return inner(*args)

        monkeypatch.setattr(diagnostics, "simulate_rows", simulate_rows)
        monkeypatch.setattr(diagnostics, "time", types.SimpleNamespace(
            perf_counter=lambda: clock[0]))
        report = rate_experiment(model, self.N_GRID, 3, seed=5)
        assert calls == [(max(self.N_GRID), range(5, 8))]
        assert [r.wall_time_s for r in report.records] == [0.0] * len(report.records)

    @pytest.mark.filterwarnings("ignore:reps=:UserWarning")
    @pytest.mark.parametrize("workers", [1, 2, None])
    @pytest.mark.parametrize("model", [AR1, TarModel(0.6, -0.3)], ids=["AR1", "TAR"])
    def test_only_markov_draws_take_a_pool(self, model, workers, monkeypatch):
        # no draw takes a pool now, Markov or not: every path is drawn, binned
        # and evaluated on the calling thread, and max_workers caps nothing
        serial = rate_experiment(model, self.N_GRID, 3, seed=5, max_workers=1)
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: pytest.fail("started a thread"))
        report = rate_experiment(model, self.N_GRID, 3, seed=5, max_workers=workers)
        assert len(report.records) == 3 * len(self.N_GRID)
        assert [(r.n, r.replication, r.sup_error, r.grid_error_bound)
                for r in report.records] == [
            (r.n, r.replication, r.sup_error, r.grid_error_bound) for r in serial.records]
        assert (report.fitted_slope, report.slope_ci) == (serial.fitted_slope, serial.slope_ci)

    @pytest.mark.filterwarnings("ignore:reps=:UserWarning")
    @pytest.mark.parametrize("model", [AR1, TAR, LinearProcess((1.0, 0.5, 0.25), 1.0)],
                             ids=["AR1", "TAR", "linear"])
    def test_sizes_are_prefixes_of_one_path_per_replication(self, model):
        # replication k follows one path, seeded seed + k, of the largest size:
        # every size bins and evaluates that path's first n values
        report = rate_experiment(model, self.N_GRID, 3, seed=5)
        truth = marginal_truth(model)
        paths = [simulate(model, max(self.N_GRID), seed=5 + k) for k in range(3)]
        assert [(r.n, r.replication) for r in report.records] == [
            (n, k) for n in self.N_GRID for k in range(3)]
        for r in report.records:
            b = stone_bandwidth(r.n)
            h = build_histogram(paths[r.replication][:r.n], BinningScheme(b))
            grid = make_eval_grid(*truth.support(), b)
            assert r.bandwidth == b and r.eval_points == grid.size
            assert r.sup_error == sup_error(lambda x: fp_eval(h, x), truth.pdf, grid)

    @pytest.mark.filterwarnings("ignore:reps=:UserWarning")
    @pytest.mark.parametrize("model", [AR1, TAR], ids=["AR1", "TAR"])
    def test_repeated_size_repeats_its_records(self, model):
        # a repeated size takes the same prefixes of the same paths
        ns = sorted([*self.N_GRID, 1024])
        report = rate_experiment(model, ns, 3, seed=5)
        copies = [(r.replication, r.sup_error, r.grid_error_bound)
                  for r in report.records if r.n == 1024]
        assert len(copies) == 6 and copies[:3] == copies[3:]
        single = rate_experiment(model, self.N_GRID, 3, seed=5)
        assert copies[:3] == [(r.replication, r.sup_error, r.grid_error_bound)
                              for r in single.records if r.n == 1024]

    def test_single_rep_warns_without_ci(self):
        with pytest.warns(UserWarning, match="thin"):
            report = rate_experiment(AR1, self.N_GRID, 1, seed=3)
        assert report.slope_ci is None

    def test_arma_commands_leave_scipy_signal_unloaded(self, tmp_path):
        # ARMA filtering loads scipy's compiled extension alone, registered
        # under its own name, and not the second of imports of scipy.signal
        spec = tmp_path / "ar1.json"
        spec.write_text(json.dumps(models.model_to_spec(AR1)))
        code = textwrap.dedent(f"""
            import sys
            from polyfreq import cli
            for argv in (["simulate", "--n", "1000"], ["delta", "--kmax", "3", "--reps", "100"],
                         ["rate", "--n-min", "256", "--n-max", "16384", "--reps", "10"]):
                assert cli.main([*argv, "--model", {str(spec)!r}]) == 0
            print("scipy.signal" in sys.modules, "scipy.signal._sigtools" in sys.modules)
        """)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.splitlines()[-1].split() == ["False", "True"]

    @pytest.mark.filterwarnings("ignore:reps=:UserWarning")
    def test_span_validation(self, monkeypatch):
        # the grid is refused before the truth is built or any size simulated
        calls = []

        def record(name, func):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)
            return wrapper

        for name in ("simulate_rows", "marginal_truth"):
            monkeypatch.setattr(diagnostics, name, record(name, getattr(diagnostics, name)))
        with pytest.raises(ValueError, match="ratio"):
            rate_experiment(AR1, [256, 512, 1024, 2048, 4096], 2, seed=1)
        with pytest.raises(ValueError, match="distinct"):
            rate_experiment(AR1, [256, 16384], 2, seed=1)
        assert calls == []

    @pytest.mark.parametrize("intercept", [1e308, 1e300])  # support [inf, inf], a point
    def test_marginal_outside_the_float_range_rejected(self, monkeypatch, intercept):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a model whose marginal leaves the float range")

        monkeypatch.setattr(diagnostics, "simulate_rows", no_simulation)
        with pytest.raises(OverflowError, match="support"):
            rate_experiment(ArmaModel(ar=(0.5,), intercept=intercept), self.N_GRID, 10, seed=1)

    def test_grid_past_the_point_limit_rejected_before_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated before the evaluation grid was sized")

        monkeypatch.setattr(diagnostics, "simulate_rows", refuse)
        # 3.09e9 points at n = 2**17, 25 GB of float64
        model = ArmaModel(ar=(0.5,), noise=models.NoiseSpec("gaussian", 1e6))
        with pytest.raises(OverflowError, match=r"more than 10000000 points \(3.09198e\+09\)"):
            rate_experiment(model, [2**k for k in range(11, 18)], 10, seed=1)

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


def reference_ci(ns, errors, seed):
    """The bootstrap by a per-round loop, kept as a reference: each round
    resamples whole paths, one ``choice`` of replications shared by every
    size, then ``np.median`` per size and one ``fit_loglog_slope`` per round,
    degenerate rounds skipped.  Returns the CI and the number of skipped
    rounds."""
    boot_rng = np.random.default_rng((abs(int(seed)), 0xB007))
    slopes, skipped = [], 0
    for _ in range(500):
        paths = boot_rng.choice(errors.shape[1], size=errors.shape[1], replace=True)
        meds = [float(np.median(row[paths])) for row in errors]
        try:
            slopes.append(fit_loglog_slope(ns, meds))
        except DegenerateFitError:
            skipped += 1
    ci = (float(np.percentile(slopes, 2.5)), float(np.percentile(slopes, 97.5))) if slopes else None
    return ci, skipped


class TestRateSummary:
    """The array bootstrap against the per-round reference loop."""

    NS = [2**k for k in range(9, 16)]

    @pytest.mark.parametrize("model,ns,reps,seed", [
        (TarModel(0.6, -0.3), [2**k for k in range(9, 16)], 10, 1),
        (TarModel(0.6, -0.3), [2**k for k in range(9, 16)], 10, 4),
        (AR1, [2**k for k in range(10, 17)], 20, 2),
        (AR1, [2**k for k in range(10, 17)], 20, 6),
    ], ids=["TAR-1", "TAR-4", "AR1-2", "AR1-6"])
    def test_real_runs_match_the_reference(self, model, ns, reps, seed):
        report = rate_experiment(model, ns, reps, seed=seed)
        rows = [[r.sup_error for r in report.records if r.n == n] for n in ns]
        medians = tuple(float(np.median(row)) for row in rows)
        assert report.median_errors == medians
        assert report.mean_errors == tuple(float(np.mean(row)) for row in rows)
        assert report.fitted_slope == fit_loglog_slope(ns, medians)
        ci, _ = reference_ci(ns, np.array(rows), seed)
        assert_allclose(report.slope_ci, ci, rtol=0, atol=2e-16)

    @pytest.mark.parametrize("table", ["zeros", "ties"])
    def test_degenerate_rounds_skipped(self, table):
        rng = np.random.default_rng(17)
        errors = rng.uniform(0.01, 0.1, (len(self.NS), 5))
        if table == "zeros":
            errors[:, :2] = 0.0      # a round whose median is 0 cannot be fitted
        else:
            errors[:, :3] = 0.05     # a round whose medians are all 0.05 has no slope
        ci, skipped = reference_ci(self.NS, errors, 3)
        assert 0 < skipped < 500
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _slope_ci(self.NS, errors, 3)
        assert_allclose(got, ci, rtol=0, atol=2e-16)

    @pytest.mark.parametrize("fill", [0.0, 0.05])
    def test_no_round_fits_means_no_ci(self, fill):
        errors = np.full((len(self.NS), 4), fill)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _slope_ci(self.NS, errors, 3) is None

    def test_whole_paths_are_resampled(self):
        # path k's errors are c_k times one profile, so every round that
        # resamples whole paths scales the medians alike and fits the
        # profile's slope; resampling each size on its own would not
        profile = np.array([2.0 ** (-k / 3) for k in range(len(self.NS))])
        scales = np.random.default_rng(5).uniform(0.5, 2.0, 8)
        lo, hi = _slope_ci(self.NS, np.outer(profile, scales), 3)
        slope = fit_loglog_slope(self.NS, profile)
        assert lo == pytest.approx(slope, abs=1e-12) and hi == pytest.approx(slope, abs=1e-12)

    def test_single_replication_has_no_ci(self):
        assert _slope_ci(self.NS, np.linspace(0.1, 0.01, len(self.NS))[:, None], 3) is None


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
        ratios, terms = [], []
        for i, n in enumerate([2**k for k in range(10, 17)]):
            b = stone_bandwidth(n)
            x = simulate(AR1, n, seed=880 + i)
            d = modulus_exact(EmpiricalCdf(x), truth, b)
            term1, term2 = modulus_envelope(n, b)
            ratios.append(d / term1)
            terms += [term1, term2]
        assert max(ratios) <= 3.0 * np.median(ratios)
        assert min(terms) > 0


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
