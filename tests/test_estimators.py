"""Tests for the sparse histogram and frequency polygon estimators."""

import json
import math
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from polyfreq.estimators import (
    BinningScheme,
    EmpiricalCdf,
    SparseHistogram,
    build_histogram,
    cdf_bin_density,
    fp_eval,
    fp_eval_classic,
    histogram_eval,
    interp_weight,
    kde_eval_naive,
    merge_histograms,
    stone_bandwidth,
)

UNIT = BinningScheme(1.0)


class TestBinning:
    @pytest.mark.parametrize(
        "x,width,expected",
        [
            (2.5, 1.0, 2.0),
            (3.0, 1.0, 2.0),  # exact grid point belongs to the bin below
            (-0.2, 0.5, -0.5),
            (0.0, 1.0, -1.0),
            (1e-12, 1.0, 0.0),
        ],
    )
    def test_bin_origin(self, x, width, expected):
        assert BinningScheme(width).bin_origin(x) == expected

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                UNIT.bin_origin(bad)

    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_width(self, width):
        with pytest.raises(ValueError):
            BinningScheme(width)

    @given(
        x=st.floats(-1e6, 1e6, allow_nan=False),
        width=st.floats(1e-3, 1e3, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_strict_lower_edge_invariant(self, x, width):
        scheme = BinningScheme(width)
        z = scheme.bin_index(x)
        assert z * width < x <= (z + 1) * width

    @given(
        z=st.integers(-1000, 1000),
        width=st.floats(1e-3, 1e3, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_edge_floats_belong_below(self, z, width):
        scheme = BinningScheme(width)
        assert scheme.bin_index(z * width) == z - 1

    @pytest.mark.parametrize(
        "x,width",
        [(1e300, 1e-10), (5e299, 1e-10), (-1e300, 1e-10), (2.0**52, 1.0), (1e308, 0.5)],
    )
    def test_values_past_the_exact_index_range_rejected(self, x, width):
        # past |x/b| = 2**52 the one-ulp corrections are no longer exact and
        # the int64 cast can overflow
        scheme = BinningScheme(width)
        for index in (scheme.bin_index, scheme.half_grid_index):
            for arg in (x, np.array([0.0, x])):
                with pytest.raises(ValueError, match=re.escape(f"{x!r} with bin width {width!r}")):
                    index(arg)

    def test_largest_exact_index_accepted(self):
        x = 2.0**52 - 1.0
        assert UNIT.bin_index(x) == 2**52 - 2
        assert UNIT.half_grid_index(x) == x

    @given(
        x=st.floats(allow_nan=False, allow_infinity=False),
        width=st.floats(1e-300, 1e300),
    )
    @settings(max_examples=500, deadline=None)
    @example(x=(2.0**52 - 1.0) * 3.0, width=3.0)
    @example(x=-(2.0**52 - 1.0) * 0.1, width=0.1)
    def test_cells_hold_over_the_whole_accepted_domain(self, x, width):
        scheme = BinningScheme(width)
        if abs(Fraction(x)) >= 2**52 * Fraction(width):
            with pytest.raises(ValueError, match=r"2\*\*52"):
                scheme.bin_index(x)
            return
        z = scheme.bin_index(x)
        assert z * width < x <= (z + 1) * width
        k, width, x = Fraction(int(scheme.half_grid_index(x))), Fraction(width), Fraction(x)
        assert k * width - width / 2 < x <= k * width + width / 2


class TestBuildHistogram:
    def test_direct_count(self):
        h = build_histogram([0.25, 0.75, 1.5], UNIT)
        assert h.keys.tolist() == [0, 1]
        assert h.values.tolist() == [2, 1]
        assert h.keys.dtype == h.values.dtype == np.int64
        assert h.n == 3

    def test_boundary_point(self):
        h = build_histogram([1.0], UNIT)
        assert (h.keys.tolist(), h.values.tolist()) == ([0], [1])

    def test_large_normal_sample_stays_sparse(self):
        from polyfreq.models import ArmaModel, simulate

        x = simulate(ArmaModel(), 10**5, seed=20260810)
        h = build_histogram(x, BinningScheme(0.1))
        assert h.values.sum() == h.n == 10**5
        assert h.occupied == 84  # frozen: data range ~[-4.52, 4.14] at width 0.1
        assert h.occupied <= 120

    def test_empty_sample(self):
        with pytest.raises(ValueError, match="nonempty"):
            build_histogram([], UNIT)

    def test_non_finite_reported_with_index(self):
        with pytest.raises(ValueError, match="indices 1, 3"):
            build_histogram([0.5, math.nan, 0.7, math.inf], UNIT)

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError, match="empty bins"):
            SparseHistogram(UNIT, [0, 1], [1, 0], 1)

    def test_counts_cannot_exceed_n(self):
        with pytest.raises(ValueError, match="sum"):
            SparseHistogram(UNIT, [0], [3], 2)

    def test_counts_cannot_fall_short_of_n(self):
        with pytest.raises(ValueError, match="sum"):
            SparseHistogram(UNIT, [0, 1], [1, 1], 3)

    @pytest.mark.parametrize("keys", [[1, 0], [0, 0], [0, 2, 1]],
                             ids=["unsorted", "duplicate", "tail"])
    def test_keys_must_strictly_increase(self, keys):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseHistogram(UNIT, keys, [1] * len(keys), len(keys))

    def test_keys_and_values_must_pair_up(self):
        with pytest.raises(ValueError, match="equal length"):
            SparseHistogram(UNIT, [0, 1], [2], 2)

    def test_arrays_are_read_only_copies(self):
        keys, values = np.array([0, 3]), np.array([2, 1])
        h = SparseHistogram(UNIT, keys, values, 3)
        keys[0] = 5
        assert h.keys.tolist() == [0, 3]
        with pytest.raises(ValueError):
            h.values[0] = 7

    def test_partitioned_build_matches_sequential(self, rng):
        x = rng.normal(0, 1, 5000)
        whole = build_histogram(x, BinningScheme(0.3))
        merged = merge_histograms(build_histogram(c, BinningScheme(0.3))
                                  for c in np.array_split(x, 7))
        assert merged.n == whole.n == x.size
        assert_array_equal(merged.keys, whole.keys)
        assert_array_equal(merged.values, whole.values)

    def test_threaded_build_matches_sequential(self, rng):
        x = rng.normal(0, 1, 8000)
        chunks = np.array_split(x, 4)
        with ThreadPoolExecutor(max_workers=4) as pool:
            parts = list(pool.map(lambda c: build_histogram(c, UNIT), chunks))
        merged = merge_histograms(parts)
        whole = build_histogram(x, UNIT)
        assert merged.n == whole.n
        assert_array_equal(merged.keys, whole.keys)
        assert_array_equal(merged.values, whole.values)

    def test_merge_sums_overlapping_and_disjoint_bins(self):
        a = build_histogram([0.5, 0.5, 2.5], UNIT)
        b = build_histogram([-1.5, 0.5, 5.5], UNIT)
        merged = merge_histograms([a, b])
        assert merged.keys.tolist() == [-2, 0, 2, 5]
        assert merged.values.tolist() == [1, 3, 1, 1]
        assert merged.n == 6
        assert merge_histograms([a]).values.tolist() == a.values.tolist()

    def test_merge_rejects_mixed_widths(self):
        with pytest.raises(ValueError, match="bin widths"):
            merge_histograms([build_histogram([0.5], UNIT),
                              build_histogram([0.5], BinningScheme(0.5))])

    def test_merge_needs_a_part(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_histograms([])

    def test_json_round_trip(self, rng):
        h = build_histogram(rng.normal(0, 1, 500), BinningScheme(0.25))
        obj = json.loads(json.dumps(h.to_json_obj()))
        back = SparseHistogram.from_json_obj(obj)
        assert_array_equal(back.keys, h.keys)
        assert_array_equal(back.values, h.values)
        assert back.n == h.n
        assert back.scheme.bin_width == h.scheme.bin_width
        assert [z for z, _ in obj["bins"]] == sorted(z for z, _ in obj["bins"])


class TestHistogramEval:
    def setup_method(self):
        self.h = build_histogram([0.25, 0.75, 1.5], UNIT)

    def test_occupied_bin(self):
        assert histogram_eval(self.h, 0.3) == pytest.approx(2 / 3)

    def test_empty_bin(self):
        assert histogram_eval(self.h, 5.0) == 0.0

    def test_upper_edge_belongs_to_bin(self):
        assert histogram_eval(self.h, 1.0) == pytest.approx(2 / 3)

    def test_vectorized_matches_scalar(self, rng):
        xs = rng.uniform(-2, 4, 200)
        vec = histogram_eval(self.h, xs)
        assert_array_equal(vec, [histogram_eval(self.h, float(x)) for x in xs])

    def test_density_integrates_to_count_fraction(self, rng):
        b = 0.37
        h = build_histogram(rng.normal(0, 1, 4000), BinningScheme(b))
        total = sum(c * b / (h.n * b) for c in h.values.tolist())
        assert total == pytest.approx(1.0, abs=1e-9)


class TestCdfBinDensity:
    def test_uniform_cdf_gives_unit_density(self):
        F = lambda t: np.clip(t, 0.0, 1.0)
        assert cdf_bin_density(F, BinningScheme(0.25), 0.1) == pytest.approx(1.0)

    def test_reproduces_histogram(self, rng):
        # same bins by construction; values agree to division-rounding noise
        x = rng.normal(0, 1, 777)
        scheme = BinningScheme(0.21)
        h = build_histogram(x, scheme)
        ecdf = EmpiricalCdf(x)
        grid = rng.uniform(-4, 4, 3000)
        assert_allclose(
            cdf_bin_density(ecdf, scheme, grid), histogram_eval(h, grid), rtol=1e-13, atol=1e-15
        )

    def test_reproduces_histogram_exactly_on_exact_counts(self):
        # with n and b both powers of two every division is exact
        x = [0.25, 0.75, 1.5, 2.25]
        scheme = BinningScheme(0.5)
        h = build_histogram(x, scheme)
        grid = np.linspace(-1, 3, 257)
        assert_array_equal(cdf_bin_density(EmpiricalCdf(x), scheme, grid), histogram_eval(h, grid))

    def test_normal_cdf_bin_average(self):
        got = cdf_bin_density(stats.norm.cdf, BinningScheme(0.1), 0.0)
        assert got == pytest.approx(0.3982783727702899, abs=1e-12)

    @pytest.mark.parametrize("b", [0.5, 0.1, 0.02])
    def test_normal_bias_bound(self, b):
        # bin-averaging a CDF misses its density by at most max|pdf'| * width
        grid = np.arange(-8.0, 8.0, b / 20.0)
        err = np.abs(cdf_bin_density(stats.norm.cdf, BinningScheme(b), grid) - stats.norm.pdf(grid))
        assert err.max() <= 0.24197072451914337 * b + 1e-9

    def test_operator_norm_bounded_function(self, rng):
        # |F| <= 1 gives |A F| <= 2/b at every point
        b = 0.2
        F = lambda t: np.sin(3.0 * np.asarray(t))
        grid = rng.uniform(-10, 10, 5000)
        assert np.max(np.abs(cdf_bin_density(F, BinningScheme(b), grid))) <= 2.0 / b + 1e-12

    def test_operator_norm_cdf(self, rng):
        b = 0.2
        grid = rng.uniform(-10, 10, 5000)
        vals = cdf_bin_density(stats.norm.cdf, BinningScheme(b), grid)
        assert np.max(np.abs(vals)) <= 1.0 / b + 1e-12
        assert np.min(vals) >= 0.0


class TestInterpWeight:
    @pytest.mark.parametrize("x,expected", [(0.0, 0.5), (0.25, 0.75), (0.5, 1.0)])
    def test_reference_values(self, x, expected):
        assert interp_weight(x, UNIT) == expected

    @given(
        x=st.floats(-1e5, 1e5, allow_nan=False),
        width=st.floats(1e-3, 1e3, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_weight_in_unit_interval(self, x, width):
        u = interp_weight(x, BinningScheme(width))
        assert 0.0 <= u <= 1.0

    @given(
        x=st.floats(-1e5, 1e5, allow_nan=False),
        width=st.floats(1e-3, 1e3, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    # rounded cell edges: 7*b + b/2 < 2.5 == 8*b - b/2, and 4*b + b/2 == 1.5
    @example(x=2.5, width=1 / 3)
    @example(x=1.5, width=1 / 3)
    def test_half_grid_cell_invariant(self, x, width):
        scheme = BinningScheme(width)
        k = scheme.half_grid_index(x)
        assert k == int(k)
        # exact arithmetic: rounded edges of neighbouring cells can leave a gap
        k, width, x = Fraction(int(k)), Fraction(width), Fraction(x)
        assert k * width - width / 2 < x <= k * width + width / 2

    def test_half_grid_index_exact_next_to_cell_edges(self, rng):
        widths = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 300))
        for width in widths:
            scheme = BinningScheme(float(width))
            edge = (int(rng.integers(-10**4, 10**4)) + 0.5) * width
            xs = [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
            for x, k in zip(xs, scheme.half_grid_index(np.array(xs))):
                k, w, x = Fraction(int(k)), Fraction(float(width)), Fraction(float(x))
                assert k * w - w / 2 < x <= k * w + w / 2

    @pytest.mark.parametrize(
        "x, width",
        [
            ("0x1.fffffffffffffp+1023", "0x1.f42c9bff6da73p+984"),
            ("-0x1.ffffffff68ab7p+1023", "0x1.0ddb798011a41p+984"),
            ("0x1.c7df72b3e2995p-1020", "0x0.0000000000559p-1022"),
            ("-0x1.7a4ba4ec88ac4p-987", "0x0.0068da29663efp-1022"),
        ],
    )
    def test_half_grid_index_exact_at_the_ends_of_the_float_range(self, x, width):
        x, width = float.fromhex(x), float.fromhex(width)
        k = Fraction(int(BinningScheme(width).half_grid_index(x)))
        w, x = Fraction(width), Fraction(x)
        assert k * w - w / 2 < x <= k * w + w / 2

    @pytest.mark.parametrize("tiny", [True, False], ids=["subnormal", "top"])
    def test_half_grid_index_exact_next_to_extreme_cell_edges(self, rng, tiny):
        # subnormal widths, and wide bins whose edges reach the float maximum
        top = np.finfo(float).max
        checked = 0
        for _ in range(400):
            if tiny:
                width = float(10.0 ** rng.uniform(-323.0, -300.0))
                n = int(rng.integers(-2**45, 2**45))
            else:
                width = float(10.0 ** rng.uniform(293.0, 300.0))
                below_top = 1.0 - 10.0 ** -rng.uniform(1.0, 12.0)
                n = int(below_top * top / width) * int(rng.choice([-1, 1]))
            edge = (n + 0.5) * width
            for x in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                if not (0.0 < width and math.isfinite(x)
                        and abs(Fraction(x)) < 2**52 * Fraction(width)):
                    continue
                k = Fraction(int(BinningScheme(width).half_grid_index(float(x))))
                w, x = Fraction(width), Fraction(float(x))
                assert k * w - w / 2 < x <= k * w + w / 2
                checked += 1
        assert checked > 1000

    def test_no_overflow_warning_at_the_float_maximum(self):
        # near +-max float the edges z*b and (z+1)*b, and the origin of the
        # lowest bin, round to +-inf; that is reported as no warning
        top = np.finfo(float).max
        scheme = BinningScheme(1e300)
        xs = np.array([top, -top, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (top, -top, xs):
                for zi, xi in zip(np.atleast_1d(scheme.bin_index(x)).tolist(), np.atleast_1d(x)):
                    assert zi * 1e300 < xi <= (zi + 1) * 1e300
                scheme.half_grid_index(x)
            assert scheme.bin_origin(xs).tolist() == [179769313 * 1e300, -math.inf, 0.0]
            assert scheme.bin_origin(-top) == -math.inf
            assert build_histogram(xs, scheme).keys.tolist() == [-179769314, 0, 179769313]

def _mixed_sample(rng, n, kind):
    if kind == 0:
        return rng.normal(0, 1, n)
    if kind == 1:
        return rng.uniform(-3, 5, n)
    if kind == 2:
        return rng.lognormal(0, 0.7, n)
    half = n // 2 + 1
    return np.concatenate([rng.normal(-2, 0.3, half), rng.normal(3, 1.2, half)])


class TestFrequencyPolygon:
    def setup_method(self):
        self.h = build_histogram([0.25, 0.75], UNIT)

    def test_midpoint_equals_bin_density(self):
        assert fp_eval(self.h, 0.5) == 1.0

    def test_bin_edge_averages_neighbours(self):
        assert fp_eval(self.h, 1.0) == pytest.approx(0.5)
        assert fp_eval(self.h, 0.0) == pytest.approx(0.5)

    def test_far_from_data_is_zero(self):
        assert fp_eval(self.h, 10.0) == 0.0

    def test_classic_reference_values(self):
        assert fp_eval_classic(self.h, 0.5) == 1.0
        assert fp_eval_classic(self.h, 0.75) == pytest.approx(0.75)
        assert fp_eval_classic(self.h, 1.0) == pytest.approx(0.5)

    def test_two_routes_agree_on_random_and_edge_points(self, rng):
        # smaller cousin of the acceptance-suite identity check
        for trial in range(12):
            n = int(rng.integers(10, 3000))
            b = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
            scheme = BinningScheme(b)
            h = build_histogram(_mixed_sample(rng, n, trial % 4), scheme)
            lo, hi = h.occupied_range()
            zs = np.arange(lo - 2, hi + 3)
            pts = np.concatenate(
                [
                    rng.uniform((lo - 3) * b, (hi + 3) * b, 10_000),
                    zs * b,
                    (zs + 0.5) * b,
                    np.nextafter(zs * b, np.inf),
                    np.nextafter((zs + 0.5) * b, -np.inf),
                ]
            )
            assert np.max(np.abs(fp_eval(h, pts) - fp_eval_classic(h, pts))) <= 1e-12

    @pytest.mark.parametrize("width", [1.0, 0.5, 0.25, 2.0])
    def test_midpoint_exact_on_exact_widths(self, rng, width):
        # power-of-two widths make the knot arithmetic exact, so equality is
        # bitwise; fractional widths are covered by the 1e-12 identity suite
        scheme = BinningScheme(width)
        h = build_histogram(rng.normal(0, 2, 2000), scheme)
        lo, hi = h.occupied_range()
        for z in range(lo - 3, hi + 4):
            m = (z + 0.5) * width
            assert fp_eval(h, m) == histogram_eval(h, m)

    @pytest.mark.parametrize("width", [0.1, 0.3, 0.7])
    def test_midpoint_near_exact_on_general_widths(self, rng, width):
        scheme = BinningScheme(width)
        h = build_histogram(rng.normal(0, 2, 2000), scheme)
        lo, hi = h.occupied_range()
        zs = np.arange(lo - 3, hi + 4)
        m = (zs + 0.5) * width
        assert np.max(np.abs(fp_eval(h, m) - histogram_eval(h, m))) <= 1e-12

    def test_continuity_at_knots(self, rng):
        b = 0.4
        h = build_histogram(rng.normal(0, 1, 1500), BinningScheme(b))
        lo, hi = h.occupied_range()
        eps = 1e-9 * b
        max_density = h.values.max() / (h.n * b)
        for z in range(lo - 2, hi + 3):
            m = (z + 0.5) * b
            gap = abs(fp_eval(h, m - eps) - fp_eval(h, m + eps))
            assert gap <= 4.0 * max_density * eps / b + 1e-15

    def test_mass_conservation(self, rng):
        b = 0.23
        h = build_histogram(rng.normal(0, 1, 5000), BinningScheme(b))
        lo, hi = h.occupied_range()
        zs = np.arange(lo - 1, hi + 2)
        # histogram mass through midpoint values
        hist_mass = float(np.sum(b * histogram_eval(h, zs * b + b / 2)))
        assert hist_mass == pytest.approx(1.0, abs=1e-9)
        # frequency polygon integral: trapezoids between consecutive midpoints
        dens = histogram_eval(h, zs * b + b / 2)
        fp_mass = float(np.sum(b * (dens[:-1] + dens[1:]) / 2.0)) + b * (dens[0] + dens[-1]) / 2.0
        assert fp_mass == pytest.approx(1.0, abs=1e-9)

    def test_nonnegative_everywhere(self, rng):
        h = build_histogram(rng.lognormal(0, 1, 2000), BinningScheme(0.17))
        pts = rng.uniform(-5, 20, 50_000)
        assert np.min(fp_eval(h, pts)) >= 0.0

    def test_thread_safe_evaluation(self, rng):
        h = build_histogram(rng.normal(0, 1, 2000), BinningScheme(0.3))
        pts = rng.uniform(-4, 4, 10_000)
        expected = fp_eval(h, pts)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: fp_eval(h, pts), range(8)))
        for r in results:
            assert_array_equal(r, expected)


class TestStoneBandwidth:
    def test_reference_values(self):
        assert stone_bandwidth(1000) == pytest.approx(0.19044912476405548, rel=1e-14)
        assert stone_bandwidth(10**6) == pytest.approx(0.02399508612242885, rel=1e-14)

    def test_formula_structure(self):
        n = 5000
        assert stone_bandwidth(n) == pytest.approx((math.log(n) / n) ** (1 / 3), rel=1e-15)

    @pytest.mark.parametrize("n", [1, 0, -5])
    def test_small_n_rejected(self, n):
        with pytest.raises(ValueError):
            stone_bandwidth(n)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            stone_bandwidth(1000.0)


class TestKdeBaseline:
    def test_single_point_at_center(self):
        assert kde_eval_naive([0.0], 1.0, 0.0) == pytest.approx(0.3989422804014327, rel=1e-14)

    def test_two_symmetric_points(self):
        got = kde_eval_naive([-1.0, 1.0], 1.0, 0.0)
        assert got == pytest.approx(0.24197072451914337, rel=1e-13)

    def test_decays_far_from_data(self, rng):
        x = rng.normal(0, 1, 200)
        assert kde_eval_naive(x, 0.5, 60.0) < 1e-12

    def test_empty_sample(self):
        with pytest.raises(ValueError, match="nonempty"):
            kde_eval_naive([], 1.0, 0.0)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            kde_eval_naive([0.0], 0.0, 0.0)

    def test_integrates_to_one(self, rng):
        x = rng.normal(0, 1, 50)
        grid = np.linspace(-8, 8, 2001)
        vals = kde_eval_naive(x, 0.4, grid)
        assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-6)


class TestEmpiricalCdf:
    def test_step_values(self):
        F = EmpiricalCdf([1.0, 2.0, 2.0, 3.0])
        assert F(0.5) == 0.0
        assert F(1.0) == 0.25
        assert F(2.0) == 0.75
        assert F(10.0) == 1.0
        assert F.below(2.0) == 0.25

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([])
        with pytest.raises(ValueError):
            EmpiricalCdf([1.0, math.nan])

