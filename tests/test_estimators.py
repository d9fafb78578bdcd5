"""Tests for the sparse histogram and frequency polygon estimators."""

import json
import math
import re
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from polyfreq import estimators
from polyfreq.estimators import (
    BinningScheme,
    EmpiricalCdf,
    SparseHistogram,
    build_histogram,
    cdf_bin_density,
    fp_eval,
    fp_eval_classic,
    histogram_eval,
    kde_eval_naive,
    stone_bandwidth,
)

UNIT = BinningScheme(1.0)
TOP = float(np.finfo(float).max)


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
        assert BinningScheme(width).bin_index(x) * width == expected

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                UNIT.bin_index(bad)

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


def whole_array_bin_index(scheme, x):
    """``bin_index`` as one whole-array expression, the route the blocks replace."""
    arr, b = np.asarray(x, dtype=float), scheme.bin_width
    z = np.ceil(arr / b) - 1.0
    with np.errstate(over="ignore"):
        z = np.where(arr <= z * b, z - 1.0, z)
        z = np.where(arr > (z + 1.0) * b, z + 1.0, z)
    return z.astype(np.int64)


class TestBlockedBinning:
    """``bin_index`` works through an array in blocks of ``_BLOCK`` points
    with reused buffers; it must equal the whole-array expression."""

    @pytest.mark.parametrize("width", [1 / 3, 0.029, 1e-300, 1e300])
    def test_edges_and_one_ulp_either_side(self, rng, width):
        scheme = BinningScheme(width)
        # indices near 0, spread up to the exact range, and, for 1e300, near
        # the float maximum, where the upper edge rounds to inf
        reach = min(2.0**52 - 2.0, TOP / width)
        z = np.concatenate([np.arange(-3000.0, 3000.0),
                            np.round(rng.uniform(-reach, reach, 20_000)),
                            np.floor(reach) - np.arange(5.0)])
        edges = z * width
        x = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        x = x[np.isfinite(x) & (np.abs(x) < 2.0**52 * width)]
        assert x.size > 3 * estimators._BLOCK
        got = scheme.bin_index(x)
        assert_array_equal(got, whole_array_bin_index(scheme, x))
        # the strict lower-edge rule, against the float edges
        with np.errstate(over="ignore"):
            assert np.all((got * width < x) & (x <= (got + 1.0) * width))

    @pytest.mark.parametrize("size", [1, estimators._BLOCK - 1, estimators._BLOCK,
                                      estimators._BLOCK + 1, 3 * estimators._BLOCK + 5])
    def test_arrays_across_block_boundaries(self, rng, size):
        scheme = BinningScheme(0.029)
        x = rng.normal(0.0, 3.0, size)
        x[::7] = np.round(x[::7] / 0.029) * 0.029  # on or next to the edges
        assert_array_equal(scheme.bin_index(x), whole_array_bin_index(scheme, x))

    def test_shapes_and_dtypes(self, rng):
        scheme = BinningScheme(1 / 3)
        x = rng.normal(0.0, 5.0, (300, 200))
        for arg in (x, x[:, ::3], x.T, x[::2, 1::2], np.arange(-40, 40).reshape(8, 10),
                    np.empty((0, 3))):
            got = scheme.bin_index(arg)
            assert got.dtype == np.int64 and got.shape == np.shape(arg)
            assert_array_equal(got, whole_array_bin_index(scheme, arg))
        for arg in (np.float64(2.5), np.array(2.5), 2.5, 7):
            got = scheme.bin_index(arg)
            assert type(got) is int and got == int(whole_array_bin_index(scheme, arg))

    @pytest.mark.parametrize("bad,message", [
        (2.0**53, re.escape(f"got x = {2.0**53!r} with bin width 1.0")),
        (math.nan, "x must be finite"), (-math.inf, "x must be finite"),
    ])
    def test_refusal_in_a_later_block(self, rng, bad, message):
        x = rng.normal(0.0, 1.0, 3 * estimators._BLOCK)
        x[2 * estimators._BLOCK + 11] = bad
        for index in (UNIT.bin_index, UNIT.half_grid_index):
            with pytest.raises(ValueError, match=message):
                index(x)
        # the first value past the range is named; a non-finite one anywhere wins
        x[5] = -2.0**60
        first = re.escape(f"got x = {-2.0**60!r}")
        with pytest.raises(ValueError, match=first if math.isfinite(bad) else message):
            UNIT.bin_index(x)

    def test_non_finite_sample_message(self):
        x = np.zeros(3 * estimators._BLOCK)
        x[[4, 40_000]] = math.nan
        x[20_000] = math.inf
        with pytest.raises(ValueError, match=r"^non-finite sample entries at indices "
                                             r"4, 20000, 40000$"):
            build_histogram(x, UNIT)
        x[100:120] = -math.inf
        with pytest.raises(ValueError, match=r"indices 4, 100, 101, .*, 108 \(\+13 more\)$"):
            build_histogram(x, UNIT)

    @pytest.mark.parametrize("kind", ["dense", "one_point", "two_clusters"])
    def test_counting_routes_equal_unique(self, rng, monkeypatch, kind):
        scheme = BinningScheme(0.05)
        x = {"dense": rng.normal(0.0, 1.0, 50_000),
             "one_point": np.full(10, 0.3),
             "two_clusters": np.concatenate([rng.normal(0.0, 1.0, 5000),
                                             rng.normal(1e9 * 0.05, 1.0, 5000)])}[kind]
        routes = []
        for name in ("bincount", "unique"):
            monkeypatch.setattr(np, name, partial(self._record, routes, name, getattr(np, name)))
        h = build_histogram(x, scheme)
        monkeypatch.undo()
        assert routes == (["unique"] if kind == "two_clusters" else ["bincount"])
        keys, values = np.unique(whole_array_bin_index(scheme, x), return_counts=True)
        assert h.keys.dtype == h.values.dtype == np.int64
        assert_array_equal(h.keys, keys)
        assert_array_equal(h.values, values)

    @staticmethod
    def _record(routes, name, fn, *args, **kwargs):
        routes.append(name)
        return fn(*args, **kwargs)


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

    def test_threaded_build_matches_sequential(self, rng):
        # builds share no state: each thread's part is bit for bit its serial build
        chunks = np.array_split(rng.normal(0, 1, 8000), 4)
        with ThreadPoolExecutor(max_workers=4) as pool:
            parts = list(pool.map(lambda c: build_histogram(c, UNIT), chunks))
        for chunk, part in zip(chunks, parts):
            serial = build_histogram(chunk, UNIT)
            assert part.n == serial.n == chunk.size
            assert_array_equal(part.keys, serial.keys)
            assert_array_equal(part.values, serial.values)

    def test_json_round_trip(self, rng):
        h = build_histogram(rng.normal(0, 1, 500), BinningScheme(0.25))
        obj = json.loads(json.dumps(h.to_json_obj()))
        bins = np.array(obj["bins"], dtype=np.int64).reshape(-1, 2)
        assert_array_equal(bins[:, 0], h.keys)
        assert_array_equal(bins[:, 1], h.values)
        assert obj["n"] == h.n
        assert obj["bin_width"] == h.scheme.bin_width
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
        # bin 0 alone is occupied, at density 1: fp_eval reads the weight toward it
        h = SparseHistogram(UNIT, [0], [1], 1)
        assert fp_eval(h, x) == expected
        assert fp_eval(h, np.array([x]))[0] == expected

    @given(
        x=st.floats(-1e5, 1e5, allow_nan=False),
        width=st.floats(1e-3, 1e3, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_weight_in_unit_interval(self, x, width):
        # fp_eval's weight, which it does not clip
        scheme = BinningScheme(width)
        k = scheme.half_grid_index(x)
        u = 0.5 - k + x / width
        assert 0.0 <= u <= 1.0
        # bin k alone is occupied, at density 1 / width: fp_eval reads the weight
        assert fp_eval(SparseHistogram(scheme, [k], [1], 1), x) == u * (1.0 / width)

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
        # near +-max float the edges z*b and (z+1)*b round to +-inf; that is
        # reported as no warning
        top = np.finfo(float).max
        scheme = BinningScheme(1e300)
        xs = np.array([top, -top, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (top, -top, xs):
                for zi, xi in zip(np.atleast_1d(scheme.bin_index(x)).tolist(), np.atleast_1d(x)):
                    assert zi * 1e300 < xi <= (zi + 1) * 1e300
                scheme.half_grid_index(x)
            assert scheme.bin_index(xs).tolist() == [179769313, -179769314, 0]
            assert scheme.bin_index(-top) == -179769314
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
            lo, hi = h.keys[[0, -1]]
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

    @given(
        x=st.floats(allow_nan=False, allow_infinity=False),
        width=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    @settings(max_examples=1000, deadline=None)
    @example(x=TOP, width=1e300)  # the classic upper edge (k + 1) * b overflowed
    @example(x=1.6e308, width=1e308)  # and its lower edge k * b too
    @example(x=-TOP, width=1e308)
    @example(x=TOP / 2, width=TOP)  # nextafter past the top bin's lower edge overflows
    @example(x=(2.0**52 - 0.75) * 3.0, width=3.0)  # top of the exact index range
    @example(x=0.0, width=5e-324)  # densities past the float maximum: refused
    def test_two_routes_agree_over_the_whole_accepted_domain(self, x, width):
        scheme = BinningScheme(width)
        # points in and next to the cells around x, as many as n * b allows
        with np.errstate(over="ignore"):
            near = np.array([x, x - width / 2, x + width / 2, x - width, x + width,
                             np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
            near = near[np.isfinite(near) & (np.abs(near) < 2.0**52 * width)]
        sample = near[: int(min(near.size, TOP // width))] if near.size else np.zeros(1)
        counts = np.unique(scheme.bin_index(sample), return_counts=True)[1]
        if not math.isfinite(int(counts.max()) / (sample.size * width)):
            with pytest.raises(ValueError, match="out of float range"):
                build_histogram(sample, scheme)
            return
        h = build_histogram(sample, scheme)
        if abs(Fraction(x)) >= 2**52 * Fraction(width):
            for route in (fp_eval, fp_eval_classic):
                with pytest.raises(ValueError, match=r"2\*\*52"):
                    route(h, x)
            return
        # 1e-12 of the largest density: densities reach 1e308 and fall to 1e-308
        scale = h.values.max() / (h.n * width)
        assert abs(fp_eval(h, x) - fp_eval_classic(h, x)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "sample,width",
        [
            ([1.0, 2.0, 3.0], 1e308),  # n * b overflows: every density would read 0
            ([0.0], 5e-324),  # 1 / (n * b) overflows
            ([1.0, 1.5], 1e308),  # one point fits, the pair's n * b does not
        ],
    )
    def test_density_scale_out_of_float_range_refused(self, sample, width):
        with pytest.raises(ValueError, match="out of float range"):
            build_histogram(sample, BinningScheme(width))

    @pytest.mark.parametrize("width", [1.0, 0.5, 0.25, 2.0])
    def test_midpoint_exact_on_exact_widths(self, rng, width):
        # power-of-two widths make the knot arithmetic exact, so equality is
        # bitwise; fractional widths are covered by the 1e-12 identity suite
        scheme = BinningScheme(width)
        h = build_histogram(rng.normal(0, 2, 2000), scheme)
        lo, hi = h.keys[[0, -1]]
        for z in range(lo - 3, hi + 4):
            m = (z + 0.5) * width
            assert fp_eval(h, m) == histogram_eval(h, m)

    @pytest.mark.parametrize("width", [0.1, 0.3, 0.7])
    def test_midpoint_near_exact_on_general_widths(self, rng, width):
        scheme = BinningScheme(width)
        h = build_histogram(rng.normal(0, 2, 2000), scheme)
        lo, hi = h.keys[[0, -1]]
        zs = np.arange(lo - 3, hi + 4)
        m = (zs + 0.5) * width
        assert np.max(np.abs(fp_eval(h, m) - histogram_eval(h, m))) <= 1e-12

    def test_continuity_at_knots(self, rng):
        b = 0.4
        h = build_histogram(rng.normal(0, 1, 1500), BinningScheme(b))
        lo, hi = h.keys[[0, -1]]
        eps = 1e-9 * b
        max_density = h.values.max() / (h.n * b)
        for z in range(lo - 2, hi + 3):
            m = (z + 0.5) * b
            gap = abs(fp_eval(h, m - eps) - fp_eval(h, m + eps))
            assert gap <= 4.0 * max_density * eps / b + 1e-15

    def test_mass_conservation(self, rng):
        b = 0.23
        h = build_histogram(rng.normal(0, 1, 5000), BinningScheme(b))
        lo, hi = h.keys[[0, -1]]
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


def _bits(value):
    """The float's bit pattern, so that equal values of opposite sign differ."""
    return np.asarray(value, dtype=float).view(np.int64)


class TestScalarRoute:
    """``fp_eval`` on a Python scalar must equal its array route bit for bit."""

    # no histogram of width 5e-324 has finite densities (it would need over
    # 10**15 occupied bins), so there only the midpoint cell is compared;
    # 1e-309 is the subnormal width with histograms
    WIDTHS = [5e-324, 1e-309, 1 / 3, 1.0, 1e300]

    @staticmethod
    def _top(width):
        """Largest bin index whose edges are finite and within ``2**51``."""
        return 2**51 if TOP / width > 2**51 else int(TOP / width)

    @given(
        width=st.sampled_from(WIDTHS),
        place=st.sampled_from(["zero", "top", "bottom"]),
        seed=st.integers(0, 2**32 - 1),
        j=st.integers(-2, 97),
        midpoint=st.booleans(),
        ulps=st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=400, deadline=None)
    @example(width=1 / 3, place="zero", seed=0, j=55, midpoint=True, ulps=0)  # x = 2.5
    @example(width=5e-324, place="top", seed=0, j=97, midpoint=True, ulps=1)
    @example(width=1e300, place="top", seed=0, j=97, midpoint=False, ulps=0)
    def test_scalar_equals_array_on_edges_and_midpoints(self, width, place, seed, j,
                                                        midpoint, ulps):
        top = self._top(width)
        base = {"zero": -48, "top": top - 100, "bottom": 4 - top}[place]
        x = (base + j + 0.5 * midpoint) * width
        for _ in range(abs(ulps)):
            x = math.nextafter(x, ulps * math.inf)
        scheme = BinningScheme(width)
        k, k_arr = scheme.half_grid_index(x), scheme.half_grid_index(np.array([x]))
        u, u_arr = 0.5 - k + x / width, 0.5 - k_arr + np.array([x]) / width
        assert type(k) is int and k == k_arr[0] and _bits(u) == _bits(u_arr[0])
        if width == 5e-324:
            return
        rng = np.random.default_rng(seed)
        keys = base + np.sort(rng.choice(96, 64, replace=False))
        values = rng.integers(1, 4, keys.size)
        h = SparseHistogram(scheme, keys, values, int(values.sum()))
        scalar = fp_eval(h, x)
        assert type(scalar) is float
        assert _bits(scalar) == _bits(fp_eval(h, np.array([x]))[0])

    @pytest.mark.parametrize("width", WIDTHS)
    def test_scalar_and_array_refuse_alike(self, width):
        scheme = BinningScheme(width)
        if width == 5e-324:
            route = scheme.half_grid_index
        else:
            h = SparseHistogram(scheme, np.arange(64), np.ones(64), 64)
            route = partial(fp_eval, h)
        far = 2.0**52 * width
        bad = [math.nan, math.inf, -math.inf]
        if math.isfinite(far):
            bad += [far, -far, math.nextafter(far, math.inf)]
        for x in bad:
            with pytest.raises(ValueError) as scalar:
                route(x)
            with pytest.raises(ValueError) as array:
                route(np.array([x]))
            assert str(scalar.value) == str(array.value)

    @pytest.mark.parametrize("x", [3, -2, True, False, np.float64(0.7), np.array(0.7)],
                             ids=["int", "negative-int", "true", "false", "float64", "0-d"])
    def test_scalar_input_types(self, x):
        h = build_histogram([0.25, 0.75, 1.5, 2.9, -1.2], UNIT)
        value = fp_eval(h, x)
        assert type(value) is float
        assert _bits(value) == _bits(fp_eval(h, np.array([float(x)]))[0])


class TestArrayRoute:
    """An ``fp_eval`` array reads a density table while the occupied span is no
    larger than the call's inputs, and searches the occupied bins past that;
    either way it must equal the scalar route bit for bit."""

    @given(
        width=st.sampled_from([1 / 3, 1.0, 0.029, 1e300]),
        gaps=st.lists(st.sampled_from([1, 1, 2, 3, 100, 10**6]), max_size=24),
        counts=st.lists(st.integers(1, 5), min_size=25, max_size=25),
        queries=st.lists(st.tuples(st.integers(0, 24), st.integers(-5, 5),
                                   st.sampled_from([-1, 0, 1])), max_size=48),
    )
    @settings(max_examples=200, deadline=None)
    # dense: a 3-bin span against 3 bins and 2 points, the table's largest size
    @example(width=1.0, gaps=[1, 1], counts=[1] * 25, queries=[(0, -3, 0), (2, 3, 1)])
    # one bin past the table's largest size: the search route
    @example(width=1.0, gaps=[1, 2], counts=[1] * 25, queries=[(0, -3, 0), (2, 3, 1)])
    def test_array_equals_scalar_calls(self, width, gaps, counts, queries):
        # at width 1e300 the highest bins end next to the float maximum
        low = int(TOP / width) - 25 * 10**6 if width == 1e300 else -10**6
        keys = low + np.cumsum([0, *gaps])
        h = SparseHistogram(BinningScheme(width), keys, counts[:keys.size],
                            sum(counts[:keys.size]))
        x = []
        for i, half_steps, ulps in queries:
            v = (keys[i % keys.size] + 0.5 * half_steps) * width
            x.append(math.nextafter(v, ulps * math.inf) if ulps else v)
        out = fp_eval(h, np.array(x))
        expected = [fp_eval(h, v) for v in x]
        assert _bits(out).tolist() == _bits(expected).tolist()

    def test_far_bins_allocate_nothing_by_their_span(self):
        h = SparseHistogram(UNIT, [0, 2**50], [1, 2], 3)
        x = np.array([0.5, 2.0**50 + 0.25, -7.0])
        tracemalloc.start()
        try:
            out = fp_eval(h, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert out.tolist() == [fp_eval(h, v) for v in x.tolist()]


B = estimators._BLOCK


def _scalar_calls(h, x):
    """``fp_eval``'s scalar route at every point of ``x``, in ``x``'s shape."""
    return np.array([fp_eval(h, v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


class TestBlockedRoute:
    """An ``fp_eval`` array goes through in blocks of ``_BLOCK`` points and
    locates its cells in its own code; every block, the short last one
    included, must equal the scalar route bit for bit."""

    @pytest.fixture(scope="class")
    def hist(self):
        # bin 0 holds 3000 points more than bin -1: just above the cell edge
        # -b/2, where x/b - 1/2 rounds onto -1, ceil's cell -1 would then give
        # other bits than the exact cell 0
        rng = np.random.default_rng(7)
        sample = np.concatenate([rng.normal(0.0, 10.0, 20_000), np.full(3000, 0.05)])
        return build_histogram(sample, BinningScheme(0.1))

    @staticmethod
    def _marks(h):
        """Bin edges and midpoints of ``h`` and one ulp to either side, and
        the points among them where ``ceil(x/b - 1/2)`` misses the cell."""
        b = h.scheme.bin_width
        z = np.arange(h.keys[0] - 2, h.keys[-1] + 3, dtype=float)
        marks = np.concatenate([z * b, (z + 0.5) * b])
        marks = np.concatenate([marks, np.nextafter(marks, -np.inf), np.nextafter(marks, np.inf)])
        return marks, marks[np.ceil(marks / b - 0.5) != h.scheme.half_grid_index(marks)]

    @pytest.mark.parametrize("size", [B - 1, B, B + 1, 2 * B + 1])
    def test_batch_lengths_around_the_block(self, hist, rng, size):
        marks, dekker = self._marks(hist)
        b = hist.scheme.bin_width
        assert np.nextafter(-b / 2, 0.0) in dekker and dekker.size >= 100
        x = rng.uniform((hist.keys[0] - 3) * b, (hist.keys[-1] + 3) * b, size)
        # the batch ends in edge points, a far point that widens its block's
        # near-edge bound and the Dekker cases, the one next to -b/2 last, so
        # that the last block holds them
        tail = np.concatenate([rng.choice(marks, 500), [2.0**40 * b], dekker,
                               [np.nextafter(-b / 2, 0.0)]])
        x[-tail.size:] = tail
        assert _bits(fp_eval(hist, x)).tolist() == _bits(_scalar_calls(hist, x)).tolist()

    def test_sparse_route_across_blocks(self, rng):
        keys = np.array([-10**9, -3, 0, 1, 5, 10**9])
        h = SparseHistogram(BinningScheme(0.5), keys, [1, 2, 3, 1, 2, 1], 10)
        x = rng.uniform(-4.0, 4.0, 2 * B + 1)
        ends = (keys[[0, -1]] + np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0]])).ravel() * 0.5
        x[B - 5:B + 5] = ends
        x[-ends.size:] = ends
        assert int(keys[-1] - keys[0]) + 3 > x.size + keys.size  # the search route
        assert _bits(fp_eval(h, x)).tolist() == _bits(_scalar_calls(h, x)).tolist()

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({B + 7: math.nan}, "x must be finite"),
            ({2 * B: -math.inf}, "x must be finite"),
            ({B + 7: -2.0**51}, "|x / b| must be below 2**52 to index bins exactly; got x = "
                                "-2251799813685248.0 with bin width 0.5"),
            # the first bad value is named; any nan among them makes x non-finite
            ({3: 1e300, 2 * B: -1e301}, "|x / b| must be below 2**52 to index bins exactly; "
                                        "got x = 1e+300 with bin width 0.5"),
            ({3: 1e300, 2 * B: math.nan}, "x must be finite"),
        ],
        ids=["nan", "inf", "past-2**52", "two-large", "large-then-nan"],
    )
    def test_refusal_from_a_later_block(self, bad, message):
        h = SparseHistogram(BinningScheme(0.5), [0, 1], [1, 1], 2)
        x = np.zeros(2 * B + 1)
        for i, v in bad.items():
            x[i] = v
        with pytest.raises(ValueError) as refused:
            fp_eval(h, x)
        assert str(refused.value) == message
        if len(bad) == 1:  # the scalar route refuses the value alike
            with pytest.raises(ValueError) as scalar:
                fp_eval(h, *bad.values())
            assert str(scalar.value) == message

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 3)])
    def test_empty_shapes(self, hist, shape):
        out = fp_eval(hist, np.empty(shape))
        assert out.shape == shape and out.dtype == np.float64

    def test_zero_d_array(self, hist):
        value = fp_eval(hist, np.array(2.5))
        assert type(value) is float and _bits(value) == _bits(fp_eval(hist, 2.5))

    def test_layouts_and_dtypes(self, hist, rng):
        b = hist.scheme.bin_width
        x = rng.uniform((hist.keys[0] - 3) * b, (hist.keys[-1] + 3) * b, (3, B // 2 + 7))
        x[2, -600:] = rng.choice(self._marks(hist)[0], 600)
        for view in (np.asfortranarray(x), x.T, x[:, ::2], x.ravel()[::3]):
            assert _bits(fp_eval(hist, view)).tolist() == _bits(_scalar_calls(hist, view)).tolist()
        ints = rng.integers(-40, 40, B + 3)
        floats32 = x.ravel()[: B + 3].astype(np.float32)
        for arr in (ints, floats32):
            assert _bits(fp_eval(hist, arr)).tolist() == _bits(_scalar_calls(hist, arr)).tolist()

    def test_peak_memory_is_the_output_and_a_few_blocks(self, hist, rng):
        x = rng.uniform(-100.0, 100.0, 10**6)
        tracemalloc.start()
        try:
            out = fp_eval(hist, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out.nbytes + 2 * 2**20

    def test_operator_identity_checks_cell_location(self, hist, rng, monkeypatch):
        # a wrong midpoint cell at a few hundred points of a batch moves the
        # classic route only, so the identity between the two routes fails
        b = hist.scheme.bin_width
        x = rng.uniform((hist.keys[0] - 3) * b, (hist.keys[-1] + 3) * b, 50_000)
        expected = fp_eval(hist, x)
        wrong = rng.choice(x.size, 300, replace=False)
        true_index = BinningScheme.half_grid_index

        def shifted(self, points):
            k = true_index(self, points)
            if np.shape(points) == x.shape:
                k[wrong] += 1
            return k

        monkeypatch.setattr(BinningScheme, "half_grid_index", shifted)
        out = fp_eval(hist, x)
        assert _bits(out).tolist() == _bits(expected).tolist()
        assert np.max(np.abs(out - fp_eval_classic(hist, x))) > 1e-12


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
        assert F(np.nextafter(2.0, -np.inf)) == 0.25  # left limit at a sample point
        assert_array_equal(F(np.array([-math.inf, 2.0, math.inf])), [0.0, 0.75, 1.0])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([])
        with pytest.raises(ValueError):
            EmpiricalCdf([1.0, math.nan])

    def test_refuses_a_nan_query(self):
        # searchsorted sorts nan above every sample, which would read as 1
        F = EmpiricalCdf([1.0, 2.0, 3.0])
        for x in (math.nan, np.array(math.nan), [math.nan, 1.5]):
            with pytest.raises(ValueError, match="x must not be nan"):
                F(x)

