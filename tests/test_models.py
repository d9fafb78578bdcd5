"""Tests for the time-series model families and their simulators."""

import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate, stats

from polyfreq import models
from polyfreq.dependence import coupled_paths
from polyfreq.models import (
    ArmaModel,
    LinearProcess,
    ModelValidityError,
    NlarModel,
    NoiseSpec,
    TarModel,
    advance,
    arma_check_stationary,
    arma_marginal,
    arma_to_ma_coeffs,
    contraction_proxy,
    default_burn_in,
    initial_state,
    make_rng,
    marginal_truth,
    model_from_spec,
    model_to_spec,
    nlar_soft_check,
    require_valid,
    resolve_burn_in,
    simulate,
    simulate_rows,
    tar_marginal_oracle,
)

AR1 = ArmaModel(ar=(0.5,))


def assert_packed_end_to_end(model, rows, burn_in):
    """Markov rows are contiguous views of one batch of whole segments, the
    matrix of their draws read flat from its start; returns the segment
    width and each row's first column in the flattened batch."""
    length = burn_in + rows.shape[1]
    width, _ = models._segments(model, length, len(rows))
    start = np.arange(len(rows)) * length
    batch = rows.base
    assert batch.ndim == 1 and batch.size == -(-len(rows) * length // width) * width
    origin = batch.__array_interface__["data"][0]
    for row, a in zip(rows, start):
        assert row.base is batch and row.flags.c_contiguous
        assert row.__array_interface__["data"][0] - origin == 8 * (a + burn_in)
    return width, start


def sequential_path(model, n, burn_in, seed):
    """``simulate`` by a plain loop, one step at a time, over ``make_rng(seed)`` draws."""
    draws = model.noise.fill(make_rng(seed), np.empty(burn_in + n))
    x = draws[0]
    for t in range(1, len(draws)):
        x = model.transition(x) + draws[t]
        draws[t] = x
    return draws[burn_in:]


class TestNoiseSpec:
    @pytest.mark.parametrize(
        "spec,variance",
        [
            (NoiseSpec("gaussian", 2.0), 4.0),
            (NoiseSpec("uniform", 3.0), 3.0),
            (NoiseSpec("laplace", 1.5), 4.5),
        ],
    )
    def test_variance(self, spec, variance):
        assert spec.variance == pytest.approx(variance)

    @pytest.mark.parametrize("dist", ["gaussian", "uniform", "laplace"])
    def test_moments_and_cdf(self, dist):
        spec = NoiseSpec(dist, 1.3)
        law = {"gaussian": stats.norm(scale=1.3), "uniform": stats.uniform(-1.3, 2.6),
               "laplace": stats.laplace(scale=1.3)}[dist]
        x = spec.fill(make_rng(5), np.empty(200_000))
        assert abs(x.mean()) < 4 * spec.std / math.sqrt(x.size)
        assert x.var() == pytest.approx(spec.variance, rel=0.03)
        # pdf integrates to 1 (trapezoid error concentrates at the uniform
        # jump and the laplace kink, hence the loose tolerance)
        grid = np.linspace(-12 * spec.std, 12 * spec.std, 4001)
        assert np.trapezoid(spec.pdf(grid), grid) == pytest.approx(1.0, abs=2e-3)
        assert stats.kstest(x, law.cdf).pvalue > 0.01

    def test_invalid(self):
        with pytest.raises(ValueError, match="distribution"):
            NoiseSpec("cauchy", 1.0)
        with pytest.raises(ValueError, match="scale"):
            NoiseSpec("gaussian", 0.0)

    @pytest.mark.parametrize("dist,scale", [
        ("gaussian", 1e300), ("uniform", 1e300), ("laplace", 1e300),  # scale**2 overflows
        ("laplace", 1e154),                                           # 2 * scale**2 is inf
        ("gaussian", 1e-320), ("uniform", 1e-320), ("laplace", 1e-320),  # variance is 0
        ("gaussian", 1e-155), ("uniform", 1e-160),                    # 1 / variance is inf
    ])
    def test_variance_outside_the_float_range(self, dist, scale):
        with pytest.raises(ValueError, match="scale"):
            NoiseSpec(dist, scale)

    @pytest.mark.parametrize("dist", ["gaussian", "uniform", "laplace"])
    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_extreme_scales_with_a_float_variance_accepted(self, dist, scale):
        variance = NoiseSpec(dist, scale).variance
        assert 0.0 < variance < math.inf and 1.0 / variance < math.inf


SEED_TABLE = [0, 1, 2**64 - 1, 2**64, 2**128 - 1]


def philox_reference(spec, seed, width):
    """What a fresh ``Generator(Philox(key=seed))`` draws for ``spec``."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    if spec.distribution == "gaussian":
        return rng.standard_normal(width) * spec.scale
    if spec.distribution == "uniform":
        return rng.uniform(-spec.scale, spec.scale, width)
    return rng.laplace(0.0, spec.scale, width)


class TestStreams:
    """Every route to a seed's stream draws what ``Generator(Philox(key=seed))`` draws."""

    @pytest.mark.parametrize("width", [1, 3, 1012])
    @pytest.mark.parametrize("spec", [NoiseSpec("gaussian", 1.7), NoiseSpec("uniform", 0.3),
                                      NoiseSpec("laplace", 2.5)], ids=lambda s: s.distribution)
    def test_bit_identical_to_fresh_philox(self, spec, width):
        model = TarModel(0.5, 0.5, noise=spec)
        rows = models._draw_rows(model, SEED_TABLE, width)
        for seed, row in zip(SEED_TABLE, rows):
            ref = philox_reference(spec, seed, width)
            assert_array_equal(row.view(np.uint64), ref.view(np.uint64))
            assert_array_equal(spec.fill(make_rng(seed), np.empty(width)).view(np.uint64),
                               ref.view(np.uint64))

    @pytest.mark.parametrize("spec", [NoiseSpec("gaussian", 1.7), NoiseSpec("uniform", 0.3),
                                      NoiseSpec("laplace", 2.5)], ids=lambda s: s.distribution)
    @pytest.mark.parametrize("width", [1, 1012])
    def test_rows_end_to_end_in_zeros(self, spec, width):
        model = TarModel(0.5, 0.5, noise=spec)
        # rows end to end in one run, one per seed, then 20 columns of padding
        end = len(SEED_TABLE) * width
        draws = models._draw_rows(model, SEED_TABLE, width, end + 20)
        assert draws.shape == (end + 20,)
        for k, seed in enumerate(SEED_TABLE):
            assert_array_equal(draws[k * width:(k + 1) * width].view(np.uint64),
                               philox_reference(spec, seed, width).view(np.uint64))
        # +0.0 exactly: scaling stops at the last row
        assert not draws[end:].view(np.uint64).any()

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_out_of_range_seeds_refused_like_philox(self, seed):
        with pytest.raises(ValueError) as expected:
            np.random.Philox(key=seed)
        message = str(expected.value)
        with pytest.raises(ValueError) as got:
            make_rng(seed)
        assert str(got.value) == message
        with pytest.raises(ValueError) as got:
            models._draw_rows(AR1, [3, seed], 5)
        assert str(got.value) == message

    @pytest.mark.parametrize("seed", [1.5, 5.0, True, "5", None], ids=repr)
    @pytest.mark.parametrize("model", [AR1, TarModel(0.6, -0.3)], ids=["AR1", "TAR"])
    def test_seeds_that_are_not_integers_refused(self, model, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            simulate(model, 10, seed=seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            make_rng(seed)

    def test_numpy_integer_seeds_accepted(self):
        assert_array_equal(simulate(AR1, 10, seed=np.uint64(2**64 - 1)),
                           simulate(AR1, 10, seed=2**64 - 1))

    def test_seed_range_checked_before_any_draw(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("innovations drawn")

        monkeypatch.setattr(NoiseSpec, "fill", refuse)
        # only a range's ends are read; a list's seeds are all read
        with pytest.raises(ValueError, match="less than 2\\*\\*128"):
            models._draw_rows(AR1, range(2**128 - 10**6, 2**128 + 1), 1)
        with pytest.raises(ValueError, match="less than 2\\*\\*128"):
            models._draw_rows(AR1, [0, 2**128, 1], 1)
        with pytest.raises(ValueError, match="seed must be an integer"):
            simulate_rows(TarModel(0.6, -0.3), 10, [0, 1.0])
        with pytest.raises(ValueError, match="less than 2\\*\\*128"):
            simulate_rows(AR1, 10, [0, 2**128])
        # the size cap comes first: range(10**12) is never walked
        with pytest.raises(ValueError, match="above the limit of 268435456"):
            models._draw_rows(AR1, range(10**12), 5)


class TestStationarity:
    def test_ar1_half_passes(self):
        check = arma_check_stationary(AR1)
        assert check.passed
        assert check.ar_root_moduli == (0.5,)

    def test_unit_root_fails(self):
        check = arma_check_stationary(ArmaModel(ar=(1.0,)))
        assert not check.passed
        assert "root modulus 1" in check.detail

    def test_ar2_double_root(self):
        check = arma_check_stationary(ArmaModel(ar=(1.2, -0.36)))
        assert check.passed
        assert_allclose(check.ar_root_moduli, (0.6, 0.6), atol=1e-12)

    def test_ma_roots_checked_too(self):
        assert not arma_check_stationary(ArmaModel(ma=(1.5,))).passed

    def test_degree_zero_passes_vacuously(self):
        assert arma_check_stationary(ArmaModel()).passed

    def test_near_unit_root_fails_with_diagnostic(self):
        check = arma_check_stationary(ArmaModel(ar=(1.0 - 1e-10,)))
        assert not check.passed
        assert "unit circle" in check.detail

    def test_ma_sum_guard(self):
        with pytest.raises(ValueError, match="sum"):
            ArmaModel(ma=(-1.0,))


class TestMaRepresentation:
    def test_ar1_geometric(self):
        assert_array_equal(arma_to_ma_coeffs(AR1)[:6], 0.5 ** np.arange(6))

    def test_ma1_finite(self):
        assert_array_equal(arma_to_ma_coeffs(ArmaModel(ma=(0.7,)))[:5], [1.0, 0.7, 0, 0, 0])

    def test_arma11_hand_recursion(self):
        got = arma_to_ma_coeffs(ArmaModel(ar=(0.5,), ma=(0.2,)))[:5]
        assert_allclose(got, [1.0, 0.7, 0.35, 0.175, 0.0875], rtol=1e-15)

    def test_auto_truncation_tail_negligible(self):
        beta = arma_to_ma_coeffs(AR1)
        total = float(beta @ beta)
        assert total == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert beta[-1] ** 2 / total < 1e-12

    def test_nonstationary_rejected(self):
        with pytest.raises(ModelValidityError):
            arma_to_ma_coeffs(ArmaModel(ar=(1.1,)))


class TestArmaMarginal:
    def test_ar1(self):
        mean, var = arma_marginal(AR1)
        assert mean == 0.0
        assert var == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_white_noise(self):
        white = ArmaModel(noise=NoiseSpec("gaussian", 2.0))
        assert arma_marginal(white) == (0.0, pytest.approx(4.0))

    def test_ma1(self):
        _, var = arma_marginal(ArmaModel(ma=(0.7,)))
        assert var == pytest.approx(1.49, rel=1e-12)

    def test_intercept_sets_mean(self):
        mean, _ = arma_marginal(ArmaModel(ar=(0.5,), intercept=1.0))
        assert mean == pytest.approx(2.0)

    def test_non_gaussian_rejected(self):
        with pytest.raises(ModelValidityError, match="gaussian"):
            arma_marginal(ArmaModel(ar=(0.5,), noise=NoiseSpec("uniform", 1.0)))


class TestSimulate:
    def test_reproducible(self):
        a = simulate(AR1, 500, seed=11)
        b = simulate(AR1, 500, seed=11)
        assert_array_equal(a, b)
        assert not np.array_equal(a, simulate(AR1, 500, seed=12))

    @pytest.mark.parametrize("model", [
        AR1,
        ArmaModel(ar=(0.5, -0.2), ma=(0.3,)),
        ArmaModel(ar=(0.4,), ma=(0.3, -0.2)),
        ArmaModel(ma=(0.4, 0.3)),
        ArmaModel(),
        TarModel(0.6, -0.3),
    ], ids=["AR1", "ARMA21", "ARMA12", "MA2", "white", "TAR"])
    def test_blocks_match_one_call(self, model, monkeypatch):
        # the recursion state is carried across blocks of columns, so the
        # paths are those of one call over the whole row, bit for bit; a
        # packed Markov batch is stepped in one call whatever the block size
        monkeypatch.setattr(models, "_BLOCK_VALUES", 2**40)
        whole = simulate_rows(model, 2000, [3, 4], burn_in=1000)
        monkeypatch.setattr(models, "_BLOCK_VALUES", 2 * 37)
        rows = simulate_rows(model, 2000, [3, 4], burn_in=1000)
        assert [r.tobytes() for r in rows] == [r.tobytes() for r in whole]

    def test_arma_holds_one_path_and_a_few_blocks(self):
        # the filter's output is written back into the draws block by block,
        # not held beside them; a small run first loads the compiled filter
        simulate(AR1, 10, seed=1)
        n = 4 * 10**6
        tracemalloc.start()
        try:
            simulate(AR1, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (default_burn_in(AR1) + n + 3 * models._BLOCK_VALUES)

    def test_moving_average_holds_one_path_and_a_few_blocks(self):
        # an ARMA model without an AR part is filtered block by block too
        model = ArmaModel(ma=(0.4, 0.3))
        simulate(model, 10, seed=1)
        n = 4 * 10**6
        tracemalloc.start()
        try:
            simulate(model, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (default_burn_in(model) + n + 3 * models._BLOCK_VALUES)

    def test_tar_degenerate_is_pure_noise(self):
        model = TarModel(0.0, 0.0)
        out = simulate(model, 300, seed=7)
        draws = make_rng(7).standard_normal(default_burn_in(model) + 300)
        assert_array_equal(out, draws[default_burn_in(model):])

    def test_nlar_zero_map_is_pure_noise(self):
        model = NlarModel(transition=lambda x: 0.0 * np.asarray(x), lipschitz_bound=0.0)
        out = simulate(model, 300, seed=7)
        draws = make_rng(7).standard_normal(default_burn_in(model) + 300)
        assert_allclose(out, draws[default_burn_in(model):], rtol=0, atol=0)

    def test_ar1_long_run_variance(self):
        x = simulate(AR1, 10**6, seed=42)
        # dependent-data standard error of the sample variance, 3 sigma
        assert abs(x.var() - 4.0 / 3.0) < 3 * 0.0024343224778007383

    def test_moments_each_family(self):
        lp = LinearProcess(coeffs=(1.0, 0.5, 0.25), mean=2.0)
        x = simulate(lp, 400_000, seed=3)
        var = 1.0 + 0.25 + 0.0625
        assert abs(x.mean() - 2.0) < 4 * math.sqrt(var * 4 / x.size)
        assert x.var() == pytest.approx(var, rel=0.02)

        tar = TarModel(0.4, 0.4)  # linear special case: AR(1) with slope 0.4
        x = simulate(tar, 400_000, seed=4)
        assert x.var() == pytest.approx(1.0 / (1.0 - 0.16), rel=0.02)

        nlar = NlarModel(transition=lambda s: 0.5 * np.asarray(s), lipschitz_bound=0.5)
        x = simulate(nlar, 400_000, seed=5)
        assert x.var() == pytest.approx(4.0 / 3.0, rel=0.02)

    def test_nonstationary_rejected_before_simulation(self):
        with pytest.raises(ModelValidityError):
            simulate(ArmaModel(ar=(1.2,)), 100)
        with pytest.raises(ModelValidityError):
            simulate(TarModel(1.0, 0.3), 100)

    def test_burn_in_floor_enforced(self):
        with pytest.raises(ValueError, match="burn_in"):
            simulate(AR1, 100, burn_in=10)

    def test_bad_n(self):
        with pytest.raises(ValueError, match="positive integer"):
            simulate(AR1, 0)

    def test_ar1_equals_truncated_linear_process_on_shared_noise(self, rng):
        # moving-average representation: feed both path builders one buffer
        eps = rng.normal(0, 1, 3000)
        ar_path, _ = advance(AR1, initial_state(AR1, np.zeros(1)), eps[None, :])
        order = 64  # 0.5**64 is far below the comparison tolerance
        lp = LinearProcess(coeffs=tuple(0.5**j for j in range(order + 1)))
        lin_path = lp.mean + np.convolve(eps, lp.coeffs, mode="valid")
        # linear output t uses eps[t .. t+order]; recursion value t+order
        assert_allclose(ar_path[0, order:], lin_path, atol=1e-8, rtol=0)

    @pytest.mark.parametrize("order", [0, 19])
    def test_moving_average_is_the_convolution_of_its_stream(self, order):
        lp = LinearProcess(coeffs=tuple(0.8**j for j in range(order + 1)), mean=0.5)
        stream = make_rng(3).standard_normal(300 + order)
        expected = lp.mean + np.convolve(stream, lp.coeffs, mode="valid")
        assert_array_equal(simulate(lp, 300, seed=3), expected)

    def test_tar_path_follows_the_recursion_exactly(self):
        model = TarModel(0.6, -0.3)
        burn = default_burn_in(model)
        draws = make_rng(7).standard_normal(burn + 300)
        x, path = draws[0], [draws[0]]
        for e in draws[1:]:  # reference loop in Python floats
            x = 0.6 * max(x, 0.0) + -0.3 * min(x, 0.0) + e
            path.append(x)
        assert_array_equal(simulate(model, 300, seed=7), path[burn:])

    @pytest.mark.parametrize(
        "model",
        [
            TarModel(0.6, -0.3),
            NlarModel(transition=lambda x: 0.5 * np.tanh(x), lipschitz_bound=0.5),
            AR1,
            LinearProcess(coeffs=(1.0, 0.5, 0.25), mean=1.0),
        ],
        ids=["TAR", "NLAR", "AR1", "MA"],
    )
    @pytest.mark.parametrize("burn_in", [None, 1500])
    def test_batch_rows_equal_single_paths(self, model, burn_in):
        seeds = [41, 3, 17, 8]  # out of order: rows follow the given seeds
        batch = simulate_rows(model, 700, seeds, burn_in=burn_in)
        assert batch.shape == (4, 700)
        for row, s in zip(batch, seeds):
            assert_array_equal(row, simulate(model, 700, burn_in=burn_in, seed=s))

    @pytest.mark.parametrize(
        "model",
        [
            TarModel(0.6, -0.3),
            NlarModel(transition=lambda x: 0.5 * np.tanh(x), lipschitz_bound=0.5),
            AR1,
            LinearProcess(coeffs=(1.0, 0.5, 0.25), mean=1.0),
        ],
        ids=["TAR", "NLAR", "AR1", "MA"],
    )
    @pytest.mark.parametrize("burn_in", [None, 1500])
    @pytest.mark.parametrize("n", [1, 5, 333, 2000])
    def test_packed_rows_equal_single_paths(self, model, burn_in, n):
        # seeds out of order; Markov rows are packed end to end, and rows
        # longer than a segment (all but n = 1 and 5 at the default burn-in)
        # have some starting mid-segment and some segments starting mid-row
        seeds = [41, 3, 17, 8, 5, 9, 10]
        rows = simulate_rows(model, n, seeds, burn_in=burn_in)
        assert rows.shape == (7, n)
        if isinstance(model, (TarModel, NlarModel)):
            burn = resolve_burn_in(model, burn_in)
            width, start = assert_packed_end_to_end(model, rows, burn)
            if n >= 333 or burn_in is not None:
                assert (start % width).any()
                joins = np.arange(width, len(seeds) * (burn + n), width)
                assert np.setdiff1d(joins, start).size
        for row, s in zip(rows, seeds):
            assert_array_equal(row, simulate(model, n, burn_in=burn_in, seed=s))

    def test_markov_rows_share_one_packed_batch(self):
        # rows of burn_in + n steps, 5200 in all, end to end in whole
        # segments four warm-ups wide
        model = TarModel(0.6, -0.3)
        burn = default_burn_in(model)
        rows = simulate_rows(model, 1300 - burn, [1, 2, 3, 4])
        width, start = assert_packed_end_to_end(model, rows, burn)
        assert width == 4 * default_burn_in(model)
        assert rows.base.size == math.ceil(5200 / width) * width
        assert start.tolist() == [0, 1300, 2600, 3900]

    @pytest.mark.parametrize("n,reps,size", [
        # one row of 1007 columns in 4 segments of 328
        (7, 1, 1312),
        # six rows of 1009 columns in 19 segments of 328
        (9, 6, 6232),
        # the largest sizes of rate experiments
        (2**17, 20, None),
        (2**14, 200, None),
    ], ids=["one-row", "short-rows", "reps-20", "reps-200"])
    def test_packed_rows_do_not_overlap(self, n, reps, size):
        # rows lie end to end, so the batch pads them by less than a segment
        model = TarModel(0.6, -0.3)
        rows = simulate_rows(model, n, range(reps), burn_in=1000)
        width, _ = assert_packed_end_to_end(model, rows, 1000)
        assert 0 <= rows.base.size - reps * (1000 + n) < width
        if size is not None:
            assert rows.base.size == size

    BOUNDARY_MODELS = {
        "TAR": TarModel(0.6, -0.3),
        "TAR95": TarModel(0.95, -0.9),
        "NLAR": NlarModel(transition=lambda x: 0.5 * np.tanh(x), lipschitz_bound=0.5),
        "TAR-laplace": TarModel(0.6, -0.3, NoiseSpec("laplace", 2.5)),
    }

    @pytest.mark.parametrize("name", list(BOUNDARY_MODELS))
    @pytest.mark.parametrize("burn_in", [None, 1000])
    @pytest.mark.parametrize("joins", ["checked", "all-fail"])
    def test_rows_at_segment_boundaries_equal_sequential_runs(self, name, burn_in, joins,
                                                              monkeypatch):
        # rows of k segments less one column, exactly, and one more, with the
        # least k that leaves two joins after the burn-in; alone and, three
        # of each size, end to end in one batch
        model = self.BOUNDARY_MODELS[name]
        burn = resolve_burn_in(model, burn_in)
        skips = []
        if joins == "all-fail":
            # a 2-step warm-up cannot forget its start: every join fails
            # unless its warm-up begins at the row's first draw, and each row
            # is stepped again from its first failed join on
            monkeypatch.setattr(models, "default_burn_in", lambda model: 2)
            inner = models._stream_at

            def stream_at(model, seed, skip):
                skips.append((seed, skip))
                return inner(model, seed, skip)

            monkeypatch.setattr(models, "_stream_at", stream_at)
        width, _ = models._segments(model, 10**9, 10**9)
        seeds = [3, 7, 11]
        k = burn // width + 3
        ns = [k * width + d - burn for d in (-1, 0, 1)]
        assert np.count_nonzero(np.arange(1, k) * width > burn) == 2  # joins inside each row
        for n in ns:
            expected = [sequential_path(model, n, burn, s) for s in seeds]
            for s, path in zip(seeds, expected):
                assert_array_equal(simulate(model, n, burn, seed=s), path)
            rows = simulate_rows(model, n, seeds, burn)
            for row, path in zip(rows, expected):
                assert_array_equal(row, path)
            if joins == "all-fail":
                _, start = assert_packed_end_to_end(model, rows, burn)
                first = ((start + 2) // width + 1) * width
                assert skips == [(s, width) for s in seeds] + list(zip(seeds, first - start))
                skips.clear()

    def test_markov_batch_holds_its_segments_and_little_else(self):
        model = TarModel(0.6, -0.3)
        simulate_rows(model, 2**9, [0, 1])  # first-call caches stay out of the trace
        tracemalloc.start()
        try:
            rows = simulate_rows(model, 2**14, range(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        batch = rows.base.size
        segments = batch // models._segments(model, 2**14, 10)[0]
        assert peak <= 8 * (batch + segments * default_burn_in(model))

    def test_rows_validate_like_simulate(self):
        assert simulate_rows(TarModel(0.6, -0.3), 100, []).shape == (0, 100)
        with pytest.raises(ValueError, match="positive integer"):
            simulate_rows(TarModel(0.6, -0.3), 0, [1, 2])
        with pytest.raises(ValueError, match="burn_in"):
            simulate_rows(TarModel(0.6, -0.3), 100, [1, 2], burn_in=10)
        with pytest.raises(ModelValidityError):
            simulate_rows(TarModel(1.0, 0.3), 100, [1, 2])

    @pytest.mark.parametrize(
        "model",
        [
            ArmaModel(),
            ArmaModel(ma=(0.4,)),
            ArmaModel(ma=(0.4, -0.2), intercept=1.5),
            AR1,
            ArmaModel(ar=(0.5,), ma=(0.3,)),
            TarModel(0.6, -0.3),
            LinearProcess(coeffs=(1.0, 0.5)),
        ],
        ids=["white", "MA1", "MA2", "AR1", "ARMA11", "TAR", "linear"],
    )
    def test_empty_seed_list_gives_no_rows(self, model):
        assert simulate_rows(model, 10, []).shape == (0, 10)

    def test_resolved_burn_in(self):
        assert resolve_burn_in(AR1, None) == 1000
        assert resolve_burn_in(AR1, 1500) == 1500
        assert resolve_burn_in(LinearProcess(coeffs=(1.0, 0.5)), 1500) == 0
        with pytest.raises(ValueError, match="below the model's default 1000"):
            resolve_burn_in(AR1, 999)
        with pytest.raises(ModelValidityError):
            resolve_burn_in(ArmaModel(ar=(1.2,)), None)

    @pytest.mark.parametrize("burn_in", [1500.5, 1500.0, True, "1500", -1],
                             ids=["fraction", "integral-float", "bool", "str", "negative"])
    def test_burn_in_must_be_a_nonnegative_integer(self, burn_in):
        # the rule of simulate's n check: bool is refused
        with pytest.raises(ValueError, match="burn_in must be a nonnegative integer"):
            simulate(TarModel(0.6, -0.3), 5, burn_in=burn_in)
        with pytest.raises(ValueError, match="burn_in must be a nonnegative integer"):
            resolve_burn_in(LinearProcess(coeffs=(1.0, 0.5)), burn_in)

    def test_numpy_integer_burn_in_accepted(self):
        assert resolve_burn_in(AR1, np.int64(1500)) == 1500
        assert_array_equal(simulate(TarModel(0.6, -0.3), 5, burn_in=np.int32(1500)),
                           simulate(TarModel(0.6, -0.3), 5, burn_in=1500))

    def test_default_burn_in_scales_with_memory(self):
        # Markov families: the first k with rho**k <= 2**-60, at least 64
        assert default_burn_in(TarModel(0.6, -0.3)) == 82
        assert default_burn_in(TarModel(0.95, -0.9)) == 811
        assert default_burn_in(TarModel(0.99, 0.0)) == 4139
        assert default_burn_in(NlarModel(lambda x: 0.5 * np.tanh(x), 0.5)) == 64
        assert default_burn_in(NlarModel(lambda x: 0.0 * x, 0.0)) == 64
        assert default_burn_in(TarModel(0.0, 0.0)) == 64
        # ARMA keeps max(1000, 50 * ceil(1 / (1 - rho)))
        assert default_burn_in(AR1) == 1000
        assert default_burn_in(ArmaModel(ar=(0.985,))) == 3350
        assert default_burn_in(ArmaModel(ar=(0.99,))) == 5000
        assert default_burn_in(LinearProcess(coeffs=(1.0, 0.5))) == 0

    @pytest.mark.parametrize("model", [
        TarModel(0.6, -0.3),
        TarModel(0.95, -0.9),
        NlarModel(transition=lambda x: 0.5 * np.tanh(x), lipschitz_bound=0.5),
        NlarModel(transition=lambda x: 0.9 * np.tanh(x), lipschitz_bound=0.9),
        NlarModel(transition=lambda x: 0.0 * x, lipschitz_bound=0.0),
    ], ids=["TAR", "TAR-0.95", "NLAR", "NLAR-0.9", "NLAR-0"])
    def test_markov_starts_coalesce_within_the_default_burn_in(self, model):
        # two starts 20 stationary spreads apart, driven by the same
        # innovations, forget where they began bit for bit
        burn, rho = default_burn_in(model), contraction_proxy(model)
        spread = model.noise.std / math.sqrt(1.0 - rho**2)
        eps = make_rng(8).standard_normal((1000, burn + 16))
        paths = [advance(model, initial_state(model, np.full(1000, x0)), eps.copy())[0]
                 for x0 in (10.0 * spread, -10.0 * spread)]
        assert_array_equal(paths[0][:, burn:], paths[1][:, burn:])


class TestAdvance:
    @pytest.mark.parametrize("split", [0, 1, 2, 3, 7, 200])
    @pytest.mark.parametrize("model", [
        ArmaModel(), ArmaModel(ma=(0.4,)), ArmaModel(ma=(0.4, 0.3)),
        ArmaModel(ma=(0.4, 0.3, -0.2)), AR1, ArmaModel(ar=(0.5, -0.2), ma=(0.3,), intercept=1.5),
        TarModel(0.6, -0.3),
    ], ids=["white", "MA1", "MA2", "MA3", "AR1", "ARMA21", "TAR"])
    def test_two_calls_equal_one(self, model, split, rng):
        # the end state carries the recursion exactly: a row's columns split
        # between two calls give the values and end state of one call, also
        # when the first call gets no column; copies, as a Markov model
        # writes its values into the innovations
        eps = rng.standard_normal((20, 401))
        state = initial_state(model, eps[:, 0])
        whole, end = advance(model, state, eps[:, 1:].copy())
        head, middle = advance(model, state, eps[:, 1:split + 1].copy())
        tail, end_of_two = advance(model, middle, eps[:, split + 1:].copy())
        assert np.hstack([head, tail]).tobytes() == whole.tobytes()
        assert end_of_two.tobytes() == end.tobytes()


class TestDrawCap:
    """No array of draws holds more than ``MAX_BUFFER_VALUES`` values, padding
    included; a larger one is refused before anything is drawn."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("innovations drawn")

        monkeypatch.setattr(NoiseSpec, "fill", refuse)

    @pytest.mark.parametrize("model", [AR1, LinearProcess((1.0, 0.5)), TarModel(0.6, -0.3)],
                             ids=["AR1", "MA1", "TAR"])
    @pytest.mark.parametrize("n", [2**28 + 1, 10**19])
    def test_long_path_refused(self, model, n):
        with pytest.raises(ValueError, match="above the limit of 268435456"):
            simulate(model, n)
        with pytest.raises(ValueError, match="above the limit of 268435456"):
            simulate_rows(model, n, [0, 1])

    @pytest.mark.parametrize("model", [AR1, TarModel(0.6, -0.3)], ids=["AR1", "TAR"])
    @pytest.mark.parametrize("burn_in", [2**28 + 1, 10**19])
    def test_deep_burn_in_refused(self, model, burn_in):
        with pytest.raises(ValueError, match="burn_in: .* above the limit of 268435456"):
            simulate(model, 10, burn_in=burn_in)

    def test_padding_counts(self):
        # burn-in 811 + n = 2**28 and the order's extra columns pass the cap
        tar = TarModel(0.95, -0.9)
        with pytest.raises(ValueError, match="268437756 values, above the limit"):
            simulate(tar, 2**28 - default_burn_in(tar))
        with pytest.raises(ValueError, match="268435457 values, above the limit"):
            simulate(LinearProcess((1.0, 0.5)), 2**28)

    @pytest.mark.parametrize("model", [AR1, TarModel(0.6, -0.3)], ids=["AR1", "TAR"])
    def test_many_rows_refused(self, model):
        # each row fits; the rows together do not
        with pytest.raises(ValueError, match="above the limit of 268435456"):
            simulate_rows(model, 2**27, [0, 1, 2])

    def test_batch_at_the_cap_is_drawn(self):
        # 2**28 values exactly: the refusal is past the cap, not at it
        with pytest.raises(AssertionError, match="innovations drawn"):
            models._draw_rows(AR1, range(4), 2**26)


class TestNlarChecks:
    def test_soft_check_passes_for_honest_bound(self):
        nlar_soft_check(NlarModel(transition=lambda x: 0.3 * np.sin(x), lipschitz_bound=0.3))

    def test_soft_check_catches_lies(self):
        with pytest.raises(ModelValidityError, match="Lipschitz"):
            nlar_soft_check(NlarModel(transition=lambda x: 0.9 * np.asarray(x), lipschitz_bound=0.2))

    def test_bound_range_enforced(self):
        with pytest.raises(ModelValidityError):
            NlarModel(transition=lambda x: x, lipschitz_bound=1.0)


class TestDrawThreads:
    """Only a packed batch of more than one seed draws on a thread pool."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def fail(max_workers):
            pytest.fail("drew on a thread pool")

        monkeypatch.setattr(models, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(models, "ThreadPoolExecutor", fail)

    def test_one_seed_draws_on_the_calling_thread(self, no_pool):
        for model in (TarModel(0.6, -0.3), NlarModel(lambda x: 0.5 * np.tanh(x), 0.5)):
            assert len(simulate(model, 10**5, seed=1)) == 10**5
            assert simulate_rows(model, 300, [2**64]).shape == (1, 300)

    def test_unpacked_rows_draw_on_the_calling_thread(self, no_pool):
        # many short rows: two threads measured slower than one on them
        draws = models._draw_rows(TarModel(0.6, -0.3), range(2000), 93)
        assert draws.shape == (2000, 93)
        coupled_paths(TarModel(0.6, -0.3), 5, range(1000))
        simulate_rows(AR1, 100, range(50))

    def test_runs_split_the_rows_evenly(self, monkeypatch):
        monkeypatch.setattr(models, "_usable_cpus", lambda: 3)
        runs = []

        class Pool(models.ThreadPoolExecutor):
            def map(self, fn, items):
                runs.extend(items)
                return super().map(fn, items)

        monkeypatch.setattr(models, "ThreadPoolExecutor", Pool)
        draws = models._draw_rows(TarModel(0.6, -0.3), range(11), 10, 120)
        # 11 rows on 3 threads: runs of 3, 4 and 4 rows
        assert runs == [(0, 3), (3, 7), (7, 11)]
        for k in range(11):
            assert_array_equal(draws[10 * k:10 * (k + 1)], make_rng(k).standard_normal(10))


class TestTarOracle:
    def test_degenerate_is_noise_density(self, monkeypatch):
        model = TarModel(0.0, 0.0)
        monkeypatch.setattr(models, "ORACLE_MAX_ITERATIONS", 3)
        grid, dens = tar_marginal_oracle(model)
        assert_allclose(dens, model.noise.pdf(grid), atol=1e-12)

    def test_linear_case_matches_closed_form(self):
        model = TarModel(0.5, 0.5)
        grid, dens = tar_marginal_oracle(model)
        closed = stats.norm(0.0, math.sqrt(1.0 / 0.75)).pdf(grid)
        assert np.max(np.abs(dens - closed)) <= 1e-6

    @pytest.mark.parametrize("sigma", [1e-6, 1e9])
    def test_tolerance_scales_with_the_noise(self, sigma):
        # the density scales as 1/sigma, so an absolute stop test never
        # converges for small sigma and stops early for large sigma
        model = TarModel(0.5, 0.5, noise=NoiseSpec("gaussian", sigma))
        grid, dens = tar_marginal_oracle(model)
        closed = stats.norm(0.0, sigma * math.sqrt(1.0 / 0.75)).pdf(grid)
        assert np.max(np.abs(dens - closed)) <= 1e-9 * np.max(closed)

    @pytest.mark.parametrize("a,b", [(0.6, -0.3), (-0.4, 0.2), (0.3, 0.7)])
    def test_asymmetric_normalization(self, a, b):
        model = TarModel(a, b)
        grid, dens = tar_marginal_oracle(model)
        assert np.all(dens >= 0.0)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("a,gap", [(0.6, 1e-7), (-0.5, 1e-7), (0.9, 2e-7)])
    def test_kinked_map_matches_skew_normal(self, a, gap):
        # X_t = a|X_{t-1}| + eps_t has the stationary density
        # 2 s phi(s x) Phi(a x) with s = sqrt(1 - a**2) (Andel, Netuka and
        # Zvara 1984), the one closed form whose map has a kink at 0
        grid, dens = tar_marginal_oracle(TarModel(a, -a))
        s = math.sqrt(1.0 - a * a)
        closed = 2.0 * s * stats.norm.pdf(s * grid) * stats.norm.cdf(a * grid)
        assert np.max(np.abs(dens - closed)) <= gap

    # the interpolant's kink at every grid node leaves quad's own error
    # estimate above epsabs; the bound checked is the 1e-6 below
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("a,b", [(0.6, 0.0), (0.0, -0.5)])
    def test_zero_slope_is_a_fixed_point(self, a, b):
        # a zero slope maps a whole half line onto 0: one more round of the
        # density map, by quadrature of the interpolated density, must give
        # the density back at grid points across the bulk
        model = TarModel(a, b)
        grid, dens = tar_marginal_oracle(model)
        step = (grid[-1] - grid[0]) / (grid.size - 1)
        at = np.rint((np.linspace(-4.0, 4.0, 9) - grid[0]) / step).astype(int)
        for i in at:
            def integrand(y, x=grid[i]):
                return model.noise.pdf(x - model.transition(y)) * np.interp(y, grid, dens)

            image = sum(integrate.quad(integrand, lo, hi, limit=500, epsabs=1e-13)[0]
                        for lo, hi in ((grid[0], 0.0), (0.0, grid[-1])))
            assert abs(image - dens[i]) <= 1e-6

    @pytest.mark.parametrize("a", [1e-12, 1e-6])
    def test_small_slope_tends_to_zero_slope(self, a):
        # r(Y)'s density on y > 0 is a spike of width about |a|, far inside
        # one grid cell: its mass must still go to the node 0 whole, as a
        # zero slope's does, and the density moves by about a / 10
        _, near = tar_marginal_oracle(TarModel(a, -0.5))
        _, zero = tar_marginal_oracle(TarModel(0.0, -0.5))
        assert np.max(np.abs(near - zero)) <= 0.2 * a

    def test_non_convergence_reports_change(self, monkeypatch):
        monkeypatch.setattr(models, "ORACLE_MAX_ITERATIONS", 2)
        with pytest.raises(ModelValidityError, match="in 2 iterations; last sup-change"):
            tar_marginal_oracle(TarModel(0.9, 0.9))

    def test_slow_mixing_model_is_refused(self):
        # TAR(0, 0.99) has not settled within the round cap
        with pytest.raises(ModelValidityError, match="in 500 iterations; last sup-change"):
            marginal_truth(TarModel(0.0, 0.99))

    def test_tar_iteration_count(self, monkeypatch):
        # TAR(0.6, -0.3) reaches the 1e-10 tolerance in 23 mat-vecs
        monkeypatch.setattr(models, "ORACLE_MAX_ITERATIONS", 22)
        with pytest.raises(ModelValidityError, match="in 22 iterations"):
            tar_marginal_oracle(TarModel(0.6, -0.3))
        monkeypatch.setattr(models, "ORACLE_MAX_ITERATIONS", 23)
        tar_marginal_oracle(TarModel(0.6, -0.3))

    def test_no_dense_kernel(self):
        # a round is a push-forward by fixed taps and one FFT convolution;
        # a dense 8001 x 8001 kernel would take 512 MB
        tracemalloc.start()
        try:
            tar_marginal_oracle(TarModel(0.6, -0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_grid_is_fixed(self):
        model = TarModel(0.6, -0.3, noise=NoiseSpec("gaussian", 2.0))
        grid, dens = tar_marginal_oracle(model)
        spread = 2.0 / math.sqrt(1.0 - 0.6**2)
        assert_array_equal(grid, np.linspace(-8.5 * spread, 8.5 * spread, 8001))
        assert dens.shape == grid.shape

    def test_non_gaussian_rejected(self):
        model = TarModel(0.5, 0.5, noise=NoiseSpec("uniform", 1.0))
        with pytest.raises(ModelValidityError, match="gaussian"):
            tar_marginal_oracle(model)

    def test_transition_map(self):
        r = TarModel(0.6, -0.3).transition
        assert_array_equal(r(np.array([2.0, -2.0, 0.0])), [1.2, 0.6, 0.0])


class TestMarginalTruth:
    def test_gaussian_arma(self):
        truth = marginal_truth(AR1)
        sd = math.sqrt(4.0 / 3.0)
        assert truth.pdf(0.0) == pytest.approx(stats.norm(0, sd).pdf(0.0))
        lo, hi = truth.support()
        assert lo == pytest.approx(-hi)
        assert truth.cdf(hi) == pytest.approx(1.0 - 1e-9, abs=1e-10)

    @pytest.mark.parametrize("mean, variance", [(0.0, 1.0), (1.5, 4.0 / 3.0), (-3.2, 1e-6)])
    def test_gaussian_truth_equals_scipy_stats_bit_for_bit(self, rng, mean, variance):
        noise = NoiseSpec("gaussian", math.sqrt(variance))
        truth = marginal_truth(ArmaModel(intercept=mean, noise=noise))
        ref = stats.norm(loc=mean, scale=math.sqrt(variance))
        x = np.concatenate([rng.normal(mean, 10.0 * math.sqrt(variance), 10**5),
                            [mean, 0.0, -0.0, 1e300, -1e300, np.inf, -np.inf]])
        q = np.concatenate([rng.random(10**5), [0.0, 1.0, 1e-300, 0.5, 1.0 - 1e-16]])
        with np.errstate(over="ignore"):  # both square +-1e300 to inf, a density of 0
            pairs = [(truth.pdf(x), ref.pdf(x)), (truth.cdf(x), ref.cdf(x)),
                     (truth.quantile(q), ref.ppf(q))]
        for got, want in pairs:
            assert_array_equal(got.view(np.int64), want.view(np.int64))
        for v in (0.3, mean, 7.0):
            assert truth.pdf(v) == ref.pdf(v) and truth.cdf(v) == ref.cdf(v)

    def test_linear_process_truth_equals_scipy_stats_bit_for_bit(self):
        # variance 2**2 * (1 + 0.5**2) = 5, exact in binary
        truth = marginal_truth(LinearProcess(coeffs=(1.0, 0.5), mean=0.3,
                                             noise=NoiseSpec("gaussian", 2.0)))
        ref = stats.norm(loc=0.3, scale=math.sqrt(5.0))
        x = np.linspace(-8.0, 8.0, 1001)
        assert_array_equal(truth.pdf(x).view(np.int64), ref.pdf(x).view(np.int64))
        assert_array_equal(truth.cdf(x).view(np.int64), ref.cdf(x).view(np.int64))

    @pytest.mark.parametrize("coeffs", [(0.0,), (1e-300,), (0.0, 0.0)])
    def test_linear_process_of_zero_variance_has_no_truth(self, coeffs):
        # 1e-300 squares to 0: the variance underflows
        with pytest.raises(ModelValidityError, match="variance"):
            marginal_truth(LinearProcess(coeffs=coeffs))

    def test_linear_process_variance_overflow_warns_nothing(self):
        model = LinearProcess(coeffs=(1e200, 1e200), noise=NoiseSpec("gaussian", 1e154))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            truth = marginal_truth(model)
        assert not np.isfinite(truth.support()).all()

    def test_gaussian_truth_leaves_scipy_stats_unloaded(self):
        code = ("import sys; from polyfreq.models import ArmaModel, marginal_truth, NoiseSpec; "
                "t = marginal_truth(ArmaModel(ar=(0.5,), ma=(0.2,))); "
                "t.pdf([0.1, 0.2]); t.cdf(0.3); t.support(); "
                "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.split() == ["False", "True"]

    def test_tar_truth_is_normalized(self):
        truth = marginal_truth(TarModel(0.6, -0.3))
        grid = np.linspace(-12, 12, 6001)
        assert np.trapezoid(truth.pdf(grid), grid) == pytest.approx(1.0, abs=1e-6)
        assert truth.cdf(12.0) == pytest.approx(1.0, abs=1e-8)

    def test_nlar_has_no_truth(self):
        with pytest.raises(ModelValidityError):
            marginal_truth(NlarModel(transition=lambda x: 0.1 * np.asarray(x), lipschitz_bound=0.1))

    def test_contraction_proxies(self):
        assert contraction_proxy(AR1) == pytest.approx(0.5)
        assert contraction_proxy(TarModel(0.6, -0.3)) == pytest.approx(0.6)
        assert contraction_proxy(LinearProcess(coeffs=(1.0, 0.5, 0.25))) == pytest.approx(0.5)
        assert contraction_proxy(LinearProcess(coeffs=(1.0,))) == 0.0


class TestModelSpecs:
    @pytest.mark.parametrize(
        "model",
        [
            ArmaModel(ar=(0.5,), ma=(0.2,), intercept=0.3, noise=NoiseSpec("gaussian", 1.5)),
            LinearProcess(coeffs=(1.0, 0.4), mean=-1.0, noise=NoiseSpec("laplace", 0.7)),
            TarModel(0.6, -0.3, noise=NoiseSpec("uniform", 2.0)),
        ],
    )
    def test_round_trip(self, model):
        assert model_from_spec(model_to_spec(model)) == model

    def test_schema_required(self):
        with pytest.raises(ValueError, match="schema"):
            model_from_spec({"family": "arma"})

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            model_from_spec({"schema": 1, "family": "garch"})

    def test_unknown_noise(self):
        with pytest.raises(ValueError, match="noise"):
            model_from_spec({"schema": 1, "family": "arma", "noise": {"distribution": "cauchy"}})

    @pytest.mark.parametrize("obj,field", [
        ({"family": "nlar_tar", "a": 0.5}, "b"),
        ({"family": "linear"}, "coeffs"),
        ({"family": "arma", "noise": {"distribution": "laplace"}}, "scale"),
    ], ids=["tar", "linear", "noise"])
    def test_missing_field_named(self, obj, field):
        with pytest.raises(ValueError, match=f'^missing field "{field}"$'):
            model_from_spec({"schema": 1, **obj})

    def test_arma_order_limit(self):
        at_limit = model_from_spec({"schema": 1, "family": "arma", "ma": [1e-6] * 1000})
        assert at_limit.q == models.MAX_SPEC_ORDER == 1000
        with pytest.raises(ValueError, match='"ar" holds 1001 coefficients'):
            model_from_spec({"schema": 1, "family": "arma", "ar": [1e-6] * 1001})

    def test_linear_order_limit(self):
        at_limit = model_from_spec({"schema": 1, "family": "linear", "coeffs": [1e-6] * 1000})
        assert at_limit.order + 1 == models.MAX_SPEC_ORDER == 1000
        with pytest.raises(ValueError, match='"coeffs" holds 1001 coefficients'):
            model_from_spec({"schema": 1, "family": "linear", "coeffs": [1e-6] * 1001})

    def test_nlar_not_serializable(self):
        model = NlarModel(transition=lambda x: 0.1 * np.asarray(x), lipschitz_bound=0.1)
        with pytest.raises(ValueError, match="serialize"):
            model_to_spec(model)

    def test_require_valid_dispatch(self):
        require_valid(AR1)
        require_valid(LinearProcess(coeffs=(1.0,)))
        with pytest.raises(ModelValidityError):
            require_valid(TarModel(0.5, -1.2))
