"""Tests for the time-series model families and their simulators."""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from polyfreq import models
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
    simulate_batch,
    simulate_ragged,
    tar_marginal_oracle,
)

AR1 = ArmaModel(ar=(0.5,))


class TestNoiseSpec:
    @pytest.mark.parametrize(
        "spec,variance",
        [
            (NoiseSpec.gaussian(2.0), 4.0),
            (NoiseSpec.uniform(3.0), 3.0),
            (NoiseSpec.laplace(1.5), 4.5),
        ],
    )
    def test_variance(self, spec, variance):
        assert spec.variance == pytest.approx(variance)

    @pytest.mark.parametrize("dist", ["gaussian", "uniform", "laplace"])
    def test_moments_and_cdf(self, dist):
        spec = NoiseSpec(dist, 1.3)
        x = spec.sample(make_rng(5), 200_000)
        assert abs(x.mean()) < 4 * spec.std / math.sqrt(x.size)
        assert x.var() == pytest.approx(spec.variance, rel=0.03)
        # pdf integrates to 1 (trapezoid error concentrates at the uniform
        # jump and the laplace kink, hence the loose tolerance)
        grid = np.linspace(-12 * spec.std, 12 * spec.std, 4001)
        assert np.trapezoid(spec.pdf(grid), grid) == pytest.approx(1.0, abs=2e-3)
        assert stats.kstest(x, spec.cdf).pvalue > 0.01

    def test_invalid(self):
        with pytest.raises(ValueError, match="distribution"):
            NoiseSpec("cauchy", 1.0)
        with pytest.raises(ValueError, match="scale"):
            NoiseSpec("gaussian", 0.0)


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
    @pytest.mark.parametrize("spec", [NoiseSpec.gaussian(1.7), NoiseSpec.uniform(0.3),
                                      NoiseSpec.laplace(2.5)], ids=lambda s: s.distribution)
    def test_bit_identical_to_fresh_philox(self, spec, width):
        model = TarModel(0.5, 0.5, noise=spec)
        rows = models._draw_rows(model, SEED_TABLE, width)
        for seed, row in zip(SEED_TABLE, rows):
            ref = philox_reference(spec, seed, width)
            assert_array_equal(row.view(np.uint64), ref.view(np.uint64))
            assert_array_equal(spec.sample(make_rng(seed), width).view(np.uint64),
                               ref.view(np.uint64))

    @pytest.mark.parametrize("spec", [NoiseSpec.gaussian(1.7), NoiseSpec.uniform(0.3),
                                      NoiseSpec.laplace(2.5)], ids=lambda s: s.distribution)
    def test_spans_are_stream_prefixes_in_zeros(self, spec):
        model = TarModel(0.5, 0.5, noise=spec)
        # (row, start, stop) per seed: a whole row, two streams end to end,
        # a stream ending at the last column, and an empty span
        row, start, stop = np.array([[0, 0, 1012], [1, 0, 1], [1, 1, 4], [2, 4, 1012],
                                     [1, 4, 4]]).T
        draws = models._draw_rows(model, SEED_TABLE, 1012, (row, start, stop))
        assert draws.shape == (3, 1012)
        covered = np.zeros(draws.shape, dtype=bool)
        for seed, i, a, b in zip(SEED_TABLE, row, start, stop):
            assert_array_equal(draws[i, a:b], philox_reference(spec, seed, b - a))
            covered[i, a:b] = True
        assert not draws[~covered].any()

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
        assert arma_marginal(ArmaModel(noise=NoiseSpec.gaussian(2.0))) == (0.0, pytest.approx(4.0))

    def test_ma1(self):
        _, var = arma_marginal(ArmaModel(ma=(0.7,)))
        assert var == pytest.approx(1.49, rel=1e-12)

    def test_intercept_sets_mean(self):
        mean, _ = arma_marginal(ArmaModel(ar=(0.5,), intercept=1.0))
        assert mean == pytest.approx(2.0)

    def test_non_gaussian_rejected(self):
        with pytest.raises(ModelValidityError, match="gaussian"):
            arma_marginal(ArmaModel(ar=(0.5,), noise=NoiseSpec.uniform(1.0)))


class TestSimulate:
    def test_reproducible(self):
        a = simulate(AR1, 500, seed=11)
        b = simulate(AR1, 500, seed=11)
        assert_array_equal(a, b)
        assert not np.array_equal(a, simulate(AR1, 500, seed=12))

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
        batch = simulate_batch(model, 700, seeds, burn_in=burn_in)
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
    def test_ragged_rows_equal_single_paths(self, model, burn_in):
        # sizes and seeds out of order, one size repeated; Markov rows are
        # packed with some starting mid-lane
        ns, seeds = [700, 50, 1, 700, 333, 2000, 5], [41, 3, 17, 8, 5, 9, 10]
        rows = simulate_ragged(model, ns, seeds, burn_in=burn_in)
        assert len(rows) == 7
        _, start = models._pack_rows(resolve_burn_in(model, burn_in) + np.array(ns))
        assert start.any()
        for row, n, s in zip(rows, ns, seeds):
            assert row.shape == (n,)
            assert_array_equal(row, simulate(model, n, burn_in=burn_in, seed=s))

    def test_ragged_markov_rows_share_one_packed_batch(self):
        # rows of 1000 + n steps: 3000 fills a lane, 1500 and 1300 share
        # one, 1100 fits in neither
        ns = [2000, 300, 500, 100]
        rows = simulate_ragged(TarModel(0.6, -0.3), ns, [1, 2, 3, 4])
        batch = rows[0].base
        assert batch is not None and batch.shape == (3, 3000)
        assert all(row.base is batch for row in rows[1:])

    def test_ragged_markov_rows_past_the_budget_run_one_size_at_a_time(self, monkeypatch):
        model = TarModel(0.6, -0.3)
        ns, seeds = [2000, 300, 500, 100, 300], [1, 2, 3, 4, 5]
        # one value short of the 3 x 3000 packed batch
        monkeypatch.setattr(models, "MAX_PACKED_VALUES", 3 * 3000 - 1)
        rows = simulate_ragged(model, ns, seeds)
        for row, n, s in zip(rows, ns, seeds):
            assert_array_equal(row, simulate(model, n, seed=s))
        assert rows[1].base is rows[4].base
        assert all(rows[i].base is not rows[1].base for i in (0, 2, 3))

    @pytest.mark.parametrize("ns,slack", [
        ([7], 1.0),
        ([5, 9, 5000, 9, 5, 2000], None),
        # the doubling grids of a rate experiment pack within 2% of the rows
        (np.repeat([2**k for k in range(10, 18)], 20), 1.02),
        (np.repeat([2**k for k in range(8, 15)], 200), 1.02),
    ], ids=["one-row", "uneven", "reps-20", "reps-200"])
    def test_packed_rows_do_not_overlap(self, ns, slack):
        lengths = 1000 + np.asarray(ns)
        lane, start = models._pack_rows(lengths)
        width = lengths.max()
        assert (start >= 0).all() and (start + lengths <= width).all()
        for i in np.unique(lane):
            mine = np.flatnonzero(lane == i)
            order = np.argsort(start[mine])
            assert (start[mine][order][1:] >= (start + lengths)[mine][order][:-1]).all()
        if slack is not None:
            assert (lane.max() + 1) * width <= slack * lengths.sum()

    def test_ragged_validates_like_simulate(self):
        assert simulate_ragged(TarModel(0.6, -0.3), [], []) == []
        with pytest.raises(ValueError, match="one size per seed"):
            simulate_ragged(TarModel(0.6, -0.3), [100, 200], [1])
        with pytest.raises(ValueError, match="positive integer"):
            simulate_ragged(TarModel(0.6, -0.3), [100, 0], [1, 2])
        with pytest.raises(ValueError, match="burn_in"):
            simulate_ragged(TarModel(0.6, -0.3), [100, 200], [1, 2], burn_in=10)
        with pytest.raises(ModelValidityError):
            simulate_ragged(TarModel(1.0, 0.3), [100, 200], [1, 2])

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
        batch = simulate_batch(model, 50, [])
        assert batch.shape == (0, 50)
        assert batch.dtype == np.float64

    def test_batch_validates_like_simulate(self):
        with pytest.raises(ValueError, match="burn_in"):
            simulate_batch(TarModel(0.6, -0.3), 100, [1, 2], burn_in=10)
        with pytest.raises(ValueError, match="positive integer"):
            simulate_batch(TarModel(0.6, -0.3), 0, [1, 2])
        with pytest.raises(ModelValidityError):
            simulate_batch(TarModel(1.0, 0.3), 100, [1, 2])

    def test_resolved_burn_in(self):
        assert resolve_burn_in(AR1, None) == 1000
        assert resolve_burn_in(AR1, 1500) == 1500
        assert resolve_burn_in(LinearProcess(coeffs=(1.0, 0.5)), 1500) == 0
        with pytest.raises(ValueError, match="below the model's default 1000"):
            resolve_burn_in(AR1, 999)
        with pytest.raises(ModelValidityError):
            resolve_burn_in(ArmaModel(ar=(1.2,)), None)

    def test_default_burn_in_scales_with_memory(self):
        assert default_burn_in(AR1) == 1000
        assert default_burn_in(ArmaModel(ar=(0.99,))) == 5000
        assert default_burn_in(LinearProcess(coeffs=(1.0, 0.5))) == 0


class TestNlarChecks:
    def test_soft_check_passes_for_honest_bound(self):
        nlar_soft_check(NlarModel(transition=lambda x: 0.3 * np.sin(x), lipschitz_bound=0.3))

    def test_soft_check_catches_lies(self):
        with pytest.raises(ModelValidityError, match="Lipschitz"):
            nlar_soft_check(NlarModel(transition=lambda x: 0.9 * np.asarray(x), lipschitz_bound=0.2))

    def test_bound_range_enforced(self):
        with pytest.raises(ModelValidityError):
            NlarModel(transition=lambda x: x, lipschitz_bound=1.0)


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

    @pytest.mark.parametrize("a,b", [(0.6, -0.3), (-0.4, 0.2), (0.3, 0.7)])
    def test_asymmetric_normalization(self, a, b):
        model = TarModel(a, b)
        grid, dens = tar_marginal_oracle(model)
        assert np.all(dens >= 0.0)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-8)

    def test_non_convergence_reports_change(self, monkeypatch):
        monkeypatch.setattr(models, "ORACLE_MAX_ITERATIONS", 2)
        with pytest.raises(RuntimeError, match="in 2 iterations; last sup-change"):
            tar_marginal_oracle(TarModel(0.9, 0.9))

    def test_tar_iteration_count(self, monkeypatch):
        # TAR(0.6, -0.3) reaches the 1e-10 tolerance in 23 mat-vecs
        monkeypatch.setattr(models, "ORACLE_MAX_ITERATIONS", 22)
        with pytest.raises(RuntimeError, match="in 22 iterations"):
            tar_marginal_oracle(TarModel(0.6, -0.3))
        monkeypatch.setattr(models, "ORACLE_MAX_ITERATIONS", 23)
        tar_marginal_oracle(TarModel(0.6, -0.3))

    def test_kernel_built_in_place(self):
        # the 2001 x 2001 kernel takes 32 MB; out-of-place arithmetic on it
        # would hold two or three of that size at once
        tracemalloc.start()
        try:
            tar_marginal_oracle(TarModel(0.6, -0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2001**2 * 8

    def test_grid_is_fixed(self):
        model = TarModel(0.6, -0.3, noise=NoiseSpec.gaussian(2.0))
        grid, dens = tar_marginal_oracle(model)
        spread = 2.0 / math.sqrt(1.0 - 0.6**2)
        assert_array_equal(grid, np.linspace(-8.5 * spread, 8.5 * spread, 2001))
        assert dens.shape == grid.shape

    def test_non_gaussian_rejected(self):
        model = TarModel(0.5, 0.5, noise=NoiseSpec.uniform(1.0))
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
        noise = NoiseSpec.gaussian(math.sqrt(variance))
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
        assert_array_equal(noise.cdf(x).view(np.int64),
                           stats.norm.cdf(x, scale=math.sqrt(variance)).view(np.int64))

    def test_gaussian_truth_leaves_scipy_stats_unloaded(self):
        code = ("import sys; from polyfreq.models import ArmaModel, marginal_truth, NoiseSpec; "
                "t = marginal_truth(ArmaModel(ar=(0.5,), ma=(0.2,))); "
                "t.pdf([0.1, 0.2]); t.cdf(0.3); t.support(); NoiseSpec().cdf(0.5); "
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
            ArmaModel(ar=(0.5,), ma=(0.2,), intercept=0.3, noise=NoiseSpec.gaussian(1.5)),
            LinearProcess(coeffs=(1.0, 0.4), mean=-1.0, noise=NoiseSpec.laplace(0.7)),
            TarModel(0.6, -0.3, noise=NoiseSpec.uniform(2.0)),
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

    def test_nlar_not_serializable(self):
        model = NlarModel(transition=lambda x: 0.1 * np.asarray(x), lipschitz_bound=0.1)
        with pytest.raises(ValueError, match="serialize"):
            model_to_spec(model)

    def test_require_valid_dispatch(self):
        require_valid(AR1)
        require_valid(LinearProcess(coeffs=(1.0,)))
        with pytest.raises(ModelValidityError):
            require_valid(TarModel(0.5, -1.2))
