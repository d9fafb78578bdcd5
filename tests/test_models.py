"""Tests for the time-series model families and their simulators."""

import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

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
    tar_marginal_oracle,
    tar_oracle_grid,
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
        assert_array_equal(arma_to_ma_coeffs(AR1, 5), 0.5 ** np.arange(6))

    def test_ma1_finite(self):
        assert_array_equal(arma_to_ma_coeffs(ArmaModel(ma=(0.7,)), 4), [1.0, 0.7, 0, 0, 0])

    def test_arma11_hand_recursion(self):
        got = arma_to_ma_coeffs(ArmaModel(ar=(0.5,), ma=(0.2,)), 4)
        assert_allclose(got, [1.0, 0.7, 0.35, 0.175, 0.0875], rtol=1e-15)

    def test_auto_truncation_tail_negligible(self):
        beta = arma_to_ma_coeffs(AR1)
        total = float(beta @ beta)
        assert total == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert beta[-1] ** 2 / total < 1e-12

    def test_truncation_below_order_rejected(self):
        with pytest.raises(ValueError, match="truncation"):
            arma_to_ma_coeffs(ArmaModel(ar=(0.5,), ma=(0.2, 0.1)), 2)

    def test_nonstationary_rejected(self):
        with pytest.raises(ModelValidityError):
            arma_to_ma_coeffs(ArmaModel(ar=(1.1,)), 10)


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
    def test_degenerate_is_noise_density(self):
        model = TarModel(0.0, 0.0)
        grid = tar_oracle_grid(model)
        dens = tar_marginal_oracle(model, grid, max_iterations=3)
        assert_allclose(dens, model.noise.pdf(grid), atol=1e-12)

    def test_linear_case_matches_closed_form(self):
        model = TarModel(0.5, 0.5)
        grid = tar_oracle_grid(model)
        dens = tar_marginal_oracle(model, grid)
        closed = stats.norm(0.0, math.sqrt(1.0 / 0.75)).pdf(grid)
        assert np.max(np.abs(dens - closed)) <= 1e-6

    @pytest.mark.parametrize("a,b", [(0.6, -0.3), (-0.4, 0.2), (0.3, 0.7)])
    def test_asymmetric_normalization(self, a, b):
        model = TarModel(a, b)
        grid = tar_oracle_grid(model)
        dens = tar_marginal_oracle(model, grid)
        assert np.all(dens >= 0.0)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-8)

    def test_non_convergence_reports_change(self):
        model = TarModel(0.9, 0.9)
        with pytest.raises(RuntimeError, match="sup-change"):
            tar_marginal_oracle(model, tar_oracle_grid(model), max_iterations=2)

    def test_grid_coverage_enforced(self):
        model = TarModel(0.5, 0.5)
        with pytest.raises(ValueError, match="cover"):
            tar_marginal_oracle(model, np.linspace(-3, 3, 200))

    def test_non_gaussian_rejected(self):
        model = TarModel(0.5, 0.5, noise=NoiseSpec.uniform(1.0))
        with pytest.raises(ModelValidityError, match="gaussian"):
            tar_marginal_oracle(model, np.linspace(-10, 10, 200))

    def test_transition_map(self):
        r = TarModel(0.6, -0.3).transition
        assert_array_equal(r(np.array([2.0, -2.0, 0.0])), [1.2, 0.6, 0.0])


class TestMarginalTruth:
    def test_gaussian_arma(self):
        truth = marginal_truth(AR1)
        sd = math.sqrt(4.0 / 3.0)
        assert truth.pdf(0.0) == pytest.approx(stats.norm(0, sd).pdf(0.0))
        lo, hi = truth.support(1e-9)
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
                "t.pdf([0.1, 0.2]); t.cdf(0.3); t.support(1e-9); NoiseSpec().cdf(0.5); "
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
