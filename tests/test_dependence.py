"""Tests for coupled trajectories and dependence-decay estimation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from polyfreq.dependence import (
    check_summability,
    coupled_paths,
    estimate_delta,
    estimate_delta_profile,
    simulate_coupled,
)
from polyfreq.models import (
    ArmaModel,
    LinearProcess,
    ModelValidityError,
    NlarModel,
    NoiseSpec,
    TarModel,
    advance,
    default_burn_in,
    initial_state,
    make_rng,
    simulate,
    simulate_rows,
)

AR1 = ArmaModel(ar=(0.5,))
SQRT2 = math.sqrt(2.0)


class TestCoupledConstruction:
    def test_linear_process_exact_cancellation(self):
        # every shared innovation term cancels, leaving coeff[k] times the
        # time-0 innovation gap (up to accumulation rounding)
        order = 19
        lp = LinearProcess(coeffs=tuple(0.5**j for j in range(order + 1)))
        pair = simulate_coupled(lp, 10, seed=5)
        buf = make_rng(5).standard_normal(order + 10 + 2)
        gap = buf[order] - buf[order + 1]
        difference = pair.path - pair.coupled_path
        for k in range(11):
            expected = 0.5**k * gap
            assert difference[k] == pytest.approx(expected, rel=1e-10)

    def test_arma_difference_follows_ma_coefficients(self):
        # for ARMA the difference sequence is beta_k times the innovation gap
        model = ArmaModel(ar=(0.5,), ma=(0.2,))
        pair = simulate_coupled(model, 8, seed=23)
        difference = pair.path - pair.coupled_path
        beta = [1.0, 0.7, 0.35, 0.175, 0.0875]
        for k, bk in enumerate(beta):
            assert difference[k] == pytest.approx(bk * difference[0], rel=1e-9)

    @pytest.mark.parametrize(
        "model",
        [
            AR1,
            ArmaModel(ar=(0.5, -0.2), ma=(0.4,), intercept=1.5),
            ArmaModel(intercept=0.3),
            TarModel(0.6, -0.3),
            TarModel(0.6, -0.3, noise=NoiseSpec("uniform", 1.0)),
            NlarModel(transition=lambda x: 0.5 * np.tanh(x), lipschitz_bound=0.5),
        ],
        ids=["AR1", "ARMA21", "white", "TAR", "TAR-uniform", "NLAR"],
    )
    def test_coupled_pair_is_one_advance_over_its_stream(self, model):
        # stream: [x0 | burn - 1 shared | eps_0 | eps_0' | eps_1..eps_lag]; each
        # path is the simulation recursion run with the other time-0 draw removed
        lag, seed, burn = 7, 13, default_burn_in(model)
        stream = model.noise.fill(make_rng(seed), np.empty(burn + lag + 2))
        pair = simulate_coupled(model, lag, seed)
        for path, other in ((pair.path, burn + 1), (pair.coupled_path, burn)):
            eps = np.delete(stream, other)[None, :]
            values, _ = advance(model, initial_state(model, eps[:, 0]), eps[:, 1:])
            assert_array_equal(path, values[0, burn - 1 :])

    @pytest.mark.parametrize("order", [0, 19])
    def test_moving_average_pairs_convolve_their_streams(self, order):
        # columns: [eps_-order..eps_-1 | eps_0 | eps_0' | eps_1..eps_lag]
        lp = LinearProcess(coeffs=tuple(0.8**j for j in range(order + 1)), mean=0.5)
        lag, seeds = 6, [3, 4]
        a, b = coupled_paths(lp, lag, seeds)
        for i, s in enumerate(seeds):
            stream = make_rng(s).standard_normal(order + lag + 2)
            for row, other in ((a[i], order + 1), (b[i], order)):
                expected = lp.mean + np.convolve(np.delete(stream, other), lp.coeffs, "valid")
                # the window product sums in another order than np.convolve
                assert_allclose(row, expected, rtol=0, atol=0 if order == 0 else 1e-12)

    @pytest.mark.parametrize(
        "model",
        [ArmaModel(), ArmaModel(ma=(0.4,)), ArmaModel(ma=(0.4, -0.2)), AR1,
         TarModel(0.6, -0.3), LinearProcess(coeffs=(1.0, 0.5))],
        ids=["white", "MA1", "MA2", "AR1", "TAR", "linear"],
    )
    def test_empty_seed_list_gives_no_rows(self, model):
        a, b = coupled_paths(model, 4, [])
        assert a.shape == b.shape == (0, 5)

    @pytest.mark.parametrize("model", [ArmaModel(), ArmaModel(ma=(0.4,)),
                                       ArmaModel(ma=(0.4, 0.3, -0.2)), AR1],
                             ids=["white", "MA1", "MA3", "AR1"])
    def test_arma_rows_are_filtered_together(self, model, monkeypatch):
        # lfilter's route for a model without an AR part maps np.convolve
        # over the rows one by one; every ARMA model takes the compiled one
        monkeypatch.setattr(np, "apply_along_axis",
                            lambda *args, **kwargs: pytest.fail("rows filtered one by one"))
        simulate(model, 3000, seed=1)
        simulate_rows(model, 20, [1, 2, 3])
        coupled_paths(model, 4, range(5))
        coupled_paths(model, 4, [])
        estimate_delta_profile(model, 3, 100, seed=2)

    def test_tar_degenerate_no_propagation(self):
        a, b = coupled_paths(TarModel(0.0, 0.0), 5, list(range(50)))
        assert np.all(a[:, 0] != b[:, 0])
        assert_array_equal(a[:, 1:], b[:, 1:])

    def test_lag_extensible_prefix(self):
        short = simulate_coupled(AR1, 3, seed=9)
        long = simulate_coupled(AR1, 9, seed=9)
        assert_array_equal(short.path, long.path[:4])
        assert_array_equal(short.coupled_path, long.coupled_path[:4])

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError, match="lag"):
            simulate_coupled(AR1, -1)

    def test_invalid_model_rejected(self):
        with pytest.raises(ModelValidityError):
            simulate_coupled(ArmaModel(ar=(1.5,)), 2)

    def test_nlar_family_supported(self):
        model = NlarModel(transition=lambda x: 0.4 * np.tanh(np.asarray(x)), lipschitz_bound=0.4)
        pair = simulate_coupled(model, 4, seed=2)
        diffs = np.abs(pair.path - pair.coupled_path)
        assert np.all(diffs[1:] <= 0.4 * diffs[:-1] + 1e-12)


class TestEstimateDelta:
    def test_lag_zero_is_scaled_innovation_std(self):
        d = estimate_delta(AR1, 0, 4000, seed=1)
        assert abs(d.delta_hat - SQRT2) < 3 * d.std_error

    def test_ar1_matches_exact_geometry(self):
        d = estimate_delta(AR1, 3, 4000, seed=1)
        assert abs(d.delta_hat - 0.5**3 * SQRT2) < 3 * d.std_error

    def test_profile_consistent_with_single_lag(self):
        profile = estimate_delta_profile(AR1, 5, 300, seed=8)
        assert profile[3] == estimate_delta(AR1, 3, 300, seed=8)

    def test_replication_floor(self):
        with pytest.raises(ValueError, match="100"):
            estimate_delta(AR1, 1, 50)

    @pytest.mark.parametrize("call,name", [
        (lambda: estimate_delta_profile(AR1, 2.5, 100), "max_lag"),
        (lambda: estimate_delta_profile(AR1, True, 100), "max_lag"),
        (lambda: estimate_delta_profile(AR1, 2, 100.0), "replications"),
        (lambda: estimate_delta_profile(AR1, 2, True), "replications"),
        (lambda: coupled_paths(AR1, 1.5, range(3)), "lag"),
        (lambda: coupled_paths(TarModel(0.6, -0.3), 1.5, range(3)), "lag"),
    ], ids=["max_lag-float", "max_lag-bool", "replications-float", "replications-bool",
            "lag-float", "lag-float-TAR"])
    def test_counts_must_be_integers(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call()

    @pytest.mark.parametrize("seed", [1.5, True, "5"], ids=repr)
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            estimate_delta_profile(AR1, 2, 100, seed=seed)

    def test_seed_range_past_philox_keys_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(NoiseSpec, "fill", lambda *args: pytest.fail("innovations drawn"))
        with pytest.raises(ValueError, match="less than 2\\*\\*128"):
            estimate_delta_profile(TarModel(0.6, -0.3), 2, 100, seed=2**128 - 50)

    def test_burn_in_must_be_a_nonnegative_integer(self):
        with pytest.raises(ValueError, match="burn_in must be a nonnegative integer"):
            estimate_delta_profile(TarModel(0.6, -0.3), 3, 200, burn_in=1500.5)

    def test_exact_zero_lags_have_zero_error(self):
        profile = estimate_delta_profile(TarModel(0.0, 0.0), 3, 200, seed=2)
        for d in profile[1:]:
            assert d.delta_hat == 0.0
            assert d.std_error == 0.0

    def test_profile_scales_exactly_with_the_noise_scale(self):
        # TAR is positively homogeneous, so a power-of-two noise scale scales every
        # path, difference and coefficient exactly; at 2**500 the fourth moment
        # would overflow unless the moments are taken on a rescaled copy
        unit = estimate_delta_profile(TarModel(0.5, -0.5), 5, 1000, seed=4)
        big = estimate_delta_profile(TarModel(0.5, -0.5, noise=NoiseSpec("gaussian", 2.0**500)),
                                     5, 1000, seed=4)
        assert [(d.delta_hat, d.std_error) for d in big] == \
            [(2.0**500 * d.delta_hat, 2.0**500 * d.std_error) for d in unit]

    def test_pathwise_contraction_small(self):
        a, b = coupled_paths(TarModel(0.6, -0.3), 10, list(range(500)))
        d = np.abs(a - b)
        slack = (1.0 + np.abs(a[:, 1:]) + np.abs(b[:, 1:]) + np.abs(a[:, :-1]) + np.abs(b[:, :-1])) * 2.0**-48
        assert np.all(d[:, 1:] <= 0.6 * d[:, :-1] + slack)


class TestDrawCap:
    """Coupled batches past ``MAX_BUFFER_VALUES`` values are refused before
    anything is drawn, also for counts past int64."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("innovations drawn")

        monkeypatch.setattr(NoiseSpec, "fill", refuse)

    @pytest.mark.parametrize("model", [AR1, LinearProcess((1.0, 0.5)), TarModel(0.6, -0.3)],
                             ids=["AR1", "MA1", "TAR"])
    @pytest.mark.parametrize("lag,reps", [(10**19, 100), (2, 10**12), (2, 10**19)],
                             ids=["lag", "reps", "reps-past-int64"])
    def test_refused(self, model, lag, reps):
        with pytest.raises(ValueError, match="above the limit of 268435456"):
            estimate_delta_profile(model, lag, reps)
        if reps < 2**63:
            with pytest.raises(ValueError, match="above the limit of 268435456"):
                coupled_paths(model, lag, range(reps))


class TestSummability:
    def test_ar1_slope_recovers_log_half(self):
        profile = estimate_delta_profile(AR1, 8, 4000, seed=12)
        report = check_summability(profile, 0.5)
        assert report.conclusive
        assert report.slope == pytest.approx(math.log(0.5), abs=0.05)
        assert report.decay_ok
        # exact sum of 0.5^k sqrt(2) over all k is 2 sqrt(2)
        assert report.certificate_total == pytest.approx(2.0 * SQRT2, rel=0.02)

    def test_tar_decay_bounded_by_contraction(self):
        model = TarModel(0.6, -0.3)
        profile = estimate_delta_profile(model, 10, 4000, seed=13)
        report = check_summability(profile, 0.6)
        assert report.slope is not None
        assert report.slope <= math.log(0.6) + 0.05
        d0 = profile[0]
        for d in profile:
            slack = 1.0 + 4.0 * d.std_error / max(d.delta_hat, 1e-300)
            assert d.delta_hat <= d0.delta_hat * 0.6**d.lag * slack

    def test_iid_inconclusive_with_clean_certificate(self):
        profile = estimate_delta_profile(TarModel(0.0, 0.0), 5, 300, seed=3)
        report = check_summability(profile, 0.0)
        assert not report.conclusive
        assert report.slope is None
        assert report.certificate_total == pytest.approx(profile[0].delta_hat)
        assert report.tail_bound == 0.0

    def test_noise_floor_lags_excluded(self):
        profile = estimate_delta_profile(AR1, 8, 4000, seed=12)
        # push every lag beyond 2 under the floor artificially
        doctored = [
            d if d.lag <= 2 else type(d)(d.lag, d.delta_hat, d.delta_hat, d.replications)
            for d in profile
        ]
        report = check_summability(doctored, 0.5)
        assert max(report.used_lags) == 2

    def test_input_validation(self):
        profile = estimate_delta_profile(AR1, 3, 200, seed=1)
        with pytest.raises(ValueError, match="consecutive"):
            check_summability(profile[1:], 0.5)
        with pytest.raises(ValueError, match="contraction"):
            check_summability(profile, 1.0)
