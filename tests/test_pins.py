"""Bit pins of the simulation and oracle paths.

The values were computed with one batch per sample size, a fresh
``Generator(Philox(key=seed))`` per row and an out-of-place oracle kernel.
Any faster route through the same streams must reproduce them bit for bit:
floats are compared by ``float.hex``, and long record lists by the sha256
of their hex form.
"""

import hashlib

import numpy as np
import pytest

from polyfreq import diagnostics
from polyfreq.dependence import estimate_delta_profile
from polyfreq.diagnostics import rate_experiment
from polyfreq.models import ArmaModel, NlarModel, TarModel, marginal_truth, tar_marginal_oracle

N_GRID = [2**k for k in range(6, 13)]


def hexes(values):
    return [float(v).hex() for v in values]


def digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def rate_pin(report):
    """Everything in a report but the timings."""
    records = [(r.n, r.replication, r.bandwidth.hex(), r.sup_error.hex(), r.eval_points,
                r.grid_error_bound.hex()) for r in report.records]
    return (digest(records), hexes(report.median_errors), report.fitted_slope.hex(),
            hexes(report.slope_ci))


def test_tar_oracle():
    grid, density = tar_marginal_oracle(TarModel(0.6, -0.3))
    at = [0, 400, 1000, 1337, 2000]
    assert hexes(grid[at]) == ["-0x1.5400000000000p+3", "-0x1.9800000000000p+2", "0x0.0p+0",
                               "0x1.ca51eb851eb88p+1", "0x1.5400000000000p+3"]
    assert hexes(density[at]) == ["0x1.565de263ab98dp-86", "0x1.1b3b794afe9f4p-33",
                                  "0x1.563cb052e9cc4p-2", "0x1.1707c54c8b06ap-7",
                                  "0x1.e4cc033e1828ep-54"]
    assert hashlib.sha256(density.tobytes()).hexdigest() == (
        "4d07fb3379718bb33c27cb1dccbc89c36de5bf1eafc5e368367db9fc18d23708")


@pytest.mark.filterwarnings("ignore:reps=:UserWarning")
def test_tar_rate_experiment():
    assert rate_pin(rate_experiment(TarModel(0.6, -0.3), N_GRID, 4, seed=97)) == (
        "9ec45e49d3764c5de3c5caddbf4b0fc83e5718f12bcdf7cdb65dc5a42695c242",
        ["0x1.5e7748ced1298p-3", "0x1.561d532a809c6p-3", "0x1.c68f6c9cf05dap-4",
         "0x1.14a7287112bbep-4", "0x1.3d627ffeab56bp-4", "0x1.eb61705c64ae0p-5",
         "0x1.619c19fba5ac0p-5"],
        "-0x1.590be4ce7ca21p-2",
        ["-0x1.b00aa3023c6a3p-2", "-0x1.78c8938cd6945p-3"],
    )


@pytest.mark.filterwarnings("ignore:reps=:UserWarning")
def test_nlar_rate_experiment(monkeypatch):
    # a general NLAR model has no marginal truth; the standard normal stands
    # in, so the errors still pin every simulated value
    stand_in = marginal_truth(ArmaModel())
    monkeypatch.setattr(diagnostics, "marginal_truth", lambda model: stand_in)
    model = NlarModel(transition=lambda x: 0.5 * np.tanh(x), lipschitz_bound=0.5)
    assert rate_pin(rate_experiment(model, N_GRID, 4, seed=41)) == (
        "6cd4012ae8f4edb6a8e8e74a83ac198256f8f5c1b21fe8e05e8359d5605fa182",
        ["0x1.2112e133b7540p-3", "0x1.536762961c962p-3", "0x1.ce0dcf3c97cedp-4",
         "0x1.ea1c7f407d1dcp-4", "0x1.4f114f4fa20acp-4", "0x1.45db57669b542p-4",
         "0x1.15a118573b15ap-4"],
        "-0x1.a5021d55916ffp-3",
        ["-0x1.128d59048eb42p-2", "-0x1.21c945ce638eap-3"],
    )


def test_tar_delta_profile():
    deltas = estimate_delta_profile(TarModel(0.6, -0.3), 6, 500, seed=23)
    assert deltas[6].delta_hat.hex() == "0x1.a832fdf233bdbp-6"
    assert digest([(d.lag, d.delta_hat.hex(), d.std_error.hex(), d.replications)
                   for d in deltas]) == (
        "dcba19fff89068ec901074761dd977997ae9e3a3e8f49daf6a84d697350c46c3")
