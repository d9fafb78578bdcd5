"""Coupled-trajectory construction and dependence-decay estimation.

The dependence of a stationary causal process on a single innovation is
measured by coupling: run the process to time -1, then branch into two
trajectories that share every innovation except the one at time 0, which
the coupled copy replaces with an independent draw.  The lag-k dependence
coefficient is the standard deviation of the difference between the two
trajectories at time k; summability of these coefficients over k is the
short-range dependence certificate the estimators in this package rely on.

Replications are independent streams seeded ``base + index``, and all
aggregation is a fixed-order reduction, so results do not depend on how
replications are scheduled or batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import (
    LinearProcess,
    Model,
    _advance_blocks,
    _check_seeds,
    _count,
    _draw_rows,
    advance,
    initial_state,
    resolve_burn_in,
)

__all__ = [
    "CoupledPair",
    "DeltaEstimate",
    "SummabilityReport",
    "simulate_coupled",
    "coupled_paths",
    "estimate_delta",
    "estimate_delta_profile",
    "check_summability",
]

#: ``decay_ok`` holds when the fitted decay slope is at most
#: ``log(contraction) + SLOPE_TOLERANCE``
SLOPE_TOLERANCE = 0.05


@dataclass(frozen=True)
class CoupledPair:
    """Two trajectories over times 0..lag sharing all innovations but the first.

    ``path[j]`` and ``coupled_path[j]`` hold the original and coupled values
    at time ``j``; they are driven by identical innovations at times 1..lag
    and differ only through the time-0 innovation.  A view of one row of
    :func:`coupled_paths`, kept while the benchmark tracer binds it (ROADMAP item 4).
    """

    lag: int
    path: np.ndarray
    coupled_path: np.ndarray


@dataclass(frozen=True)
class DeltaEstimate:
    """Monte Carlo estimate of one lag's dependence coefficient."""

    lag: int
    delta_hat: float
    std_error: float
    replications: int


def coupled_paths(model: Model, lag: int, seeds: Sequence[int],
                  burn_in: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Batched coupled trajectories, one row per replication seed.

    Stream layout per replication: one initial variate, ``burn_in - 1``
    burn-in innovations (reaching the shared time -1 state), the time-0
    innovation, its independent replacement, then the shared innovations
    for times 1..lag.  The layout's dependence on ``lag`` sits entirely at
    the tail, so trajectories for smaller lags are prefixes of larger ones.
    """
    burn_in = resolve_burn_in(model, burn_in)
    lag = _count(lag, "lag")

    if isinstance(model, LinearProcess):
        # columns: [eps_{-order}..eps_{-1} | eps_0 | eps_0' | eps_1..eps_lag]
        k_ma = model.order
        draws = _draw_rows(model, seeds, k_ma + lag + 2)
        history, shared = draws[:, :k_ma], draws[:, k_ma + 2 :]
        eps_a = np.concatenate([history, draws[:, k_ma, None], shared], axis=1)
        eps_b = np.concatenate([history, draws[:, k_ma + 1, None], shared], axis=1)
        coeffs = np.asarray(model.coeffs)[::-1]
        win_a = np.lib.stride_tricks.sliding_window_view(eps_a, k_ma + 1, axis=1)
        win_b = np.lib.stride_tricks.sliding_window_view(eps_b, k_ma + 1, axis=1)
        return model.mean + win_a @ coeffs, model.mean + win_b @ coeffs

    # columns: [initial | burn-in eps (burn_in - 1) | eps_0 | eps_0' | eps_1..eps_lag]
    draws = _draw_rows(model, seeds, burn_in + lag + 2)
    e0, e0p, shared = draws[:, burn_in], draws[:, burn_in + 1], draws[:, burn_in + 2 :]
    # the shared history is advanced in place on this view, so the reps x
    # burn_in draws are never copied, and ARMA models keep only one block of
    # the discarded burn-in values at once
    state = _advance_blocks(model, initial_state(model, draws[:, 0]), draws[:, 1:burn_in],
                            keep=False)
    path_a, _ = advance(model, state, np.column_stack([e0, shared]))
    path_b, _ = advance(model, state, np.column_stack([e0p, shared]))
    return path_a, path_b


def simulate_coupled(model: Model, lag: int, seed: int = 0,
                     burn_in: int | None = None) -> CoupledPair:
    """One coupled trajectory pair: a view of one row of :func:`coupled_paths`,
    kept while the benchmark tracer binds it (ROADMAP item 4)."""
    a, b = coupled_paths(model, lag, [seed], burn_in)
    return CoupledPair(lag=lag, path=a[0], coupled_path=b[0])


def _delta_from_diffs(lag: int, diffs: np.ndarray) -> DeltaEstimate:
    # two-pass (mean-subtracted) variance: the coefficients span many orders
    # of magnitude and a streaming sum of squares would lose the small ones.
    reps = diffs.size
    centered = diffs - diffs.mean()
    var = float(centered @ centered) / (reps - 1)
    delta = math.sqrt(var)
    m4 = float(np.mean(centered**4))
    se_var = math.sqrt(max(m4 - var**2, 0.0) / reps)
    se = se_var / (2.0 * delta) if delta > 0 else 0.0
    return DeltaEstimate(lag=lag, delta_hat=delta, std_error=se, replications=reps)


def estimate_delta(model: Model, lag: int, replications: int, seed: int = 0,
                   burn_in: int | None = None) -> DeltaEstimate:
    """Dependence coefficient at one lag: a view of entry ``lag`` of
    :func:`estimate_delta_profile`, kept while the benchmark tracer binds it (ROADMAP item 4)."""
    return estimate_delta_profile(model, lag, replications, seed, burn_in)[lag]


def estimate_delta_profile(model: Model, max_lag: int, replications: int, seed: int = 0,
                           burn_in: int | None = None) -> list[DeltaEstimate]:
    """Dependence coefficients for all lags 0..max_lag from one batch.

    Because the coupled stream layout is lag-extensible, entry ``k`` equals
    ``estimate_delta(model, k, replications, seed)`` exactly.
    """
    max_lag = _count(max_lag, "max_lag")
    replications = _count(replications, "replications", 100)
    _check_seeds([seed])
    a, b = coupled_paths(model, max_lag, range(seed, seed + replications), burn_in)
    diffs = a - b
    return [_delta_from_diffs(k, diffs[:, k]) for k in range(max_lag + 1)]


@dataclass(frozen=True)
class SummabilityReport:
    """Evidence that the dependence coefficients are geometrically summable.

    ``slope`` is the least-squares decay rate of ``log(delta_hat)`` over the
    lags whose estimates clear the noise floor (5 standard errors); the
    certificate total combines the measured partial sum with a geometric
    tail bound driven by the supplied contraction rate.
    """

    slope: float | None
    slope_target: float | None
    decay_ok: bool | None
    used_lags: tuple[int, ...]
    partial_sum: float
    tail_bound: float | None
    certificate_total: float | None
    conclusive: bool


def check_summability(deltas: Sequence[DeltaEstimate], contraction: float) -> SummabilityReport:
    """Fit the decay rate of estimated dependence coefficients.

    ``deltas`` must cover consecutive lags starting at 0.  Lags whose
    estimates sit below 5 standard errors are excluded from the log-linear
    fit; if no lag beyond 0 clears the floor the report is inconclusive
    (an i.i.d.-like outcome, not an error).
    """
    if not deltas or any(d.lag != k for k, d in enumerate(deltas)):
        raise ValueError("deltas must cover consecutive lags starting at 0")
    if not (0.0 <= contraction < 1.0):
        raise ValueError(f"contraction must lie in [0, 1), got {contraction}")

    usable = [d for d in deltas if d.delta_hat > 5.0 * d.std_error and d.delta_hat > 0.0]
    used_lags = tuple(d.lag for d in usable)
    last = max(used_lags, default=0)
    partial = float(sum(d.delta_hat for d in deltas if d.lag <= last))
    delta_last = deltas[last].delta_hat
    tail = delta_last * contraction / (1.0 - contraction)

    slope = None
    decay_ok = None
    target = math.log(contraction) if contraction > 0.0 else None
    if len(usable) >= 2:
        ks = np.array([d.lag for d in usable], dtype=float)
        logs = np.log([d.delta_hat for d in usable])
        slope = float(np.polyfit(ks, logs, 1)[0])
        if target is not None:
            decay_ok = slope <= target + SLOPE_TOLERANCE
    conclusive = any(k >= 1 for k in used_lags) and len(usable) >= 2
    return SummabilityReport(
        slope=slope,
        slope_target=target,
        decay_ok=decay_ok,
        used_lags=used_lags,
        partial_sum=partial,
        tail_bound=tail,
        certificate_total=partial + tail,
        conclusive=conclusive,
    )

