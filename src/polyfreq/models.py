"""Stationary time-series generators with tractable marginal densities.

Four model families are provided: ARMA recursions, finite moving-average
(linear) processes, nonlinear first-order autoregressions driven by a
contractive transition map, and the threshold autoregression that splits
the lag-one coefficient by sign.  Each family exposes a validity check
(stationarity roots or contraction), a deterministic seeded simulator, and
where possible an exact or fixed-point marginal density used as ground
truth in estimation experiments.

Randomness contract: every simulation consumes a fresh counter-based
(Philox) stream keyed by its seed, so replications seeded as
``base + index`` produce the same output no matter how they are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ModelValidityError",
    "NoiseSpec",
    "ArmaModel",
    "LinearProcess",
    "NlarModel",
    "TarModel",
    "StationarityCheck",
    "MarginalTruth",
    "arma_check_stationary",
    "require_valid",
    "arma_to_ma_coeffs",
    "arma_marginal",
    "contraction_proxy",
    "default_burn_in",
    "resolve_burn_in",
    "initial_state",
    "advance",
    "simulate",
    "simulate_batch",
    "nlar_soft_check",
    "tar_marginal_oracle",
    "tar_oracle_grid",
    "marginal_truth",
    "model_from_spec",
    "model_to_spec",
    "make_rng",
]

SPEC_SCHEMA_VERSION = 1

#: margin for the unit-circle root test: moduli within this distance of 1
#: are treated as numerically indistinguishable from a unit root.
ROOT_MARGIN = 1e-9


class ModelValidityError(ValueError):
    """Model parameters violate stationarity or contraction requirements."""


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one simulation stream."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

_NOISE_FAMILIES = ("gaussian", "uniform", "laplace")


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean i.i.d. innovation distribution.

    ``scale`` is the family's natural parameter: the standard deviation for
    gaussian noise, the half-width ``c`` of ``uniform(-c, c)``, or the
    laplace scale.
    """

    distribution: str = "gaussian"
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.distribution not in _NOISE_FAMILIES:
            raise ValueError(
                f"unknown noise distribution {self.distribution!r}; "
                f"expected one of {_NOISE_FAMILIES}"
            )
        s = float(self.scale)
        if not (math.isfinite(s) and s > 0.0):
            raise ValueError(f"noise scale must be positive, got {self.scale!r}")
        object.__setattr__(self, "scale", s)

    @classmethod
    def gaussian(cls, sigma: float = 1.0) -> "NoiseSpec":
        return cls("gaussian", sigma)

    @classmethod
    def uniform(cls, half_width: float) -> "NoiseSpec":
        return cls("uniform", half_width)

    @classmethod
    def laplace(cls, scale: float) -> "NoiseSpec":
        return cls("laplace", scale)

    @property
    def variance(self) -> float:
        if self.distribution == "gaussian":
            return self.scale**2
        if self.distribution == "uniform":
            return self.scale**2 / 3.0
        return 2.0 * self.scale**2

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.distribution == "gaussian":
            return rng.standard_normal(size) * self.scale
        if self.distribution == "uniform":
            return rng.uniform(-self.scale, self.scale, size)
        return rng.laplace(0.0, self.scale, size)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.distribution == "gaussian":
            return np.exp(-0.5 * (x / self.scale) ** 2) / (self.scale * math.sqrt(2 * math.pi))
        if self.distribution == "uniform":
            return np.where(np.abs(x) <= self.scale, 1.0 / (2.0 * self.scale), 0.0)
        return np.exp(-np.abs(x) / self.scale) / (2.0 * self.scale)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.distribution == "gaussian":
            from scipy import special

            return special.ndtr(x / self.scale)
        if self.distribution == "uniform":
            return np.clip((x + self.scale) / (2.0 * self.scale), 0.0, 1.0)
        return np.where(
            x < 0,
            0.5 * np.exp(x / self.scale),
            1.0 - 0.5 * np.exp(-x / self.scale),
        )


# ---------------------------------------------------------------------------
# model families
# ---------------------------------------------------------------------------


def _as_float_tuple(values, name: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if any(not math.isfinite(v) for v in out):
        raise ValueError(f"{name} must be finite")
    return out


@dataclass(frozen=True)
class ArmaModel:
    """ARMA recursion ``X_t = intercept + sum(ar) lags + eps_t + sum(ma) lagged eps``.

    ``ar`` holds the autoregressive coefficients on lags 1..p and ``ma`` the
    moving-average coefficients on lags 1..q (the lag-0 MA coefficient is
    implicitly 1).
    """

    ar: tuple[float, ...] = ()
    ma: tuple[float, ...] = ()
    intercept: float = 0.0
    noise: NoiseSpec = NoiseSpec()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ar", _as_float_tuple(self.ar, "ar"))
        object.__setattr__(self, "ma", _as_float_tuple(self.ma, "ma"))
        object.__setattr__(self, "intercept", float(self.intercept))
        if not math.isfinite(self.intercept):
            raise ValueError("intercept must be finite")
        if 1.0 + sum(self.ma) == 0.0:
            raise ValueError("moving-average coefficients must not sum to -1")

    @property
    def p(self) -> int:
        return len(self.ar)

    @property
    def q(self) -> int:
        return len(self.ma)

    @property
    def mean(self) -> float:
        """Process mean, the fixed point ``mu = intercept + sum(ar)*mu``."""
        return self.intercept / (1.0 - sum(self.ar)) if self.p else self.intercept


@dataclass(frozen=True)
class LinearProcess:
    """Finite moving average ``X_t = mean + sum_k coeffs[k] * eps_{t-k}``."""

    coeffs: tuple[float, ...]
    mean: float = 0.0
    noise: NoiseSpec = NoiseSpec()

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _as_float_tuple(self.coeffs, "coeffs"))
        if len(self.coeffs) == 0:
            raise ValueError("coeffs must be nonempty")
        object.__setattr__(self, "mean", float(self.mean))
        if not math.isfinite(self.mean):
            raise ValueError("mean must be finite")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class NlarModel:
    """First-order autoregression ``X_t = transition(X_{t-1}) + eps_t``.

    The caller asserts a Lipschitz bound strictly below 1 for the transition
    map; :func:`nlar_soft_check` probes it with finite differences.  The
    transition must accept numpy arrays elementwise.
    """

    transition: Callable
    lipschitz_bound: float
    noise: NoiseSpec = NoiseSpec()

    def __post_init__(self) -> None:
        rho = float(self.lipschitz_bound)
        if not (0.0 <= rho < 1.0):
            raise ModelValidityError(
                f"lipschitz_bound must lie in [0, 1), got {self.lipschitz_bound!r}"
            )
        object.__setattr__(self, "lipschitz_bound", rho)


@dataclass(frozen=True)
class TarModel:
    """Threshold autoregression ``X_t = a*max(X_{t-1},0) + b*min(X_{t-1},0) + eps_t``."""

    a: float
    b: float
    noise: NoiseSpec = NoiseSpec()

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("TAR coefficients must be finite")

    @property
    def contraction(self) -> float:
        return max(abs(self.a), abs(self.b))

    def transition(self, x):
        """Vectorized transition map ``a*max(x, 0) + b*min(x, 0)``."""
        return self.a * np.maximum(x, 0.0) + self.b * np.minimum(x, 0.0)


Model = ArmaModel | LinearProcess | NlarModel | TarModel


# ---------------------------------------------------------------------------
# validity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StationarityCheck:
    """Root-location report for the AR and MA characteristic polynomials."""

    passed: bool
    ar_root_moduli: tuple[float, ...]
    ma_root_moduli: tuple[float, ...]
    detail: str

    @property
    def max_modulus(self) -> float:
        return max(self.ar_root_moduli + self.ma_root_moduli, default=0.0)


def _char_roots(coeffs: Sequence[float], sign: float) -> np.ndarray:
    """Roots of ``z**m + sign*(c1*z**(m-1) + ... + cm)``."""
    if not coeffs:
        return np.empty(0, dtype=complex)
    return np.roots([1.0, *(sign * c for c in coeffs)])


def arma_check_stationary(model: ArmaModel) -> StationarityCheck:
    """Locate all characteristic roots; pass iff every modulus < 1 - margin.

    The characteristic polynomials are ``z**p - a_1 z**(p-1) - ... - a_p``
    for the AR part and ``z**q + b_1 z**(q-1) + ... + b_q`` for the MA
    part; the process is accepted when all their roots lie strictly inside
    the unit circle.  Degree-zero polynomials pass vacuously; roots within
    ``ROOT_MARGIN`` of the circle are reported as failures because their
    side of the boundary is numerically undecidable.
    """
    ar_mod = tuple(sorted(float(m) for m in np.abs(_char_roots(model.ar, -1.0))))
    ma_mod = tuple(sorted(float(m) for m in np.abs(_char_roots(model.ma, +1.0))))
    offenders = []
    for label, mods in (("AR", ar_mod), ("MA", ma_mod)):
        for m in mods:
            if m >= 1.0 - ROOT_MARGIN:
                offenders.append(f"{label} root modulus {m:.12g}")
    if offenders:
        detail = "characteristic roots not strictly inside the unit circle: " + "; ".join(
            offenders
        )
        return StationarityCheck(False, ar_mod, ma_mod, detail)
    return StationarityCheck(True, ar_mod, ma_mod, "all roots strictly inside the unit circle")


def nlar_soft_check(model: NlarModel, lo: float = -50.0, hi: float = 50.0,
                    points: int = 4001, tol: float = 1e-6) -> None:
    """Probe the asserted Lipschitz bound by finite differences on a grid."""
    grid = np.linspace(lo, hi, points)
    vals = np.asarray(model.transition(grid), dtype=float)
    slopes = np.abs(np.diff(vals) / np.diff(grid))
    worst = float(slopes.max())
    if worst > model.lipschitz_bound + tol:
        raise ModelValidityError(
            f"transition map violates the asserted Lipschitz bound: sampled slope "
            f"{worst:.8g} > {model.lipschitz_bound} + {tol}"
        )


def require_valid(model: Model) -> None:
    """Raise ``ModelValidityError`` unless the model is stationary/contractive."""
    if isinstance(model, ArmaModel):
        check = arma_check_stationary(model)
        if not check.passed:
            raise ModelValidityError(check.detail)
    elif isinstance(model, TarModel):
        if model.contraction >= 1.0:
            raise ModelValidityError(
                f"TAR contraction max(|a|, |b|) = {model.contraction} must be < 1"
            )
    elif isinstance(model, NlarModel):
        nlar_soft_check(model)
    elif not isinstance(model, LinearProcess):
        raise TypeError(f"unsupported model type {type(model).__name__}")


def contraction_proxy(model: Model) -> float:
    """Geometric-forgetting rate proxy used for burn-in depth and decay fits.

    For the finite moving average this is the largest consecutive-coefficient
    ratio, which upper-bounds the decay rate of the coefficient tail (and is
    0 for a white-noise process).
    """
    if isinstance(model, ArmaModel):
        return arma_check_stationary(model).max_modulus
    if isinstance(model, TarModel):
        return model.contraction
    if isinstance(model, NlarModel):
        return model.lipschitz_bound
    c = np.abs(np.asarray(model.coeffs, dtype=float))
    nz = c > 0
    if nz.sum() <= 1:
        return 0.0
    ratios = c[1:][nz[1:]] / np.maximum(c[:-1][nz[1:]], np.finfo(float).tiny)
    return float(min(ratios.max(), 1.0 - 1e-12)) if ratios.size else 0.0


def default_burn_in(model: Model) -> int:
    """Burn-in depth that pushes initialization bias below noise level.

    Scales with the geometric forgetting time ``1/(1 - rho)``; the finite
    moving average is simulated exactly and needs no burn-in.
    """
    if isinstance(model, LinearProcess):
        return 0
    rho = contraction_proxy(model)
    return max(1000, 50 * math.ceil(1.0 / (1.0 - rho)))


# ---------------------------------------------------------------------------
# ARMA analytics
# ---------------------------------------------------------------------------


def arma_to_ma_coeffs(model: ArmaModel, truncation: int | None = None) -> np.ndarray:
    """Moving-average representation coefficients of a stationary ARMA model.

    Runs the standard recursion ``beta_j = ma_j + sum_i ar_i * beta_{j-i}``
    with ``beta_0 = 1``.  With ``truncation=None`` the series is extended by
    doubling until the discarded squared tail is below ``1e-12`` of the
    total, so the truncation error sits under any estimator's noise floor.
    """
    require_valid(model)
    p, q = model.p, model.q
    ar = np.asarray(model.ar, dtype=float)

    def extend(beta: np.ndarray, upto: int) -> np.ndarray:
        old = len(beta)
        beta = np.concatenate([beta, np.zeros(upto + 1 - old)])
        for j in range(old, upto + 1):
            val = model.ma[j - 1] if 1 <= j <= q else 0.0
            imax = min(j, p)
            if imax:
                val += float(ar[:imax] @ beta[j - imax : j][::-1])
            beta[j] = val
        return beta

    if truncation is not None:
        if truncation < p + q:
            raise ValueError(f"truncation {truncation} must be at least p + q = {p + q}")
        return extend(np.array([1.0]), truncation)

    k = max(2 * (p + q) + 8, 16)
    beta = extend(np.array([1.0]), k)
    while True:
        total = float(beta @ beta)
        tail = float(beta[k // 2 :] @ beta[k // 2 :])
        if tail <= 1e-12 * total or k > 2_000_000:
            return beta
        k *= 2
        beta = extend(beta, k)


def arma_marginal(model: ArmaModel) -> tuple[float, float]:
    """Exact gaussian marginal ``(mean, variance)`` of a stationary ARMA model.

    The mean solves the intercept fixed point ``mu = intercept + sum(ar)*mu``
    and the variance is the innovation variance times the squared sum of the
    moving-average representation.  Only gaussian noise admits an exact
    marginal; other noise families raise.
    """
    if model.noise.distribution != "gaussian":
        raise ModelValidityError(
            "exact marginal requires gaussian noise; use a fixed-point oracle instead"
        )
    require_valid(model)
    beta = arma_to_ma_coeffs(model)
    return model.mean, model.noise.variance * float(beta @ beta)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def resolve_burn_in(model: Model, burn_in: int | None) -> int:
    """Burn-in a simulation of ``model`` uses: ``burn_in``, else the default.

    The model must be valid, and ``burn_in`` may not be set below
    :func:`default_burn_in`.  The finite moving average is built exactly,
    so its burn-in is always 0.
    """
    require_valid(model)
    floor = default_burn_in(model)
    if burn_in is not None and burn_in < floor:
        raise ValueError(
            f"burn_in {burn_in} is below the model's default {floor}; "
            "shallower burn-in would leave visible initialization bias"
        )
    if isinstance(model, LinearProcess):
        return 0
    return floor if burn_in is None else burn_in


def _draw_rows(model: Model, seeds: Sequence[int], width: int) -> np.ndarray:
    """One row of ``width`` innovations per seed, each from its own stream."""
    draws = np.empty((len(seeds), width))
    for i, s in enumerate(seeds):
        draws[i] = model.noise.sample(make_rng(s), width)
    return draws


def _arma_polys(model: ArmaModel) -> tuple[np.ndarray, np.ndarray]:
    return np.array([1.0, *model.ma]), np.array([1.0, *(-a for a in model.ar)])


def initial_state(model: Model, x0: np.ndarray):
    """Recursion state of an ARMA or Markov model whose rows start at ``x0``.

    Values and innovations before the start are taken at the process mean
    and zero respectively; the result feeds :func:`advance`.
    """
    if isinstance(model, ArmaModel):
        from scipy import signal

        return (x0 - model.mean)[:, None] * signal.lfiltic(*_arma_polys(model), [1.0])
    return x0


def advance(model: Model, state, eps: np.ndarray):
    """Run the recursion over innovations ``eps`` (one row per path).

    Returns ``(values, end_state)``: ``values[:, t]`` is the path at the step
    driven by ``eps[:, t]`` and ``end_state`` continues the recursion.  ARMA
    models filter every row at once; Markov families step all rows in
    lockstep, ``x = transition(x) + eps[:, t]``, writing the values into
    ``eps`` in place.  A one-row ``eps`` steps a 1-d view with a scalar
    state, which is about twice as fast as a ``(1,)`` state.
    """
    if isinstance(model, ArmaModel):
        if not len(eps):
            # lfilter maps its len(a) == 1 route (no AR part) over the rows
            # with apply_along_axis, which refuses zero rows
            return eps + model.mean, state
        from scipy import signal

        values, end = signal.lfilter(*_arma_polys(model), eps, axis=1, zi=state)
        values += model.mean
        return values, end
    r = model.transition
    columns, x = (eps[0], state[0]) if len(eps) == 1 else (eps.T, state)
    for t in range(len(columns)):
        x = r(x) + columns[t]
        columns[t] = x
    return eps, eps[:, -1]


def simulate(model: Model, n: int, burn_in: int | None = None, seed: int = 0) -> np.ndarray:
    """Simulate ``n`` stationary-regime values; deterministic in all arguments.

    The stream layout is one initial noise variate (the starting state)
    followed by the innovations; the first ``burn_in`` trajectory values are
    discarded.  ``burn_in`` defaults to :func:`default_burn_in` and may not
    be set below it.  The finite moving average is constructed exactly from
    an ``n + order`` innovation buffer and ignores burn-in.
    """
    return simulate_batch(model, n, [seed], burn_in)[0]


def simulate_batch(model: Model, n: int, seeds: Sequence[int],
                   burn_in: int | None = None) -> np.ndarray:
    """Row ``i`` is ``simulate(model, n, burn_in, seed=seeds[i])``.

    Each row is drawn from its own stream; ARMA and Markov rows then go
    through one :func:`advance`, and finite moving-average rows are each
    one ``np.convolve``.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    burn_in = resolve_burn_in(model, burn_in)
    if isinstance(model, LinearProcess):
        # output t combines eps[t..t+order], the newest weighted by coeffs[0]
        draws = _draw_rows(model, seeds, n + model.order)
        out = np.empty((len(seeds), n))
        for eps, row in zip(draws, out):
            np.add(model.mean, np.convolve(eps, model.coeffs, mode="valid"), out=row)
        return out
    draws = _draw_rows(model, seeds, burn_in + n)
    values, _ = advance(model, initial_state(model, draws[:, 0]), draws[:, 1:])
    return values[:, burn_in - 1 :]


# ---------------------------------------------------------------------------
# marginal ground truth
# ---------------------------------------------------------------------------


def tar_oracle_grid(model: TarModel, points: int = 2001) -> np.ndarray:
    """Default fixed-point grid: +-8.5 conservative stationary deviations."""
    require_valid(model)
    spread = model.noise.std / math.sqrt(1.0 - model.contraction**2)
    return np.linspace(-8.5 * spread, 8.5 * spread, points)


def tar_marginal_oracle(model: TarModel, grid, max_iterations: int = 500,
                        tol: float = 1e-10) -> np.ndarray:
    """Stationary marginal density of a TAR model by fixed-point iteration.

    Iterates the Markov density map ``f <- integral of noise_pdf(x - r(y)) f(y) dy``
    with trapezoid quadrature on the supplied grid until the sup-norm change
    drops below ``tol``.  The grid must cover at least +-8 conservative
    stationary standard deviations so that truncated tail mass is far below
    the convergence tolerance.
    """
    require_valid(model)
    if model.noise.distribution != "gaussian":
        raise ModelValidityError("the fixed-point marginal oracle requires gaussian noise")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 64 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be a strictly increasing 1-d array with >= 64 points")
    spread = model.noise.std / math.sqrt(1.0 - model.contraction**2)
    if grid[0] > -8.0 * spread or grid[-1] < 8.0 * spread:
        raise ValueError(
            f"grid [{grid[0]:.6g}, {grid[-1]:.6g}] must cover +-{8.0 * spread:.6g}"
        )
    weights = np.empty_like(grid)
    weights[0] = 0.5 * (grid[1] - grid[0])
    weights[-1] = 0.5 * (grid[-1] - grid[-2])
    weights[1:-1] = 0.5 * (grid[2:] - grid[:-2])

    kernel = model.noise.pdf(grid[:, None] - model.transition(grid)[None, :]) * weights[None, :]
    f = model.noise.pdf(grid)
    for _ in range(max_iterations):
        f_next = kernel @ f
        change = float(np.max(np.abs(f_next - f)))
        f = f_next
        if change < tol:
            return f
    raise RuntimeError(
        f"fixed-point iteration did not converge in {max_iterations} iterations; "
        f"last sup-change {change:.3e}"
    )


class MarginalTruth:
    """Ground-truth marginal density bundle for estimation experiments."""

    __slots__ = ("pdf", "cdf", "quantile", "lipschitz")

    def __init__(self, pdf: Callable, cdf: Callable, quantile: Callable, lipschitz: float):
        self.pdf = pdf
        self.cdf = cdf
        self.quantile = quantile
        self.lipschitz = float(lipschitz)

    def support(self, tail_mass: float = 1e-9) -> tuple[float, float]:
        return float(self.quantile(tail_mass)), float(self.quantile(1.0 - tail_mass))


_SQRT_2PI = math.sqrt(2.0 * math.pi)
_NORMAL_PDF_MAX_SLOPE = math.exp(-0.5) / _SQRT_2PI  # max |phi'|, at +-1


def _gaussian_truth(mean: float, variance: float) -> MarginalTruth:
    """Normal marginal with the float operations of ``scipy.stats.norm``.

    ``scipy.special`` gives the same values bit for bit without loading
    ``scipy.stats`` (and with it ``scipy.optimize``), and a scalar call
    costs a few microseconds instead of tens.
    """
    from scipy import special

    sd = math.sqrt(variance)

    def pdf(x):
        z = (np.asarray(x, dtype=float) - mean) / sd
        return np.exp(-z**2 / 2.0) / _SQRT_2PI / sd

    def cdf(x):
        return special.ndtr((np.asarray(x, dtype=float) - mean) / sd)

    def quantile(q):
        return special.ndtri(np.asarray(q, dtype=float)) * sd + mean

    return MarginalTruth(pdf, cdf, quantile, _NORMAL_PDF_MAX_SLOPE / variance)


def marginal_truth(model: Model) -> MarginalTruth:
    """Exact or oracle marginal density for models that admit one.

    Gaussian-driven ARMA and linear processes give the closed-form normal
    marginal; gaussian TAR models go through the fixed-point oracle with
    interpolated density/CDF.  Anything else raises ``ModelValidityError``.
    """
    if isinstance(model, ArmaModel):
        mean, variance = arma_marginal(model)
        return _gaussian_truth(mean, variance)
    if isinstance(model, LinearProcess):
        if model.noise.distribution != "gaussian":
            raise ModelValidityError("marginal truth requires gaussian noise")
        c = np.asarray(model.coeffs)
        return _gaussian_truth(model.mean, model.noise.variance * float(c @ c))
    if isinstance(model, TarModel):
        grid = tar_oracle_grid(model)
        dens = tar_marginal_oracle(model, grid)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        cum /= cum[-1]
        lipschitz = float(np.max(np.abs(np.diff(dens) / np.diff(grid))))

        def pdf(x):
            return np.interp(np.asarray(x, dtype=float), grid, dens, left=0.0, right=0.0)

        def cdf(x):
            return np.interp(np.asarray(x, dtype=float), grid, cum, left=0.0, right=1.0)

        def quantile(q):
            return np.interp(np.asarray(q, dtype=float), cum, grid)

        return MarginalTruth(pdf, cdf, quantile, lipschitz)
    raise ModelValidityError(
        f"{type(model).__name__} has no closed-form or oracle marginal density"
    )


# ---------------------------------------------------------------------------
# JSON model specs
# ---------------------------------------------------------------------------


def _noise_from_spec(obj: dict) -> NoiseSpec:
    dist = obj.get("distribution")
    if dist == "gaussian":
        return NoiseSpec.gaussian(float(obj["sigma"]))
    if dist == "uniform":
        return NoiseSpec.uniform(float(obj["c"]))
    if dist == "laplace":
        return NoiseSpec.laplace(float(obj["scale"]))
    raise ValueError(f"unknown noise distribution {dist!r}")


def _noise_to_spec(noise: NoiseSpec) -> dict:
    key = {"gaussian": "sigma", "uniform": "c", "laplace": "scale"}[noise.distribution]
    return {"distribution": noise.distribution, key: noise.scale}


def model_from_spec(obj: dict) -> Model:
    """Build a model from its JSON object form (see :func:`model_to_spec`)."""
    if not isinstance(obj, dict):
        raise ValueError("model spec must be a JSON object")
    if obj.get("schema") != SPEC_SCHEMA_VERSION:
        raise ValueError(
            f"model spec must declare \"schema\": {SPEC_SCHEMA_VERSION}, "
            f"got {obj.get('schema')!r}"
        )
    family = obj.get("family")
    noise = _noise_from_spec(obj.get("noise", {"distribution": "gaussian", "sigma": 1.0}))
    if family == "arma":
        return ArmaModel(
            ar=tuple(obj.get("ar", ())),
            ma=tuple(obj.get("ma", ())),
            intercept=float(obj.get("a0", 0.0)),
            noise=noise,
        )
    if family == "linear":
        return LinearProcess(
            coeffs=tuple(obj["coeffs"]), mean=float(obj.get("mean", 0.0)), noise=noise
        )
    if family == "nlar_tar":
        return TarModel(a=float(obj["a"]), b=float(obj["b"]), noise=noise)
    raise ValueError(
        f"unknown model family {family!r}; expected one of 'arma', 'linear', 'nlar_tar'"
    )


def model_to_spec(model: Model) -> dict:
    """JSON object form of a model.

    Threshold autoregressions serialize under the ``nlar_tar`` family; a
    general nonlinear autoregression holds an arbitrary callable and is
    library-only.
    """
    if isinstance(model, ArmaModel):
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "family": "arma",
            "a0": model.intercept,
            "ar": list(model.ar),
            "ma": list(model.ma),
            "noise": _noise_to_spec(model.noise),
        }
    if isinstance(model, LinearProcess):
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "family": "linear",
            "mean": model.mean,
            "coeffs": list(model.coeffs),
            "noise": _noise_to_spec(model.noise),
        }
    if isinstance(model, TarModel):
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "family": "nlar_tar",
            "a": model.a,
            "b": model.b,
            "noise": _noise_to_spec(model.noise),
        }
    raise ValueError("nonlinear autoregressions with arbitrary transitions do not serialize")

