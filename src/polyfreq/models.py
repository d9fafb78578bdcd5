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

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
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
    "simulate_rows",
    "nlar_soft_check",
    "tar_marginal_oracle",
    "marginal_truth",
    "model_from_spec",
    "model_to_spec",
    "make_rng",
]

SPEC_SCHEMA_VERSION = 1

#: margin for the unit-circle root test: moduli within this distance of 1
#: are treated as numerically indistinguishable from a unit root.
ROOT_MARGIN = 1e-9

#: iteration cap of the TAR fixed-point oracle
ORACLE_MAX_ITERATIONS = 500

#: largest array, in values (2 GiB of float64), that a simulation or a
#: coupling draws, a Markov batch's padding to whole segments included
MAX_BUFFER_VALUES = 2**28

#: a TAR or NLAR model's default burn-in shrinks a start-state gap to at
#: most ``2**-MARKOV_GAP_BITS`` of its size, in at least
#: ``MIN_MARKOV_BURN_IN`` steps
MARKOV_GAP_BITS = 60
MIN_MARKOV_BURN_IN = 64

#: largest default burn-in of a TAR or NLAR model: a packed batch steps at
#: most five of them one column at a time in Python, a few seconds per
#: 2**20 steps, so a model that mixes more slowly is refused
MAX_MARKOV_BURN_IN = 2**20

#: values per block of columns when a recursion is advanced block by block
_BLOCK_VALUES = 2**20

#: points of the TAR oracle's grid
_ORACLE_POINTS = 8001


class ModelValidityError(ValueError):
    """Model parameters violate stationarity or contraction requirements."""


def _check_seeds(seeds: Sequence[int]) -> None:
    """Refuse any seed that is not an integer key of Philox, in ``[0, 2**128)``.

    A ``bool`` or a float is refused; a key outside the range gets Philox's
    own message.  A ``range`` holds integers, so only its ends are read, and
    its refusal names them.
    """
    ends = isinstance(seeds, range) and seeds
    for seed in (seeds[0], seeds[-1]) if ends else seeds:
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        if not 0 <= seed < 2**128:
            where = f"seeds {seeds[0]}..{seeds[-1]}: " if ends else ""
            raise ValueError(f"{where}key must be positive and less than 2**128.")


def _philox_state(seed: int, state: dict | None = None) -> dict:
    """State of ``np.random.Philox(key=seed)`` before its first draw; see :func:`_check_seeds`.

    Given another seed's ``state``, it re-keys that dict in place: only the
    key changes, so one dict serves a run of seeds.
    """
    state = state or {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0)},
                      "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    state["state"]["key"] = int(seed) & 0xFFFF_FFFF_FFFF_FFFF, int(seed) >> 64
    return state


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one simulation stream.

    Draws the same values as ``Generator(Philox(key=seed))``.  Re-keying
    its bit generator with ``_philox_state`` restarts it on another seed's
    stream.
    """
    _check_seeds([seed])
    bits = np.random.Philox(0)  # a fixed seed: no OS entropy is read
    bits.state = _philox_state(seed)
    return np.random.Generator(bits)


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

_NOISE_FAMILIES = ("gaussian", "uniform", "laplace")


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean i.i.d. innovation distribution.

    ``scale`` is the family's natural parameter: the standard deviation for
    gaussian noise, the half-width ``c`` of ``uniform(-c, c)``, or the
    laplace scale.  The variance and its inverse must both be finite
    positive floats.
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
        try:
            variance = self.variance
        except OverflowError:  # scale**2 past the float range
            variance = math.inf
        if not (0.0 < variance < math.inf and 1.0 / variance < math.inf):
            raise ValueError(f"noise scale {s!r} puts the variance {variance!r} or its "
                             "inverse outside the float range")

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

    def fill(self, rng: np.random.Generator, out: np.ndarray, scaled: bool = True) -> np.ndarray:
        """Draw ``out.size`` innovations into the contiguous float64 array ``out``.

        The values equal ``rng.standard_normal(size) * scale``,
        ``rng.uniform(-c, c, size)`` and ``rng.laplace(0, scale, size)``
        bit for bit; only laplace noise goes through a temporary.  Without
        ``scaled``, gaussian and uniform values are left standard normal and
        in ``[0, 1)``, for :meth:`rescale` to give the same bits later.
        """
        if self.distribution == "gaussian":
            rng.standard_normal(out=out)
        elif self.distribution == "uniform":
            rng.random(out=out)
        else:
            out[...] = rng.laplace(0.0, self.scale, out.size)
        return self.rescale(out) if scaled else out

    def rescale(self, out: np.ndarray) -> np.ndarray:
        """Scale, in place, the values an unscaled :meth:`fill` drew; laplace ones are kept."""
        if self.distribution == "gaussian":
            out *= self.scale
        elif self.distribution == "uniform":
            out *= 2.0 * self.scale
            out += -self.scale
        return out

    def pdf(self, x):
        x, s = np.asarray(x, dtype=float), self.scale
        if self.distribution == "gaussian":
            return np.exp(np.square(x / s) * -0.5) / (s * math.sqrt(2 * math.pi))
        if self.distribution == "uniform":
            return np.where(np.abs(x) <= s, 1.0 / (2.0 * s), 0.0)
        return np.exp(-np.abs(x) / s) / (2.0 * s)


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


def nlar_soft_check(model: NlarModel) -> None:
    """Probe the asserted Lipschitz bound by finite differences, 4001 points on [-50, 50]."""
    tol = 1e-6
    grid = np.linspace(-50.0, 50.0, 4001)
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

    For TAR and NLAR models this is the one-step Lipschitz constant ``rho``
    of the transition map, ``|r(x) - r(y)| <= rho |x - y|``, so a gap
    between two starts shrinks by at least ``rho**k`` in ``k`` steps; it
    sizes their burn-in exactly (see :func:`default_burn_in`).  For ARMA
    models it is the largest characteristic-root modulus, which
    understates the transient of repeated roots.  For the finite moving
    average it is the largest consecutive-coefficient ratio, which
    upper-bounds the decay rate of the coefficient tail (and is 0 for a
    white-noise process).
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

    TAR and NLAR models contract a start-state gap by their Lipschitz
    constant ``rho`` (:func:`contraction_proxy`) at every step, so their
    burn-in is the first ``k`` with ``rho**k <= 2**-60``,
    ``ceil(log(2**-60) / log(rho))``, and at least
    ``MIN_MARKOV_BURN_IN`` (also for ``rho = 0``).  ARMA models keep
    ``max(1000, 50 * ceil(1/(1 - rho)))``: ``rho**k`` understates the
    transient of repeated roots, which needs a rule on the tail of the
    moving-average coefficients.  The finite moving average is simulated
    exactly and needs no burn-in.
    """
    if isinstance(model, LinearProcess):
        return 0
    rho = contraction_proxy(model)
    if isinstance(model, ArmaModel):
        return max(1000, 50 * math.ceil(1.0 / (1.0 - rho)))
    if rho == 0.0:
        return MIN_MARKOV_BURN_IN
    return max(MIN_MARKOV_BURN_IN, math.ceil(-MARKOV_GAP_BITS / math.log2(rho)))


# ---------------------------------------------------------------------------
# ARMA analytics
# ---------------------------------------------------------------------------


def arma_to_ma_coeffs(model: ArmaModel) -> np.ndarray:
    """Moving-average representation coefficients of a stationary ARMA model.

    Runs the standard recursion ``beta_j = ma_j + sum_i ar_i * beta_{j-i}``
    with ``beta_0 = 1``.  The series is extended by doubling until the
    discarded squared tail is below ``1e-12`` of the total, so the
    truncation error sits under any estimator's noise floor.
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


def _count(value, name: str, least: int = 0) -> int:
    """``value`` as an ``int``, if it is an integer from ``least`` to ``MAX_BUFFER_VALUES``.

    Python and numpy integers pass; a ``bool`` or a float with an integer
    value does not.  Every count here sizes an array of at least as many
    values, so one past the cap is refused before numpy sees it.  The
    ``ValueError`` names ``name``.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            least, f"an integer of at least {least}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if value > MAX_BUFFER_VALUES:
        raise ValueError(f"{name}: {value} values, above the limit of {MAX_BUFFER_VALUES}")
    return int(value)


def resolve_burn_in(model: Model, burn_in: int | None) -> int:
    """Burn-in a simulation of ``model`` uses: ``burn_in``, else the default.

    The model must be valid, and ``burn_in`` must be a nonnegative integer
    (``bool`` is refused) no smaller than :func:`default_burn_in` and no
    larger than ``MAX_BUFFER_VALUES``.  A TAR or NLAR model whose default
    exceeds ``MAX_MARKOV_BURN_IN`` is refused with a
    ``ModelValidityError`` naming ``rho`` and the default, whatever
    ``burn_in`` is.  The finite moving average is built exactly, so its
    burn-in is always 0.
    """
    if burn_in is not None:
        burn_in = _count(burn_in, "burn_in")
    require_valid(model)
    floor = default_burn_in(model)
    if floor > MAX_MARKOV_BURN_IN and isinstance(model, (TarModel, NlarModel)):
        raise ModelValidityError(
            f"contraction rho = {contraction_proxy(model)} mixes too slowly: its default "
            f"burn-in of {floor} steps is above the limit of {MAX_MARKOV_BURN_IN}")
    if burn_in is not None and burn_in < floor:
        raise ValueError(
            f"burn_in {burn_in} is below the model's default {floor}; "
            "shallower burn-in would leave visible initialization bias"
        )
    if isinstance(model, LinearProcess):
        return 0
    return floor if burn_in is None else burn_in


def _draw_rows(model: Model, seeds: Sequence[int], width: int,
               total: int | None = None) -> np.ndarray:
    """One row of ``width`` innovations per seed, each from its own stream.

    With ``total``, the rows lie end to end at the start of one zeroed run of
    ``total`` values, which is returned flat, and the columns past them stay
    0.0.  One generator is re-keyed per seed (only the key of one state dict
    changes), which gives the values of a fresh ``make_rng(seed)`` without
    building one; the unscaled values are drawn seed by seed on the calling
    thread and scaled in one pass.  An array of more than
    ``MAX_BUFFER_VALUES`` values, then any seed that is not a Philox key, is
    refused before the array is allocated.
    """
    rows = len(seeds)
    _count(rows * width if total is None else total, f"a batch of {rows} x {width} draws")
    _check_seeds(seeds)
    flat = np.empty(rows * width) if total is None else np.zeros(total)
    draws = flat[:rows * width].reshape(rows, width)
    rng, state = make_rng(0), _philox_state(0)
    for row, seed in zip(draws, seeds):
        rng.bit_generator.state = _philox_state(seed, state)
        model.noise.fill(rng, row, False)  # unscaled
    model.noise.rescale(draws)
    return draws if total is None else flat


def _arma_polys(model: ArmaModel) -> tuple[np.ndarray, np.ndarray]:
    """The filter ``(b, a)`` of ``model``, zero-padded to one length of at least 2.

    ``lfilter`` then runs its compiled recursion, whose state carries
    exactly from one call to the next, also without an AR part, where
    ``len(a) == 1`` would send it to ``np.convolve`` row by row.
    """
    b, a = np.array([1.0, *model.ma]), np.array([1.0, *(-c for c in model.ar)])
    m = max(len(b), len(a), 2)
    return np.pad(b, (0, m - len(b))), np.pad(a, (0, m - len(a)))


def initial_state(model: Model, x0: np.ndarray):
    """Recursion state of an ARMA or Markov model whose rows start at ``x0``.

    Values and innovations before the start are taken at the process mean
    and zero respectively; the result feeds :func:`advance`.
    """
    if isinstance(model, ArmaModel):
        # lfiltic(b, a, [1.0]) in closed form; 0.0 - a, not -a, gives its +0.0 where a is zero
        return (x0 - model.mean)[:, None] * (0.0 - _arma_polys(model)[1][1:])
    return x0


_SIGTOOLS = "scipy.signal._sigtools"
_sigtools_lock = threading.Lock()


def _load_sigtools():
    """scipy's extension ``scipy/signal/_sigtools``, loaded from its file; None if it is missing.

    Loading the file skips ``scipy.signal``'s ``__init__``, about a second
    and 70 MB of imports.  The module is registered under its own name, so a
    later ``import scipy.signal`` uses it.
    """
    scipy = importlib.util.find_spec("scipy")
    paths = [os.path.join(d, "signal", "_sigtools" + suffix)
             for d in (scipy.submodule_search_locations if scipy else ())
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    for path in filter(os.path.isfile, paths):
        spec = importlib.util.spec_from_file_location(_SIGTOOLS, path)
        module = sys.modules[_SIGTOOLS] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module


def _arma_filter(b: np.ndarray, a: np.ndarray, eps: np.ndarray, zi: np.ndarray):
    """``scipy.signal.lfilter(b, a, eps, axis=1, zi=zi)``, bit for bit, without importing it.

    For ``len(a) >= 2`` (see :func:`_arma_polys`) ``lfilter`` is this one
    call into its compiled recursion, which releases the GIL.  The extension
    is loaded on first use, once: polyfreq filters on the calling thread,
    but a library caller's own threads may make that first use together,
    and the lock holds back all but one of them.  If its file is missing,
    or the call fails with ``AttributeError`` or ``TypeError`` (it is
    private to scipy and may change), ``lfilter`` runs.
    """
    with _sigtools_lock:
        sigtools = sys.modules.get(_SIGTOOLS) or _load_sigtools()
    try:
        return sigtools._linear_filter(b, a, eps, 1, zi)
    except (AttributeError, TypeError):  # no file (None), or scipy changed the call
        import scipy.signal

        return scipy.signal.lfilter(b, a, eps, axis=1, zi=zi)


def advance(model: Model, state, eps: np.ndarray):
    """Run the recursion over innovations ``eps`` (one row per path).

    Returns ``(values, end_state)``: ``values[:, t]`` is the path at the step
    driven by ``eps[:, t]`` and ``end_state`` continues the recursion: two
    calls over a row's columns give the values of one call, bit for bit.
    ARMA models filter every row at once on ``lfilter``'s compiled
    recursion, with or without an AR part (see :func:`_arma_filter`); Markov
    families step all rows in lockstep, ``x = transition(x) + eps[:, t]``,
    writing the values into ``eps`` in place.  Zero columns return no values
    and ``state`` as given.
    """
    if not eps.shape[1]:
        # the compiled filter returns an uninitialised end state here
        return eps, state
    if isinstance(model, ArmaModel):
        values, end = _arma_filter(*_arma_polys(model), eps, state)
        values += model.mean
        return values, end
    _markov_steps(model, state, eps, write=True)
    return eps, eps[:, -1]


def _markov_steps(model: Model, state, eps: np.ndarray, write: bool):
    """Step ``x = transition(x) + eps[:, t]`` over the columns of ``eps``; returns the last ``x``.

    With ``write`` each step's values are written into its column of ``eps``.
    """
    r = model.transition
    columns, x = eps.T, state
    for t in range(len(columns)):
        x = r(x) + columns[t]
        if write:
            columns[t] = x
    return x


def _advance_blocks(model: Model, state, eps: np.ndarray, keep: bool = True):
    """:func:`advance` over ``eps`` a block of columns at a time; returns the end state.

    With ``keep``, the values are written back into ``eps``.  A Markov
    family steps over ``eps`` in one pass, read-only without ``keep``,
    because writing each step's values into a column of a row-major ``eps``
    costs a strided store per value.  An ARMA block holds about
    ``_BLOCK_VALUES`` values, so the filter's output exists one block at a
    time rather than beside a second array the size of ``eps``, with or
    without an AR part.  The state is carried from block to block: the same
    operations in the same order as one call.
    """
    if not isinstance(model, ArmaModel):
        return _markov_steps(model, state, eps, write=keep)
    step = max(1, _BLOCK_VALUES // max(1, len(eps)))
    for start in range(0, eps.shape[1], step):
        block = eps[:, start:start + step]
        values, state = advance(model, state, block)
        if keep:
            block[...] = values
    return state


def simulate(model: Model, n: int, burn_in: int | None = None, seed: int = 0) -> np.ndarray:
    """Simulate ``n`` stationary-regime values; deterministic in all arguments.

    The stream layout is one initial noise variate (the starting state)
    followed by the innovations; the first ``burn_in`` trajectory values are
    discarded.  ``burn_in`` defaults to :func:`default_burn_in` and may not
    be set below it.  The finite moving average is constructed exactly from
    an ``n + order`` innovation buffer and ignores burn-in.
    """
    return simulate_rows(model, n, [seed], burn_in)[0]


def simulate_rows(model: Model, n: int, seeds: Sequence[int],
                  burn_in: int | None = None) -> np.ndarray:
    """A ``(len(seeds), n)`` array whose row ``i`` is ``simulate(model, n, burn_in, seeds[i])``.

    Each row is drawn from its own stream, and every row is drawn and
    stepped on the calling thread.  ARMA rows are filtered together (block
    by block, see :func:`_advance_blocks`) and finite moving-average rows
    one ``np.convolve`` per row.  Markov rows are packed end to end into one
    run of draws, cut into segments of ``4 * default_burn_in(model)``
    columns (at most one row's ``burn_in + n``), and the segments are
    stepped together: the Python loop runs ``default_burn_in(model)``
    warm-up steps and one segment's width, at most five warm-ups in all
    whatever ``n`` is, and checks that every segment joins its predecessor
    bit for bit, so the rows equal sequential runs (see
    :func:`_simulate_packed`).  Each row is a contiguous view into the
    array of draws that holds it.  An ``n`` or a burn-in past
    ``MAX_BUFFER_VALUES``, a model too slow to burn in (see
    :func:`resolve_burn_in`), a seed that is not a Philox key, and an array
    of draws past the cap (see :func:`_check_batch`), are refused
    before anything is drawn.
    """
    n = _count(n, "n", 1)
    _check_seeds(seeds)
    burn_in = resolve_burn_in(model, burn_in)
    _check_batch(model, n, len(seeds), burn_in)
    if not len(seeds):
        return np.empty((0, n))
    if isinstance(model, LinearProcess):
        # output t combines eps[t..t+order], the newest weighted by coeffs[0]
        draws = _draw_rows(model, seeds, n + model.order)
        values = np.empty((len(seeds), n))
        for eps, row in zip(draws, values):
            np.add(model.mean, np.convolve(eps, model.coeffs, mode="valid"), out=row)
        return values
    if isinstance(model, ArmaModel):
        # the path overwrites its own draws: column 0 is the starting state and
        # columns 1..burn_in - 1 are discarded
        draws = _draw_rows(model, seeds, burn_in + n)
        _advance_blocks(model, initial_state(model, draws[:, 0]), draws[:, 1:])
        return draws[:, burn_in:]
    return _simulate_packed(model, n, seeds, burn_in)


def _segments(model: Model, length: int, rows: int) -> tuple[int, int]:
    """Width and count of the segments a packed Markov batch is cut into.

    The batch holds ``rows`` rows of ``length`` columns end to end.  A
    segment is four warm-ups wide, ``4 * default_burn_in(model)`` columns,
    so the warm-up steps are a fifth of the stepped columns, but no wider
    than a row: rows that each fit one segment step no more columns than
    one of them.  The last segment is padded to the full width, which adds
    less than one segment to the batch.
    """
    width = min(4 * default_burn_in(model), length)
    return width, -(-rows * length // width)


def _check_batch(model: Model, n: int, rows: int, burn_in: int) -> None:
    """Refuse the draws of ``rows`` paths of ``n`` values past ``MAX_BUFFER_VALUES`` values.

    A moving-average row draws its order more values than ``n``, an ARMA or
    Markov row its resolved ``burn_in``, and a Markov batch is padded to
    whole segments of :func:`_segments`.
    """
    if isinstance(model, LinearProcess):
        total = rows * (n + model.order)
    elif isinstance(model, ArmaModel):
        total = rows * (burn_in + n)
    else:
        total = math.prod(_segments(model, burn_in + n, rows))
    _count(total, f"a batch of {rows} paths of n={n}")


def _step_restarting(model: Model, state, block: np.ndarray, rows: np.ndarray,
                     cols: np.ndarray, write: bool) -> np.ndarray:
    """:func:`_markov_steps` over ``block`` from ``state``; returns the end state.

    A path starts at each ``block[rows[k], cols[k]]``: that draw is the
    path's value there, whatever the state before it.
    """
    column = 0
    for c in np.unique(cols).tolist():
        at = rows[cols == c]
        x0 = block[at, c]
        state = _markov_steps(model, state, block[:, column:c + 1], write)
        state[at] = x0
        if write:
            block[at, c] = x0
        column = c + 1
    return _markov_steps(model, state, block[:, column:], write)


def _stream_at(model: Model, seed: int, skip: int) -> np.random.Generator:
    """A generator on ``seed``'s stream with its first ``skip`` innovations drawn.

    They are drawn a segment's width at a time into a scratch array (``skip``
    is positive); the stream is counter-based, so the values after them are
    the ones drawn before.
    """
    rng = make_rng(seed)
    scratch = np.empty(_segments(model, skip, 1)[0])
    while skip:
        skip -= len(model.noise.fill(rng, scratch[:min(skip, len(scratch))]))
    return rng


def _simulate_packed(model: Model, n: int, seeds: Sequence[int], burn_in: int) -> np.ndarray:
    """Markov rows of ``burn_in + n`` draws packed end to end and stepped in segments.

    The rows are the ``(len(seeds), burn_in + n)`` matrix read flat, at the
    start of one run of draws padded to whole segments of ``width``
    columns: the rows of one ``(segments, width)`` array.  All segments step
    together, ``width`` steps in all.  A segment that starts where a row
    starts takes the row's first draw as its value; one that starts mid-row
    starts from a warm-up: ``default_burn_in(model)`` steps from 0 over the
    innovations just before it, which the stable map makes forget its
    start.  The join check makes this exact: the warm-up's last value must
    equal its predecessor's final value bit for bit, and from there the
    segment has the state, innovations and operations of a sequential run.
    A segment whose join fails is stepped again from the exact state before
    it, on innovations re-drawn from its row's seed, and so is each next
    segment of the row while its join fails against the new values.
    """
    length = burn_in + n
    width, segments = _segments(model, length, len(seeds))
    flat = _draw_rows(model, seeds, length, segments * width)
    draws = flat.reshape(segments, width)
    first_seg, first_col = np.divmod(np.arange(len(seeds)) * length, width)
    # a segment whose first column continues a row
    mid = np.ones(segments, dtype=bool)
    mid[first_seg[first_col == 0]] = False
    state = np.zeros(segments)
    if mid.any():
        # every segment's warm-up over the last columns of the one before it,
        # read-only before they are overwritten; a row starting there
        # restarts the warm-up
        warm = default_burn_in(model)
        inside = (first_col >= width - warm) & (first_seg < segments - 1)
        state[1:] = _step_restarting(model, state[1:], draws[:-1, width - warm:],
                                     first_seg[inside], first_col[inside] - (width - warm),
                                     write=False)
    _step_restarting(model, state, draws, first_seg, first_col, write=True)
    failed = np.flatnonzero(mid[1:] & (state[1:] != draws[:-1, -1])) + 1
    stepped = 0  # segments before it were stepped again
    for j in failed.tolist():
        if j < stepped:
            continue
        i, skip = divmod(j * width, length)
        row_stop = (i + 1) * length
        rng = _stream_at(model, seeds[i], skip)
        while True:
            a, b = j * width, min((j + 1) * width, row_stop)
            model.noise.fill(rng, flat[a:b])
            _markov_steps(model, flat[a - 1:a], flat[None, a:b], write=True)
            j += 1
            if b == row_stop or state[j] == flat[b - 1]:
                break
        stepped = j
    return flat[:len(seeds) * length].reshape(len(seeds), length)[:, burn_in:]


# ---------------------------------------------------------------------------
# marginal ground truth
# ---------------------------------------------------------------------------


def tar_marginal_oracle(model: TarModel) -> tuple[np.ndarray, np.ndarray]:
    """Stationary marginal density of a TAR model by fixed-point iteration.

    Returns ``(grid, density)``.  The grid holds ``_ORACLE_POINTS`` (8001)
    points over +-8.5 conservative stationary standard deviations
    ``std / sqrt(1 - rho**2)``, so truncated tail mass is far below the
    convergence tolerance.  A round is the trapezoid rule for the Markov
    density map ``f <- integral of noise_pdf(x - r(y)) f(y) dy``, with the
    noise density at ``x - r(y)`` taken from the cubic spline through its
    values at the grid spacing (accurate to O(h**4)), in two steps.  First
    each node's trapezoid mass is pushed forward to ``r(y)`` and spread
    over the four nodes around it by cubic B-spline weights, fixed once per
    call: a zero or tiny slope puts its half line's mass at the node 0.
    Then the binned masses are convolved with the spline's
    coefficients by one real FFT of the least power-of-two length at or
    above ``2 * points - 1``, against a stencil transformed once (the
    binned FFT kernel estimators of Silverman 1982 and Wand 1994).
    Roundoff negatives are clipped to 0 and every round is renormalised to
    unit trapezoid mass.  The iteration stops when the sup-norm change,
    times the noise's standard deviation, drops below ``1e-10`` (the
    density scales as ``1/std``, so the test is relative to its scale),
    within ``ORACLE_MAX_ITERATIONS`` rounds; a model that has not settled by
    then (one that mixes too slowly, such as TAR(0, 0.99)) is refused with a
    ``ModelValidityError`` naming the cap and the last change.  It runs on
    the calling thread and calls no BLAS routine, and nothing is cached.
    """
    require_valid(model)
    if model.noise.distribution != "gaussian":
        raise ModelValidityError("the fixed-point marginal oracle requires gaussian noise")
    spread = model.noise.std / math.sqrt(1.0 - model.contraction**2)
    points, mid = _ORACLE_POINTS, _ORACLE_POINTS // 2
    grid = np.linspace(-8.5 * spread, 8.5 * spread, points)
    step = 17.0 * spread / (points - 1)
    weights = np.full(points, step)
    weights[[0, -1]] = 0.5 * step

    # node mid + k maps to mid + slope * k in index units, u past the node
    # lo; taps past the grid's ends carry only tail roundoff and fold onto
    # the end nodes
    k = np.arange(points) - mid
    image = mid + np.where(k > 0, model.a, model.b) * k
    lo = np.floor(image)
    u, v = image - lo, 1.0 - (image - lo)
    taps = np.clip(lo.astype(np.intp) + np.arange(-1, 3)[:, None], 0, points - 1).ravel()
    tap_weights = np.stack([v**3, 4.0 - 3.0 * u * u * (1.0 + v), 4.0 - 3.0 * v * v * (1.0 + u),
                            u**3]) * (weights / 6.0)

    # the circular convolution wraps round only terms below pdf(17 spreads);
    # the spline's coefficients c solve (c[j-1] + 4 c[j] + c[j+1]) / 6 = pdf(j h)
    size = 1 << (2 * points - 2).bit_length()
    j = np.arange(size)
    stencil = np.fft.rfft(model.noise.pdf(step * np.minimum(j, size - j)))
    stencil *= 3.0 / (2.0 + np.cos(2.0 * np.pi / size * j[:stencil.size]))

    # the rounds share buffers; two outputs alternate, so the last density stays readable
    f = model.noise.pdf(grid)
    mass, spectrum = np.empty_like(tap_weights), np.empty_like(stencil)
    outputs = np.empty((2, size))
    for i in range(ORACLE_MAX_ITERATIONS):
        binned = np.bincount(taps, np.multiply(tap_weights, f, out=mass).ravel(), minlength=points)
        np.fft.rfft(binned, size, out=spectrum)
        f_next = np.fft.irfft(np.multiply(spectrum, stencil, out=spectrum), size,
                              out=outputs[i % 2])[:points]
        np.maximum(f_next, 0.0, out=f_next)
        f_next /= np.einsum("i,i", weights, f_next)
        change = float(np.max(np.abs(f_next - f)))
        f = f_next
        if change * model.noise.std < 1e-10:
            return grid, f
    raise ModelValidityError(
        f"fixed-point iteration did not converge in {ORACLE_MAX_ITERATIONS} iterations; "
        f"last sup-change {change:.3e}"
    )


@dataclass(eq=False, slots=True)
class MarginalTruth:
    """Ground-truth marginal density bundle for estimation experiments.

    ``lipschitz`` is a float bound on the density's slope.
    ``window_peaks(b)`` returns points ``v`` among which the window mass
    ``cdf(v + b) - cdf(v)`` takes its largest value, exactly: the anchors
    of the truth's heaviest width-``b`` windows in ``modulus_exact``.
    """

    pdf: Callable
    cdf: Callable
    quantile: Callable
    lipschitz: float
    window_peaks: Callable

    def support(self) -> tuple[float, float]:
        """Quantiles that leave a tail mass of 1e-9 outside each end."""
        return float(self.quantile(1e-9)), float(self.quantile(1.0 - 1e-9))


_SQRT_2PI = math.sqrt(2.0 * math.pi)
_NORMAL_PDF_MAX_SLOPE = math.exp(-0.5) / _SQRT_2PI  # max |phi'|, at +-1


def _gaussian_truth(mean: float, variance: float) -> MarginalTruth:
    """Normal marginal with the float operations of ``scipy.stats.norm``.

    ``scipy.special`` gives the same values bit for bit without loading
    ``scipy.stats`` (and with it ``scipy.optimize``), and a scalar call
    costs a few microseconds instead of tens.
    """
    from scipy import special

    if variance == 0.0:
        raise ModelValidityError("marginal truth requires a positive variance, got 0: the "
                                 "process is constant")
    sd = math.sqrt(variance)

    def pdf(x):
        z = (np.asarray(x, dtype=float) - mean) / sd
        return np.exp(-z**2 / 2.0) / _SQRT_2PI / sd

    def cdf(x):
        return special.ndtr((np.asarray(x, dtype=float) - mean) / sd)

    def quantile(q):
        return special.ndtri(np.asarray(q, dtype=float)) * sd + mean

    def window_peaks(b):
        # a symmetric unimodal density holds the most mass centred on its mode
        return np.array([mean - b / 2])

    return MarginalTruth(pdf, cdf, quantile, _NORMAL_PDF_MAX_SLOPE / variance, window_peaks)


def marginal_truth(model: Model) -> MarginalTruth:
    """Exact or oracle marginal density for models that admit one.

    Gaussian-driven ARMA and linear processes give the closed-form normal
    marginal; gaussian TAR models go through the fixed-point oracle with
    interpolated density/CDF.  Anything else, and a constant linear process
    (zero variance), raises ``ModelValidityError``.
    """
    if isinstance(model, ArmaModel):
        mean, variance = arma_marginal(model)
        return _gaussian_truth(mean, variance)
    if isinstance(model, LinearProcess):
        if model.noise.distribution != "gaussian":
            raise ModelValidityError("marginal truth requires gaussian noise")
        c = np.asarray(model.coeffs)
        with np.errstate(over="ignore"):  # past the float range: an infinite support, refused
            variance = model.noise.variance * float(c @ c)
        return _gaussian_truth(model.mean, variance)
    if isinstance(model, TarModel):
        grid, dens = tar_marginal_oracle(model)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        cum /= cum[-1]
        lipschitz = float(np.max(np.abs(np.diff(dens) / np.diff(grid))))

        def pdf(x):
            return np.interp(np.asarray(x, dtype=float), grid, dens, left=0.0, right=0.0)

        def cdf(x):
            return np.interp(np.asarray(x, dtype=float), grid, cum, left=0.0, right=1.0)

        def quantile(q):
            return np.interp(np.asarray(q, dtype=float), cum, grid)

        def window_peaks(b):
            # cdf is linear between grid points, so the window mass is linear
            # between its kinks v = g and v = g - b, where its maxima lie
            return np.union1d(grid, grid - b)

        return MarginalTruth(pdf, cdf, quantile, lipschitz, window_peaks)
    raise ModelValidityError(
        f"{type(model).__name__} has no closed-form or oracle marginal density"
    )


# ---------------------------------------------------------------------------
# JSON model specs
# ---------------------------------------------------------------------------


#: the JSON field that holds each noise family's scale
_NOISE_SCALE_FIELDS = {"gaussian": "sigma", "uniform": "c", "laplace": "scale"}

#: most coefficients a spec may give for an ARMA part or a linear process:
#: the stationarity check's ``np.roots`` takes O(p**2) memory and O(p**3)
#: time (about 2 s at order 1000), and the moving average's ``np.convolve``
#: costs O(n * order) for a path of n values
MAX_SPEC_ORDER = 1000


def _spec_field(obj: dict, field: str):
    """``obj[field]``; a missing field is refused with ``ValueError`` naming it."""
    if field not in obj:
        raise ValueError(f"missing field \"{field}\"")
    return obj[field]


def _spec_coeffs(field: str, value) -> tuple:
    """A spec's coefficient list as a tuple, refused past ``MAX_SPEC_ORDER`` entries."""
    coeffs = tuple(value)
    if len(coeffs) > MAX_SPEC_ORDER:
        raise ValueError(f"\"{field}\" holds {len(coeffs)} coefficients, above the limit of "
                         f"{MAX_SPEC_ORDER}")
    return coeffs


def _noise_from_spec(obj: dict) -> NoiseSpec:
    if not isinstance(obj, dict):
        raise ValueError(f"\"noise\" must be a JSON object, got {obj!r}")
    dist = obj.get("distribution")
    if dist not in _NOISE_FAMILIES:
        raise ValueError(f"unknown noise distribution {dist!r}")
    field = _NOISE_SCALE_FIELDS[dist]
    scale = _spec_field(obj, field)
    try:
        return NoiseSpec(dist, float(scale))
    except ValueError as exc:
        raise ValueError(f"noise \"{field}\": {exc}") from exc


def _noise_to_spec(noise: NoiseSpec) -> dict:
    return {"distribution": noise.distribution,
            _NOISE_SCALE_FIELDS[noise.distribution]: noise.scale}


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
        ar, ma = _spec_coeffs("ar", obj.get("ar", ())), _spec_coeffs("ma", obj.get("ma", ()))
        return ArmaModel(ar=ar, ma=ma, intercept=float(obj.get("a0", 0.0)), noise=noise)
    if family == "linear":
        return LinearProcess(coeffs=_spec_coeffs("coeffs", _spec_field(obj, "coeffs")),
                             mean=float(obj.get("mean", 0.0)), noise=noise)
    if family == "nlar_tar":
        a, b = (float(_spec_field(obj, field)) for field in ("a", "b"))
        return TarModel(a=a, b=b, noise=noise)
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

