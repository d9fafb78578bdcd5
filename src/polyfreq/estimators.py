"""Sparse-histogram and frequency polygon density estimators.

All estimators share one bin geometry: for bin width ``b`` the real line is
cut into half-open cells ``(z*b, (z+1)*b]`` anchored at zero, so a point
sitting exactly on a bin edge belongs to the cell below it.  This strict
lower-edge convention is what keeps the two frequency polygon evaluation
routes (:func:`fp_eval`, built from shift operators acting on the empirical
CDF, and :func:`fp_eval_classic`, the textbook midpoint interpolation) in
agreement everywhere, including exactly on bin edges and midpoints.

Histograms are stored sparsely as a sorted pair of int64 arrays (occupied
bin indices and their counts), so evaluation cost depends on the number of
occupied bins and never on the sample size: each density query touches the
two cells adjacent to the query point and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "BinningScheme",
    "SparseHistogram",
    "EmpiricalCdf",
    "build_histogram",
    "merge_histograms",
    "histogram_eval",
    "cdf_bin_density",
    "interp_weight",
    "fp_eval",
    "fp_eval_classic",
    "stone_bandwidth",
    "kde_eval_naive",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _as_finite_array(x, name: str = "x") -> tuple[np.ndarray, bool]:
    """Coerce to a float array, rejecting non-finite entries."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class BinningScheme:
    """Uniform bin geometry: a positive width with the grid anchored at 0.

    Bin ``z`` is the half-open interval ``(z*b, (z+1)*b]``.  Bin membership
    is resolved against the floating-point products ``z*b``, with an explicit
    one-ulp correction after the ``ceil(x/b)`` index guess, so the strict
    lower-edge rule is bit-reproducible even when ``x/b`` rounds onto an
    integer.
    """

    bin_width: float

    def __post_init__(self) -> None:
        w = self.bin_width
        if not isinstance(w, (int, float)) or isinstance(w, bool):
            raise ValueError(f"bin_width must be a real number, got {w!r}")
        w = float(w)
        if not (math.isfinite(w) and w > 0.0):
            raise ValueError(f"bin_width must be positive and finite, got {w!r}")
        object.__setattr__(self, "bin_width", w)

    def _index_domain(self, x) -> tuple[np.ndarray, bool]:
        """Finite ``x`` as an array, refused unless ``|x/b| < 2**52``.

        Past ``2**52`` the floats of ``x/b`` are too coarse for the one-ulp
        cell corrections (at ``2**53``, ``z + 1 == z``), and the int64 cast
        of a bin index can overflow.
        """
        arr, scalar = _as_finite_array(x)
        exact = np.abs(arr) < 2.0**52 * self.bin_width  # exact product, or inf
        if not exact.all():
            raise ValueError(
                f"|x / b| must be below 2**52 to index bins exactly; got x = "
                f"{float(arr[~exact].flat[0])!r} with bin width {self.bin_width!r}"
            )
        return arr, scalar

    def bin_index(self, x):
        """Index ``z`` of the bin ``(z*b, (z+1)*b]`` containing ``x``.

        Raises ``ValueError`` unless ``|x/b| < 2**52``.
        """
        arr, scalar = self._index_domain(x)
        b = self.bin_width
        z = np.ceil(arr / b) - 1.0
        # x/b can land within an ulp of an integer; re-check against the
        # actual float bin edges so that z*b < x <= (z+1)*b always holds.
        # Near the float maximum an edge can round to +-inf; that is the
        # right edge, because a product that rounds to inf exceeds every
        # finite x in exact arithmetic too, so the overflow is not reported.
        with np.errstate(over="ignore"):
            z = np.where(arr <= z * b, z - 1.0, z)
            z = np.where(arr > (z + 1.0) * b, z + 1.0, z)
        out = z.astype(np.int64)
        return int(out[()]) if scalar else out

    def bin_origin(self, x):
        """Greatest integer multiple of the bin width strictly below ``x``."""
        arr, scalar = _as_finite_array(x)
        # below -max float the origin rounds to -inf, as the scalar product does
        with np.errstate(over="ignore"):
            out = self.bin_index(arr) * self.bin_width
        return float(out) if scalar else out

    def half_grid_index(self, x):
        """Integer ``k`` with ``k*b - b/2 < x <= k*b + b/2``, exactly.

        This locates the midpoint-to-midpoint cell used by the frequency
        polygon.  The cell edges are the odd multiples ``m*(b/2)``; they are
        compared with ``x`` in exact arithmetic, because the rounded edges
        of neighbouring cells need not coincide (for ``b = 1/3`` in floating
        point, ``7*b + b/2`` rounds below ``2.5`` and ``8*b - b/2`` rounds
        onto it), which would leave ``x = 2.5`` in neither cell.  Raises
        ``ValueError`` unless ``|x/b| < 2**52``.
        """
        arr, scalar = self._index_domain(x)
        b = self.bin_width
        flat = arr.reshape(-1)
        t = flat / b - 0.5
        k = np.ceil(t)
        # ceil(t) is the exact index unless t lies within its rounding error
        # of an integer n: x then sits next to the edge (2n+1)*(b/2) between
        # cells n and n+1, and the side is settled in exact arithmetic
        n = np.rint(t)
        near = np.abs(t - n) <= 2.0**-51 * (np.abs(t) + 1.0)
        if near.any():
            n = n[near]
            # compare in units of b/2 = frac * 2**(e - 1): scaling by a power
            # of two is exact, and with frac in [0.5, 1) Dekker's product can
            # neither overflow nor underflow, as it can for b/2 itself near
            # either end of the float range
            frac, e = math.frexp(b)
            k[near] = n + _exceeds_product(np.ldexp(flat[near], 1 - e), 2.0 * n + 1.0, frac)
        k = k.reshape(arr.shape)
        return float(k[()]) if scalar else k


_SPLITTER = 134217729.0  # 2**27 + 1, Dekker's splitting constant


def _split(a):
    """Split ``a`` into ``hi + lo`` with 26-bit halves, exactly."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _exceeds_product(x, m, h):
    """Exact ``x > m*h`` for floats, without forming the product exactly.

    Dekker's error-free product gives ``m*h = p + err`` with ``p`` the
    rounded product.  Where ``x`` is within a factor of two of ``p`` the
    difference ``x - p`` is exact (Sterbenz); elsewhere it is far larger
    than ``|err|``, so its rounding cannot flip the comparison.
    """
    p = m * h
    m_hi, m_lo = _split(m)
    h_hi, h_lo = _split(h)
    err = m_lo * h_lo - (((p - m_hi * h_hi) - m_lo * h_hi) - m_hi * h_lo)
    return x - p > err


class SparseHistogram:
    """Immutable histogram: occupied bin indices, their counts, the sample size.

    ``keys`` (strictly increasing bin indices) and ``values`` (their counts,
    each at least 1, summing to ``n``) are read-only int64 arrays.  Only
    nonzero bins are stored, which makes the number of occupied bins
    (``occupied``) the cost driver for evaluation and serialization rather
    than the data range or the sample size.
    """

    __slots__ = ("scheme", "n", "keys", "values")

    def __init__(self, scheme: BinningScheme, keys, values, n: int):
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        keys = np.array(keys, dtype=np.int64)
        values = np.array(values, dtype=np.int64)
        if keys.ndim != 1 or keys.shape != values.shape:
            raise ValueError("keys and values must be 1-d arrays of equal length")
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("bin keys must be strictly increasing")
        empty = np.flatnonzero(values < 1)
        if empty.size:
            z, c = keys[empty[0]], values[empty[0]]
            raise ValueError(f"bin {z} has count {c}; empty bins must be absent")
        total = int(values.sum())
        if total != n:
            raise ValueError(f"counts sum to {total}, not n = {n}")
        keys.flags.writeable = values.flags.writeable = False
        self.scheme = scheme
        self.n = int(n)
        self.keys = keys
        self.values = values

    @property
    def occupied(self) -> int:
        """Number of nonzero bins."""
        return len(self.keys)

    def counts_at(self, z) -> np.ndarray:
        """Counts for an array of bin indices (0 for absent bins)."""
        z = np.asarray(z, dtype=np.int64)
        pos = np.searchsorted(self.keys, z)
        pos_c = np.minimum(pos, len(self.keys) - 1)
        hit = (pos < len(self.keys)) & (self.keys[pos_c] == z)
        return np.where(hit, self.values[pos_c], 0)

    def occupied_range(self) -> tuple[int, int]:
        """Smallest and largest occupied bin index."""
        return int(self.keys[0]), int(self.keys[-1])

    def to_json_obj(self) -> dict:
        """JSON-ready form: ``{bin_width, n, bins: [[index, count], ...]}``."""
        return {
            "bin_width": self.scheme.bin_width,
            "n": self.n,
            "bins": np.column_stack([self.keys, self.values]).tolist(),
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "SparseHistogram":
        bins = np.array(obj["bins"], dtype=np.int64).reshape(-1, 2)
        return cls(BinningScheme(obj["bin_width"]), bins[:, 0], bins[:, 1], int(obj["n"]))

    def __repr__(self) -> str:
        return (
            f"SparseHistogram(n={self.n}, bin_width={self.scheme.bin_width}, "
            f"occupied={self.occupied})"
        )


def build_histogram(sample, scheme: BinningScheme) -> SparseHistogram:
    """Bin a sample in one pass; memory scales with the occupied-bin count.

    Entries must be finite; offending positions are reported in the raised
    error.
    """
    arr = np.asarray(sample, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("sample must be nonempty")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        shown = ", ".join(str(i) for i in bad[:10].tolist())
        more = "" if bad.size <= 10 else f" (+{bad.size - 10} more)"
        raise ValueError(f"non-finite sample entries at indices {shown}{more}")
    keys, values = np.unique(scheme.bin_index(arr), return_counts=True)
    return SparseHistogram(scheme, keys, values, arr.size)


def merge_histograms(parts: Iterable[SparseHistogram]) -> SparseHistogram:
    """Sum histograms of one bin width (partition-and-merge builds)."""
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one histogram to merge")
    widths = sorted({h.scheme.bin_width for h in parts})
    if len(widths) > 1:
        raise ValueError(f"cannot merge histograms of different bin widths {widths}")
    keys = np.concatenate([h.keys for h in parts])
    order = np.argsort(keys, kind="stable")
    keys, starts = np.unique(keys[order], return_index=True)
    values = np.add.reduceat(np.concatenate([h.values for h in parts])[order], starts)
    return SparseHistogram(parts[0].scheme, keys, values, sum(h.n for h in parts))


def histogram_eval(h: SparseHistogram, x):
    """Histogram density ``count / (n * b)`` of the bin containing ``x``."""
    arr, scalar = _as_finite_array(x)
    z = h.scheme.bin_index(np.atleast_1d(arr))
    dens = h.counts_at(z) / (h.n * h.scheme.bin_width)
    return float(dens[0]) if scalar else dens.reshape(arr.shape)


def cdf_bin_density(F: Callable, scheme: BinningScheme, x):
    """Bin-averaged density implied by a CDF-like function ``F``.

    Returns ``(F(hi) - F(lo)) / b`` for the bin ``(lo, hi]`` containing
    ``x``.  Applied to an empirical CDF this reproduces ``histogram_eval``
    exactly; applied to a smooth CDF it gives the bin average of its
    density, whose error is bounded by the density's Lipschitz constant
    times the bin width.  ``F`` must accept numpy arrays.
    """
    arr, scalar = _as_finite_array(x)
    b = scheme.bin_width
    z = scheme.bin_index(np.atleast_1d(arr)).astype(float)
    out = (np.asarray(F((z + 1.0) * b), dtype=float) - np.asarray(F(z * b), dtype=float)) / b
    return float(out[0]) if scalar else out.reshape(arr.shape)


def _midpoint_cell(scheme: BinningScheme, x):
    """Midpoint cell ``k`` of finite ``x`` and the weight ``u`` toward ``k*b + b/2``."""
    k = scheme.half_grid_index(x)
    return k, np.clip(0.5 - k + x / scheme.bin_width, 0.0, 1.0)


def interp_weight(x, scheme: BinningScheme):
    """Linear interpolation weight toward the midpoint above ``x``.

    For ``x`` in the midpoint cell ``(k*b - b/2, k*b + b/2]`` this is
    ``1/2 - k + x/b``, rising from 0 (exclusive) at the lower midpoint to 1
    at the cell's closed right end.  The result is clipped to ``[0, 1]``;
    the value 0 itself is reachable only through rounding right at a cell
    edge, where both neighbouring weight configurations give the same
    density.
    """
    arr, scalar = _as_finite_array(x)
    _, u = _midpoint_cell(scheme, arr)
    return float(u[()]) if scalar else u


def fp_eval(h: SparseHistogram, x):
    """Frequency polygon density, evaluated in shift-operator form.

    Computes ``(1-u) * f(x - b/2) + u * f(x + b/2)`` with ``f`` the
    histogram density and ``u`` the interpolation weight.  The half-shifted
    lookups are resolved by composing the shift with the binning rule: for
    ``x`` in the midpoint cell ``(k*b - b/2, k*b + b/2]`` the two shifted
    points land in bins ``k-1`` and ``k`` — always, so the composition is
    evaluated through those indices directly.  (Forming ``x - b/2`` in
    floating point first can round exactly onto a bin edge and flip the
    lookup into the wrong bin for ``x`` within one ulp of a cell edge.)
    """
    arr, scalar = _as_finite_array(x)
    arr1 = np.atleast_1d(arr)
    k, u = _midpoint_cell(h.scheme, arr1)
    ki = k.astype(np.int64)
    denom = h.n * h.scheme.bin_width
    below = h.counts_at(ki - 1) / denom
    above = h.counts_at(ki) / denom
    out = (1.0 - u) * below + u * above
    return float(out[0]) if scalar else out.reshape(arr.shape)


def fp_eval_classic(h: SparseHistogram, x):
    """Frequency polygon density via the classical midpoint interpolation.

    Locates the integer ``k`` with ``k*b - b/2 < x <= k*b + b/2`` and blends
    the densities of the bins below and above ``k*b``.  Kept as a fully
    independent evaluation route: it must agree with :func:`fp_eval` at
    every point, bin edges and midpoints included.
    """
    arr, scalar = _as_finite_array(x)
    b = h.scheme.bin_width
    k, w_hi = _midpoint_cell(h.scheme, arr)
    w_lo = np.clip(0.5 + k - arr / b, 0.0, 1.0)
    out = w_lo * histogram_eval(h, k * b) + w_hi * histogram_eval(h, (k + 1.0) * b)
    return float(out) if scalar else out


def stone_bandwidth(n: int) -> float:
    """Bin width ``(ln(n) / n)**(1/3)``, the uniform-rate-optimal schedule."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    return (math.log(n) / n) ** (1.0 / 3.0)


def kde_eval_naive(sample, bandwidth: float, x):
    """Gaussian kernel density estimate, deliberately O(n) per query point.

    Serves as the cost baseline against the frequency polygon: every query
    touches the whole sample.
    """
    arr = np.asarray(sample, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("sample must be nonempty")
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
    xs, scalar = _as_finite_array(x)
    xs1 = np.atleast_1d(xs)
    out = np.empty(xs1.shape, dtype=float)
    scale = 1.0 / (arr.size * bandwidth * _SQRT_2PI)
    # one reused work buffer: the O(n)-per-query loop is the whole point,
    # but allocating fresh temporaries each query would just time the heap
    work = np.empty_like(arr)
    inv_h = 1.0 / bandwidth
    for i, xi in enumerate(xs1):
        np.subtract(xi, arr, out=work)
        work *= inv_h
        np.multiply(work, work, out=work)
        work *= -0.5
        np.exp(work, out=work)
        out[i] = work.sum() * scale
    return float(out[0]) if scalar else out.reshape(xs.shape)


class EmpiricalCdf:
    """Right-continuous empirical distribution function of a sample."""

    __slots__ = ("sorted_sample", "n")

    def __init__(self, sample):
        arr = np.asarray(sample, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError("sample must be nonempty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample must be finite")
        self.sorted_sample = np.sort(arr)
        self.n = int(arr.size)

    def __call__(self, x):
        """Fraction of sample points ``<= x``."""
        arr = np.asarray(x, dtype=float)
        out = np.searchsorted(self.sorted_sample, arr, side="right") / self.n
        return float(out[()]) if arr.ndim == 0 else out

    def below(self, x):
        """Fraction of sample points ``< x`` (the left limit of the ECDF)."""
        arr = np.asarray(x, dtype=float)
        out = np.searchsorted(self.sorted_sample, arr, side="left") / self.n
        return float(out[()]) if arr.ndim == 0 else out

