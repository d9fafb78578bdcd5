"""Sparse-histogram and frequency polygon density estimators.

All estimators share one bin geometry: for bin width ``b`` the real line is
cut into half-open cells ``(z*b, (z+1)*b]`` anchored at zero, so a point
sitting exactly on a bin edge belongs to the cell below it.  This strict
lower-edge convention is what keeps the two frequency polygon evaluation
routes (:func:`fp_eval`, built from shift operators acting on the empirical
CDF, and :func:`fp_eval_classic`, the textbook midpoint interpolation) in
agreement everywhere, including exactly on bin edges and midpoints.  The
routes locate the midpoint cell of an array independently (``fp_eval`` in
its own blocked code, ``fp_eval_classic`` through
:meth:`BinningScheme.half_grid_index`), so their agreement checks the cell
location as well as the weights and bin lookups.

Histograms are stored sparsely as a sorted pair of int64 arrays (occupied
bin indices and their counts), so evaluation cost depends on the number of
occupied bins and never on the sample size: each density query touches the
two cells adjacent to the query point and nothing else.  In
:func:`fp_eval` a scalar call finds both cells with one binary search among
the ``p_n`` occupied bins, ``O(log p_n)``, and does no other array work.  An
array of ``m`` points reads both cells of every point from a dense density
table over the occupied span, ``O(span + m)`` in all, whenever that table
is no larger than the call's inputs (``span + 2 <= m + p_n``); a histogram
too sparse for that costs one search per point, ``O(m log p_n)``.  Either
way the points go through in blocks of ``_BLOCK``, so an array call holds
its output and a few block-sized buffers, not batch-sized temporaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NoReturn

import numpy as np

__all__ = [
    "BinningScheme",
    "SparseHistogram",
    "EmpiricalCdf",
    "build_histogram",
    "histogram_eval",
    "cdf_bin_density",
    "fp_eval",
    "fp_eval_classic",
    "stone_bandwidth",
    "kde_eval_naive",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
#: points per block of a ``bin_index`` or ``fp_eval`` array call; their work
#: buffers, at most about 40 bytes a point, then stay in cache
_BLOCK = 2**14


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
        of a bin index can overflow.  The array is checked from its minimum
        and maximum, through which a nan propagates; only a refused array is
        scanned again, for the first value to name.
        """
        arr = np.asarray(x, dtype=float)
        limit = 2.0**52 * self.bin_width  # exact product, or inf
        if arr.size and not (abs(arr.min()) < limit and abs(arr.max()) < limit):
            # one comparison finds both refusals: it is false for nan and +-inf too
            bad = arr[~(np.abs(arr) < limit)]
            self._refuse(float(bad[0]) if np.isfinite(bad).all() else math.nan)
        return arr, arr.ndim == 0

    def _refuse(self, x: float) -> NoReturn:
        """Raise the ``ValueError`` for a non-finite ``x`` or ``|x/b| >= 2**52``."""
        if not math.isfinite(x):
            raise ValueError("x must be finite")
        raise ValueError(
            f"|x / b| must be below 2**52 to index bins exactly; got x = "
            f"{float(x)!r} with bin width {self.bin_width!r}"
        )

    def bin_index(self, x):
        """Index ``z`` of the bin ``(z*b, (z+1)*b]`` containing ``x``.

        Raises ``ValueError`` unless ``|x/b| < 2**52``.  The array is
        checked once as a whole (from its minimum and maximum), then goes
        through in blocks of ``_BLOCK`` points, each computed in two float
        buffers and one bool buffer reused from block to block, and written
        straight into the int64 output.  A scalar gets an ``int`` back.
        """
        arr, scalar = self._index_domain(x)
        b = self.bin_width
        out = np.empty(arr.shape, dtype=np.int64)
        flat, out_flat = arr.reshape(-1), out.reshape(-1)
        z, edge = np.empty((2, min(flat.size, _BLOCK)))
        beyond = np.empty(z.size, dtype=bool)
        # x/b can land within an ulp of an integer; re-check against the
        # actual float bin edges so that z*b < x <= (z+1)*b always holds.
        # Near the float maximum an edge can round to +-inf; that is the
        # right edge, because a product that rounds to inf exceeds every
        # finite x in exact arithmetic too, so the overflow is not reported.
        with np.errstate(over="ignore"):
            for start in range(0, flat.size, _BLOCK):
                xb = flat[start:start + _BLOCK]
                if xb.size < z.size:  # the last block
                    z, edge, beyond = z[:xb.size], edge[:xb.size], beyond[:xb.size]
                np.divide(xb, b, out=z)
                np.ceil(z, out=z)
                z -= 1.0
                np.multiply(z, b, out=edge)
                np.subtract(z, 1.0, out=z, where=np.less_equal(xb, edge, out=beyond))
                np.add(z, 1.0, out=edge)
                edge *= b
                np.add(z, 1.0, out=z, where=np.greater(xb, edge, out=beyond))
                np.copyto(out_flat[start:start + _BLOCK], z, casting="unsafe")
        return int(out[()]) if scalar else out

    def half_grid_index(self, x):
        """Integer ``k`` with ``k*b - b/2 < x <= k*b + b/2``, exactly.

        This locates the midpoint-to-midpoint cell used by the frequency
        polygon.  The cell edges are the odd multiples ``m*(b/2)``; they are
        compared with ``x`` in exact arithmetic, because the rounded edges
        of neighbouring cells need not coincide (for ``b = 1/3`` in floating
        point, ``7*b + b/2`` rounds below ``2.5`` and ``8*b - b/2`` rounds
        onto it), which would leave ``x = 2.5`` in neither cell.  Raises
        ``ValueError`` unless ``|x/b| < 2**52``.

        A Python ``int`` or ``float`` (``np.float64`` included) gets an
        ``int`` back from plain float arithmetic, with no array work; any
        other input goes through numpy and gets floats back.
        """
        b = self.bin_width
        if isinstance(x, (int, float)):
            x = float(x)
            if not abs(x) < 2.0**52 * b:
                self._refuse(x)
            # ceil(t) is the exact index unless t lies within its rounding
            # error of an integer n: x then sits next to the edge (2n+1)*(b/2)
            # between cells n and n+1, and the side is settled in exact
            # arithmetic.  round() is half-even, like np.rint below.
            t = x / b - 0.5
            n = round(t)
            if abs(t - n) > 2.0**-51 * (abs(t) + 1.0):
                return math.ceil(t)
            # compare in units of b/2 = frac * 2**(e - 1): scaling by a power
            # of two is exact, and with frac in [0.5, 1) Dekker's product can
            # neither overflow nor underflow, as it can for b/2 itself near
            # either end of the float range
            frac, e = math.frexp(b)
            return n + _exceeds_product(math.ldexp(x, 1 - e), 2.0 * n + 1.0, frac)
        arr, scalar = self._index_domain(x)
        flat = arr.reshape(-1)
        t = flat / b - 0.5
        k = np.ceil(t)
        n = np.rint(t)
        near = np.abs(t - n) <= 2.0**-51 * (np.abs(t) + 1.0)
        if near.any():
            n = n[near]
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
        scale = total * scheme.bin_width
        if not (math.isfinite(scale) and math.isfinite(int(values.max()) / scale)):
            raise ValueError(
                f"densities count / (n * b) are out of float range for n = {n} and bin width "
                f"{scheme.bin_width!r}: n * b = {scale!r}, largest count {int(values.max())}")
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

    def to_json_obj(self) -> dict:
        """JSON-ready form: ``{bin_width, n, bins: [[index, count], ...]}``."""
        return {
            "bin_width": self.scheme.bin_width,
            "n": self.n,
            "bins": np.column_stack([self.keys, self.values]).tolist(),
        }

    def __repr__(self) -> str:
        return (
            f"SparseHistogram(n={self.n}, bin_width={self.scheme.bin_width}, "
            f"occupied={self.occupied})"
        )


def build_histogram(sample, scheme: BinningScheme) -> SparseHistogram:
    """Bin a sample in one pass; memory scales with the occupied-bin count.

    Entries must be finite; offending positions are reported in the raised
    error.  The sample is scanned for them only when its minimum or maximum
    is not finite (a nan propagates through both).  Bins are counted with
    ``np.bincount`` over the span of occupied indices while that span holds
    at most the sample size, and with ``np.unique`` past it.
    """
    arr = np.asarray(sample, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("sample must be nonempty")
    if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
        bad = np.flatnonzero(~np.isfinite(arr))
        shown = ", ".join(str(i) for i in bad[:10].tolist())
        more = "" if bad.size <= 10 else f" (+{bad.size - 10} more)"
        raise ValueError(f"non-finite sample entries at indices {shown}{more}")
    z = scheme.bin_index(arr)
    lo, hi = int(z.min()), int(z.max())
    if hi - lo < arr.size:
        z -= lo
        counts = np.bincount(z, minlength=hi - lo + 1)
        keys = np.flatnonzero(counts)
        values = counts[keys]
        keys += lo
    else:
        keys, values = np.unique(z, return_counts=True)
    return SparseHistogram(scheme, keys, values, arr.size)


def histogram_eval(h: SparseHistogram, x):
    """Histogram density ``count / (n * b)`` of the bin containing ``x``."""
    z = h.scheme.bin_index(x)
    dens = h.counts_at(np.atleast_1d(z)) / (h.n * h.scheme.bin_width)
    return float(dens[0]) if np.ndim(z) == 0 else dens.reshape(z.shape)


def cdf_bin_density(F: Callable, scheme: BinningScheme, x):
    """Bin-averaged density implied by a CDF-like function ``F``.

    Returns ``(F(hi) - F(lo)) / b`` for the bin ``(lo, hi]`` containing
    ``x``.  Applied to an empirical CDF this reproduces ``histogram_eval``
    exactly; applied to a smooth CDF it gives the bin average of its
    density, whose error is bounded by the density's Lipschitz constant
    times the bin width.  ``F`` must accept numpy arrays.
    """
    index = scheme.bin_index(x)
    b = scheme.bin_width
    z = np.atleast_1d(index).astype(float)
    out = (np.asarray(F((z + 1.0) * b), dtype=float) - np.asarray(F(z * b), dtype=float)) / b
    return float(out[0]) if np.ndim(index) == 0 else out.reshape(index.shape)


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
    The weight is ``u = 1/2 - k + x/b``; with ``k`` the exact cell it lies
    in ``[0, 1]`` without clipping, since ``x/b`` rounds monotonically and
    the cell ends ``k -+ 1/2`` are floats.

    Bins ``k-1`` and ``k`` are adjacent, so one binary search of ``k-1``
    among the occupied bins finds both: bin ``k``, if occupied, is the next
    entry.  A Python ``int`` or ``float`` (``np.float64`` included) is
    answered in plain float arithmetic, with its cell from the scalar branch
    of :meth:`BinningScheme.half_grid_index`, that one search and no other
    array work.  An array is checked once as a whole (from its minimum and
    maximum), then goes through in blocks of ``_BLOCK`` points: each block
    divides by ``b`` once, locates its cells in this function's own code
    (exactly, with Dekker's comparison for points next to a cell edge) and
    writes every intermediate into a few reused block buffers.  It reads
    both densities from a table of the ``span + 2`` bins from ``keys[0] - 1``
    to ``keys[-1] + 1``, ``O(span + m)``, while ``span + 2 <= m + p_n`` for
    the call's ``m`` points, so that the table holds no more entries than
    the call's inputs; past that it costs one search per point,
    ``O(m log p_n)``.  Both routes give the same bits.
    """
    scheme = h.scheme
    b = scheme.bin_width
    keys, values = h.keys, h.values
    denom = h.n * b
    if isinstance(x, (int, float)):
        k = scheme.half_grid_index(x)
        u = 0.5 - k + x / b
        p = int(keys.searchsorted(k - 1))
        occupied = len(keys)
        below = above = 0
        if p < occupied and keys.item(p) == k - 1:
            below = values.item(p)
            p += 1
        if p < occupied and keys.item(p) == k:
            above = values.item(p)
        return float((1.0 - u) * (below / denom) + u * (above / denom))
    arr, scalar = scheme._index_domain(x)
    out = np.empty(arr.shape)
    flat, out_flat = arr.reshape(-1), out.reshape(-1)
    if not flat.size:
        return out
    base = int(keys[0]) - 1
    span = int(keys[-1]) - base + 2
    dense = span <= flat.size + len(keys)
    if dense:
        # table[z - base] holds bin z's density, and lower[i] is table[i - 1];
        # the zero entries at each end answer every clipped position
        lower = np.zeros(span + 1)
        table = lower[1:]
        table[keys - base] = values / denom
    frac, e = math.frexp(b)
    q, t, k, r = np.empty((4, min(flat.size, _BLOCK)))
    ki = np.empty(q.size, dtype=np.int64)
    near = np.empty(q.size, dtype=bool)
    for start in range(0, flat.size, _BLOCK):
        xb = flat[start:start + _BLOCK]
        if xb.size < q.size:  # the last block
            q, t, k, r, ki, near = (a[:xb.size] for a in (q, t, k, r, ki, near))
        np.divide(xb, b, out=q)
        np.subtract(q, 0.5, out=t)
        np.ceil(t, out=k)
        # ceil(t) is exact unless t lies within its rounding error of an
        # integer; a bound over the whole block picks a superset of those
        # points, and Dekker's comparison is exact for any point
        np.rint(t, out=r)
        np.subtract(t, r, out=r)
        np.abs(r, out=r)
        bound = 2.0**-51 * (max(-t.min(), t.max()) + 1.0)
        edge = np.flatnonzero(np.less_equal(r, bound, out=near))
        if edge.size:
            n = np.rint(t[edge])
            k[edge] = n + _exceeds_product(np.ldexp(xb[edge], 1 - e), 2.0 * n + 1.0, frac)
        np.subtract(0.5, k, out=r)
        u = np.add(r, q, out=q)
        np.copyto(ki, k, casting="unsafe")
        below, above = r, t
        if dense:
            ki -= base
            lower.take(ki, mode="clip", out=below)
            table.take(ki, mode="clip", out=above)
        else:
            # take(mode="clip") reads the last entry for a position past the
            # end; that entry is below k - 1 (or is k - 1 itself), so it never
            # matches
            p = keys.searchsorted(ki - 1)
            hit_lo = keys.take(p, mode="clip") == ki - 1
            p_hi = p + hit_lo
            hit_hi = keys.take(p_hi, mode="clip") == ki
            np.divide(np.where(hit_lo, values.take(p, mode="clip"), 0), denom, out=below)
            np.divide(np.where(hit_hi, values.take(p_hi, mode="clip"), 0), denom, out=above)
        w = np.subtract(1.0, u, out=k)
        np.multiply(w, below, out=w)
        np.multiply(u, above, out=u)
        np.add(w, u, out=out_flat[start:start + _BLOCK])
    return float(out[()]) if scalar else out


def fp_eval_classic(h: SparseHistogram, x):
    """Frequency polygon density via the classical midpoint interpolation.

    Locates the integer ``k`` with ``k*b - b/2 < x <= k*b + b/2`` through
    :meth:`BinningScheme.half_grid_index` and blends the densities of the
    bins below and above ``k*b``, each looked up by the binning rule.  Kept
    as a second evaluation route, independent of :func:`fp_eval` in its
    cell location, weights and bin lookups, so the operator identity
    between the two checks each of them.  It must agree with
    :func:`fp_eval` at every point, bin edges and midpoints included.
    """
    arr, scalar = h.scheme._index_domain(x)
    b = h.scheme.bin_width
    k = h.scheme.half_grid_index(arr)
    w_hi = np.clip(0.5 - k + arr / b, 0.0, 1.0)
    w_lo = np.clip(0.5 + k - arr / b, 0.0, 1.0)
    out = w_lo * _bin_density(h, k - 1.0) + w_hi * _bin_density(h, k)
    return float(out) if scalar else out


def _bin_density(h: SparseHistogram, z):
    """Histogram density of bin ``z``, looked up at the least float inside it.

    The bin ``(z*b, (z+1)*b]`` is looked up at ``nextafter(z*b, inf)``, which
    stays finite for a bin at the top of the float range, where the upper
    edge ``(z+1)*b`` overflows.  A bin that holds no finite float has
    density 0, because no sample can fall in it.
    """
    b = h.scheme.bin_width
    with np.errstate(over="ignore"):  # an edge or point past the float range is +-inf
        lo, hi = z * b, (z + 1.0) * b
        point = np.nextafter(lo, np.inf)
    inside = np.isfinite(point) & (point <= hi)
    return np.where(inside, histogram_eval(h, np.where(inside, point, 0.0)), 0.0)


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
    xs = np.asarray(x, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError("x must be finite")
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
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


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
        """Fraction of sample points ``<= x``; ``-inf`` and ``inf`` give 0 and 1."""
        arr = np.asarray(x, dtype=float)
        if np.isnan(arr).any():
            raise ValueError("x must not be nan")
        out = np.searchsorted(self.sorted_sample, arr, side="right") / self.n
        return float(out[()]) if arr.ndim == 0 else out

