"""Command-line harness: estimate, simulate, delta, rate, bench.

Every command writes its artifact through one writer,
:func:`_write_artifact`, which embeds the fully resolved configuration
(including the seed and any model spec): a CSV opens with ``#`` lines, one
key each, then a line of column names (none over ``simulate``'s one
column); a JSON object holds it as ``"config"``.  So a run can be reproduced byte-for-byte from its own
output; measured wall times are the only nondeterministic fields.
``bench`` records ``command``, ``n``, ``m``, ``seed`` and ``repeats`` so,
and writes its results as one named CSV row or as the JSON's other keys.
Numbers are written with 17 significant digits (``%.17g``) for exact
round-tripping.

The library calls of ``simulate``, ``delta``, ``rate`` and ``bench`` go
through one guard, :func:`_library`: a ``ModelValidityError`` is a model
error, any other ``ValueError`` a usage error naming the command's flags,
and an ``OverflowError`` a data error naming the model.  ``simulate``,
``delta`` and ``rate`` refuse to write a non-finite value, also a data
error.  ``estimate`` refuses rows its bins cannot index as a data error
naming the input, and a bandwidth or grid end they cannot index as a
usage error naming the flag.  A stdout that cannot be written (a closed
pipe, a full device) is a usage error.

``estimate`` reads its text in chunks of ``_CHUNK_LINES`` lines, each
parsed by one ``np.array(lines, dtype=float)``; it falls back to one call
on a chunk's stripped rows, then to a per-line scan, only for a chunk that
also holds skipped, padded or bad lines.  Which lines are rows is that of
a per-line loop.  The chunks' rows are joined into one float64 sample,
whose size fixes the bandwidth, and binned by one ``build_histogram``
call, so the histogram does not depend on the chunk size.  One writer,
:func:`_format_rows`, writes the CSV rows of every command in blocks of
``_FORMAT_ROWS`` rows: the digits of most values come from exact integer
arithmetic in numpy, and the rest from ``format`` one value at a time, so
every byte is that of ``format(v, ".17g")``.

Exit status contract: 0 success, 1 usage error, 2 data error, 3 model
validity error.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import itertools
import json
import math
import os
import sys
import time
import warnings
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .dependence import check_summability, estimate_delta_profile
from .diagnostics import MAX_GRID_POINTS, rate_experiment
from .estimators import (
    BinningScheme,
    build_histogram,
    fp_eval,
    histogram_eval,
    kde_eval_naive,
    stone_bandwidth,
)
from .models import (
    MAX_BUFFER_VALUES,
    ArmaModel,
    ModelValidityError,
    contraction_proxy,
    model_from_spec,
    model_to_spec,
    resolve_burn_in,
    simulate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MODEL = 3

_CHUNK_LINES = 65536
#: rows the CSV writer formats at once: a block's byte matrix stays cache-sized
_FORMAT_ROWS = 1 << 14
#: bytes per value in the writer's matrix (see :func:`_format_column`)
_CELL = 40
_POW5 = np.uint64(5) ** np.arange(22, dtype=np.uint64)
_MAX_BAD_ROWS = 10
#: ``bench`` reports the fastest of this many frequency polygon builds and queries
_BENCH_REPEATS = 5


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def _cell_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The writer's lookup tables, built by numpy at import.

    A cell's first word is its sign, ``"0."`` and ``-E - 1`` zeros when
    ``E < 0``, the leading digit and its point slot: index
    ``(negative * 5 + min(-E, 4)) * 10 + digit``.  A pair word is two digits
    with their point slots, keeping none, the first or both of them: index
    ``pair * 3 + kept``.  The last table gives the index of the last nonzero
    digit of pair ``i`` of a cell (0 for ``"00"``): index ``i * 100 + pair``.
    """
    digit = np.arange(10) + ord("0")
    head = np.zeros((2, 5, 10, 8), np.uint8)
    head[1, ..., 0] = ord("-")
    lengths = np.array([0, 2, 3, 4, 5])[:, None]  # "0." and -E - 1 zeros, for min(-E, 4)
    head[..., 1:6] = (np.frombuffer(b"0.000", np.uint8) * (np.arange(5) < lengths))[:, None]
    head[..., 6] = digit
    pair = np.arange(100)
    pairs = np.zeros((100, 3, 4), np.uint8)
    pairs[:, 1:, 0] = digit[pair // 10, None]
    pairs[:, 2, 2] = digit[pair % 10]
    last = np.where(pair == 0, 0, 2 * np.arange(8)[:, None] + 1 + (pair % 10 > 0))
    return head.view("<u8").ravel(), pairs.view("<u4").ravel(), last.ravel()


_HEAD, _PAIRS, _LAST = _cell_tables()


def _format_rows(*columns) -> Iterator[str]:
    """The rows of ``columns`` as comma-separated lines, one string per ``_FORMAT_ROWS`` rows.

    Each value is written as the bytes of ``format(float(v), ".17g")``; for
    an integer below 2**53 (a size, lag or count) that is ``str(v)``.  A
    block lays each value out in a NUL-padded cell of ``_CELL`` bytes
    (:func:`_format_column`), ends each cell with ``,`` or ``\\n`` and
    deletes the padding with one ``bytes.translate``.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    for i in range(0, len(columns[0]), _FORMAT_ROWS):
        rows = min(_FORMAT_ROWS, len(columns[0]) - i)
        block = np.empty((rows, _CELL * len(columns)), np.uint8)
        for j, column in enumerate(columns):
            _format_column(column[i:i + rows], block, j * _CELL)
        block[:, _CELL - 1::_CELL] = ord(",")
        block[:, -1] = ord("\n")
        yield block.tobytes().translate(None, b"\0").decode("ascii")


def _format_column(values: np.ndarray, block: np.ndarray, start: int) -> None:
    """Write ``format(v, ".17g")`` of each value into bytes ``start`` on of a row of ``block``.

    ``%g`` writes the 17-digit decimal ``d * 10**(E - 16)`` nearest to
    ``|v|`` (ties to even) in fixed notation when ``-4 <= E <= 16``, with
    trailing zeros and a bare ``.`` dropped.  Such normal values take the
    integer route of :func:`_scaled_digits` (after Adams, "Ryu revisited:
    printf floating point conversion", OOPSLA 2019).  ``E`` starts from
    ``log10``, which is off by at most one near a power of ten, and is
    corrected once from the digits; a round up to ``10**17`` carries into
    ``E``.  A cell is the first word of :func:`_cell_tables` (sign, the
    ``"0.000"`` prefix, the leading digit) and eight pair words; every digit
    ``j`` is followed by a slot that holds ``.`` when ``j == E`` and a
    nonzero digit follows, and NUL otherwise, as does every dropped byte.
    The last byte is left for the separator.  Zeros, subnormals, values that
    round below ``1e-4`` or to ``1e17`` and above, and non-finite values go
    through ``format`` one at a time.
    """
    a = np.abs(values)
    fast = (a >= 9.9e-5) & (a < 1e17)  # the values whose E may lie in [-4, 16]
    a = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -5, 16).astype(np.int64)
    floor, up = _scaled_digits(a, e)
    wrong = np.flatnonzero((floor < 10**16) | (floor >= 10**17))
    if wrong.size:
        e[wrong] = np.clip(e[wrong] + np.where(floor[wrong] < 10**16, -1, 1), -5, 16)
        floor[wrong], up[wrong] = _scaled_digits(a[wrong], e[wrong])
    fast &= (floor >= 10**16) & (floor < 10**17)
    digits = (floor + up).astype(np.int64)
    carry = digits == 10**17
    digits[carry] = 10**16
    e += carry
    fast &= e >= -4  # E <= 16 holds: values from 2**53 on are not rounded

    lead = digits // 10**16
    pairs = (digits - lead * 10**16)[None]
    for unit in (10**8, 10**4, 100):
        high = pairs // unit
        pairs = np.stack([high, pairs - high * unit], axis=1).reshape(-1, len(values))
    # pairs[i] holds digits 2i + 1 and 2i + 2; the digits past E and past the last nonzero
    # one are dropped, and a rejected value's garbage lead is clipped into the table
    last = _LAST.take(pairs + 100 * np.arange(8)[:, None]).max(axis=0)
    kept = np.clip(np.maximum(last, e) - 2 * np.arange(8)[:, None], 0, 2)
    first = (np.signbit(values) * 5 + np.clip(-e, 0, 4)) * 10 + lead
    block.view("<u8")[:, start // 8] = _HEAD.take(first, mode="clip")
    block.view("<u4")[:, start // 4 + 2:start // 4 + 10] = _PAIRS.take(pairs * 3 + kept).T
    point = np.flatnonzero((e >= 0) & (last > e))
    block.reshape(-1)[point * block.shape[1] + start + 7 + 2 * e[point]] = ord(".")

    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [format(v, ".17g") for v in values[slow].tolist()]
        block[slow, start:start + _CELL - 1] = np.array(
            texts, dtype=f"S{_CELL - 1}").view(np.uint8).reshape(-1, _CELL - 1)


def _scaled_digits(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``floor(a * 10**(16 - e))`` exactly, and whether rounding half to even takes it up.

    ``a`` is positive and normal, ``a = m * 2**q`` with a 53-bit ``m``, and
    ``e`` lies in [-5, 16], so ``k = 16 - e`` is at most 21.  The product
    ``m * 5**k`` (below 2**102) is built in two ``uint64`` words from 32-bit
    halves, then shifted by ``-(q + k)`` bits: right, with the remainder
    deciding the rounding, or left and exact.  Every array operand stays
    ``uint64`` (Python ints adapt to it), since mixing in ``int64`` would
    promote to float64.
    """
    bits = a.view(np.uint64)
    m = (bits & (2**52 - 1)) | 2**52
    shift = 1059 - (bits >> 52).astype(np.int64) + e  # -(q + k), q = exponent - 1075
    power = _POW5[16 - e]
    m_lo, m_hi, p_lo, p_hi = m & (2**32 - 1), m >> 32, power & (2**32 - 1), power >> 32
    low = m_lo * p_lo
    middle = m_lo * p_hi + m_hi * p_lo + (low >> 32)
    lo = (middle << 32) | (low & (2**32 - 1))
    hi = m_hi * p_hi + (middle >> 32)

    right = np.clip(shift, 1, 63).astype(np.uint64)
    floor = (hi << (64 - right)) | (lo >> right)
    rest = lo & ((1 << right) - 1)
    half = 1 << (right - 1)
    up = (rest > half) | ((rest == half) & (floor & 1 == 1))
    exact = shift <= 0
    floor[exact] = lo[exact] << (-shift[exact]).astype(np.uint64)
    up[exact] = False
    return floor, up


def _check_finite(model_path: str, what: str, values) -> None:
    """Refuse to write ``values`` unless every one is finite: a data error naming the model."""
    if not np.isfinite(values).all():
        raise DataError(f"model {model_path} gives non-finite {what}; nothing was written")


def _header(config: dict, names: str) -> str:
    """The ``#`` lines that record ``config``, one key per line, then the column ``names``."""
    lines = [f"# polyfreq {__version__}"]
    for key in sorted(config):
        lines.append(f"# {key}={json.dumps(config[key], sort_keys=True)}")
    return "\n".join([*lines, names] if names else lines) + "\n"


def _write_artifact(path: str | None, fmt: str, config: dict, names: str = "",
                    columns: Iterable = (), payload: dict | None = None) -> None:
    """Write a command's artifact to ``path`` (stdout for ``None`` or ``-``).

    JSON is ``{"config": config, **payload}`` with ``indent=2``, a numpy
    array written as a list.  CSV is the ``#`` header of ``config`` and the
    column ``names`` (no names line when empty), then the rows of ``columns``.
    """
    if fmt == "json":
        text = json.dumps({"config": config, **payload}, indent=2, default=np.ndarray.tolist)
        _write_text(path, [text + "\n"])
    else:
        _write_text(path, itertools.chain([_header(config, names)], _format_rows(*columns)))


def _write_text(path: str | None, parts: Iterable[str]) -> None:
    """Write ``parts`` one string at a time to ``path``, or to stdout for ``None`` or ``-``.

    Stdout is flushed here, so a closed pipe or a full device is a usage
    error; what is left in its buffer then goes to the null device, so the
    interpreter's last flush cannot fail again.
    """
    if path is None or path == "-":
        try:
            sys.stdout.writelines(parts)
            sys.stdout.flush()
        except OSError as exc:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise UsageError(f"cannot write stdout: {exc.strerror or exc}") from exc
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.writelines(parts)
        except OSError as exc:
            raise UsageError(f"cannot write --output {path}: {exc.strerror or exc}") from exc


def _check_output(path: str) -> None:
    """Refuse an ``--output`` that is empty, a directory, or cannot be opened for writing.

    An existing file needs write permission on itself; a new one needs a
    writable directory to be created in.
    """
    if not path:
        raise UsageError("cannot write --output '': the path is empty")
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = errno.EISDIR
    elif os.path.exists(path):
        if os.access(path, os.W_OK):
            return
        reason = errno.EACCES
    elif not os.path.isdir(parent):
        reason = errno.ENOENT
    elif not os.access(parent, os.W_OK):
        reason = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write --output {path}: {os.strerror(reason)}")


def _library(flags: str, model_path: str | None, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with its refusals mapped to the exit status contract.

    Numpy's overflow and invalid-value warnings are silenced: a non-finite
    result is refused afterwards by :func:`_check_finite`, naming the model.
    A ``ModelValidityError`` passes through (exit 3), any other
    ``ValueError`` is a usage error naming ``flags`` (exit 1), and an
    ``OverflowError`` a data error naming the model (exit 2).
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)
    except ModelValidityError:
        raise
    except ValueError as exc:
        raise UsageError(f"{flags}: {exc}") from exc
    except OverflowError as exc:
        raise DataError(f"model {model_path} gives {exc}; nothing was written") from exc


def _load_model(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise DataError(f"cannot read model spec {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"model spec {path} is not valid JSON: {exc}") from exc
    try:
        return model_from_spec(obj)
    except ModelValidityError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"model spec {path} is malformed: {exc}") from exc


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _read_column(path: str):
    """Yield the numeric rows of a one-column text file as float64 chunks.

    A line is a row exactly when ``float(line.strip())`` parses it to a
    finite value.  Blank lines, ``#`` lines and a non-numeric line 1 (a
    header) are skipped; any other line is bad, and the first
    ``_MAX_BAD_ROWS`` bad lines are reported by line number once the scan
    stops.  Bytes that are not UTF-8 are decoded with ``surrogateescape``,
    so such a line is bad like any other text (or skipped as line 1).  The
    text is read ``_CHUNK_LINES`` lines at a time; a chunk's float64 rows
    take 8 B each, less than their text.

    A chunk is parsed by the first of three tiers that gives only finite
    values: its raw lines in one call (``float()`` strips whitespace
    itself), its stripped lines less blank and ``#`` lines in one call, then
    :func:`_check_rows` line by line.  A value from either one-call tier is
    ``float(line.strip())`` of its line, so every tier keeps the same rows.
    A raw call that fails has converted the lines before the failing one
    for nothing, so once a chunk past the first (which may open with a
    header) drops a line, the next chunk starts at the second tier.
    """
    bad: list[str] = []
    last = 0  # line number of the previous chunk's last line
    try:
        f = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise DataError(f"cannot read input {path}: {exc.strerror or exc}") from exc
    raw_first = True
    with f:
        while len(bad) < _MAX_BAD_ROWS and (lines := list(itertools.islice(f, _CHUNK_LINES))):
            first, last = last + 1, last + len(lines)
            chunk = _parse_finite(lines) if raw_first else None
            if chunk is None:
                rows = [s for s in map(str.strip, lines) if s and not s.startswith("#")]
                chunk = _parse_finite(rows)
                raw_first = first == 1 or len(rows) == len(lines)
            if chunk is None:
                chunk = _check_rows(lines, first, bad)
            if chunk.size and not bad:
                yield chunk
    if bad:
        raise DataError(f"unparseable or non-finite rows at lines {', '.join(bad)}")


def _parse_finite(texts: list[str]) -> np.ndarray | None:
    """``float()`` of every text in one call, or ``None`` if one fails or is not finite."""
    try:
        values = np.array(texts, dtype=float)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _check_rows(lines: list[str], first: int, bad: list[str]) -> np.ndarray:
    """Row-by-row form of the chunk parse: the finite rows; bad line numbers go to ``bad``."""
    values = []
    for lineno, raw in enumerate(lines, first):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            v = float(text)
        except ValueError:
            if lineno == 1:
                continue  # optional header row
            v = math.nan
        if math.isfinite(v):
            values.append(v)
        elif len(bad) < _MAX_BAD_ROWS:
            bad.append(str(lineno))
    return np.array(values)


def cmd_estimate(args: argparse.Namespace) -> int:
    flags = {"--grid-min": args.grid_min, "--grid-max": args.grid_max,
             "--grid-step": args.grid_step}
    for flag, value in flags.items():
        if value is not None and not math.isfinite(value):
            raise UsageError(f"{flag} must be finite, got {value}")
    sample = np.concatenate([np.empty(0), *_read_column(args.input)])
    if sample.size < 2:
        raise DataError(f"need at least 2 numeric rows, found {sample.size}")
    lo, hi = float(sample.min()), float(sample.max())
    bandwidth = args.bandwidth if args.bandwidth is not None else stone_bandwidth(sample.size)
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise UsageError(f"--bandwidth must be positive and finite, got {bandwidth}")
    scheme = BinningScheme(bandwidth)
    try:
        scheme.bin_index(np.array([lo, hi]))  # every row lies between the two
    except ValueError as exc:
        raise DataError(f"{args.input}: {exc}") from exc
    try:
        h = build_histogram(sample, scheme)
    except ValueError as exc:  # rows are finite and indexable: only the density scale is left
        raise UsageError(f"--bandwidth {bandwidth}: {exc}") from exc

    gmin = args.grid_min if args.grid_min is not None else lo - 4.0 * bandwidth
    gmax = args.grid_max if args.grid_max is not None else hi + 4.0 * bandwidth
    gstep = args.grid_step if args.grid_step is not None else bandwidth / 10.0
    if not gstep > 0:
        raise UsageError(f"--grid-step must be positive, got {gstep}")
    if not gmax > gmin:
        raise UsageError(f"--grid-max must be above --grid-min, got [{gmin}, {gmax}]")
    steps = np.floor((gmax - gmin) / gstep + 1e-9)
    if not steps < MAX_GRID_POINTS:
        raise UsageError(f"--grid-min/--grid-max/--grid-step: grid [{gmin}, {gmax}] step "
                         f"{gstep} has {steps + 1:.6g} points, above the limit of "
                         f"{MAX_GRID_POINTS}")
    count = int(steps) + 1
    # the grid rises from gmin to its last point, so its two ends decide
    for flag, end in (("--grid-min", gmin), ("--grid-max", gmin + gstep * (count - 1))):
        try:
            scheme.bin_index(end)
        except ValueError as exc:
            raise UsageError(f"{flag}: {exc}") from exc
    grid = gmin + gstep * np.arange(count)

    config = {
        "command": "estimate",
        "input": args.input,
        "n": h.n,
        "bandwidth": bandwidth,
        "grid_min": gmin,
        "grid_max": gmax,
        "grid_step": gstep,
    }
    hist_vals = histogram_eval(h, grid)
    fp_vals = fp_eval(h, grid)
    payload = {"histogram": h.to_json_obj(), "grid": grid, "histogram_density": hist_vals,
               "frequency_polygon": fp_vals}
    _write_artifact(args.output, args.format, config, "x,histogram,frequency_polygon",
                    (grid, hist_vals, fp_vals), payload)
    print(f"n={h.n} b={bandwidth:.17g} p_n={h.occupied}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    burn_in = _library("--n/--burn-in", args.model, resolve_burn_in, model, args.burn_in)
    sample = _library("--n/--burn-in", args.model, simulate, model, args.n, burn_in=burn_in,
                      seed=args.seed)
    _check_finite(args.model, "values", sample)
    config = {
        "command": "simulate",
        "model": model_to_spec(model),
        "n": args.n,
        "burn_in": burn_in,
        "seed": args.seed,
    }
    _write_artifact(args.output, "csv", config, columns=[sample])
    return EXIT_OK


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------


def cmd_delta(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    deltas = _library("--kmax/--reps/--seed", args.model, estimate_delta_profile, model,
                      args.kmax, args.reps, seed=args.seed)
    rho = contraction_proxy(model)
    report = check_summability(deltas, rho)
    config = {
        "command": "delta",
        "model": model_to_spec(model),
        "kmax": args.kmax,
        "replications": args.reps,
        "seed": args.seed,
        "contraction": rho,
    }
    decay = dataclasses.asdict(report)
    _check_finite(args.model, "dependence coefficients",
                  [*(v for d in deltas for v in (d.delta_hat, d.std_error)),
                   *(v for v in decay.values() if isinstance(v, float))])
    rows = [{"k": d.lag, "delta_hat": d.delta_hat, "std_error": d.std_error,
             "replications": d.replications} for d in deltas]
    _write_artifact(args.output, args.format, config, ",".join(rows[0]),
                    zip(*(row.values() for row in rows)), {"deltas": rows, "decay": decay})
    if args.format == "csv":
        print(json.dumps(decay), file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------


def cmd_rate(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    if args.output == "-":
        raise UsageError("--output - is not accepted: stdout carries the summary JSON")
    if args.n_min < 2:
        raise UsageError(f"--n-min must be at least 2, got {args.n_min}")
    # the doubling grid n_min * 2**k up to n_max
    n_values = [args.n_min << k for k in range(max(args.n_max // args.n_min, 0).bit_length())]
    # sizes, --reps, buffers, seeds, the model's marginal and its evaluation grid are
    # all checked before any work
    report = _library("--n-min/--n-max/--reps/--seed", args.model, rate_experiment, model,
                      n_values, args.reps, seed=args.seed)
    _check_finite(args.model, "sup errors or summary values",
                  [*(r.sup_error for r in report.records), report.fitted_slope,
                   *(report.slope_ci or ()), *report.median_errors, *report.mean_errors])
    config = {
        "command": "rate",
        "model": model_to_spec(model),
        "n_values": n_values,
        "reps": args.reps,
        "seed": args.seed,
    }
    summary = {
        "fitted_slope": report.fitted_slope,
        "slope_ci": list(report.slope_ci) if report.slope_ci else None,
        "target_slope": report.target_slope,
        "n_values": list(report.n_values),
        "median_errors": list(report.median_errors),
        "mean_errors": list(report.mean_errors),
    }
    if args.output is not None:
        columns = zip(*((r.n, r.bandwidth, r.replication, r.sup_error, r.wall_time_s * 1000.0)
                        for r in report.records))
        _write_artifact(args.output, "csv", config, "n,b,replication,sup_error,wall_time_ms",
                        columns)
    _write_artifact(None, "json", config, payload=summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def run_benchmark(n: int, m: int, seed: int = 0) -> dict:
    """Time frequency polygon build+query against the naive KDE baseline.

    Both estimators use the same simulated gaussian sample, the same
    bandwidth schedule, and the same query grid.  The frequency polygon's
    build and query phases are repeated ``_BENCH_REPEATS`` times and the
    minimum wall time reported; the KDE's O(n*m) pass runs once, since a
    pass of seconds is already a stable measurement.
    """
    if n < 10_000:
        raise UsageError(f"--n must be at least 10000, got {n}")
    if not 100 <= m <= MAX_BUFFER_VALUES:
        raise UsageError(f"--m must be at least 100 and at most {MAX_BUFFER_VALUES}, got {m}")
    sample = _library("--n", None, simulate, ArmaModel(), n, seed=seed)  # the size cap
    bandwidth = stone_bandwidth(n)
    queries = np.linspace(float(sample.min()), float(sample.max()), m)

    build_t, eval_t = [], []
    occupied = 0
    for _ in range(_BENCH_REPEATS):
        t0 = time.perf_counter()
        h = build_histogram(sample, BinningScheme(bandwidth))
        t1 = time.perf_counter()
        fp_eval(h, queries)
        t2 = time.perf_counter()
        build_t.append(t1 - t0)
        eval_t.append(t2 - t1)
        occupied = h.occupied
    t0 = time.perf_counter()
    kde_eval_naive(sample, bandwidth, queries)
    kde = time.perf_counter() - t0
    fp_build, fp_query = min(build_t), min(eval_t)
    return {
        "n": n,
        "m": m,
        "seed": seed,
        "repeats": _BENCH_REPEATS,
        "bandwidth": bandwidth,
        "p_n": occupied,
        "fp_build_s": fp_build,
        "fp_query_s": fp_query,
        "fp_total_s": fp_build + fp_query,
        "kde_query_s": kde,
        "kde_over_fp_total": kde / (fp_build + fp_query),
        "kde_over_fp_query": kde / fp_query,
    }


def cmd_bench(args: argparse.Namespace) -> int:
    result = run_benchmark(args.n, args.m, seed=args.seed)
    config = {"command": "bench", **{k: result.pop(k) for k in ("n", "m", "seed", "repeats")}}
    _write_artifact(None, args.format, config, ",".join(result),
                    [[value] for value in result.values()], result)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # the CLI contract reserves exit status 2 for data errors, so argparse's
    # default usage-error exit code is remapped
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _seed(text: str) -> int:
    """Argparse type for ``--seed`` and its ``POLYFREQ_SEED`` default."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if not 0 <= seed < 2**128:
        raise argparse.ArgumentTypeError("seed must be an integer from 0 to 2**128 - 1 "
                                         f"(--seed or POLYFREQ_SEED), got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polyfreq", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"polyfreq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = {
        "--seed": dict(type=_seed, default=os.environ.get("POLYFREQ_SEED", "0"),
                       help="stream seed (default: POLYFREQ_SEED env var, else 0)"),
        "--output": dict(default=None, help="output path (default: stdout)"),
        "--format": dict(choices=("csv", "json"), default="csv"),
        "--model": dict(required=True, help="model spec JSON path"),
    }

    def add_common(p, *flags):  # each command takes only the shared flags it reads
        for flag in flags:
            p.add_argument(flag, **common[flag])

    p = sub.add_parser("estimate", help="histogram + frequency polygon over a grid")
    p.add_argument("--input", required=True, help="CSV with one numeric column")
    p.add_argument("--bandwidth", type=float, default=None,
                   help="bin width (default: (log n / n)^(1/3))")
    p.add_argument("--grid-min", type=float, default=None)
    p.add_argument("--grid-max", type=float, default=None)
    p.add_argument("--grid-step", type=float, default=None)
    add_common(p, "--output", "--format")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="simulate a model to a one-column CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=None,
                   help="steps discarded before the first value, at least the default "
                   "(TAR and NLAR: ceil(log 2^-60 / log rho), at least 64; ARMA: "
                   "max(1000, 50 * ceil(1 / (1 - rho))); moving average: 0)")
    add_common(p, "--seed", "--output", "--model")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("delta", help="dependence coefficients and decay report")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--reps", type=int, default=10_000)
    add_common(p, "--seed", "--output", "--format", "--model")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("rate", help="sup-error convergence-rate experiment", description=(
        "CSV wall_time_ms: the replication's share of the simulation call of its batch "
        "(every size of a Markov model whose packed batch fits 2^28 values, one size "
        "otherwise), in proportion to its steps burn_in + n, plus its own binning and "
        "evaluation; a packed Markov run evaluates its sizes in order on one thread, and "
        "other runs evaluate their sizes on up to one thread per usable CPU"))
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--output", default=None,
                   help="records CSV path (default: no records file is written)")
    add_common(p, "--seed", "--model")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("bench", help="frequency polygon vs naive KDE timing")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    add_common(p, "--seed", "--format")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # library warnings (say, a thin rate experiment) print as one line each
    with warnings.catch_warnings(record=True) as caught:
        try:
            output = getattr(args, "output", None)
            if output not in (None, "-"):  # found before the work, not after it
                _check_output(output)
            return args.func(args)
        except UsageError as exc:
            print(f"polyfreq: usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except DataError as exc:
            print(f"polyfreq: data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except ModelValidityError as exc:
            print(f"polyfreq: model error: --model {args.model}: {exc}", file=sys.stderr)
            return EXIT_MODEL
        except ValueError as exc:
            print(f"polyfreq: usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        finally:
            for w in caught:
                print(f"polyfreq: warning: {w.message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
