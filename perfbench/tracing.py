"""Span tracer that times polyfreq's public functions from outside the package.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper that records a span, both in the module that defines it and in
every polyfreq module that imported it by name (``diagnostics.simulate`` is
the same function as ``models.simulate``, reached through another module).
``Tracer.restore`` puts the originals back.  Nothing in ``src/`` is edited:
the spans sit at the boundaries between the package's modules.

Each span records its name, start, end, parent span, thread id and the id of
the pass it belongs to, and the CPU time its thread spent inside it.  Spans stay in memory until ``dump`` writes them out.
Work submitted to ``diagnostics``' thread pool is wrapped in a
``diagnostics.pool_task`` span whose parent is the span that submitted it, so
worker-thread spans stay attached to the ``rate_experiment`` that caused them.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

#: modules whose public functions are traced; a span is named after the
#: module that defines the function
LAYERS = ("models", "estimators", "dependence", "diagnostics", "cli")

POOL_TASK = "diagnostics.pool_task"


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    site: str
    thread_id: int
    run_id: str
    start: float
    end: float
    cpu_s: float
    qty: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _CountingFile:
    """File proxy that adds the bytes moved through the OS to a counter on close."""

    def __init__(self, f, tracer: "Tracer", key: str):
        self._f = f
        self._tracer = tracer
        self._key = key

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __iter__(self):
        return iter(self._f)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self) -> None:
        if not self._f.closed:
            self._f.flush()
            self._tracer.add(self._key, self._f.buffer.raw.tell())
        self._f.close()


class Tracer:
    """In-memory span recorder; one instance serves one benchmark run."""

    def __init__(self, hooks: dict | None = None):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = ""
        self._hooks = hooks or {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object, bool]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def call(self, name: str, site: str, fn, args, kwargs, parent: int | None = None,
             hook=None):
        """Run ``fn`` inside a span; ``parent`` overrides the thread's own stack."""
        stack = self._stack()
        parent_id = parent if parent is not None else (stack[-1] if stack else None)
        span_id = next(self._ids)
        stack.append(span_id)
        cpu_start = time.thread_time()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            cpu_s = time.thread_time() - cpu_start
            stack.pop()
        qty = hook(args, kwargs, result) if hook is not None else None
        self.spans.append(Span(span_id, parent_id, name, site, threading.get_ident(),
                               self.run_id, start, end, cpu_s, qty))
        return result

    # -- patching ---------------------------------------------------------

    def _patch(self, obj, attr: str, value) -> None:
        existed = attr in vars(obj)
        self._undo.append((obj, attr, vars(obj).get(attr), existed))
        setattr(obj, attr, value)

    def _wrap(self, name: str, site: str, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, site, fn, args, kwargs, hook=hook)

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every module in ``LAYERS``."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        holders = {package.__name__.rsplit(".", 1)[-1]: package, **modules}
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                for site, holder in holders.items():
                    for alias, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, alias, self._wrap(f"{layer}.{attr}", site, fn))

        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                return super().submit(tracer.call, POOL_TASK, "diagnostics", fn, args,
                                      kwargs, parent)

        self._patch(modules["diagnostics"], "ThreadPoolExecutor", TracedPool)

        hist_cls = modules["estimators"].SparseHistogram
        original_init = hist_cls.__init__

        def counting_init(hist, *args, **kwargs):
            original_init(hist, *args, **kwargs)
            tracer.add("estimators.p_n", hist.occupied)

        self._patch(hist_cls, "__init__", counting_init)

        def counting_open(file, mode="r", *args, **kwargs):
            f = builtins.open(file, mode, *args, **kwargs)
            writes = any(c in mode for c in "wax+")
            return _CountingFile(f, tracer, "cli.bytes_written" if writes else "cli.bytes_read")

        self._patch(modules["cli"], "open", counting_open)

    def restore(self) -> None:
        """Put back every original patched by ``install``."""
        while self._undo:
            obj, attr, original, existed = self._undo.pop()
            if existed:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)

    # -- output -----------------------------------------------------------

    def begin(self, run_id: str) -> None:
        """Start a new pass: later spans and counts carry ``run_id``."""
        self.run_id = run_id
        self.counts = defaultdict(float)

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(asdict(span)) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from one pass's spans
# ---------------------------------------------------------------------------


def _outermost(spans: list[Span], names: set[str], by_id: dict[int, Span]) -> list[Span]:
    """Spans named in ``names`` with no ancestor that is also named in ``names``."""
    out = []
    for span in spans:
        if span.name not in names:
            continue
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent_id)
        if parent is None:
            out.append(span)
    return out


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """Duration minus the union of the child intervals, clipped to the span."""
    clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    return span.duration - _union_length([iv for iv in clipped if iv[1] > iv[0]])


def layer_metrics(spans: list[Span], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Times add the outermost spans of a group, so a call nested in another of
    the same group (``build_histogram`` calling ``accumulate_counts``) is not
    counted twice.  Self times subtract every child interval, including the
    pool tasks a ``rate_experiment`` submitted to worker threads.

    ``simulate`` and the pool tasks run on worker threads that take turns on
    the GIL, so their wall durations overlap and include time spent waiting
    for it.  Their metrics use the CPU time of the calling thread instead.
    """
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)

    def outer(*names):
        return _outermost(spans, set(names), by_id)

    def busy(*names):
        return sum(s.duration for s in outer(*names))

    def qty(group, key):
        return sum((s.qty or {}).get(key, 0) for s in group)

    def own(name):
        return sum(self_time(s, children[s.span_id]) for s in spans if s.name == name)

    simulate = outer("models.simulate")
    simulate_s = sum(s.cpu_s for s in simulate)
    steps = qty(simulate, "steps")
    bins = outer("estimators.build_histogram", "estimators.accumulate_counts")
    queries = outer("estimators.fp_eval", "estimators.fp_eval_classic",
                    "estimators.histogram_eval")
    deltas = outer("dependence.estimate_delta_profile", "dependence.estimate_delta",
                   "dependence.coupled_paths", "dependence.simulate_coupled")
    delta_s = sum(s.duration for s in deltas)
    coupled = qty(deltas, "coupled_steps")
    rates = outer("diagnostics.rate_experiment")
    capacity = sum(s.duration * (s.qty or {}).get("workers", 1) for s in rates)
    rate_ids = {s.span_id for s in rates}
    pool_busy = sum(s.cpu_s for s in spans
                    if s.name == POOL_TASK and s.parent_id in rate_ids)

    return {
        "models.simulate_s": simulate_s,
        "models.simulate_calls": len(simulate),
        "models.steps": steps,
        "models.ns_per_step": simulate_s * 1e9 / steps if steps else 0.0,
        "models.burn_in_share": qty(simulate, "burn_in_steps") / steps if steps else 0.0,
        "models.oracle_s": busy("models.marginal_truth"),
        "estimators.bin_s": sum(s.duration for s in bins),
        "estimators.bin_rows": qty(
            [s for s in spans if s.name == "estimators.accumulate_counts"], "rows"),
        "estimators.bin_calls": len(bins),
        "estimators.p_n": counts.get("estimators.p_n", 0),
        "estimators.query_s": sum(s.duration for s in queries),
        "estimators.queries": qty(queries, "queries"),
        "estimators.query_calls": len(queries),
        "diagnostics.modulus_s": busy("diagnostics.modulus_exact"),
        "diagnostics.decompose_self_s": own("diagnostics.error_decomposition"),
        "diagnostics.sup_error_s": busy("diagnostics.sup_error"),
        "diagnostics.fp_max_slope_s": busy("diagnostics.fp_max_slope"),
        "diagnostics.rate_self_s": own("diagnostics.rate_experiment"),
        "diagnostics.pool_busy_ratio": pool_busy / capacity if capacity else 0.0,
        "dependence.delta_s": delta_s,
        "dependence.coupled_steps": coupled,
        "dependence.ns_per_coupled_step": delta_s * 1e9 / coupled if coupled else 0.0,
        "cli.simulate_self_s": own("cli.cmd_simulate"),
        "cli.estimate_self_s": own("cli.cmd_estimate"),
        "cli.bytes_read": counts.get("cli.bytes_read", 0),
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
    }


def make_hooks(package) -> dict:
    """Work counters read from a traced call's arguments and result.

    Each hook returns the quantities stored on the call's span.  They call
    the package's functions before ``install`` wraps them, so counting adds
    no spans.
    """
    models = importlib.import_module(f"{package.__name__}.models")
    dependence = importlib.import_module(f"{package.__name__}.dependence")
    diagnostics = importlib.import_module(f"{package.__name__}.diagnostics")
    default_burn_in = models.default_burn_in
    linear = models.LinearProcess

    def binder(fn):
        sig = inspect.signature(fn)

        def bind(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        return bind

    def simulate_hook(bind):
        def hook(args, kwargs, result):
            a = bind(args, kwargs)
            model, n = a["model"], int(a["n"])
            if isinstance(model, linear):
                burn = 0
            else:
                burn = a["burn_in"] if a["burn_in"] is not None else default_burn_in(model)
            return {"steps": n + burn, "burn_in_steps": burn}
        return hook

    def coupled_hook(bind, lag_arg, reps_of):
        # per replication: burn_in - 1 shared steps to time -1, then both
        # branches step lags 0..lag
        def hook(args, kwargs, result):
            a = bind(args, kwargs)
            model, lag = a["model"], int(a[lag_arg])
            if isinstance(model, linear):
                shared = 0
            else:
                burn = a["burn_in"] if a["burn_in"] is not None else max(default_burn_in(model), 1)
                shared = burn - 1
            return {"coupled_steps": reps_of(a) * (shared + 2 * (lag + 1))}
        return hook

    def query_hook(args, kwargs, result):
        x = args[1] if len(args) > 1 else kwargs["x"]
        return {"queries": int(np.size(x))}

    def rate_hook(bind):
        def hook(args, kwargs, result):
            workers = bind(args, kwargs)["max_workers"]
            if workers is None:  # ThreadPoolExecutor's own default
                workers = min(32, (os.cpu_count() or 1) + 4)
            return {"workers": workers}
        return hook

    return {
        "models.simulate": simulate_hook(binder(models.simulate)),
        "estimators.accumulate_counts": lambda args, kwargs, result: {"rows": result},
        "estimators.fp_eval": query_hook,
        "estimators.fp_eval_classic": query_hook,
        "estimators.histogram_eval": query_hook,
        "dependence.estimate_delta_profile": coupled_hook(
            binder(dependence.estimate_delta_profile), "max_lag",
            lambda a: a["replications"]),
        "dependence.estimate_delta": coupled_hook(
            binder(dependence.estimate_delta), "lag", lambda a: a["replications"]),
        "dependence.coupled_paths": coupled_hook(
            binder(dependence.coupled_paths), "lag", lambda a: len(a["seeds"])),
        "dependence.simulate_coupled": coupled_hook(
            binder(dependence.simulate_coupled), "lag", lambda a: 1),
        "diagnostics.rate_experiment": rate_hook(binder(diagnostics.rate_experiment)),
    }
