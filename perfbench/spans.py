"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps heisriesz's public functions from outside the package:
each target names the object that holds the function as the *calling*
module binds it (``heisriesz.diagnostics.growth_profile``,
``heisriesz.measure.dist``, ``DiscreteMeasure.ball_mass``, ...), so the
library's own calls across module boundaries are recorded without any
change to the library.  Spans stay in memory; the metrics are derived
from them when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import resource
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

LAYERS = ("core", "measure", "subgroups", "riesz", "fractal", "diagnostics")


@dataclass
class Span:
    """One call of a wrapped function.

    ``cpu_*`` is the process CPU time (user + system, all threads) and
    ``rss_*`` the process ``ru_maxrss`` in MB, read at the span's ends.
    """

    name: str
    thread: int
    parent: int | None
    start: float
    cpu_start: float
    rss_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    rss_end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``vars(owner)[attr]`` becomes a traced call.

    ``name`` is the span name, or a function of the call's positional
    arguments that returns it.  ``counts`` maps (args, kwargs, result)
    of a successful call to the work it did, e.g. ``{"atoms": N}``.
    """

    owner: object
    attr: str
    name: str | Callable
    counts: Callable | None = None


def _usage() -> tuple[float, float]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


class Tracer:
    """Records a span around every call of its targets while active.

    A span's parent is the innermost open span of the same thread.  A
    span opened in a thread with no open span (a pool worker) takes the
    innermost open span of the main thread as its parent, because the
    benchmark drives the library from the main thread and the library's
    pools run inside that call.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _open(self, name: str) -> int:
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if ident != self._main and main else None
        cpu, rss = _usage()
        with self._lock:
            sid = len(self.spans)
            self.spans.append(Span(name, ident, parent, time.perf_counter(),
                                   cpu, rss))
        stack.append(sid)
        return sid

    def _close(self, sid: int, error: bool) -> Span:
        end = time.perf_counter()
        cpu, rss = _usage()
        span = self.spans[sid]
        span.end, span.cpu_end, span.rss_end, span.error = end, cpu, rss, error
        self._stacks[threading.get_ident()].pop()
        return span

    def _wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = target.name if isinstance(target.name, str) else target.name(args)
            sid = self._open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                span = self._close(sid, error=not ok)
            if target.counts is not None:
                span.counts = target.counts(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def active(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for t in self.targets:
                raw = vars(t.owner)[t.attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, t))
                else:
                    new = self._wrap(raw, t)
                setattr(t.owner, t.attr, new)
                saved.append((t.owner, t.attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def _rows(a) -> int:
    shape = getattr(a, "shape", ())
    return int(shape[0]) if len(shape) >= 2 else 1


def targets(hz) -> list[Target]:
    """The module boundaries of heisriesz that the traced run records.

    ``hz`` holds the imported modules as attributes (``hz.core``,
    ``hz.measure``, ...).  Core functions are wrapped in every module
    that imports them; the workload entry points where the benchmark
    calls them.
    """
    M = hz.measure.DiscreteMeasure
    D, F, R = hz.diagnostics, hz.fractal, hz.riesz

    def rows_of(i):
        return lambda args, kwargs, result: {"atoms": _rows(args[i])}

    def file_bytes(args, kwargs, result):
        return {"bytes": os.path.getsize(args[1])}

    def swept(args, kwargs, result):
        mu = args[0]
        return {"atoms": len(mu), "bytes": len(mu) * (2 * mu.n + 2) * 8}

    return [
        Target(hz.measure, "dist", "core.dist", rows_of(1)),
        Target(D, "dist", "core.dist", rows_of(1)),
        Target(D, "blowup_map", "core.blowup_map"),
        Target(D, "koranyi_norm", "core.koranyi_norm"),
        Target(hz.subgroups, "koranyi_norm", "core.koranyi_norm"),
        Target(M, "ball_mass", "measure.ball_mass"),
        Target(M, "diameter_bound", "measure.diameter_bound"),
        Target(M, "to_csv", "measure.to_csv", file_bytes),
        # a classmethod: the wrapped function receives (cls, path, ...)
        Target(M, "from_csv", "measure.from_csv", file_bytes),
        Target(D, "in_cone", "subgroups.in_cone", rows_of(1)),
        Target(D, "haar_sample", "subgroups.haar_sample"),
        Target(D, "growth_profile", "riesz.growth_profile", swept),
        Target(R, "truncated_transform", "riesz.truncated_transform"),
        Target(R, "maximal_transform", "riesz.maximal_transform"),
        Target(F, "cylinder_measure", "fractal.cylinder_measure",
               lambda args, kwargs, result: {"atoms": len(result)}),
        Target(F, "min_piece_separation",
               lambda args: f"fractal.min_piece_separation.L{args[1]}"),
        Target(F, "phi_fixed_point", "fractal.phi_fixed_point",
               lambda args, kwargs, result: {"iterations": len(result.history)}),
        Target(F, "verify_invariant_region", "fractal.verify_invariant_region"),
        Target(D, "divergence_probe", "diagnostics.divergence_probe",
               lambda args, kwargs, result: {"threads": kwargs.get("threads", 1)}),
        Target(D, "subgroup_boundedness_probe",
               "diagnostics.subgroup_boundedness_probe"),
        Target(D, "ad_regularity_report", "diagnostics.ad_regularity_report"),
        Target(D, "cone_deficiency", "diagnostics.cone_deficiency"),
        Target(D, "blowup_measure", "diagnostics.blowup_measure"),
        Target(D, "horest_check", "diagnostics.horest_check",
               lambda args, kwargs, result: {"trials": result.trials}),
    ]


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------

def covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    run_start = run_end = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Children running concurrently in worker threads overlap; the union
    of their intervals is subtracted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(s.start, s.end, children[i])
            for i, s in enumerate(spans)]


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

@dataclass
class _Agg:
    calls: int = 0
    self_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_rise_mb: float = 0.0
    durations: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))


def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile q of values; 0 for no values."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


# stat -> (unit, better, value from an aggregate).  p50_s and p90_s are
# quantiles of the per-call wall time.  Rates and per-atom costs use
# self time, except trials_per_s, a user-facing rate of the whole call.
# computed_gb_per_s counts the bytes the swept atoms occupy ((2n+2)
# float64 per atom and sweep); it is computed, not measured.
STATS = {
    "calls": ("count", "lower", lambda a: float(a.calls)),
    "self_s": ("s", "lower", lambda a: a.self_s),
    "p50_s": ("s", "lower", lambda a: _quantile(a.durations, 0.5)),
    "p90_s": ("s", "lower", lambda a: _quantile(a.durations, 0.9)),
    "ns_per_atom": ("ns", "lower",
                    lambda a: 1e9 * _ratio(a.self_s, a.counts["atoms"])),
    "computed_gb_per_s": ("GB/s", "higher",
                          lambda a: _ratio(a.counts["bytes"] / 1e9, a.self_s)),
    "mb_per_s": ("MB/s", "higher",
                 lambda a: _ratio(a.counts["bytes"] / 1e6, a.self_s)),
    "atoms_per_s": ("1/s", "higher",
                    lambda a: _ratio(a.counts["atoms"], a.self_s)),
    "rss_rise_mb": ("MB", "lower", lambda a: a.rss_rise_mb),
    "iterations": ("count", "lower", lambda a: a.counts["iterations"]),
    "cpu_util": ("ratio", "higher",
                 lambda a: _ratio(a.cpu_s, a.counts["threads_wall"])),
    "trials_per_s": ("1/s", "higher",
                     lambda a: _ratio(a.counts["trials"], a.wall_s)),
}

# (span name, stats reported for it)
SPAN_STATS = (
    ("core.dist", ("self_s", "ns_per_atom")),
    ("core.blowup_map", ("self_s",)),
    ("core.koranyi_norm", ("self_s",)),
    ("measure.ball_mass", ("calls", "self_s", "p50_s", "p90_s")),
    ("measure.diameter_bound", ("self_s",)),
    ("measure.to_csv", ("self_s", "mb_per_s")),
    ("measure.from_csv", ("self_s", "mb_per_s")),
    ("subgroups.in_cone", ("self_s", "ns_per_atom")),
    ("subgroups.haar_sample", ("self_s",)),
    ("riesz.growth_profile",
     ("calls", "self_s", "p50_s", "ns_per_atom", "computed_gb_per_s")),
    ("riesz.truncated_transform", ("self_s", "p50_s", "rss_rise_mb")),
    ("riesz.maximal_transform", ("self_s", "rss_rise_mb")),
    ("fractal.cylinder_measure", ("self_s", "atoms_per_s")),
    ("fractal.min_piece_separation.L4", ("self_s",)),
    ("fractal.min_piece_separation.L5", ("self_s", "rss_rise_mb")),
    ("fractal.phi_fixed_point", ("self_s", "iterations")),
    ("fractal.verify_invariant_region", ("self_s",)),
    ("diagnostics.divergence_probe", ("self_s", "cpu_util")),
    ("diagnostics.subgroup_boundedness_probe", ("self_s",)),
    ("diagnostics.ad_regularity_report", ("self_s",)),
    ("diagnostics.cone_deficiency", ("self_s",)),
    ("diagnostics.blowup_measure", ("self_s",)),
    ("diagnostics.horest_check", ("self_s", "trials_per_s")),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{span}.{stat}", *STATS[stat][:2])
             for span, stats in SPAN_STATS for stat in stats]
    specs += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    specs += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    specs.append(("trace.overhead", "ratio", "lower"))
    return specs


def per_layer_metrics(spans, overhead: float) -> dict:
    """Per-layer metrics from recorded spans, as {name: (value, unit)}.

    Metrics of functions that no span recorded read 0.
    """
    aggs = defaultdict(_Agg)
    layer_self = defaultdict(float)
    layer_errors = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        a = aggs[span.name]
        wall = span.end - span.start
        a.calls += 1
        a.self_s += own
        a.wall_s += wall
        a.cpu_s += span.cpu_end - span.cpu_start
        a.rss_rise_mb = max(a.rss_rise_mb, span.rss_end - span.rss_start)
        a.durations.append(wall)
        for key, value in span.counts.items():
            a.counts[key] += value
        a.counts["threads_wall"] += wall * span.counts.get("threads", 1)
        layer = span.name.split(".", 1)[0]
        layer_self[layer] += own
        layer_errors[layer] += span.error

    out = {}
    for span, stats in SPAN_STATS:
        for stat in stats:
            unit, _, value = STATS[stat]
            out[f"{span}.{stat}"] = (float(value(aggs[span])), unit)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (float(layer_errors[layer]), "count")
    out["trace.overhead"] = (overhead, "ratio")
    return out
