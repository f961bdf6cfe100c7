"""Tests of the benchmark's own code: self-time arithmetic and metric names.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import re
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(name, start, end, parent=None):
    return spans.Span(name, 0, parent, start, 0.0, 0.0, end=end)


def test_covered_merges_overlaps_and_clips():
    assert spans.covered(0.0, 10.0, []) == 0.0
    assert spans.covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0
    assert spans.covered(0.0, 10.0, [(-5.0, -1.0), (4.0, 4.0)]) == 0.0


def test_self_time_of_nested_spans():
    recorded = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, parent=0),
        _span("c", 2.0, 3.0, parent=1),
        _span("d", 6.0, 7.0, parent=0),
    ]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_of_concurrent_children_counts_their_union_once():
    # two worker-thread children covering [1, 5] and [2, 6] of [0, 8]
    recorded = [
        _span("probe", 0.0, 8.0),
        _span("sweep", 1.0, 5.0, parent=0),
        _span("sweep", 2.0, 6.0, parent=0),
    ]
    assert spans.self_times(recorded) == [3.0, 4.0, 4.0]


def _fake_module():
    mod = types.ModuleType("fake")

    def inner(x):
        time.sleep(0.2)
        return x

    def outer(threads):
        time.sleep(0.02)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(mod.inner, range(threads)))
        return [mod.inner(0)]

    def fails():
        raise ValueError("boom")

    mod.inner, mod.outer, mod.fails = inner, outer, fails
    return mod


def test_tracer_records_parents_across_worker_threads():
    mod = _fake_module()
    original = mod.inner
    tracer = spans.Tracer([spans.Target(mod, "inner", "riesz.inner"),
                           spans.Target(mod, "outer", "diagnostics.outer")])
    with tracer.active():
        assert mod.outer(2) == [0, 1]
        assert mod.outer(1) == [0]
    assert mod.inner is original

    by_parent = {}
    for i, s in enumerate(tracer.spans):
        by_parent.setdefault(s.parent, []).append(i)
    roots = by_parent[None]
    assert [tracer.spans[i].name for i in roots] == ["diagnostics.outer"] * 2
    threaded, single = roots
    kids = by_parent[threaded]
    assert len(kids) == 2
    assert all(tracer.spans[k].thread != threading.get_ident() for k in kids)
    assert [tracer.spans[k].thread for k in by_parent[single]] == [
        threading.get_ident()]

    own = spans.self_times(tracer.spans)
    # the parent keeps its own ~0.02 s: not its whole ~0.22 s (children
    # unattributed), nor duration minus the sum of the overlapping
    # children (negative)
    assert 0.015 < own[threaded] < 0.15
    assert 0.015 < own[single] < 0.15
    assert all(own[k] >= 0.2 for k in kids)


def test_tracer_counts_errors_and_wraps_classmethods():
    mod = _fake_module()

    class Measure:
        @classmethod
        def load(cls, path):
            return cls, path

    tracer = spans.Tracer([spans.Target(mod, "fails", "measure.fails"),
                           spans.Target(Measure, "load", "measure.load")])
    with tracer.active():
        with pytest.raises(ValueError):
            mod.fails()
        assert Measure.load("x") == (Measure, "x")
    assert isinstance(vars(Measure)["load"], classmethod)
    metrics = spans.per_layer_metrics(tracer.spans, 0.0)
    assert metrics["measure.errors"] == (1.0, "count")


def test_metric_names_are_valid_and_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)

    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        worker.END_TO_END_UNITS
    specs = spans.per_layer_specs()
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == specs
    assert list(spans.per_layer_metrics([], 0.0)) == [n for n, _, _ in specs]
