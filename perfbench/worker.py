"""Run one benchmark workload in this (fresh) process; see run.py.

Prints progress to stderr and, as the only line on stdout, one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from contextlib import nullcontext
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def import_package():
    """Import heisriesz from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "heisriesz" / "__init__.py").is_file():
        raise SystemExit(f"no heisriesz sources under {src}")
    sys.path.insert(0, str(src))
    hz = types.SimpleNamespace(**{
        name: importlib.import_module(f"heisriesz.{name}")
        for name in spans.LAYERS
    })
    if Path(hz.core.__file__).resolve().parent != src / "heisriesz":
        raise SystemExit(f"heisriesz imported from {hz.core.__file__}, not {src}")
    return hz


def _fresh_import_s() -> float:
    """Wall time of a fresh interpreter that imports heisriesz and exits."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import heisriesz")
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _timed(fn, *args):
    wall, cpu = time.perf_counter(), _cpu()
    out = fn(*args)
    return time.perf_counter() - wall, _cpu() - cpu, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    hz = import_package()
    import_s = statistics.median(_fresh_import_s() for _ in range(IMPORT_REPEATS))

    setup, run, check = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer(spans.targets(hz)) if args.trace else None
    checks = workloads.Checks()

    # set up several times and keep the median; the traced run sets up
    # once, inside the trace, for the cylinder-measure span
    builds = []
    inputs = None
    for _ in range(1 if tracer else SETUP_REPEATS):
        inputs = None      # free the previous copy before building the next
        with tracer.active() if tracer else nullcontext():
            wall, _, inputs = _timed(setup, hz, args.seed)
        builds.append(wall)
    setup_s = import_s + statistics.median(builds)

    walls, cpus = [], []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as scratch:
        if tracer:
            # first, so that ru_maxrss still rises inside the spans
            with tracer.active():
                traced_s, _, out = _timed(run, hz, inputs, scratch)
            check(hz, inputs, out, args.seed, checks)
            print(f"{args.workload}: traced pass {traced_s:.3f} s wall",
                  file=sys.stderr, flush=True)
        # repeat the pass until the measured time reaches --seconds
        while not walls or sum(walls) < args.seconds:
            wall, cpu, out = _timed(run, hz, inputs, scratch)
            check(hz, inputs, out, args.seed, checks)
            walls.append(wall)
            cpus.append(cpu)
            print(f"{args.workload}: pass {len(walls)} {wall:.3f} s wall, "
                  f"{cpu:.3f} s cpu", file=sys.stderr, flush=True)
    run_s = statistics.median(walls)

    for name in checks.failed:
        print(f"{args.workload}: check failed: {name}", file=sys.stderr)
    if tracer:
        metrics = spans.per_layer_metrics(tracer.spans, traced_s / run_s - 1.0)
    else:
        values = {
            "setup_s": setup_s,
            "run_s": run_s,
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
