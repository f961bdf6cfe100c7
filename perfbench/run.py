"""heisriesz benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py [--workload ladder|queries|certify|all]
                             [--seed N] [--seconds T] [--trace 0|1]

Each workload runs in its own fresh worker process (perfbench/worker.py),
so set-up time and peak memory belong to that workload alone.  The
worker repeats the workload's measured pass until it has measured
``--seconds`` (at least one pass) and checks every pass's outputs.

With ``--trace 0`` the result reports, per workload:

    setup_s      s   fresh process start to inputs ready: median of 5 fresh
                     interpreters importing heisriesz, plus the median of 3
                     builds of the measure or system
    run_s        s   median wall time of a pass, inputs ready to last verdict
    cpu_s        s   median user + system CPU time of a pass, all threads
    peak_rss_mb  MB  ru_maxrss of the worker process

and ``attempted`` / ``failed`` output checks (fail_ratio = failed /
attempted).  With ``--trace 1`` the worker runs the untraced passes, then
one more pass with every public heisriesz function at the module
boundaries wrapped in a span recorder (perfbench/spans.py), and reports
the per-layer metrics, including trace.overhead = traced pass / untraced
pass - 1.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  ``--workload all`` (the default) runs
every workload, prints a table and ends with one JSON object whose
metric names are prefixed by the workload.  Inputs are drawn from
``--seed``; the acceptance pins that depend on the seed are checked at
seed 0 only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ladder", "queries", "certify")
WORKER_TIMEOUT_S = 175


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh worker process and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{name}: worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"{name}: worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _table(results: dict) -> str:
    first = next(iter(results.values()))["metrics"]
    rows = [["workload", *(f"{m} ({v['unit']})" for m, v in first.items()),
             "fail_ratio (ratio)"]]
    rows += [[wl, *(f"{v['value']:.6g}" for v in res["metrics"].values()),
              f"{res['failed'] / res['attempted']:.6g}"]
             for wl, res in results.items()]
    width = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(r, width))
                     for r in rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "heisriesz" / "__init__.py").is_file():
        print(f"no heisriesz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                      args.trace)))
        return 0

    results = {wl: run_workload(wl, args.seed, args.seconds, args.trace)
               for wl in WORKLOADS}
    print(_table(results) if not args.trace else "\n".join(
        f"{wl} {m} = {v['value']:.6g} {v['unit']}"
        for wl, res in results.items() for m, v in res["metrics"].items()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{wl}.{m}": v for wl, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
