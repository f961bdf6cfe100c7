"""The benchmark's three workloads and their output checks.

Each workload has a ``setup`` (build the measure or system and draw the
generated inputs from the seed), a ``run`` (the measured phase: public
heisriesz calls in the order the CLI commands make them) and a
``check`` (compare outputs against the acceptance pins).  All library
calls go through module attributes (``hz.diagnostics.divergence_probe``)
so that the traced run's wrappers see them.

* ``ladder``  level-6 corner measure (16,777,216 atoms, 537 MB of
  coordinates and weights, above a 300 MB LLC): divergence probe at
  short-cycle points on the 4x-spaced five-step ladder with one thread
  per core, the flat vertical-axis probe, and one truncated and one
  maximal transform through the sort path.  The ``riesz`` sweep does the
  work on a working set larger than cache; the sort path sets the peak.
* ``queries`` level-5 measure (1,048,576 atoms, 34 MB): the ``ifs
  generate`` then ``--config measure.csv`` flow, i.e. CSV write and read
  back, AD report, cone deficiency, truncations per (point, eps) and
  the origin blow-up written to CSV.  Many short passes over a
  cache-resident measure plus bulk writes.
* ``certify`` tilt fixed point, invariant region, piece separation at
  levels 4 and 5 and the vertical lower bound: ``fractal`` refinement
  and the ``core`` group law, with no measure sweep.
"""

from __future__ import annotations

import math
import os

import numpy as np

DEFAULT_SEED = 0

N, R = 1, 0.25                      # H^1 corner family, 16 maps
S = 2.0                             # kernel degree = similarity dimension
LADDER_EPS = tuple(0.25 ** k for k in range(1, 6))
FLAT_EPS = tuple(0.5 ** k for k in range(1, 9))
RADII = tuple(0.25 ** j for j in range(1, 5))
TRANSFORM_EPS = (0.25, 0.0625, 0.015625)


class Checks:
    """Counts output checks; the failed ones are kept by name."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def __call__(self, name: str, ok) -> None:
        self.attempted += 1
        if not bool(ok):
            self.failed.append(name)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _support_sample(rng, mu, count: int) -> np.ndarray:
    return mu.points[np.sort(rng.choice(len(mu), size=count, replace=False))]


# ----------------------------------------------------------------------
# ladder
# ----------------------------------------------------------------------

LADDER_LEVEL = 6
LADDER_POINTS = 10        # drawn from the CLI's 32 short-cycle atoms


def setup_ladder(hz, seed: int) -> dict:
    ifs = hz.fractal.make_strichartz_ifs(N, R)
    mu = hz.fractal.cylinder_measure(ifs, LADDER_LEVEL)
    cycles = hz.fractal.cycle_atom_indices(len(ifs.maps), LADDER_LEVEL, 32,
                                           seed=seed)
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(cycles, size=LADDER_POINTS, replace=False))
    return {"mu": mu, "points": mu.points[idx], "threads": _nproc(),
            "seed": seed}


def run_ladder(hz, inp: dict, scratch: str) -> dict:
    mu, points = inp["mu"], inp["points"]
    params = hz.riesz.RieszParams(s=S, n=N)
    # the sort path runs before the threaded sweep: heap memory that the
    # pool threads' arenas keep would otherwise add a timing-dependent
    # amount to the peak the sort path sets
    truncated = hz.riesz.truncated_transform(mu, params, None, points[0],
                                             LADDER_EPS[1])
    maximal = hz.riesz.maximal_transform(mu, params, None, points[0],
                                         LADDER_EPS)
    reports = hz.diagnostics.divergence_probe(mu, params, points, LADDER_EPS,
                                              c=0.05, threads=inp["threads"])
    flat = hz.diagnostics.subgroup_boundedness_probe(
        hz.subgroups.make_vertical(N, []), S, FLAT_EPS, window=2.0,
        resolution=2048, points=8, seed=inp["seed"], slope_tol=0.01)
    return {"reports": reports, "flat": flat, "truncated": truncated.value,
            "maximal": maximal}


def check_ladder(hz, inp: dict, out: dict, seed: int, check: Checks) -> None:
    growing = 0
    for rep in out["reports"]:
        m = rep.max_magnitudes
        growing += bool(m[2] < m[3] < m[4]
                        and hz.diagnostics._fit_slope(m) > 0.0)
    # criterion 6 asks for 24 of 32; the same fraction of the points run
    check("ladder.growing_fraction",
          growing >= math.ceil(0.75 * len(out["reports"])))
    flat = out["flat"]
    check("ladder.flat_verdict", flat.verdict == "bounded")
    check("ladder.flat_slope", abs(flat.slope) < 0.01)
    check("ladder.flat_bound", flat.bound < 1e-10)
    check("ladder.truncated_finite", np.all(np.isfinite(out["truncated"])))
    check("ladder.maximal_dominates",
          np.all(out["maximal"] >= np.abs(out["truncated"])))


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------

QUERIES_LEVEL = 5
AD_CENTERS = 64
CONE_POINTS = 8
TRANSFORM_POINTS = 8


def setup_queries(hz, seed: int) -> dict:
    ifs = hz.fractal.make_strichartz_ifs(N, R)
    mu = hz.fractal.cylinder_measure(ifs, QUERIES_LEVEL)
    # each draw restarts from the seed, as each CLI command does; at
    # seed 0 the centres and cone points are the acceptance gate's
    return {
        "ifs": ifs,
        "mu": mu,
        "centers": _support_sample(np.random.default_rng(seed), mu, AD_CENTERS),
        "cone_points": _support_sample(np.random.default_rng(seed), mu,
                                       CONE_POINTS),
        "transform_points": _support_sample(np.random.default_rng(seed), mu,
                                            TRANSFORM_POINTS),
        "seed": seed,
    }


def run_queries(hz, inp: dict, scratch: str) -> dict:
    D = hz.diagnostics
    mu = inp["mu"]
    path = os.path.join(scratch, "ifs_measure.csv")
    mu.to_csv(path)
    loaded = hz.measure.DiscreteMeasure.from_csv(path, label=path,
                                                 spacing=mu.spacing)
    ad = D.ad_regularity_report(loaded, S, centers=list(inp["centers"]),
                                radii=RADII, seed=inp["seed"], c_cap=50.0)
    taxis = hz.subgroups.make_vertical(N, [])
    cone = np.array([D.cone_deficiency(loaded, S, k, taxis, 0.5, RADII)
                     for k in inp["cone_points"]])
    params = hz.riesz.RieszParams(s=S, n=N)
    transforms = np.array([
        [hz.riesz.truncated_transform(loaded, params, None, p, e).value
         for e in TRANSFORM_EPS]
        for p in inp["transform_points"]
    ])
    blowups = []
    for j in (1, 2):
        nu = D.blowup_measure(loaded, np.zeros(2 * N + 1), R ** j, s=S)
        nu.to_csv(os.path.join(scratch, f"blowup_{j}.csv"))
        blowups.append(nu)
    return {"loaded": loaded, "ad": ad, "cone": cone,
            "transforms": transforms, "blowups": blowups}


def check_queries(hz, inp: dict, out: dict, seed: int, check: Checks) -> None:
    mu, loaded = inp["mu"], out["loaded"]
    check("queries.csv_round_trip",
          np.array_equal(loaded.points, mu.points)
          and np.array_equal(loaded.weights, mu.weights))
    ad, cone = out["ad"], out["cone"]
    check("queries.ad_regular", ad.regular)
    check("queries.cone_positive", np.all(cone > 0.0))
    if seed == DEFAULT_SEED:
        check("queries.implied_c_pin", math.isclose(ad.implied_c, 4.0,
                                                    rel_tol=1e-9))
        check("queries.cone_floor_pin",
              math.isclose(float(cone.min()), 0.0830078125, rel_tol=1e-6))
    check("queries.transforms_finite", np.all(np.isfinite(out["transforms"])))
    for j, nu in zip((1, 2), out["blowups"]):
        coarse = hz.fractal.cylinder_measure(inp["ifs"], QUERIES_LEVEL - j)
        k = len(coarse)
        check(f"queries.blowup_{j}_points",
              np.max(np.abs(nu.points[:k] - coarse.points)) < 1e-10)
        check(f"queries.blowup_{j}_weights",
              np.allclose(nu.weights[:k], coarse.weights, rtol=1e-12, atol=0.0))


# ----------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------

SEPARATION = {4: 0.2829205360163959, 5: 0.2777802464949159}


def setup_certify(hz, seed: int) -> dict:
    return {"ifs": hz.fractal.make_strichartz_ifs(N, R), "seed": seed}


def run_certify(hz, inp: dict, scratch: str) -> dict:
    F, ifs, seed = hz.fractal, inp["ifs"], inp["seed"]
    phi = F.phi_fixed_point(N, R, 256)
    region = F.verify_invariant_region(ifs, phi, sample_count=100_000,
                                       seed=seed)
    separation = {level: F.min_piece_separation(ifs, level)
                  for level in SEPARATION}
    horest = [hz.diagnostics.horest_check(n, delta, trials=1_000_000, seed=seed)
              for n in (1, 2) for delta in (0.1, 0.5, 0.9)]
    return {"phi": phi, "region": region, "separation": separation,
            "horest": horest}


def check_certify(hz, inp: dict, out: dict, seed: int, check: Checks) -> None:
    for level, pin in SEPARATION.items():
        check(f"certify.separation_L{level}",
              math.isclose(out["separation"][level], pin, rel_tol=1e-12))
    phi = out["phi"]
    check("certify.phi_residual", phi.residual < 1e-8)
    check("certify.phi_contraction",
          float(phi.contraction_ratios().max()) <= 0.0725)
    check("certify.region_violations", out["region"].violations == 0)
    check("certify.region_certified", out["region"].certified)
    for rep in out["horest"]:
        check(f"certify.horest_n{rep.n}_delta{rep.delta}", rep.violations == 0)


WORKLOADS = {
    "ladder": (setup_ladder, run_ladder, check_ladder),
    "queries": (setup_queries, run_queries, check_queries),
    "certify": (setup_certify, run_certify, check_certify),
}
