"""Command-line front end: build systems and measures, run experiments.

Usage:
    heisriesz selftest [--quick]
    heisriesz ifs generate [--out DIR]
    heisriesz ifs verify
    heisriesz measure ad-report
    heisriesz riesz transform
    heisriesz riesz divergence [--quick] [--threads N]
    heisriesz riesz subgroup-probe
    heisriesz tangent blowup
    heisriesz cone-deficiency

Configuration comes from a JSON file (--config PATH) with optional
blocks "ifs", "measure", "riesz", "diagnostics", "tangent", "selftest";
the flags --seed, --threads, --quick and --out override file values.
Every JSON report embeds the resolved configuration, the seed and the
package version, so a fixed config and seed reproduce identical bytes
in single-thread mode.  CSV output uses '.' decimals, no locale.

Exit codes: 0 success, 1 failed selftest, 2 configuration error,
3 computed verdict contradicts the configured "expect", 4 atom cap
exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import ambient_dim
from .diagnostics import (_resolution_floor, ad_regularity_report,
                          blowup_measure, cone_deficiency, divergence_probe,
                          subgroup_boundedness_probe)
from .fractal import (Ifs, Similarity, cycle_atom_indices, cylinder_measure,
                      make_strichartz_ifs, min_piece_separation,
                      phi_fixed_point, similarity_dimension,
                      verify_invariant_region, word_similarity)
from .measure import DEFAULT_ATOM_CAP, AtomCapExceeded, DiscreteMeasure
from .riesz import RieszParams, truncated_transform
from .selftest import run_selftest
from .subgroups import make_horizontal, make_vertical

__all__ = ["main"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_CONTRADICTION = 3
EXIT_RESOURCE = 4


class ConfigError(ValueError):
    """Bad or inconsistent run configuration."""


# Per-block defaults; a config key outside its block's table is an error.
_IFS_DEFAULTS = {
    "kind": "strichartz",
    "r": 0.25,
    "maps": None,
    "level": 4,
    "quick_level": 3,
    "resolution": 256,
    "phi_tol": 1e-10,
    "samples": 100_000,
    "separation_level": 4,
    "expect": None,
}
_MEASURE_DEFAULTS = {"csv": None, "label": "", "spacing": None}
_RIESZ_DEFAULTS = {
    "s": 2.0,
    "eps": None,
    "eps_start": None,
    "eps_ratio": None,
    "eps_count": None,
    "points": None,
    "point_coords": None,
    "level": None,
    "quick_level": None,
    "c": 0.05,
    "fraction": 0.75,
    "window": 2.0,
    "resolution": 2048,
    "slope_tol": 0.01,
    "subgroup": None,
    "expect": None,
}
_DIAG_DEFAULTS = {
    "a": None,
    "centers": 64,
    "radii": (0.25, 0.0625, 0.015625, 0.00390625),
    "c_cap": 50.0,
    "level": 5,
    "quick_level": 4,
    "delta": 0.5,
    "cone_points": 8,
    "cone_subgroups": 8,
    "expect": None,
}
_TANGENT_DEFAULTS = {
    "word": (0,),
    "r": 0.25,
    "level": 5,
    "quick_level": 4,
    "normalization": "power",
    "s": None,
    "point": None,
}
_SELFTEST_DEFAULTS = {"samples": 10_000, "eq_tol": 1e-12}

_BLOCK_NAMES = ("ifs", "measure", "riesz", "diagnostics", "tangent", "selftest")


@dataclass
class RunConfig:
    n: int
    seed: int
    threads: int
    quick: bool
    atom_cap: int
    output_dir: str
    blocks: dict

    def section(self, name: str, defaults: dict) -> dict:
        block = self.blocks.get(name, {})
        if not isinstance(block, dict):
            raise ConfigError(f"config block {name!r} must be a JSON object")
        unknown = sorted(set(block) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown keys in {name!r}: {', '.join(unknown)}")
        return {**defaults, **block}


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    raw = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    if raw.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema: {raw.get('schema')!r}")
    known = set(_BLOCK_NAMES) | {"schema", "n", "seed", "threads", "quick",
                                 "atom_cap", "out"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {', '.join(unknown)}")
    try:
        n = int(raw.get("n", 1))
        seed = args.seed if args.seed is not None else int(raw.get("seed", 0))
        threads = (args.threads if args.threads is not None
                   else int(raw.get("threads", 1)))
        atom_cap = int(raw.get("atom_cap", DEFAULT_ATOM_CAP))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad numeric config value: {exc}") from None
    quick = bool(args.quick) if args.quick is not None else bool(raw.get("quick", False))
    out = args.out if args.out is not None else str(raw.get("out", "."))
    if n < 1:
        raise ConfigError(f"group index must be >= 1, got {n}")
    if threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {threads}")
    if atom_cap < 1:
        raise ConfigError(f"atom cap must be >= 1, got {atom_cap}")
    blocks = {k: raw[k] for k in _BLOCK_NAMES if k in raw}
    return RunConfig(n=n, seed=seed, threads=threads, quick=quick,
                     atom_cap=atom_cap, output_dir=out, blocks=blocks)


def _cfg(fn, *args, **kwargs):
    # argument errors in config-derived calls are configuration errors
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _emit_json(cfg: RunConfig, filename: str, command: str, sections: dict,
               payload: dict) -> Path:
    doc = {
        "command": command,
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "config": {
            "n": cfg.n,
            "seed": cfg.seed,
            "threads": cfg.threads,
            "quick": cfg.quick,
            "atom_cap": cfg.atom_cap,
            "out": cfg.output_dir,
            **sections,
        },
        "results": payload,
    }
    path = Path(cfg.output_dir) / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _fmt_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _write_csv(cfg: RunConfig, filename: str, header: str, rows) -> Path:
    path = Path(cfg.output_dir) / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(v) for v in row) + "\n")
    return path


def _expect_gate(expect, verdict: str) -> int:
    if expect is not None and expect != verdict:
        print(f"verdict {verdict!r} contradicts expected {expect!r}",
              file=sys.stderr)
        return EXIT_CONTRADICTION
    return EXIT_OK


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------

def _build_ifs(cfg: RunConfig):
    block = cfg.section("ifs", _IFS_DEFAULTS)
    kind = block["kind"]
    if kind == "strichartz":
        ifs = _cfg(make_strichartz_ifs, cfg.n, float(block["r"]))
    elif kind == "custom":
        raw_maps = block["maps"]
        if not raw_maps:
            raise ConfigError("custom ifs requires a nonempty 'maps' list")
        try:
            maps = tuple(
                Similarity(n=cfg.n, q=np.asarray(m["q"], dtype=float),
                           r=float(m["r"]))
                for m in raw_maps
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad ifs map entry: {exc}") from None
        ifs = _cfg(Ifs, n=cfg.n, maps=maps)
    else:
        raise ConfigError(f"unknown ifs kind {kind!r}")
    return ifs, block


def _pick_level(block: dict, cfg: RunConfig, full: int, quick: int) -> int:
    level = block.get("level")
    if level is None:
        level = full
    quick_level = block.get("quick_level")
    if quick_level is None:
        quick_level = min(quick, int(level))
    return int(quick_level) if cfg.quick else int(level)


def _measure_for(cfg: RunConfig, level: int):
    """Measure from the 'measure' block if present, else a cylinder measure."""
    if "measure" in cfg.blocks:
        m = cfg.section("measure", _MEASURE_DEFAULTS)
        if not m["csv"]:
            raise ConfigError("measure block requires a 'csv' path")
        try:
            mu = DiscreteMeasure.from_csv(m["csv"], label=m["label"] or str(m["csv"]),
                                          spacing=m["spacing"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load measure: {exc}") from None
        if mu.spacing is None:
            print(f"note: measure {m['csv']} has no 'spacing'; the "
                  "4x-spacing resolution floor is off", file=sys.stderr)
        return mu, None, {"measure": m}
    ifs, block = _build_ifs(cfg)
    mu = cylinder_measure(ifs, level, atom_cap=cfg.atom_cap)
    return mu, ifs, {"ifs": {**block, "level_used": level}}


def _dimension_for(explicit, ifs) -> float:
    if explicit is not None:
        return float(explicit)
    if ifs is None:
        raise ConfigError("an explicit dimension 'a' is required for csv measures")
    return similarity_dimension(ifs)


def _support_points(mu: DiscreteMeasure, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    count = min(int(count), len(mu))
    idx = np.sort(rng.choice(len(mu), size=count, replace=False, shuffle=False))
    return mu.points[idx]


def _eps_schedule(block: dict, start: float, ratio: float, count: int) -> np.ndarray:
    if block["eps"] is not None:
        eps = np.asarray(block["eps"], dtype=float)
    else:
        start = float(block["eps_start"]) if block["eps_start"] is not None else start
        ratio = float(block["eps_ratio"]) if block["eps_ratio"] is not None else ratio
        count = int(block["eps_count"]) if block["eps_count"] is not None else count
        if not (0.0 < ratio < 1.0) or count < 1 or start <= 0.0:
            raise ConfigError("eps schedule needs start > 0, 0 < ratio < 1, count >= 1")
        eps = start * ratio ** np.arange(count)
    if eps.ndim != 1 or eps.size == 0 or np.any(eps <= 0.0) \
            or np.any(np.diff(eps) >= 0.0):
        raise ConfigError("eps values must be positive and strictly decreasing")
    return eps


def _radii_for(cfg: RunConfig, diag: dict, mu: DiscreteMeasure) -> tuple:
    """Configured radii as given; default radii only down to the floor."""
    try:
        radii = tuple(float(r) for r in diag["radii"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad radii: {exc}") from None
    if "radii" in cfg.blocks.get("diagnostics", {}):
        return radii
    return tuple(r for r in radii if r >= _resolution_floor(mu))


def _cone_family(n: int, count: int, seed: int):
    """Draws from the cones' subgroup family: the center line plus, for
    n >= 2, horizontal planes (there are none in the n = 1 group, so the
    draws all collapse to the center line there)."""
    rng = np.random.default_rng(seed)
    specs = [(make_vertical(n, []), {"kind": "taxis"})]
    if n >= 2:
        while len(specs) < count:
            u = rng.normal(size=2 * n)
            u /= np.linalg.norm(u)
            j = np.concatenate([u[n:], -u[:n]])
            w = rng.normal(size=2 * n)
            w -= (w @ u) * u + (w @ j) * j
            norm_w = np.linalg.norm(w)
            if norm_w < 1e-6:
                continue
            basis = np.stack([u, w / norm_w])
            specs.append((make_horizontal(n, basis),
                          {"kind": "horizontal", "basis": basis.tolist()}))
    return specs


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _cmd_selftest(cfg: RunConfig) -> int:
    block = cfg.section("selftest", _SELFTEST_DEFAULTS)
    results = run_selftest(samples=int(block["samples"]), seed=cfg.seed,
                           eq_tol=float(block["eq_tol"]), quick=cfg.quick)
    for r in results:
        mark = "ok" if r.passed else "FAIL"
        print(f"[{mark:>4}] {r.name}: worst={r.worst:.3e} tol={r.tol:.1e} "
              f"samples={r.samples}")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")
    payload = {
        "checks": [
            {"name": r.name, "samples": r.samples, "worst": r.worst,
             "tol": r.tol, "passed": r.passed}
            for r in results
        ],
        "passed": passed,
        "total": len(results),
    }
    _emit_json(cfg, "selftest.json", "selftest", {"selftest": block}, payload)
    failing = [r for r in results if not r.passed]
    if failing:
        print(f"first failing property: {failing[0].name}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _cmd_ifs_generate(cfg: RunConfig) -> int:
    ifs, block = _build_ifs(cfg)
    level = _pick_level(block, cfg, full=4, quick=3)
    mu = cylinder_measure(ifs, level, atom_cap=cfg.atom_cap)
    csv_path = Path(cfg.output_dir) / "ifs_measure.csv"
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    mu.to_csv(csv_path)
    payload = {
        "atoms": len(mu),
        "total_mass": mu.total_mass,
        "spacing": mu.spacing,
        "level": level,
        "maps": len(ifs.maps),
        "similarity_dimension": similarity_dimension(ifs),
        "csv": csv_path.name,
    }
    _emit_json(cfg, "ifs_generate.json", "ifs generate",
               {"ifs": {**block, "level_used": level}}, payload)
    print(f"wrote {len(mu)} atoms (mass {mu.total_mass:.12g}) to {csv_path}")
    return EXIT_OK


def _cmd_ifs_verify(cfg: RunConfig) -> int:
    ifs, block = _build_ifs(cfg)
    samples = int(block["samples"])
    if cfg.quick:
        samples = max(1000, samples // 10)
    payload = {}
    region = None
    if ifs.strichartz is not None:
        phi = _cfg(phi_fixed_point, cfg.n, ifs.strichartz.r,
                   resolution=int(block["resolution"]),
                   tol=float(block["phi_tol"]))
        region = verify_invariant_region(ifs, phi, sample_count=samples,
                                         seed=cfg.seed)
        ratios = phi.contraction_ratios()
        payload["phi"] = {
            "resolution": phi.resolution,
            "iterations": len(phi.history),
            "residual": phi.residual,
            "max_contraction": float(ratios.max()) if ratios.size else 0.0,
        }
        payload["region"] = {
            "sample_count": region.sample_count,
            "violations": region.violations,
            "witness": None if region.witness is None else region.witness.tolist(),
            "min_lower_margin": region.min_lower_margin,
            "min_upper_margin": region.min_upper_margin,
            "slack": region.slack,
            "discretization_sup": region.discretization_sup,
            "slab_thickness": region.slab_thickness,
            "offset_spacing": region.offset_spacing,
            "vertical_separation": region.vertical_separation,
            "horizontal_gap": region.horizontal_gap,
            "disjoint_certified": region.disjoint_certified,
        }
    sep_level = int(block["separation_level"])
    if cfg.quick:
        sep_level = max(1, sep_level - 1)
    separation = min_piece_separation(ifs, sep_level)
    payload["separation"] = {"level": sep_level, "value": separation}
    certified = (region is None or region.certified) and separation > 0.0
    verdict = "certified" if certified else "uncertified"
    payload["verdict"] = verdict
    _emit_json(cfg, "ifs_verify.json", "ifs verify",
               {"ifs": {**block, "samples_used": samples,
                        "separation_level_used": sep_level}}, payload)
    if region is not None:
        print(f"region: {region.violations} violations / {region.sample_count} "
              f"samples, slack {region.slack:.3e}")
    print(f"piece separation at level {sep_level}: {separation:.6g} "
          f"-> {verdict}")
    return _expect_gate(block["expect"], verdict)


def _cmd_measure_ad(cfg: RunConfig) -> int:
    diag = cfg.section("diagnostics", _DIAG_DEFAULTS)
    level = _pick_level(diag, cfg, full=5, quick=4)
    mu, ifs, sections = _measure_for(cfg, level)
    a = _dimension_for(diag["a"], ifs)
    report = _cfg(ad_regularity_report, mu, a, centers=diag["centers"],
                  radii=_radii_for(cfg, diag, mu), seed=cfg.seed,
                  c_cap=float(diag["c_cap"]))
    verdict = "regular" if report.regular else "irregular"
    payload = {
        "a": report.a,
        "centers": report.centers.tolist(),
        "radii": report.radii.tolist(),
        "min_ratio": report.min_ratio,
        "max_ratio": report.max_ratio,
        "implied_c": report.implied_c,
        "c_cap": report.c_cap,
        "atoms": len(mu),
        "verdict": verdict,
    }
    _emit_json(cfg, "ad_report.json", "measure ad-report",
               {"diagnostics": diag, **sections}, payload)
    print(f"implied C = {report.implied_c:.4g} over "
          f"{report.centers.shape[0]} centers (cap {report.c_cap:g}) "
          f"-> {verdict}")
    return _expect_gate(diag["expect"], verdict)


def _cmd_riesz_transform(cfg: RunConfig) -> int:
    block = cfg.section("riesz", _RIESZ_DEFAULTS)
    level = _pick_level(block, cfg, full=4, quick=3)
    mu, _, sections = _measure_for(cfg, level)
    params = _cfg(RieszParams, s=float(block["s"]), n=mu.n)
    eps = _eps_schedule(block, start=0.25, ratio=0.25, count=3)
    if block["point_coords"] is not None:
        pts = np.asarray(block["point_coords"], dtype=float).reshape(
            -1, ambient_dim(mu.n))
    else:
        count = 8 if block["points"] is None else int(block["points"])
        pts = _support_points(mu, count, cfg.seed)
    rows = []
    per_eps_max = np.zeros(eps.size)
    for i, p in enumerate(pts):
        for k, e in enumerate(eps):
            res = truncated_transform(mu, params, None, p, float(e))
            per_eps_max[k] = max(per_eps_max[k], float(np.abs(res.value).max()))
            rows.extend((i, e, c, v) for c, v in enumerate(res.value))
    csv_path = _write_csv(cfg, "riesz_transform.csv",
                          "point_index,eps,coord,value", rows)
    payload = {
        "s": params.s,
        "atoms": len(mu),
        "eps": eps.tolist(),
        "points": pts.tolist(),
        "per_eps_max_abs": per_eps_max.tolist(),
        "rows": len(rows),
        "csv": csv_path.name,
    }
    _emit_json(cfg, "riesz_transform.json", "riesz transform",
               {"riesz": block, **sections}, payload)
    print(f"wrote {len(rows)} rows to {csv_path}")
    return EXIT_OK


def _cmd_riesz_divergence(cfg: RunConfig) -> int:
    block = cfg.section("riesz", _RIESZ_DEFAULTS)
    level = _pick_level(block, cfg, full=6, quick=5)
    mu, ifs, sections = _measure_for(cfg, level)
    params = _cfg(RieszParams, s=float(block["s"]), n=mu.n)
    eps = _eps_schedule(block, start=0.25, ratio=0.25,
                        count=4 if cfg.quick else 5)
    count = 32 if block["points"] is None else int(block["points"])
    if ifs is not None:
        # cycle atoms see scale-periodic annuli, the clean growth probes
        idx = cycle_atom_indices(len(ifs.maps), level, count, seed=cfg.seed)
        pts = mu.points[idx]
    else:
        pts = _support_points(mu, count, cfg.seed)
    reports = _cfg(divergence_probe, mu, params, pts, eps,
                   c=float(block["c"]), threads=cfg.threads)
    diverging = sum(r.verdict == "diverging" for r in reports)
    bounded = sum(r.verdict == "bounded" for r in reports)
    needed = math.ceil(float(block["fraction"]) * len(reports))
    overall = "diverging" if diverging >= needed else "not-diverging"
    rows = []
    for i, rep in enumerate(reports):
        for k, e in enumerate(rep.eps):
            rows.extend((i, e, c, m) for c, m in enumerate(rep.magnitudes[k]))
    csv_path = _write_csv(cfg, "riesz_divergence.csv",
                          "point_index,eps,coord,magnitude", rows)
    payload = {
        "s": params.s,
        "atoms": len(mu),
        "eps": list(reports[0].eps),
        "needed": needed,
        "diverging": diverging,
        "bounded": bounded,
        "inconclusive": len(reports) - diverging - bounded,
        "overall": overall,
        "per_point": [
            {"point": rep.point.tolist(), "verdict": rep.verdict,
             "slopes": rep.slopes.tolist(),
             "max_magnitudes": rep.max_magnitudes.tolist()}
            for rep in reports
        ],
        "csv": csv_path.name,
    }
    _emit_json(cfg, "riesz_divergence.json", "riesz divergence",
               {"riesz": block, **sections}, payload)
    print(f"{diverging}/{len(reports)} points diverging (needed {needed}) "
          f"-> {overall}")
    return _expect_gate(block["expect"], overall)


def _cmd_riesz_subgroup(cfg: RunConfig) -> int:
    block = cfg.section("riesz", _RIESZ_DEFAULTS)
    raw_sub = block["subgroup"]
    if raw_sub is None:
        raw_sub = {"kind": "vertical", "basis": []}
    if not isinstance(raw_sub, dict) or set(raw_sub) - {"kind", "basis"}:
        raise ConfigError("subgroup block must be {kind, basis}")
    kind = raw_sub.get("kind", "vertical")
    basis = raw_sub.get("basis", [])
    if kind == "vertical":
        spec = _cfg(make_vertical, cfg.n, basis)
    elif kind == "horizontal":
        spec = _cfg(make_horizontal, cfg.n, basis)
    else:
        raise ConfigError(f"unknown subgroup kind {kind!r}")
    eps = _eps_schedule(block, start=0.5, ratio=0.5, count=8)
    count = 8 if block["points"] is None else int(block["points"])
    report = _cfg(subgroup_boundedness_probe, spec, float(block["s"]), eps,
                  window=float(block["window"]),
                  resolution=int(block["resolution"]),
                  points=count, seed=cfg.seed,
                  slope_tol=float(block["slope_tol"]))
    rows = list(zip(report.eps, report.per_eps_max))
    csv_path = _write_csv(cfg, "subgroup_probe.csv", "eps,max_abs", rows)
    payload = {
        "kind": report.kind,
        "s": report.s,
        "window": report.window,
        "resolution": report.resolution,
        "eps": list(report.eps),
        "points": report.points.tolist(),
        "per_eps_max": report.per_eps_max.tolist(),
        "bound": report.bound,
        "slope": report.slope,
        "verdict": report.verdict,
        "csv": csv_path.name,
    }
    _emit_json(cfg, "subgroup_probe.json", "riesz subgroup-probe",
               {"riesz": block}, payload)
    print(f"bound {report.bound:.4g}, slope {report.slope:.3e} "
          f"-> {report.verdict}")
    return _expect_gate(block["expect"], report.verdict)


def _cmd_tangent_blowup(cfg: RunConfig) -> int:
    block = cfg.section("tangent", _TANGENT_DEFAULTS)
    level = _pick_level(block, cfg, full=5, quick=4)
    mu, ifs, sections = _measure_for(cfg, level)
    if block["point"] is not None:
        center = np.asarray(block["point"], dtype=float)
    else:
        if ifs is None:
            raise ConfigError("csv measures need an explicit blow-up 'point'")
        center = _cfg(word_similarity, ifs, block["word"]).fixed_point().coords
    s = block["s"]
    if s is None and block["normalization"] == "power":
        s = _dimension_for(None, ifs)
    nu = _cfg(blowup_measure, mu, center, float(block["r"]),
              s=None if s is None else float(s),
              normalization=str(block["normalization"]))
    csv_path = Path(cfg.output_dir) / "blowup_measure.csv"
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    nu.to_csv(csv_path)
    payload = {
        "r": float(block["r"]),
        "normalization": block["normalization"],
        "s": s,
        "center": center.tolist(),
        "atoms": len(nu),
        "total_mass": nu.total_mass,
        "label": nu.label,
        "csv": csv_path.name,
    }
    _emit_json(cfg, "blowup.json", "tangent blowup",
               {"tangent": block, **sections}, payload)
    print(f"blow-up at r={float(block['r']):g}: {len(nu)} atoms, "
          f"mass {nu.total_mass:.6g}")
    return EXIT_OK


def _cmd_cone_deficiency(cfg: RunConfig) -> int:
    diag = cfg.section("diagnostics", _DIAG_DEFAULTS)
    level = _pick_level(diag, cfg, full=5, quick=4)
    mu, ifs, sections = _measure_for(cfg, level)
    a = _dimension_for(diag["a"], ifs)
    pts = _support_points(mu, int(diag["cone_points"]), cfg.seed)
    requested = int(diag["cone_subgroups"])
    family = _cone_family(mu.n, requested, cfg.seed)
    radii = _radii_for(cfg, diag, mu)
    rows = []
    floor = math.inf
    for gi, (spec, _) in enumerate(family):
        for ki, k in enumerate(pts):
            ratios = _cfg(cone_deficiency, mu, a, k, spec,
                          float(diag["delta"]), radii)
            floor = min(floor, float(ratios.min()))
            rows.extend((ki, gi, r, v) for r, v in zip(radii, ratios))
    csv_path = _write_csv(cfg, "cone_deficiency.csv",
                          "point_index,subgroup_index,radius,ratio", rows)
    verdict = "positive-floor" if floor > 0.0 else "nonpositive-floor"
    payload = {
        "a": a,
        "delta": float(diag["delta"]),
        "radii": list(radii),
        "points": pts.tolist(),
        "subgroups": [desc for _, desc in family],
        "requested_subgroups": requested,
        "distinct_subgroups": len(family),
        "floor": floor,
        "verdict": verdict,
        "csv": csv_path.name,
    }
    _emit_json(cfg, "cone_deficiency.json", "cone-deficiency",
               {"diagnostics": diag, **sections}, payload)
    print(f"deficiency floor {floor:.6g} over {len(pts)} centers x "
          f"{len(family)} subgroups -> {verdict}")
    return _expect_gate(diag["expect"], verdict)


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--threads", type=int, default=None)
    common.add_argument("--quick", action="store_true", default=None,
                        help="reduced levels and sample counts")
    common.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (default '.')")

    parser = argparse.ArgumentParser(
        prog="heisriesz",
        description="Transform experiments on self-similar sets in the "
                    "Heisenberg group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the algebraic identity checks")
    p.set_defaults(handler=_cmd_selftest)

    ifs = sub.add_parser("ifs", help="build and verify the corner family")
    ifs_sub = ifs.add_subparsers(dest="subcommand", required=True)
    p = ifs_sub.add_parser("generate", parents=[common],
                           help="write a cylinder measure CSV")
    p.set_defaults(handler=_cmd_ifs_generate)
    p = ifs_sub.add_parser("verify", parents=[common],
                           help="invariant region and piece separation")
    p.set_defaults(handler=_cmd_ifs_verify)

    meas = sub.add_parser("measure", help="measure statistics")
    meas_sub = meas.add_subparsers(dest="subcommand", required=True)
    p = meas_sub.add_parser("ad-report", parents=[common],
                            help="ball-mass regularity report")
    p.set_defaults(handler=_cmd_measure_ad)

    rz = sub.add_parser("riesz", help="transform experiments")
    rz_sub = rz.add_subparsers(dest="subcommand", required=True)
    p = rz_sub.add_parser("transform", parents=[common],
                          help="truncated transform values at sample points")
    p.set_defaults(handler=_cmd_riesz_transform)
    p = rz_sub.add_parser("divergence", parents=[common],
                          help="annulus growth profiles on the fractal")
    p.set_defaults(handler=_cmd_riesz_divergence)
    p = rz_sub.add_parser("subgroup-probe", parents=[common],
                          help="boundedness on a subgroup's Haar sample")
    p.set_defaults(handler=_cmd_riesz_subgroup)

    tg = sub.add_parser("tangent", help="blow-up measures")
    tg_sub = tg.add_subparsers(dest="subcommand", required=True)
    p = tg_sub.add_parser("blowup", parents=[common],
                          help="zoomed measure at a cylinder fixed point")
    p.set_defaults(handler=_cmd_tangent_blowup)

    p = sub.add_parser("cone-deficiency", parents=[common],
                       help="mass outside cones around subgroups")
    p.set_defaults(handler=_cmd_cone_deficiency)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_run_config(args)
        return args.handler(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AtomCapExceeded as exc:
        print(f"atom cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
