"""Command-line front end: build systems and measures, run experiments.

Usage:
    heisriesz selftest [--quick]
    heisriesz ifs generate [--out DIR]
    heisriesz ifs verify
    heisriesz measure ad-report
    heisriesz riesz transform
    heisriesz riesz divergence [--quick]
    heisriesz riesz subgroup-probe
    heisriesz tangent blowup
    heisriesz cone-deficiency

Configuration comes from a JSON file (--config PATH) with optional
blocks "ifs", "measure", "riesz", "diagnostics", "tangent", "selftest";
the flags --seed, --quick and --out override file values.
Every JSON report embeds the resolved configuration, the seed and the
package version, so a fixed config and seed reproduce identical bytes.
CSV output uses '.' decimals, no locale.

Exit codes: 0 success, 1 failed selftest, 2 configuration error,
3 computed verdict contradicts the configured "expect", 4 atom cap
exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (_center_coords, _resolution_floor,
                          ad_regularity_report, blowup_measure,
                          cone_deficiency, divergence_probe,
                          subgroup_boundedness_probe)
from .fractal import (Ifs, Similarity, cycle_atom_indices, cylinder_measure,
                      make_strichartz_ifs, min_piece_separation,
                      phi_fixed_point, similarity_dimension,
                      verify_invariant_region, word_similarity)
from .measure import (DEFAULT_ATOM_CAP, AtomCapExceeded, DiscreteMeasure,
                      write_csv)
from .riesz import RieszParams, truncations
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


# The run settings a config may set at its top level, beside the blocks.
_RUN_KEYS = ("schema", "n", "seed", "quick", "atom_cap", "out")

# The share of probe points that must diverge for a "diverging" verdict.
DIVERGING_FRACTION = 0.75

# Per-block defaults; a config key outside its block's table is an error.
# A level left None is the command's own full level, or one below it
# under --quick.
_DEFAULTS = {
    "ifs": {
        "kind": "strichartz",
        "r": 0.25,
        "maps": None,
        "level": None,
        "resolution": 256,
        "expect": None,
    },
    "measure": {"csv": None, "spacing": None, "a": None},
    "riesz": {
        "eps": None,
        "points": None,
        "level": None,
        "window": 2.0,
        "resolution": 2048,
        "subgroup": None,
        "expect": None,
    },
    "diagnostics": {
        "centers": 64,
        "radii": (0.25, 0.0625, 0.015625, 0.00390625),
        "level": None,
        "delta": 0.5,
        "cone_points": 8,
        "cone_subgroups": 8,
        "expect": None,
    },
    "tangent": {
        "word": (0,),
        "r": 0.25,
        "level": None,
        "normalization": "power",
        "point": None,
    },
    "selftest": {},
}


@dataclass
class RunConfig:
    n: int
    seed: int
    quick: bool
    atom_cap: int
    out: str
    blocks: dict

    def section(self, name: str) -> dict:
        defaults = _DEFAULTS[name]
        block = self.blocks.get(name, {})
        if not isinstance(block, dict):
            raise ConfigError(f"config block {name!r} must be a JSON object")
        unknown = sorted(set(block) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown keys in {name!r}: {', '.join(unknown)}")
        return {**defaults, **block}


def _integer_setting(settings: dict, key: str, least: int) -> int:
    """A JSON integer >= least; an integral float such as 1e7 passes, a
    bool or a fraction is an error, never coerced."""
    value = settings[key]
    integral = (isinstance(value, int) and not isinstance(value, bool)
                or isinstance(value, float) and value.is_integer())
    if not integral or value < least:
        raise ConfigError(f"{key!r} must be an integer >= {least}, got {value!r}")
    return int(value)


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
    unknown = sorted(set(raw) - set(_DEFAULTS) - set(_RUN_KEYS))
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {', '.join(unknown)}")
    # the flags override the file's values
    settings = {"n": 1, "seed": 0, "quick": False,
                "atom_cap": DEFAULT_ATOM_CAP, "out": ".", **raw,
                **{k: v for k, v in vars(args).items()
                   if k in _RUN_KEYS and v is not None}}
    n, atom_cap = (_integer_setting(settings, key, 1)
                   for key in ("n", "atom_cap"))
    quick = settings["quick"]
    if not isinstance(quick, bool):
        raise ConfigError(f"'quick' must be true or false, got {quick!r}")
    blocks = {k: raw[k] for k in _DEFAULTS if k in raw}
    return RunConfig(n=n, seed=_integer_setting(settings, "seed", 0),
                     quick=quick, atom_cap=atom_cap, out=str(settings["out"]),
                     blocks=blocks)


@dataclass
class Outcome:
    """What a command computed; :func:`_run` writes and reports it.

    ``csv`` is a measure or a (header, rows) pair, written to the
    command's CSV file; ``message`` may name that file as ``{csv}``.
    A ``failure`` line fails the run; a ``verdict`` other than a
    configured ``expect`` contradicts it.
    """

    payload: dict
    sections: dict
    message: str
    verdict: str | None = None
    expect: object = None
    csv: object = None
    failure: str | None = None


def _run(cfg: RunConfig, command: str, stem: str, csv: str | None,
         compute) -> int:
    """Compute a command, write its CSV and JSON report, print, gate."""
    ifs_block = cfg.blocks.get("ifs")
    if (command not in ("ifs generate", "ifs verify")
            and isinstance(ifs_block, dict) and "level" in ifs_block):
        # every other command takes its level from its own block
        raise ConfigError("config key 'ifs.level' is read only by "
                          f"'ifs generate' and 'ifs verify', not by '{command}'")
    res = compute(cfg)
    folder = Path(cfg.out)
    folder.mkdir(parents=True, exist_ok=True)
    payload, message = res.payload, res.message
    if csv is not None:
        path = folder / csv
        if isinstance(res.csv, DiscreteMeasure):
            res.csv.to_csv(path)
        else:
            header, rows = res.csv
            write_csv(path, header, [np.array(list(rows), dtype=float)])
        payload, message = {**payload, "csv": csv}, message.format(csv=path)
    # the run settings without the raw blocks, then the resolved blocks
    config = {k: v for k, v in vars(cfg).items() if k != "blocks"}
    doc = {
        "command": command,
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "config": {**config, **res.sections},
        "results": payload,
    }
    with open(folder / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, default=np.ndarray.tolist)
        fh.write("\n")
    print(message)
    if res.failure is not None:
        print(res.failure, file=sys.stderr)
        return EXIT_FAIL
    if res.expect is not None and res.expect != res.verdict:
        print(f"verdict {res.verdict!r} contradicts expected {res.expect!r}",
              file=sys.stderr)
        return EXIT_CONTRADICTION
    return EXIT_OK


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------

def _build_ifs(cfg: RunConfig):
    block = cfg.section("ifs")
    kind = block["kind"]
    if kind == "strichartz":
        ifs = make_strichartz_ifs(cfg.n, float(block["r"]))
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
        ifs = Ifs(n=cfg.n, maps=maps)
    else:
        raise ConfigError(f"unknown ifs kind {kind!r}")
    return ifs, block


def _pick_level(block: dict, cfg: RunConfig, full: int) -> int:
    """The block's level, else the command's full level; under --quick
    the lesser of that and the quick level, one below the full level."""
    level = (full if block["level"] is None
             else _integer_setting(block, "level", 0))
    return min(level, full - 1) if cfg.quick else level


def _measure_for(cfg: RunConfig, name: str, full: int):
    """The command's block and its measure: the 'measure' block's CSV if
    present, else a cylinder measure at the block's level.

    Returns (block, measure, ifs or None, dimension, config sections);
    the dimension is the CSV's 'measure.a', else the similarity dimension.
    """
    block = cfg.section(name)
    if "measure" in cfg.blocks:
        if block["level"] is not None:
            raise ConfigError(f"config key '{name}.level' is not read when "
                              "a 'measure' block supplies the atoms")
        m = cfg.section("measure")
        if not m["csv"]:
            raise ConfigError("measure block requires a 'csv' path")
        a = m["a"]
        if isinstance(a, bool) or not isinstance(a, (int, float)) \
                or not 0.0 < a < math.inf:
            raise ConfigError("a csv measure needs its dimension 'measure.a', "
                              f"a positive number, got {a!r}")
        try:
            mu = DiscreteMeasure.from_csv(m["csv"], label=str(m["csv"]),
                                          spacing=m["spacing"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load measure: {exc}") from None
        if mu.spacing is None:
            print(f"note: measure {m['csv']} has no 'spacing'; the "
                  "4x-spacing resolution floor is off", file=sys.stderr)
        return block, mu, None, float(a), {name: block, "measure": m}
    level = _pick_level(block, cfg, full)
    ifs, ifs_block = _build_ifs(cfg)
    mu = cylinder_measure(ifs, level, atom_cap=cfg.atom_cap)
    return block, mu, ifs, similarity_dimension(ifs), {
        name: block, "ifs": {**ifs_block, "level_used": level}}


def _eps_schedule(block: dict, start: float, ratio: float, count: int) -> np.ndarray:
    """The block's cutoffs, else the geometric ladder start * ratio^k."""
    if block["eps"] is None:
        return start * ratio ** np.arange(count)
    eps = np.asarray(block["eps"], dtype=float)
    if eps.ndim != 1 or eps.size == 0 or np.any(eps <= 0.0) \
            or np.any(np.diff(eps) >= 0.0):
        raise ConfigError("eps values must be positive and strictly decreasing")
    return eps


def _radii_for(cfg: RunConfig, diag: dict, mu: DiscreteMeasure) -> tuple:
    """Configured radii as given; default radii only down to the floor."""
    radii = tuple(float(r) for r in diag["radii"])
    if "radii" in cfg.blocks.get("diagnostics", {}):
        return radii
    return tuple(r for r in radii if r >= _resolution_floor(mu))


def _cone_family(n: int, a: float, count: int, seed: int):
    """Draws from the homogeneous subgroups of Hausdorff dimension a.

    For a = 2: the center line plus, for n >= 2, horizontal planes (there
    are none in the n = 1 group, so the draws all collapse to the center
    line there).  For an integer a in [3, 2n + 2]: vertical subgroups
    L x T with dim L = a - 2, the whole group once when L = R^{2n}.  No
    other a is the dimension of a homogeneous subgroup of H^n.
    """
    if not (float(a).is_integer() and 2 <= a <= 2 * n + 2):
        raise ConfigError(
            f"cone-deficiency needs an integer dimension a in [2, {2 * n + 2}] "
            f"for n = {n}, got a = {a}")
    dim_l = int(a) - 2
    rng = np.random.default_rng(seed)
    if dim_l > 0:
        specs = [make_vertical(n, rng.normal(size=(dim_l, 2 * n)))
                 for _ in range(max(count, 1) if dim_l < 2 * n else 1)]
        return [(spec, {"kind": "vertical", "basis": spec.basis.tolist()})
                for spec in specs]
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

def _cmd_selftest(cfg: RunConfig) -> Outcome:
    block = cfg.section("selftest")
    results = run_selftest(seed=cfg.seed, quick=cfg.quick)
    lines = [f"[{'ok' if r.passed else 'FAIL':>4}] {r.name}: "
             f"worst={r.worst:.3e} tol={r.tol:.1e} samples={r.samples}"
             for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    failing = [r.name for r in results if not r.passed]
    payload = {
        "checks": [{**asdict(r), "passed": r.passed} for r in results],
        "passed": passed,
        "total": len(results),
    }
    return Outcome(payload, {"selftest": block}, "\n".join(lines),
                   failure=f"first failing property: {failing[0]}"
                   if failing else None)


def _cmd_ifs_generate(cfg: RunConfig) -> Outcome:
    ifs, block = _build_ifs(cfg)
    level = _pick_level(block, cfg, full=4)
    mu = cylinder_measure(ifs, level, atom_cap=cfg.atom_cap)
    payload = {
        "atoms": len(mu),
        "total_mass": mu.total_mass,
        "spacing": mu.spacing,
        "level": level,
        "maps": len(ifs.maps),
        "similarity_dimension": similarity_dimension(ifs),
    }
    return Outcome(payload, {"ifs": {**block, "level_used": level}},
                   f"wrote {len(mu)} atoms (mass {mu.total_mass:.12g}) to {{csv}}",
                   csv=mu)


def _cmd_ifs_verify(cfg: RunConfig) -> Outcome:
    ifs, block = _build_ifs(cfg)
    level = _pick_level(block, cfg, full=4)
    payload, lines = {}, []
    region = None
    if block["kind"] == "strichartz":
        phi = phi_fixed_point(cfg.n, float(block["r"]),
                              resolution=int(block["resolution"]),
                              atom_cap=cfg.atom_cap)
        region = verify_invariant_region(
            ifs, phi, sample_count=10_000 if cfg.quick else 100_000,
            seed=cfg.seed)
        ratios = phi.contraction_ratios()
        payload["phi"] = {
            "resolution": phi.resolution,
            "iterations": len(phi.history),
            "residual": phi.residual,
            "max_contraction": float(ratios.max()) if ratios.size else 0.0,
        }
        payload["region"] = asdict(region)
        lines.append(f"region: {region.violations} violations / "
                     f"{region.sample_count} samples, slack {region.slack:.3e}")
    separation = min_piece_separation(ifs, level)
    certified = (region is None or region.certified) and separation > 0.0
    verdict = "certified" if certified else "uncertified"
    payload["separation"] = {"level": level, "value": separation}
    payload["verdict"] = verdict
    lines.append(f"piece separation at level {level}: {separation:.6g} "
                 f"-> {verdict}")
    sections = {"ifs": {**block, "level_used": level}}
    return Outcome(payload, sections, "\n".join(lines), verdict,
                   block["expect"])


def _cmd_measure_ad(cfg: RunConfig) -> Outcome:
    diag, mu, _, a, sections = _measure_for(cfg, "diagnostics", full=5)
    report = ad_regularity_report(mu, a, centers=diag["centers"],
                                  radii=_radii_for(cfg, diag, mu),
                                  seed=cfg.seed)
    verdict = "regular" if report.regular else "irregular"
    payload = {k: v for k, v in asdict(report).items()
               if k not in ("ratios", "seed")}
    payload.update(atoms=len(mu), verdict=verdict)
    return Outcome(payload, sections,
                   f"implied C = {report.implied_c:.4g} over "
                   f"{report.centers.shape[0]} centers (cap {report.c_cap:g}) "
                   f"-> {verdict}", verdict, diag["expect"])


def _cmd_riesz_transform(cfg: RunConfig) -> Outcome:
    block, mu, _, a, sections = _measure_for(cfg, "riesz", full=4)
    params = RieszParams(s=a, n=mu.n)
    eps = _eps_schedule(block, start=0.25, ratio=0.25, count=3)
    points = 8 if block["points"] is None else block["points"]
    pts = _center_coords(mu, points, cfg.seed)
    rows = []
    per_eps_max = np.zeros(eps.size)
    for i, p in enumerate(pts):
        # one sweep per point: column k is the truncation at eps[k]
        values = truncations(mu, params, None, p, eps)
        per_eps_max = np.maximum(per_eps_max, np.abs(values).max(axis=0))
        rows.extend((i, e, c, v) for k, e in enumerate(eps)
                    for c, v in enumerate(values[:, k]))
    payload = {
        "s": params.s,
        "atoms": len(mu),
        "eps": eps,
        "points": pts,
        "per_eps_max_abs": per_eps_max,
        "rows": len(rows),
    }
    return Outcome(payload, sections, f"wrote {len(rows)} rows to {{csv}}",
                   csv=("point_index,eps,coord,value", rows))


def _cmd_riesz_divergence(cfg: RunConfig) -> Outcome:
    block, mu, ifs, a, sections = _measure_for(cfg, "riesz", full=6)
    params = RieszParams(s=a, n=mu.n)
    eps = _eps_schedule(block, start=0.25, ratio=0.25,
                        count=4 if cfg.quick else 5)
    points = 32 if block["points"] is None else block["points"]
    if ifs is not None and isinstance(points, int):
        # cycle atoms see scale-periodic annuli, the clean growth probes
        idx = cycle_atom_indices(len(ifs.maps), sections["ifs"]["level_used"],
                                 points, seed=cfg.seed)
        pts = mu.points[idx]
    else:
        pts = _center_coords(mu, points, cfg.seed)
    reports = divergence_probe(mu, params, pts, eps)
    diverging = sum(r.verdict == "diverging" for r in reports)
    bounded = sum(r.verdict == "bounded" for r in reports)
    needed = math.ceil(DIVERGING_FRACTION * len(reports))
    overall = "diverging" if diverging >= needed else "not-diverging"
    rows = [(i, e, c, m) for i, rep in enumerate(reports)
            for k, e in enumerate(rep.eps)
            for c, m in enumerate(rep.magnitudes[k])]
    payload = {
        "s": params.s,
        "atoms": len(mu),
        "eps": reports[0].eps,
        "needed": needed,
        "diverging": diverging,
        "bounded": bounded,
        "inconclusive": len(reports) - diverging - bounded,
        "overall": overall,
        "per_point": [
            {"point": rep.point, "verdict": rep.verdict,
             "slopes": rep.slopes, "max_magnitudes": rep.max_magnitudes}
            for rep in reports
        ],
    }
    return Outcome(payload, sections,
                   f"{diverging}/{len(reports)} points diverging "
                   f"(needed {needed}) -> {overall}", overall, block["expect"],
                   csv=("point_index,eps,coord,magnitude", rows))


def _cmd_riesz_subgroup(cfg: RunConfig) -> Outcome:
    block = cfg.section("riesz")
    raw_sub = {} if block["subgroup"] is None else block["subgroup"]
    if not isinstance(raw_sub, dict) or set(raw_sub) - {"kind", "basis"}:
        raise ConfigError("subgroup block must be {kind, basis}")
    kind = raw_sub.get("kind", "vertical")
    make = {"vertical": make_vertical, "horizontal": make_horizontal}.get(kind)
    if make is None:
        raise ConfigError(f"unknown subgroup kind {kind!r}")
    spec = make(cfg.n, raw_sub.get("basis", []))
    eps = _eps_schedule(block, start=0.5, ratio=0.5, count=8)
    count = 8 if block["points"] is None else int(block["points"])
    # the kernel degree is the dimension of the subgroup's Haar measure
    report = subgroup_boundedness_probe(
        spec, float(spec.hausdorff_dimension), eps,
        window=float(block["window"]), resolution=int(block["resolution"]),
        points=count, seed=cfg.seed, atom_cap=cfg.atom_cap)
    payload = {k: v for k, v in asdict(report).items()
               if k not in ("per_point_max", "seed")}
    return Outcome(payload, {"riesz": block},
                   f"bound {report.bound:.4g}, slope {report.slope:.3e} "
                   f"-> {report.verdict}", report.verdict, block["expect"],
                   csv=("eps,max_abs", zip(report.eps, report.per_eps_max)))


def _cmd_tangent_blowup(cfg: RunConfig) -> Outcome:
    block, mu, ifs, a, sections = _measure_for(cfg, "tangent", full=5)
    if block["point"] is not None:
        center = np.asarray(block["point"], dtype=float)
    else:
        if ifs is None:
            raise ConfigError("csv measures need an explicit blow-up 'point'")
        center = word_similarity(ifs, block["word"]).fixed_point()
    s = a if block["normalization"] == "power" else None
    nu = blowup_measure(mu, center, float(block["r"]), s=s,
                        normalization=str(block["normalization"]))
    payload = {
        "r": float(block["r"]),
        "normalization": block["normalization"],
        "s": s,
        "center": center,
        "atoms": len(nu),
        "total_mass": nu.total_mass,
        "label": nu.label,
    }
    return Outcome(payload, sections,
                   f"blow-up at r={float(block['r']):g}: {len(nu)} atoms, "
                   f"mass {nu.total_mass:.6g}", csv=nu)


def _cmd_cone_deficiency(cfg: RunConfig) -> Outcome:
    diag, mu, _, a, sections = _measure_for(cfg, "diagnostics", full=5)
    pts = _center_coords(mu, int(diag["cone_points"]), cfg.seed)
    requested = int(diag["cone_subgroups"])
    family = _cone_family(mu.n, a, requested, cfg.seed)
    radii = _radii_for(cfg, diag, mu)
    rows = []
    floor = math.inf
    for gi, (spec, _) in enumerate(family):
        for ki, k in enumerate(pts):
            ratios = cone_deficiency(mu, a, k, spec, float(diag["delta"]),
                                     radii)
            # np.minimum keeps a NaN ratio, which fails floor > 0
            floor = float(np.minimum(floor, ratios.min()))
            rows.extend((ki, gi, r, v) for r, v in zip(radii, ratios))
    verdict = "positive-floor" if floor > 0.0 else "nonpositive-floor"
    payload = {
        "a": a,
        "delta": float(diag["delta"]),
        "radii": radii,
        "points": pts,
        "subgroups": [desc for _, desc in family],
        "requested_subgroups": requested,
        "distinct_subgroups": len(family),
        "floor": floor,
        "verdict": verdict,
    }
    return Outcome(payload, sections,
                   f"deficiency floor {floor:.6g} over {len(pts)} centers x "
                   f"{len(family)} subgroups -> {verdict}", verdict,
                   diag["expect"],
                   csv=("point_index,subgroup_index,radius,ratio", rows))


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------

# (words, JSON stem, CSV name, compute, help), in the order of --help
COMMANDS = (
    (("selftest",), "selftest", None, _cmd_selftest,
     "run the algebraic identity checks"),
    (("ifs", "generate"), "ifs_generate", "ifs_measure.csv", _cmd_ifs_generate,
     "write a cylinder measure CSV"),
    (("ifs", "verify"), "ifs_verify", None, _cmd_ifs_verify,
     "invariant region and piece separation"),
    (("measure", "ad-report"), "ad_report", None, _cmd_measure_ad,
     "ball-mass regularity report"),
    (("riesz", "transform"), "riesz_transform", "riesz_transform.csv",
     _cmd_riesz_transform, "truncated transform values at sample points"),
    (("riesz", "divergence"), "riesz_divergence", "riesz_divergence.csv",
     _cmd_riesz_divergence, "annulus growth profiles on the fractal"),
    (("riesz", "subgroup-probe"), "subgroup_probe", "subgroup_probe.csv",
     _cmd_riesz_subgroup, "boundedness on a subgroup's Haar sample"),
    (("tangent", "blowup"), "blowup", "blowup_measure.csv", _cmd_tangent_blowup,
     "zoomed measure at a cylinder fixed point"),
    (("cone-deficiency",), "cone_deficiency", "cone_deficiency.csv",
     _cmd_cone_deficiency, "mass outside cones around subgroups"),
)

_GROUP_HELP = {
    "ifs": "build and verify the corner family",
    "measure": "measure statistics",
    "riesz": "transform experiments",
    "tangent": "blow-up measures",
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--seed", type=int, default=None)
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
    groups = {}
    for entry in COMMANDS:
        words, help_text = entry[0], entry[-1]
        parent = sub
        if len(words) == 2:
            if words[0] not in groups:
                group = sub.add_parser(words[0], help=_GROUP_HELP[words[0]])
                groups[words[0]] = group.add_subparsers(dest="subcommand",
                                                        required=True)
            parent = groups[words[0]]
        p = parent.add_parser(words[-1], parents=[common], help=help_text)
        p.set_defaults(entry=entry)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    words, stem, csv, compute, _ = args.entry
    try:
        cfg = _load_run_config(args)
        return _run(cfg, " ".join(words), stem, csv, compute)
    except (TypeError, ValueError) as exc:
        # includes ConfigError: a bad value read while a command loads or
        # computes from its config is a configuration error
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AtomCapExceeded as exc:
        print(f"atom cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
