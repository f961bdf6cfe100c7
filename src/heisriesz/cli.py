"""Command-line front end: build systems and measures, run experiments.

Usage: heisriesz COMMAND [--config PATH] [--seed N] [--quick] [--out DIR]
for the commands selftest, ifs generate, ifs verify, measure ad-report,
riesz transform, riesz divergence, riesz subgroup-probe, tangent blowup
and cone-deficiency.

Configuration comes from a JSON file (--config PATH) with optional
blocks "ifs", "measure", "riesz", "diagnostics" and "tangent"; the
flags --seed, --quick and --out override file values.
Every JSON report embeds the resolved configuration, the seed and the
package version, so a fixed config and seed reproduce identical bytes.
CSV output uses '.' decimals, no locale.

Exit codes: 0 success, 1 failed selftest, 2 configuration error (a
value not of its key's kind, or an "expect" that is not one of the
command's verdicts, exits 2 before any work), 3 computed verdict
contradicts the configured "expect", 4 atom cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

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


# The share of probe points that must diverge for a "diverging" verdict.
DIVERGING_FRACTION = 0.75


def _number(v) -> bool:
    """A finite JSON number: never a bool, a string or NaN."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


class _Kind(NamedTuple):
    """A setting's kind: its text in errors, its test, its typed value."""

    text: str
    test: Callable
    typed: Callable = lambda v: v


def _one_of(*choices) -> _Kind:
    return _Kind(" or ".join(map(repr, choices)) or "unset",
                 lambda v: not isinstance(v, bool) and v in choices)


# JSON has one number type, so an integral float such as 1e7 is an integer
_COUNT = _Kind("an integer >= 1",
               lambda v: _number(v) and v == int(v) >= 1, int)
_INDEX = _Kind("an integer >= 0",
               lambda v: _number(v) and v == int(v) >= 0, int)
_REAL = _Kind("a finite number", _number, float)
_POSITIVE = _Kind("a positive number", lambda v: _number(v) and v > 0, float)
_POINT = _Kind("a list of numbers",
               lambda v: isinstance(v, list) and all(map(_number, v)),
               lambda v: [float(x) for x in v])
_RADII = _Kind("a nonempty list of positive numbers",
               lambda v: _POINT.test(v) and v != [] and min(v) > 0,
               _POINT.typed)
_CUTOFFS = _Kind("a nonempty, strictly decreasing list of positive numbers",
                 lambda v: _RADII.test(v)
                 and all(a > b for a, b in zip(v, v[1:])), _POINT.typed)
_POINT_LIST = _Kind("a list of points",
                    lambda v: isinstance(v, list) and all(map(_POINT.test, v)),
                    lambda v: list(map(_POINT.typed, v)))
_POINTS = _Kind("an integer >= 1 or a list of points",
                lambda v: _COUNT.test(v) or _POINT_LIST.test(v),
                lambda v: int(v) if _number(v) else _POINT_LIST.typed(v))
_WORD = _Kind("a list of integers >= 0",
              lambda v: isinstance(v, list) and all(map(_INDEX.test, v)),
              lambda v: list(map(int, v)))
_MAPS = _Kind("a nonempty list of maps {q: list of numbers, r: number}",
              lambda v: isinstance(v, list) and v != [] and all(
                  isinstance(m, dict) and set(m) == {"q", "r"}
                  and _POINT.test(m["q"]) and _number(m["r"]) for m in v),
              lambda v: [{"q": _POINT.typed(m["q"]), "r": float(m["r"])}
                         for m in v])
# both keys optional: a vertical subgroup of no basis is the center line
_SUB = {"kind": _one_of("vertical", "horizontal"), "basis": _POINT_LIST}
_SUBGROUP = _Kind("{kind: 'vertical' or 'horizontal', basis: list of points}",
                  lambda v: isinstance(v, dict) and set(v) <= set(_SUB)
                  and all(_SUB[k].test(x) for k, x in v.items()),
                  lambda v: {k: _SUB[k].typed(x) for k, x in v.items()})
_STRING = _Kind("a string", lambda v: isinstance(v, str))
_BOOL = _Kind("true or false", lambda v: isinstance(v, bool))
_VERDICT = _Kind("a verdict of the command", lambda v: False)  # per command

# Every config key and its (default, kind): the run settings, then each
# block's table.  A key whose default is None may be None, the command's
# own value: a level left None is the command's full level, or one below.
_SETTINGS = {
    "schema": (SCHEMA_VERSION, _one_of(SCHEMA_VERSION)), "n": (1, _COUNT),
    "seed": (0, _INDEX), "quick": (False, _BOOL),
    "atom_cap": (DEFAULT_ATOM_CAP, _COUNT), "level": (None, _INDEX),
    "expect": (None, _VERDICT), "out": (".", _STRING),
    "ifs": {"r": (0.25, _REAL), "maps": (None, _MAPS),
            "resolution": (256, _COUNT)},
    "measure": {"csv": (None, _STRING), "spacing": (None, _POSITIVE),
                "a": (None, _POSITIVE)},
    "riesz": {"eps": (None, _CUTOFFS), "points": (None, _POINTS),
              "window": (2.0, _POSITIVE), "resolution": (2048, _COUNT),
              "subgroup": (None, _SUBGROUP)},
    "diagnostics": {"centers": (None, _POINTS),
                    "radii": ((0.25, 0.0625, 0.015625, 0.00390625), _RADII),
                    "delta": (0.5, _REAL), "cone_subgroups": (8, _COUNT)},
    "tangent": {"word": ((0,), _WORD), "r": (0.25, _REAL),
                "normalization": ("power", _one_of("power", "ball-mass")),
                "point": (None, _POINT)},
}


class RunConfig(SimpleNamespace):
    """The top-level settings as attributes, the given blocks as blocks."""

    def section(self, name: str) -> dict:
        """The block's keys over its defaults."""
        return {**{k: d for k, (d, _) in _SETTINGS[name].items()},
                **self.blocks.get(name, {})}


def _checked(doc, table: dict, name: str | None = None) -> dict:
    """A config object's typed values, each checked by its kind; name is
    None at the top level, whose nested tables check the blocks."""
    if not isinstance(doc, dict):
        where = "config root" if name is None else f"config block {name!r}"
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - set(table))
    if unknown:
        where = f"keys in {name!r}" if name else "top-level config keys"
        raise ConfigError(f"unknown {where}: {', '.join(unknown)}")
    typed = {}
    for key, value in doc.items():
        if isinstance(table[key], dict):
            typed[key] = _checked(value, table[key], key)
            continue
        default, kind = table[key]
        if not (value is None and default is None or kind.test(value)):
            label = key if name is None else f"{name}.{key}"
            raise ConfigError(f"{label!r} must be {kind.text}, got {value!r}")
        typed[key] = None if value is None else kind.typed(value)
    return typed


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
    table = {**_SETTINGS, "expect": (None, _one_of(*args.entry[4]))}
    # the flags override the file's values
    flags = {k: v for k, v in vars(args).items()
             if k in _SETTINGS and v is not None}
    given = {**_checked(raw, table), **_checked(flags, table)}
    # the run settings over their defaults; the blocks given remain
    run = {k: given.pop(k, e[0]) for k, e in _SETTINGS.items()
           if isinstance(e, tuple)}
    return RunConfig(**run, blocks=given)


@dataclass
class Outcome:
    """What a command computed; :func:`_run` writes and reports it.

    ``csv`` is a measure or a (header, rows) pair, written to the
    command's CSV file; ``message`` may name that file as ``{csv}``.
    A ``failure`` line fails the run; a ``verdict`` other than the
    run's ``expect`` contradicts it.
    """

    payload: dict
    sections: dict
    message: str
    verdict: str | None = None
    csv: object = None
    failure: str | None = None


def _run(cfg: RunConfig, command: str, stem: str, csv: str | None,
         compute) -> int:
    """Compute a command, write its CSV and JSON report, print, gate."""
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
    # the run settings but the schema, which the report states, then blocks
    config = {k: v for k, v in vars(cfg).items()
              if k not in ("schema", "blocks")}
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
    if cfg.expect is not None and cfg.expect != res.verdict:
        print(f"verdict {res.verdict!r} contradicts expected {cfg.expect!r}",
              file=sys.stderr)
        return EXIT_CONTRADICTION
    return EXIT_OK


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------

def _build_ifs(cfg: RunConfig, full: int):
    """The configured system, its level and its report section.

    The level is the run's, else the command's full level; under --quick
    the lesser of that and the quick level, one below the full level.
    """
    block = cfg.section("ifs")
    if block["maps"] is None:  # the corner family of ratio r
        ifs = make_strichartz_ifs(cfg.n, block["r"])
    else:
        ifs = Ifs(n=cfg.n, maps=tuple(
            Similarity(n=cfg.n, q=np.asarray(m["q"]), r=m["r"])
            for m in block["maps"]))
    level = full if cfg.level is None else cfg.level
    if cfg.quick:
        level = min(level, full - 1)
    return ifs, level, {**block, "level_used": level}


def _measure_for(cfg: RunConfig, name: str, full: int):
    """The command's block and its measure: the 'measure' block's CSV if
    present, else a cylinder measure at the run's level.

    Returns (block, measure, ifs or None, dimension, config sections);
    the dimension is the CSV's 'measure.a', else the similarity dimension.
    """
    block = cfg.section(name)
    if "measure" in cfg.blocks:
        if cfg.level is not None:
            raise ConfigError("config key 'level' is not read when "
                              "a 'measure' block supplies the atoms")
        m = cfg.section("measure")
        if m["csv"] is None or m["a"] is None:
            raise ConfigError("a measure block needs its CSV 'measure.csv' "
                              "and the CSV's dimension 'measure.a'")
        # an unset blow-up point is a word's fixed point; a CSV has no words
        if "point" in block and block["point"] is None:
            raise ConfigError("csv measures need an explicit blow-up 'point'")
        try:
            mu = DiscreteMeasure.from_csv(m["csv"], label=m["csv"],
                                          spacing=m["spacing"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load measure: {exc}") from None
        if not len(mu):
            raise ConfigError(f"measure {m['csv']} has no atoms")
        if mu.spacing is None:
            print(f"note: measure {m['csv']} has no 'spacing'; the "
                  "4x-spacing resolution floor is off", file=sys.stderr)
        return block, mu, None, m["a"], {name: block, "measure": m}
    ifs, level, ifs_block = _build_ifs(cfg, full)
    mu = cylinder_measure(ifs, level, atom_cap=cfg.atom_cap)
    return block, mu, ifs, similarity_dimension(ifs), {name: block,
                                                       "ifs": ifs_block}


def _eps_schedule(block: dict, start: float, ratio: float, count: int) -> np.ndarray:
    """The block's cutoffs, else the geometric ladder start * ratio^k."""
    return (start * ratio ** np.arange(count) if block["eps"] is None
            else np.asarray(block["eps"]))


def _radii_for(cfg: RunConfig, diag: dict, mu: DiscreteMeasure) -> tuple:
    """Configured radii as given; default radii only down to the floor."""
    if "radii" in cfg.blocks.get("diagnostics", {}):
        return diag["radii"]
    floor = _resolution_floor(mu)
    radii = tuple(r for r in diag["radii"] if r >= floor)
    if not radii:
        raise ConfigError("every default radius lies below the resolution "
                          f"floor {floor:g}; set 'diagnostics.radii'")
    return radii


def _cone_family(n: int, a: float, count: int, seed: int):
    """Draws from the homogeneous subgroups of Hausdorff dimension a.

    For a = 2: the center line plus, for n >= 2, horizontal planes (there
    are none in the n = 1 group, so the draws all collapse to the center
    line there).  For an integer a in [3, 2n + 2]: vertical subgroups
    L x T with dim L = a - 2, the whole group once when L = R^{2n}.  No
    other a is the dimension of a homogeneous subgroup of H^n.
    """
    if not (a.is_integer() and 2 <= a <= 2 * n + 2):
        raise ConfigError(
            f"cone-deficiency needs an integer dimension a in [2, {2 * n + 2}] "
            f"for n = {n}, got a = {a}")
    dim_l = int(a) - 2
    rng = np.random.default_rng(seed)
    if dim_l > 0:
        return [make_vertical(n, rng.normal(size=(dim_l, 2 * n)))
                for _ in range(count if dim_l < 2 * n else 1)]
    specs = [make_vertical(n, [])]
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
            specs.append(make_horizontal(n, np.stack([u, w / norm_w])))
    return specs


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _cmd_selftest(cfg: RunConfig) -> Outcome:
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
    return Outcome(payload, {}, "\n".join(lines),
                   failure=f"first failing property: {failing[0]}"
                   if failing else None)


def _cmd_ifs_generate(cfg: RunConfig) -> Outcome:
    ifs, level, block = _build_ifs(cfg, full=4)
    mu = cylinder_measure(ifs, level, atom_cap=cfg.atom_cap)
    payload = {
        "atoms": len(mu),
        "total_mass": mu.total_mass,
        "spacing": mu.spacing,
        "level": level,
        "maps": len(ifs.maps),
        "similarity_dimension": similarity_dimension(ifs),
    }
    return Outcome(payload, {"ifs": block},
                   f"wrote {len(mu)} atoms (mass {mu.total_mass:.12g}) to {{csv}}",
                   csv=mu)


def _cmd_ifs_verify(cfg: RunConfig) -> Outcome:
    ifs, level, block = _build_ifs(cfg, full=4)
    payload, lines = {}, []
    region = None
    if block["maps"] is None:
        phi = phi_fixed_point(cfg.n, block["r"],
                              resolution=block["resolution"],
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
    payload.update(separation={"level": level, "value": separation},
                   verdict=verdict)
    lines.append(f"piece separation at level {level}: {separation:.6g} "
                 f"-> {verdict}")
    return Outcome(payload, {"ifs": block}, "\n".join(lines), verdict)


def _cmd_measure_ad(cfg: RunConfig) -> Outcome:
    diag, mu, _, a, sections = _measure_for(cfg, "diagnostics", full=5)
    centers = 64 if diag["centers"] is None else diag["centers"]
    report = ad_regularity_report(mu, a, centers=centers,
                                  radii=_radii_for(cfg, diag, mu),
                                  seed=cfg.seed)
    verdict = "regular" if report.regular else "irregular"
    payload = {k: v for k, v in asdict(report).items()
               if k not in ("ratios", "seed")}
    payload.update(atoms=len(mu), verdict=verdict)
    return Outcome(payload, sections,
                   f"implied C = {report.implied_c:.4g} over "
                   f"{report.centers.shape[0]} centers (cap {report.c_cap:g}) "
                   f"-> {verdict}", verdict)


def _cmd_riesz_transform(cfg: RunConfig) -> Outcome:
    block, mu, _, a, sections = _measure_for(cfg, "riesz", full=4)
    params = RieszParams(s=a, n=mu.n)
    eps = _eps_schedule(block, start=0.25, ratio=0.25, count=3)
    points = 8 if block["points"] is None else block["points"]
    pts = _center_coords(mu, points, cfg.seed)
    # one sweep for every point: values[i][:, k] is the truncation at eps[k]
    values = truncations(mu, params, None, pts, eps)
    per_eps_max = np.abs(values).max(axis=(0, 1))
    rows = [(i, e, c, v) for i, value in enumerate(values)
            for k, e in enumerate(eps) for c, v in enumerate(value[:, k])]
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
                   f"(needed {needed}) -> {overall}", overall,
                   csv=("point_index,eps,coord,magnitude", rows))


def _cmd_riesz_subgroup(cfg: RunConfig) -> Outcome:
    block = cfg.section("riesz")
    count = 8 if block["points"] is None else block["points"]
    if isinstance(count, list):
        raise ConfigError("'riesz.points' is a count in riesz subgroup-probe")
    sub = block["subgroup"] or {}
    make = {"vertical": make_vertical,
            "horizontal": make_horizontal}[sub.get("kind", "vertical")]
    spec = make(cfg.n, sub.get("basis", []))
    eps = _eps_schedule(block, start=0.5, ratio=0.5, count=8)
    # the kernel degree is the dimension of the subgroup's Haar measure
    report = subgroup_boundedness_probe(
        spec, float(spec.hausdorff_dimension), eps,
        window=block["window"], resolution=block["resolution"],
        points=count, seed=cfg.seed, atom_cap=cfg.atom_cap)
    payload = {k: v for k, v in asdict(report).items()
               if k not in ("per_point_max", "seed")}
    return Outcome(payload, {"riesz": block},
                   f"bound {report.bound:.4g}, slope {report.slope:.3e} "
                   f"-> {report.verdict}", report.verdict,
                   csv=("eps,max_abs", zip(report.eps, report.per_eps_max)))


def _cmd_tangent_blowup(cfg: RunConfig) -> Outcome:
    block, mu, ifs, a, sections = _measure_for(cfg, "tangent", full=5)
    center = (word_similarity(ifs, block["word"]).fixed_point()
              if block["point"] is None else np.asarray(block["point"]))
    s = a if block["normalization"] == "power" else None
    nu = blowup_measure(mu, center, block["r"], s=s,
                        normalization=block["normalization"])
    payload = {
        "r": block["r"],
        "normalization": block["normalization"],
        "s": s,
        "center": center,
        "atoms": len(nu),
        "total_mass": nu.total_mass,
        "label": nu.label,
    }
    return Outcome(payload, sections,
                   f"blow-up at r={block['r']:g}: {len(nu)} atoms, "
                   f"mass {nu.total_mass:.6g}", csv=nu)


def _cmd_cone_deficiency(cfg: RunConfig) -> Outcome:
    diag, mu, _, a, sections = _measure_for(cfg, "diagnostics", full=5)
    centers = 8 if diag["centers"] is None else diag["centers"]
    pts = _center_coords(mu, centers, cfg.seed)
    family = _cone_family(mu.n, a, diag["cone_subgroups"], cfg.seed)
    radii = _radii_for(cfg, diag, mu)
    # one sweep per subgroup: ratios[gi, ki] are centre ki's ratios
    ratios = np.array([cone_deficiency(mu, a, pts, spec, diag["delta"], radii)
                       for spec in family])
    # min keeps a NaN ratio, which fails floor > 0
    floor = float(ratios.min())
    rows = [(ki, gi, r, v) for gi, per_centre in enumerate(ratios)
            for ki, row in enumerate(per_centre) for r, v in zip(radii, row)]
    verdict = "positive-floor" if floor > 0.0 else "nonpositive-floor"
    payload = {
        "a": a,
        "delta": diag["delta"],
        "radii": radii,
        "points": pts,
        "subgroups": [{"kind": s.kind, "basis": s.basis} for s in family],
        "requested_subgroups": diag["cone_subgroups"],
        "distinct_subgroups": len(family),
        "floor": floor,
        "verdict": verdict,
    }
    return Outcome(payload, sections,
                   f"deficiency floor {floor:.6g} over {len(pts)} centers x "
                   f"{len(family)} subgroups -> {verdict}", verdict,
                   csv=("point_index,subgroup_index,radius,ratio", rows))


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------

# (words, JSON stem, CSV name, compute, verdicts, help), in the order of
# --help; a run's expect is one of its command's verdicts
COMMANDS = (
    (("selftest",), "selftest", None, _cmd_selftest, (),
     "run the algebraic identity checks"),
    (("ifs", "generate"), "ifs_generate", "ifs_measure.csv", _cmd_ifs_generate,
     (), "write a cylinder measure CSV"),
    (("ifs", "verify"), "ifs_verify", None, _cmd_ifs_verify,
     ("certified", "uncertified"), "invariant region and piece separation"),
    (("measure", "ad-report"), "ad_report", None, _cmd_measure_ad,
     ("regular", "irregular"), "ball-mass regularity report"),
    (("riesz", "transform"), "riesz_transform", "riesz_transform.csv",
     _cmd_riesz_transform, (), "truncated transform values at sample points"),
    (("riesz", "divergence"), "riesz_divergence", "riesz_divergence.csv",
     _cmd_riesz_divergence, ("diverging", "not-diverging"),
     "annulus growth profiles on the fractal"),
    (("riesz", "subgroup-probe"), "subgroup_probe", "subgroup_probe.csv",
     _cmd_riesz_subgroup, ("bounded", "inconclusive"),
     "boundedness on a subgroup's Haar sample"),
    (("tangent", "blowup"), "blowup", "blowup_measure.csv", _cmd_tangent_blowup,
     (), "zoomed measure at a cylinder fixed point"),
    (("cone-deficiency",), "cone_deficiency", "cone_deficiency.csv",
     _cmd_cone_deficiency, ("positive-floor", "nonpositive-floor"),
     "mass outside cones around subgroups"),
)

_GROUP_HELP = {"ifs": "build and verify the self-similar system",
               "measure": "measure statistics",
               "riesz": "transform experiments", "tangent": "blow-up measures"}


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
    args = _build_parser().parse_args(argv)
    words, stem, csv, compute, _, _ = args.entry
    try:
        return _run(_load_run_config(args), " ".join(words), stem, csv,
                    compute)
    except (TypeError, ValueError) as exc:
        # includes ConfigError, and a config value the library rejects
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AtomCapExceeded as exc:
        # the message names the cap: the atom cap or the pair cap
        print(exc, file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
