"""Command-line surface: configs, exit codes, files, determinism."""

import argparse
import ast
import csv
import importlib
import inspect
import json
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest

import heisriesz.cli as cli
import heisriesz.core as core
import heisriesz.measure as measure
from heisriesz.cli import main
from heisriesz.fractal import make_strichartz_ifs, similarity_dimension
from heisriesz.subgroups import make_horizontal, make_vertical


def _write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _run(args):
    return main(args)


def test_selftest_quick_passes(tmp_path, capsys):
    out = tmp_path / "run"
    code = _run(["selftest", "--quick", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "12/12" in text
    doc = json.loads((out / "selftest.json").read_text())
    assert doc["command"] == "selftest"
    assert doc["schema"] == 1
    assert doc["results"]["passed"] == doc["results"]["total"] == 12
    assert len(doc["results"]["checks"]) == 12


def test_selftest_names_first_failure(tmp_path, capsys, monkeypatch):
    orig = core.symplectic_form
    monkeypatch.setattr(core, "symplectic_form",
                        lambda p, q, out=None: -orig(p, q, out=out))
    code = _run(["selftest", "--quick", "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert "first failing property: reference_values" in captured.err


def test_ifs_generate_writes_measure(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {"ifs": {"level": 2}})
    code = _run(["ifs", "generate", "--config", cfg, "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "ifs_generate.json").read_text())
    assert doc["results"]["atoms"] == 256
    assert doc["results"]["total_mass"] == pytest.approx(1.0, rel=1e-12)
    assert doc["results"]["similarity_dimension"] == pytest.approx(2.0, abs=1e-12)
    with open(out / "ifs_measure.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "x3", "weight"]
    assert len(rows) == 257


def test_ifs_generate_is_deterministic(tmp_path):
    cfg = _write_config(tmp_path, {"ifs": {"level": 2}})
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(["ifs", "generate", "--config", cfg, "--out", str(a)]) == 0
    assert _run(["ifs", "generate", "--config", cfg, "--out", str(b)]) == 0
    for name in ("ifs_measure.csv",):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    da = json.loads((a / "ifs_generate.json").read_text())
    db = json.loads((b / "ifs_generate.json").read_text())
    da["config"]["out"] = db["config"]["out"] = ""
    assert da == db


def test_ifs_verify_quick(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {"ifs": {"resolution": 32}})
    code = _run(["ifs", "verify", "--config", cfg, "--quick", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "ifs_verify.json").read_text())
    res = doc["results"]
    assert res["verdict"] == "certified"
    assert res["region"]["violations"] == 0
    assert res["region"]["sample_count"] == 10_000
    assert res["phi"]["residual"] == 0.0
    assert res["separation"]["value"] > 0.0
    assert doc["config"]["ifs"]["level_used"] == 3
    assert res["separation"]["level"] == 3


def test_ifs_verify_quick_keeps_a_lower_ifs_level(tmp_path):
    # the separation level is ifs.level, picked as every command picks
    # its level: under --quick a level below the quick level 3 stays
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {"ifs": {"level": 2, "resolution": 32}})
    code = _run(["ifs", "verify", "--config", cfg, "--quick", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "ifs_verify.json").read_text())
    assert doc["config"]["ifs"]["level_used"] == 2
    assert doc["results"]["separation"]["level"] == 2


def test_bad_ratio_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"ifs": {"r": 0.6}})
    code = _run(["ifs", "generate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_keys_are_config_errors(tmp_path):
    cfg = _write_config(tmp_path, {"ifs": {"levle": 3}})
    assert _run(["ifs", "generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    cfg2 = _write_config(tmp_path, {"surprise": {}})
    assert _run(["ifs", "generate", "--config", cfg2, "--out", str(tmp_path / "o")]) == 2
    cfg3 = _write_config(tmp_path, {"schema": 99})
    assert _run(["selftest", "--config", cfg3, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", [
    ["measure", "ad-report"], ["tangent", "blowup"], ["riesz", "transform"],
    ["selftest"],
])
def test_ifs_level_outside_ifs_generate_is_config_error(tmp_path, capsys,
                                                        command):
    # only the ifs commands read ifs.level; any other command would
    # report it beside the level it used from its own block
    cfg = _write_config(tmp_path, {"ifs": {"level": 2}})
    out = tmp_path / "o"
    assert _run([*command, "--config", cfg, "--out", str(out)]) == 2
    assert "'ifs.level'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,block", [
    (["measure", "ad-report"], "diagnostics"),
    (["cone-deficiency"], "diagnostics"),
    (["riesz", "transform"], "riesz"), (["riesz", "divergence"], "riesz"),
    (["tangent", "blowup"], "tangent"),
])
def test_block_level_beside_a_measure_block_is_config_error(tmp_path, capsys,
                                                            command, block):
    # the CSV supplies the atoms, so the block's level would be reported
    # in the config without having been read; the CSV is never opened
    cfg = _write_config(tmp_path, {"measure": {"csv": "absent.csv", "a": 2.0},
                                   block: {"level": 9}})
    out = tmp_path / "o"
    assert _run([*command, "--config", cfg, "--out", str(out)]) == 2
    assert f"'{block}.level'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("block,key", [
    ("ifs", "quick_level"), ("ifs", "phi_tol"), ("measure", "label"),
    ("riesz", "eps_start"), ("riesz", "eps_ratio"), ("riesz", "eps_count"),
    ("riesz", "point_coords"), ("riesz", "quick_level"),
    ("diagnostics", "quick_level"), ("tangent", "quick_level"),
    ("selftest", "eq_tol"), ("ifs", "samples"), ("selftest", "samples"),
    ("riesz", "s"), ("diagnostics", "a"), ("tangent", "s"),
    ("riesz", "c"), ("riesz", "fraction"), ("riesz", "slope_tol"),
    ("diagnostics", "c_cap"),
])
def test_removed_keys_are_unknown(tmp_path, capsys, block, key):
    # each repeated a value held elsewhere: the commands' own levels and
    # sample counts, the one cutoff list, the one points entry, the
    # library's tolerances, the CSV path that labels a measure and the
    # measure's own dimension; a verdict threshold is the library's
    command = {"ifs": ["ifs", "generate"], "measure": ["measure", "ad-report"],
               "riesz": ["riesz", "transform"],
               "diagnostics": ["measure", "ad-report"],
               "tangent": ["tangent", "blowup"], "selftest": ["selftest"]}[block]
    cfg = _write_config(tmp_path, {block: {key: 1}})
    assert _run([*command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"unknown keys in {block!r}: {key}" in capsys.readouterr().err


def test_atom_cap_exit(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"atom_cap": 10, "ifs": {"level": 2}})
    code = _run(["ifs", "generate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 4
    assert "atom cap" in capsys.readouterr().err


def test_ifs_verify_respects_the_atom_cap(tmp_path, capsys):
    # the tilt grid at resolution 32 holds 33^2 * 4 = 4356 stencil entries
    cfg = _write_config(tmp_path, {"atom_cap": 1000, "ifs": {"resolution": 32}})
    code = _run(["ifs", "verify", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 4
    assert "atom cap" in capsys.readouterr().err


def test_subgroup_probe_respects_the_atom_cap(tmp_path, capsys):
    # the default vertical sample is a grid of 2,048 atoms
    cfg = _write_config(tmp_path, {"atom_cap": 1000})
    code = _run(["riesz", "subgroup-probe", "--config", cfg,
                 "--out", str(tmp_path / "o")])
    assert code == 4
    assert "atom cap" in capsys.readouterr().err


def test_expectation_contradiction_exit(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = _write_config(
        tmp_path,
        {
            "riesz": {
                "expect": "inconclusive",
                "resolution": 256,
                "eps": [0.5, 0.25, 0.125],
                "points": 4,
            }
        },
    )
    code = _run(["riesz", "subgroup-probe", "--config", cfg, "--out", str(out)])
    assert code == 3
    assert "contradicts" in capsys.readouterr().err
    # the report is still written for inspection
    doc = json.loads((out / "subgroup_probe.json").read_text())
    assert doc["results"]["verdict"] == "bounded"


def test_subgroup_probe_bounded(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(
        tmp_path,
        {"riesz": {"resolution": 256, "eps": [0.5, 0.25, 0.125], "points": 4}},
    )
    code = _run(["riesz", "subgroup-probe", "--config", cfg, "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "subgroup_probe.json").read_text())
    assert doc["results"]["verdict"] == "bounded"
    with open(out / "subgroup_probe.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eps", "max_abs"]
    assert len(rows) == 4


@pytest.mark.parametrize("n,kind,basis,s", [
    (2, "horizontal", [[1, 0, 0, 0]], 1.0),
    (1, "vertical", [[1, 0]], 3.0),
], ids=["horizontal-line-n2", "vertical-plane-n1"])
def test_subgroup_probe_takes_the_subgroup_dimension(tmp_path, n, kind, basis,
                                                     s):
    # the kernel degree is the subgroup's Hausdorff dimension, the one
    # degree the probe accepts, with no key to set it
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {"n": n, "riesz": {
        "resolution": 256, "eps": [0.5, 0.25, 0.125], "points": 4,
        "subgroup": {"kind": kind, "basis": basis}}})
    assert _run(["riesz", "subgroup-probe", "--config", cfg,
                 "--out", str(out)]) == 0
    res = json.loads((out / "subgroup_probe.json").read_text())["results"]
    assert res["s"] == s and isinstance(res["s"], float)
    assert res["verdict"] == "bounded"


def test_transform_zero_far_from_support(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(
        tmp_path,
        {
            "riesz": {
                "level": 2,
                "points": [[0.5, 0.5, 0.25]],
                "eps": [8.0, 4.0],
            }
        },
    )
    code = _run(["riesz", "transform", "--config", cfg, "--out", str(out)])
    assert code == 0
    with open(out / "riesz_transform.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 2 * 3
    assert all(float(row[-1]) == 0.0 for row in rows)


def test_transform_smoke(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {"riesz": {"level": 2, "points": 4}})
    code = _run(["riesz", "transform", "--config", cfg, "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "riesz_transform.json").read_text())
    assert len(doc["results"]["per_eps_max_abs"]) == 3


def test_divergence_smoke(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(
        tmp_path,
        {
            "riesz": {
                "level": 3,
                "points": 4,
                "eps": [0.5, 0.25, 0.125, 0.0625],
            }
        },
    )
    code = _run(["riesz", "divergence", "--config", cfg, "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "riesz_divergence.json").read_text())
    res = doc["results"]
    assert res["overall"] in {"diverging", "not-diverging"}
    assert len(res["per_point"]) == 4
    with open(out / "riesz_divergence.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 4 * 4 * 3


def test_divergence_takes_a_list_of_points(tmp_path):
    # on a cylinder measure a count picks cycle atoms; a list is probed as given
    points = [[0.0, 0.0, 0.0], [0.75, 0.0, 0.25], [0.1, 0.2, 0.3]]
    cfg = _write_config(tmp_path, {"riesz": {
        "level": 3, "points": points, "eps": [0.5, 0.25, 0.125, 0.0625]}})
    out = tmp_path / "run"
    assert _run(["riesz", "divergence", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "riesz_divergence.json").read_text())["results"]
    assert [p["point"] for p in res["per_point"]] == points


def test_divergence_on_the_h2_corner_family_runs_at_dimension_3(tmp_path):
    # 64 maps of ratio 1/4: the kernel degree is 3, at which the
    # truncations grow at the cycle points; at degree 2 none would
    cfg = _write_config(tmp_path, {"n": 2, "riesz": {"level": 3}})
    out = tmp_path / "run"
    # the quick level's floor 4 * 4^-3 leaves the cutoffs 1/4 and 1/16
    with pytest.warns(UserWarning, match="resolution floor"):
        assert _run(["riesz", "divergence", "--config", cfg, "--quick",
                     "--out", str(out)]) == 0
    res = json.loads((out / "riesz_divergence.json").read_text())["results"]
    assert res["eps"] == [0.25, 0.0625]
    assert res["s"] == 3.0
    assert res["overall"] == "diverging"


def test_transform_degree_is_the_similarity_dimension(tmp_path):
    # the r = 1/8 family has dimension 4/3, not the r = 1/4 family's 2
    cfg = _write_config(tmp_path, {"ifs": {"r": 0.125},
                                   "riesz": {"level": 2, "points": 2}})
    out = tmp_path / "run"
    assert _run(["riesz", "transform", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "riesz_transform.json").read_text())["results"]
    assert res["s"] == similarity_dimension(make_strichartz_ifs(1, 0.125))
    assert res["s"] == 1.3333333333333335


def test_measure_ad_report(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(
        tmp_path,
        {"diagnostics": {"level": 3, "centers": 8, "radii": [0.25, 0.125]}},
    )
    code = _run(["measure", "ad-report", "--config", cfg, "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "ad_report.json").read_text())
    res = doc["results"]
    assert res["verdict"] == "regular"
    assert res["implied_c"] <= 50.0


def test_measure_block_feeds_other_commands(tmp_path):
    # generate a measure, then point the ad-report at the CSV file
    gen_out = tmp_path / "gen"
    cfg = _write_config(tmp_path, {"ifs": {"level": 3}})
    assert _run(["ifs", "generate", "--config", cfg, "--out", str(gen_out)]) == 0
    ad_out = tmp_path / "ad"
    cfg2 = _write_config(
        tmp_path,
        {
            "measure": {
                "csv": str(gen_out / "ifs_measure.csv"),
                "spacing": 0.25 ** 3,
                "a": 2.0,
            },
            "diagnostics": {"centers": 4, "radii": [0.25]},
        },
    )
    code = _run(["measure", "ad-report", "--config", cfg2, "--out", str(ad_out)])
    assert code == 0
    doc = json.loads((ad_out / "ad_report.json").read_text())
    assert doc["results"]["verdict"] == "regular"


def test_csv_measure_without_spacing_notes_the_floor(tmp_path, capsys):
    gen_out = tmp_path / "gen"
    cfg = _write_config(tmp_path, {"ifs": {"level": 3}})
    assert _run(["ifs", "generate", "--config", cfg, "--out", str(gen_out)]) == 0
    capsys.readouterr()
    notes = []
    for extra in ({}, {"spacing": 0.25 ** 3}):
        out = tmp_path / f"ad{len(notes)}"
        cfg2 = _write_config(tmp_path, {
            "measure": {"csv": str(gen_out / "ifs_measure.csv"), "a": 2.0,
                        **extra},
            "diagnostics": {"centers": 4, "radii": [0.25]},
        })
        assert _run(["measure", "ad-report", "--config", cfg2, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        notes.append(err)
        assert "floor is off" not in (out / "ad_report.json").read_text()
    assert notes[0].count("\n") == 1
    assert "no 'spacing'" in notes[0] and "resolution floor is off" in notes[0]
    assert notes[1] == ""


@pytest.mark.parametrize("a", [None, 0.0, -2.0, "2", True])
def test_csv_measure_needs_its_dimension(tmp_path, capsys, a):
    # a CSV holds atoms, not the dimension the kernel degree and the
    # ball-mass exponent come from
    gen = _write_config(tmp_path, {"ifs": {"level": 2}})
    assert _run(["ifs", "generate", "--config", gen,
                 "--out", str(tmp_path / "gen")]) == 0
    capsys.readouterr()
    block = {"csv": str(tmp_path / "gen" / "ifs_measure.csv")}
    if a is not None:
        block["a"] = a
    cfg = _write_config(tmp_path, {"measure": block,
                                   "riesz": {"points": 2}})
    out = tmp_path / "o"
    assert _run(["riesz", "transform", "--config", cfg, "--out", str(out)]) == 2
    assert "'measure.a'" in capsys.readouterr().err
    assert not out.exists()


def test_tangent_blowup(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {"tangent": {"level": 3, "word": [0], "r": 0.25}})
    code = _run(["tangent", "blowup", "--config", cfg, "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "blowup.json").read_text())
    res = doc["results"]
    assert res["atoms"] == 16 ** 3
    # power normalization at the dimension doubles mass 16-fold per zoom
    assert res["total_mass"] == pytest.approx(16.0, rel=1e-12)
    assert (out / "blowup_measure.csv").exists()


def test_cone_deficiency_cli(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(
        tmp_path,
        {"diagnostics": {"level": 3, "cone_points": 2, "radii": [0.5, 0.25]}},
    )
    code = _run(["cone-deficiency", "--config", cfg, "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "cone_deficiency.json").read_text())
    res = doc["results"]
    assert res["floor"] > 0.0
    assert res["verdict"] == "positive-floor"
    with open(out / "cone_deficiency.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["point_index", "subgroup_index", "radius", "ratio"]


def test_cone_deficiency_nan_ratio_is_a_nonpositive_floor(tmp_path, capsys,
                                                          monkeypatch):
    # min(floor, nan) keeps floor, so all-NaN ratios would read as floor inf
    monkeypatch.setattr(cli, "cone_deficiency",
                        lambda mu, a, k, spec, delta, radii:
                        np.full(len(radii), np.nan))
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {"diagnostics": {
        "level": 3, "cone_points": 2, "radii": [0.5, 0.25],
        "expect": "positive-floor"}})
    code = _run(["cone-deficiency", "--config", cfg, "--out", str(out)])
    assert code == 3
    assert "deficiency floor nan over" in capsys.readouterr().out
    res = json.loads((out / "cone_deficiency.json").read_text())["results"]
    assert math.isnan(res["floor"])
    assert res["verdict"] == "nonpositive-floor"


def test_cone_deficiency_n2_tests_subgroups_of_the_measure_dimension(tmp_path):
    # the n = 2 corner family has a = 3, so every subgroup is L x T with
    # L a horizontal line, none the center line or a horizontal plane
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {"n": 2, "diagnostics": {
        "level": 2, "cone_points": 2, "cone_subgroups": 3, "radii": [0.5]}})
    assert _run(["cone-deficiency", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "cone_deficiency.json").read_text())["results"]
    assert res["a"] == 3.0
    assert len(res["subgroups"]) == 3
    for desc in res["subgroups"]:
        assert desc["kind"] == "vertical"
        assert make_vertical(2, desc["basis"]).hausdorff_dimension == 3


def test_cone_deficiency_on_an_n2_csv_measure_of_dimension_2(tmp_path):
    # a = 2 in H^2: the center line and horizontal planes, each of
    # which must be isotropic for the subgroup to exist
    gen = _write_config(tmp_path, {"n": 2, "ifs": {"level": 1}})
    assert _run(["ifs", "generate", "--config", gen,
                 "--out", str(tmp_path / "gen")]) == 0
    cfg = _write_config(tmp_path, {
        "measure": {"csv": str(tmp_path / "gen" / "ifs_measure.csv"), "a": 2.0},
        "diagnostics": {"cone_points": 2, "cone_subgroups": 3, "radii": [0.5]}})
    out = tmp_path / "run"
    assert _run(["cone-deficiency", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "cone_deficiency.json").read_text())["results"]
    assert res["a"] == 2.0
    kinds = [desc["kind"] for desc in res["subgroups"]]
    assert kinds == ["taxis", "horizontal", "horizontal"]
    for desc in res["subgroups"][1:]:
        assert make_horizontal(2, desc["basis"]).hausdorff_dimension == 2


@pytest.mark.parametrize("doc", [
    {"ifs": {"r": 0.125}},
    {"measure": {"a": 4.5}},
    {"measure": {"a": 1.0}},
], ids=["a=4/3", "a=4.5", "a=1"])
def test_cone_deficiency_without_a_subgroup_of_dimension_a(tmp_path, capsys,
                                                           doc):
    # 4/3 is no subgroup's dimension, H^1 itself has dimension 4, and the
    # cone family starts at the center line's 2; a CSV measure states its a
    if "measure" in doc:
        gen = _write_config(tmp_path, {"ifs": {"level": 2}})
        assert _run(["ifs", "generate", "--config", gen,
                     "--out", str(tmp_path / "gen")]) == 0
        doc["measure"]["csv"] = str(tmp_path / "gen" / "ifs_measure.csv")
    # a CSV measure fixes the atoms, so only the cylinder measure takes a level
    doc["diagnostics"] = ({"radii": [0.5]} if "measure" in doc
                          else {"level": 2, "radii": [0.5]})
    cfg = _write_config(tmp_path, doc)
    code = _run(["cone-deficiency", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "got a = " in err


def test_flag_overrides_config(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {"seed": 7, "ifs": {"level": 2}})
    code = _run(["ifs", "generate", "--config", cfg, "--seed", "9", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "ifs_generate.json").read_text())
    assert doc["config"]["seed"] == 9


@pytest.mark.parametrize("command,block,report,level,atoms", [
    (["measure", "ad-report"], "diagnostics", "ad_report.json", 3, 4096),
    (["ifs", "generate"], "ifs", "ifs_generate.json", 2, 256),
])
def test_quick_never_runs_finer_than_the_full_run(tmp_path, command, block,
                                                  report, level, atoms):
    # both levels sit below the block's default quick level
    cfg = _write_config(tmp_path, {block: {"level": level}})
    out = tmp_path / "run"
    assert _run([*command, "--config", cfg, "--quick", "--out", str(out)]) == 0
    doc = json.loads((out / report).read_text())
    assert doc["config"]["ifs"]["level_used"] == level
    assert doc["results"]["atoms"] == atoms


@pytest.mark.parametrize("quick", [[], ["--quick"]], ids=["full", "quick"])
@pytest.mark.parametrize("command,doc", [
    (["ifs", "generate"], {"ifs": {"level": "x"}}),
    (["riesz", "transform"], {"riesz": {"points": "x"}}),
    (["riesz", "transform"], {"riesz": {"eps": ["a"]}}),
    (["measure", "ad-report"], {"diagnostics": {"level": [1]}}),
    (["selftest"], {"n": "x"}),
    # a level is type-checked, not coerced: int(True) is 1, int(2.9) is 2
    (["ifs", "generate"], {"ifs": {"level": True}}),
    (["ifs", "verify"], {"ifs": {"level": 2.9}}),
], ids=["ifs-level", "riesz-points", "riesz-eps", "diag-level", "n",
        "ifs-level-bool", "ifs-level-fraction"])
def test_malformed_value_is_config_error(tmp_path, capsys, command, doc, quick):
    # values read mid-command go through the same boundary as the ones
    # read while loading the config
    cfg = _write_config(tmp_path, doc)
    code = _run([*command, "--config", cfg, *quick, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("quick", "false"), ("quick", 1), ("quick", None),
    ("n", 1.7), ("n", True), ("n", "1"),
    ("seed", 2.9), ("seed", False),
    ("atom_cap", 1e7 + 0.5), ("atom_cap", [10]),
])
def test_run_settings_keep_their_json_type(tmp_path, capsys, key, value):
    # a run setting is never coerced: bool("false") is True and
    # int(1.7) is 1, so either would run something other than asked
    cfg = _write_config(tmp_path, {key: value})
    out = tmp_path / "o"
    assert _run(["selftest", "--config", cfg, "--out", str(out)]) == 2
    assert f"{key!r} must be" in capsys.readouterr().err
    assert not out.exists()


def test_threads_is_neither_a_key_nor_a_flag(tmp_path, capsys):
    # sweeps use the CPUs the process may use, with the same bits at any
    # count, so no setting picks their number
    cfg = _write_config(tmp_path, {"threads": 2})
    out = tmp_path / "o"
    assert _run(["selftest", "--config", cfg, "--out", str(out)]) == 2
    assert "unknown top-level config keys: threads" in capsys.readouterr().err
    with pytest.raises(SystemExit) as done:
        _run(["selftest", "--threads", "2", "--out", str(out)])
    assert done.value.code == 2
    assert not out.exists()


def test_integral_float_run_settings_pass(tmp_path):
    # JSON has one number type: 1e7 and 2.0 are integers
    cfg = _write_config(tmp_path, {"atom_cap": 1e7, "seed": 2.0,
                                   "ifs": {"level": 1}})
    out = tmp_path / "run"
    assert _run(["ifs", "generate", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "ifs_generate.json").read_text())
    assert (doc["config"]["atom_cap"], doc["config"]["seed"]) == (10_000_000, 2)


@pytest.mark.parametrize("command,report", [
    (["measure", "ad-report"], "ad_report.json"),
    (["cone-deficiency"], "cone_deficiency.json"),
])
def test_quick_drops_default_radii_below_floor(tmp_path, command, report):
    # the quick level's floor is 4 * 0.25^4 = 0.015625, which rules out
    # only the smallest default radius; the report records the radii used
    out = tmp_path / "run"
    assert _run([*command, "--quick", "--out", str(out)]) == 0
    doc = json.loads((out / report).read_text())
    assert doc["results"]["radii"] == [0.25, 0.0625, 0.015625]


def test_explicit_radii_below_floor_still_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"diagnostics": {"radii": [0.25, 0.00390625]}})
    code = _run(["measure", "ad-report", "--config", cfg, "--quick",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "resolution floor" in capsys.readouterr().err


@pytest.mark.parametrize("word", [[], [16]])
def test_blowup_word_validation(tmp_path, capsys, word):
    cfg = _write_config(tmp_path, {"tangent": {"level": 2, "word": word}})
    code = _run(["tangent", "blowup", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_thread_count_does_not_move_the_output(tmp_path, monkeypatch,
                                               helper_pools):
    # every sweep of the level-5 measure spreads its 16 chunks over the
    # CPUs the process may use: none on one CPU, two workspaces' worth
    # (one helper) on 64
    monkeypatch.setattr(measure, "PARALLEL_CHUNKS", 1)
    files = {}
    for cpus in (1, 64):
        monkeypatch.setattr(measure, "_cpu_count", lambda: cpus)
        run_dir = tmp_path / str(cpus)
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        helper_pools.clear()
        assert _run(["riesz", "divergence", "--quick", "--out", "."]) == 0
        assert set(helper_pools) == ({1} if cpus == 64 else set())
        files[cpus] = [(run_dir / name).read_bytes() for name in
                       ("riesz_divergence.csv", "riesz_divergence.json")]
    assert files[1] == files[64]


COMMAND_WORDS = [["selftest"], ["ifs", "generate"], ["ifs", "verify"],
                 ["measure", "ad-report"], ["riesz", "transform"],
                 ["riesz", "divergence"], ["riesz", "subgroup-probe"],
                 ["tangent", "blowup"], ["cone-deficiency"]]


@pytest.mark.parametrize("words", COMMAND_WORDS, ids=" ".join)
def test_every_command_has_help(words, capsys):
    with pytest.raises(SystemExit) as done:
        _run([*words, "--help"])
    assert done.value.code == 0
    assert "--config" in capsys.readouterr().out


@pytest.mark.parametrize("module", ["core", "measure", "subgroups", "riesz",
                                    "fractal", "diagnostics", "selftest", "cli"])
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its definition is gone fails here
    mod = importlib.import_module(f"heisriesz.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"heisriesz.{module}.{name}"


def test_readme_lists_every_config_key():
    # README's key list and the CLI's default tables are one surface: a
    # key added, removed or renamed on one side only fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("Config keys", 1)[1].split("\n\n", 2)[1]
    listed = {}
    for item in section.split("\n- "):
        name, keys = item.lstrip("- ").split(":", 1)
        listed[name.strip("`")] = re.findall(r"`(\w+)`", keys)
    tables = {"top level": list(cli._RUN_KEYS),
              **{name: list(table) for name, table in cli._DEFAULTS.items()}}
    assert listed == tables


def test_readme_lists_every_common_flag():
    # README's common flags and each command's options are one surface:
    # a flag added or removed on one side only fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("Every command takes the common flags", 1)[1]
    listed = re.findall(r"`(--[a-z-]+)", section.split("\n\n", 1)[0])
    parser = cli._build_parser()
    for words in COMMAND_WORDS:
        command = parser
        for word in words:
            command = next(a for a in command._actions
                           if isinstance(a, argparse._SubParsersAction)
                           ).choices[word]
        flags = [s for a in command._actions for s in a.option_strings
                 if s not in ("-h", "--help")]
        assert flags == listed, " ".join(words)


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's span table, imported read-only, and the namespace of
    package modules (``hz``) through which the benchmark calls."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    spans = importlib.import_module("spans")
    return spans, types.SimpleNamespace(**{
        name: importlib.import_module(f"heisriesz.{name}")
        for name in spans.LAYERS
    })


def test_every_name_perfbench_wraps_resolves(perfbench):
    # the traced benchmark replaces vars(owner)[attr] for each target; a
    # name deleted here would otherwise surface only as a KeyError there
    spans, hz = perfbench
    targets = spans.targets(hz)
    assert len(targets) == 24
    for t in targets:
        assert t.attr in vars(t.owner), f"{t.owner.__name__}.{t.attr}"


def test_every_call_perfbench_makes_binds(perfbench):
    # the benchmark's workloads call the library with keywords; a
    # parameter renamed or deleted here would otherwise surface only when
    # the benchmark runs.  Each call on a heisriesz module (through ``hz``
    # or an alias of one of its modules) must bind to today's signature.
    _, hz = perfbench
    source = (Path(__file__).resolve().parent.parent / "perfbench"
              / "workloads.py").read_text()
    tree = ast.parse(source)
    names = {"hz": hz}
    for node in ast.walk(tree):
        # aliases such as ``D = hz.diagnostics`` or ``F, ifs = hz.fractal, x``
        if isinstance(node, ast.Assign):
            target, value = node.targets[0], node.value
            pairs = (zip(target.elts, value.elts)
                     if isinstance(target, ast.Tuple)
                     and isinstance(value, ast.Tuple) else [(target, value)])
            for t, v in pairs:
                if (isinstance(t, ast.Name) and isinstance(v, ast.Attribute)
                        and ast.unparse(v).startswith("hz.")):
                    names[t.id] = eval(ast.unparse(v), {"hz": hz})
    bound = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        root = node.func
        while isinstance(root, ast.Attribute):
            root = root.value
        if not (isinstance(root, ast.Name) and root.id in names
                and root is not node.func):
            continue
        text = ast.unparse(node.func)
        fn = eval(text, {}, names)
        sig = inspect.signature(fn)
        sig.bind(*node.args, **{k.arg: k.value for k in node.keywords})
        if node.keywords:
            bound.add(text.rsplit(".", 1)[1])
    assert {"verify_invariant_region", "horest_check", "divergence_probe",
            "subgroup_boundedness_probe", "ad_regularity_report",
            "blowup_measure", "from_csv"} <= bound
