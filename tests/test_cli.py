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
import heisriesz.riesz as riesz
import heisriesz.subgroups as subgroups
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
    cfg = _write_config(tmp_path, {"level": 2})
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
    cfg = _write_config(tmp_path, {"level": 2})
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
    # the separation level is the run's level, picked as every command
    # picks its level: under --quick a level below the quick level 3 stays
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {"level": 2, "ifs": {"resolution": 32}})
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


@pytest.mark.parametrize("doc,error", [
    ({"ifs": {"levle": 3}}, "unknown keys in 'ifs': levle"),
    ({"tangent": "oops"}, "config block 'tangent' must be a JSON object"),
    # selftest has no block: there is nothing for one to set
    ({"selftest": {}}, "unknown top-level config keys: selftest"),
], ids=["misspelt-key", "not-an-object", "selftest-block"])
def test_every_block_is_checked_on_load(tmp_path, capsys, doc, error):
    # selftest reads no block, yet a block it would not read is still
    # checked before any work starts
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["selftest", "--config", cfg, "--out", str(out)]) == 2
    assert error in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["measure", "ad-report"], ["tangent", "blowup"], ["riesz", "transform"],
    ["selftest"],
])
def test_ifs_level_outside_ifs_generate_is_config_error(tmp_path, capsys,
                                                        command):
    # the level is a run setting, so no block has one; selftest reads no
    # block, and is caught by the check of every block on load
    cfg = _write_config(tmp_path, {"ifs": {"level": 2}})
    out = tmp_path / "o"
    assert _run([*command, "--config", cfg, "--out", str(out)]) == 2
    assert "unknown keys in 'ifs': level" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,block", [
    (["measure", "ad-report"], "diagnostics"),
    (["cone-deficiency"], "diagnostics"),
    (["riesz", "transform"], "riesz"), (["riesz", "divergence"], "riesz"),
    (["tangent", "blowup"], "tangent"),
])
def test_block_level_beside_a_measure_block_is_config_error(tmp_path, capsys,
                                                            command, block):
    # the CSV supplies the atoms, so the run's level would be reported
    # in the config without having been read, beside the command's own
    # block; the CSV is never opened
    cfg = _write_config(tmp_path, {"measure": {"csv": "absent.csv", "a": 2.0},
                                   block: {}, "level": 9})
    out = tmp_path / "o"
    assert _run([*command, "--config", cfg, "--out", str(out)]) == 2
    assert "config key 'level' is not read" in capsys.readouterr().err
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
    ("ifs", "level"), ("riesz", "level"), ("diagnostics", "level"),
    ("tangent", "level"), ("ifs", "expect"), ("riesz", "expect"),
    ("diagnostics", "expect"), ("ifs", "kind"),
    ("diagnostics", "cone_points"),
])
def test_removed_keys_are_unknown(tmp_path, capsys, block, key):
    # each repeated a value held elsewhere: the commands' own levels and
    # sample counts, the one cutoff list, the one points entry, the
    # library's tolerances, the CSV path that labels a measure and the
    # measure's own dimension; a verdict threshold is the library's, a
    # level or an expected verdict is the run's, and a custom system is
    # one whose 'maps' are given, and cone apexes are the centers of
    # cone-deficiency; the selftest block went whole, as it had no key left
    command = {"ifs": ["ifs", "generate"], "measure": ["measure", "ad-report"],
               "riesz": ["riesz", "transform"],
               "diagnostics": ["measure", "ad-report"],
               "tangent": ["tangent", "blowup"], "selftest": ["selftest"]}[block]
    cfg = _write_config(tmp_path, {block: {key: 1}})
    assert _run([*command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert ("unknown top-level config keys: selftest" if block == "selftest"
            else f"unknown keys in {block!r}: {key}") in capsys.readouterr().err


@pytest.mark.parametrize("command,files,error", [
    (["selftest"], {}, "cannot read config"),
    (["selftest"], {"config.json": '{"seed": 1,'}, "config is not valid JSON"),
    (["measure", "ad-report"], {
        "config.json": json.dumps({"measure": {"csv": "bad.csv", "a": 2.0}}),
        "bad.csv": "x1,x2,x3,weight\n0,0,zero,1\n"}, "cannot load measure"),
    (["riesz", "subgroup-probe"], {
        "config.json": json.dumps({"riesz": {"points": [[0.0, 0.0, 0.0]]}})},
     "'riesz.points' is a count in riesz subgroup-probe"),
    # a word's fixed point needs a system's words, which a CSV lacks;
    # the run stops before it reads the CSV
    (["tangent", "blowup"], {
        "config.json": json.dumps({"measure": {"csv": "absent.csv", "a": 2.0}})},
     "csv measures need an explicit blow-up 'point'"),
    # values of the right kind that the library refuses when it reads them
    (["riesz", "subgroup-probe"], {"config.json": json.dumps(
        {"riesz": {"subgroup": {"basis": [[0, 0]]}}})},
     "make_vertical: zero vectors are not a basis"),
    (["riesz", "subgroup-probe"], {"config.json": json.dumps(
        {"riesz": {"subgroup": {"basis": [[1, 0, 0]]}}})},
     "basis vectors must have length 2, got 3"),
    (["riesz", "subgroup-probe"], {"config.json": json.dumps(
        {"riesz": {"subgroup": {"basis": [[1, 0], [0, 1], [1, 1]]}}})},
     "more basis vectors than horizontal dimensions"),
    # a horizontal subgroup has a basis: the center line is vertical
    (["riesz", "subgroup-probe"], {"config.json": json.dumps(
        {"riesz": {"subgroup": {"kind": "horizontal"}}})},
     "a horizontal subgroup of H^1 has dimension 1 to 1, got 0 vectors"),
    (["riesz", "subgroup-probe"], {"config.json": json.dumps(
        {"riesz": {"resolution": 1}})}, "resolution must be at least 2, got 1"),
    (["riesz", "subgroup-probe"], {"config.json": json.dumps(
        {"riesz": {"resolution": 2}})}, "no Haar atoms inside half the window"),
    (["measure", "ad-report"], {"config.json": json.dumps(
        {"level": 2, "diagnostics": {"radii": [5.0]}})},
     "radius above the support diameter bound"),
    (["tangent", "blowup"], {"config.json": json.dumps(
        {"level": 2, "tangent": {"normalization": "ball-mass",
                                 "point": [9, 9, 0]}})},
     "ball of radius 0.25 at the center carries no mass"),
    # a ratio whose power normalization r^(-s) cannot be formed
    (["tangent", "blowup"], {"config.json": json.dumps(
        {"level": 2, "tangent": {"r": 0.0}})},
     "the blow-up ratio r must be finite and positive, got 0.0"),
    (["tangent", "blowup"], {"config.json": json.dumps(
        {"level": 2, "tangent": {"r": 1e-200}})},
     "the weight factor r^(-s) at r = 1e-200, s = 2.0 is not a finite positive double"),
    # a header-only CSV reads as a measure with no atoms
    *[(command, {"config.json": json.dumps(
        {"measure": {"csv": "empty.csv", "a": 2.0}, **extra}),
        "empty.csv": "x1,x2,x3,weight\n"}, "measure empty.csv has no atoms")
      for command, extra in [(["riesz", "divergence"], {}),
                             (["riesz", "transform"], {}),
                             (["cone-deficiency"], {}),
                             (["measure", "ad-report"], {}),
                             (["tangent", "blowup"],
                              {"tangent": {"point": [0.0, 0.0, 0.0]}})]],
], ids=["config-absent", "config-not-json", "csv-unparsable",
        "probe-points-list", "blowup-csv-without-point", "basis-zero",
        "basis-length", "basis-too-many", "horizontal-without-basis",
        "probe-resolution-1", "probe-resolution-2", "radius-above-diameter",
        "blowup-empty-ball", "blowup-r-zero", "blowup-r-power-overflow",
        "empty-csv-divergence", "empty-csv-transform", "empty-csv-cone",
        "empty-csv-ad-report", "empty-csv-blowup"])
def test_unusable_input_is_a_config_error(tmp_path, capsys, monkeypatch,
                                          command, files, error):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "o"
    assert _run([*command, "--config", "config.json", "--out", str(out)]) == 2
    assert f"config error: {error}" in capsys.readouterr().err
    assert not out.exists()


def test_ifs_maps_are_the_system_run(tmp_path):
    # given maps are the system; the corner family runs only without them
    maps = [{"q": [0.0, 0.0, 0.0], "r": 0.25},
            {"q": [0.75, 0.0, 0.0], "r": 0.25}]
    cfg = _write_config(tmp_path, {"ifs": {"maps": maps}})
    out = tmp_path / "run"
    assert _run(["ifs", "generate", "--config", cfg, "--quick",
                 "--out", str(out)]) == 0
    res = json.loads((out / "ifs_generate.json").read_text())["results"]
    assert (res["maps"], res["atoms"]) == (2, 2 ** 3)
    assert res["similarity_dimension"] == pytest.approx(0.5, abs=1e-12)


def test_atom_cap_exit(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"atom_cap": 10, "level": 2})
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


def test_separation_pair_cap_exit(tmp_path, capsys):
    # 16 coincident maps keep every pair of pieces: the separation's cap
    # on candidate pairs exits 4 before anything is written
    maps = [{"q": [0, 0, 0], "r": 0.5}] * 16
    cfg = _write_config(tmp_path, {"ifs": {"maps": maps}})
    out = tmp_path / "o"
    assert _run(["ifs", "verify", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "pair cap exceeded: over 4194304 candidate pairs at levels [3, 3]" in err
    # atom_cap does not bound the pairs, so the message does not name it
    assert "atom cap" not in err
    assert not out.exists()


def test_expectation_contradiction_exit(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = _write_config(
        tmp_path,
        {
            "expect": "inconclusive",
            "riesz": {
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


def test_expect_on_a_command_without_a_verdict_is_a_config_error(tmp_path,
                                                                capsys):
    # riesz transform computes values, not a verdict, so no expectation
    # can hold, and the run stops before any work
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {"level": 2, "expect": "diverging",
                                   "riesz": {"points": 2}})
    code = _run(["riesz", "transform", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert ("'expect' must be unset, got 'diverging'"
            in capsys.readouterr().err)
    assert not out.exists()


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
            "level": 2,
            "riesz": {
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
    cfg = _write_config(tmp_path, {"level": 2, "riesz": {"points": 4}})
    code = _run(["riesz", "transform", "--config", cfg, "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "riesz_transform.json").read_text())
    assert len(doc["results"]["per_eps_max_abs"]) == 3


def test_divergence_smoke(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(
        tmp_path,
        {
            "level": 3,
            "riesz": {
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
    cfg = _write_config(tmp_path, {"level": 3, "riesz": {
        "points": points, "eps": [0.5, 0.25, 0.125, 0.0625]}})
    out = tmp_path / "run"
    assert _run(["riesz", "divergence", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "riesz_divergence.json").read_text())["results"]
    assert [p["point"] for p in res["per_point"]] == points


def test_divergence_on_the_h2_corner_family_runs_at_dimension_3(tmp_path):
    # 64 maps of ratio 1/4: the kernel degree is 3, at which the
    # truncations grow at the cycle points; at degree 2 none would
    cfg = _write_config(tmp_path, {"n": 2, "level": 3})
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
                                   "level": 2, "riesz": {"points": 2}})
    out = tmp_path / "run"
    assert _run(["riesz", "transform", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "riesz_transform.json").read_text())["results"]
    assert res["s"] == similarity_dimension(make_strichartz_ifs(1, 0.125))
    assert res["s"] == 1.3333333333333335


def test_measure_ad_report(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(
        tmp_path,
        {"level": 3, "diagnostics": {"centers": 8, "radii": [0.25, 0.125]}},
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
    cfg = _write_config(tmp_path, {"level": 3})
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
    cfg = _write_config(tmp_path, {"level": 3})
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
    gen = _write_config(tmp_path, {"level": 2})
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
    cfg = _write_config(tmp_path, {"level": 3, "tangent": {"word": [0], "r": 0.25}})
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
        {"level": 3, "diagnostics": {"centers": 2, "radii": [0.5, 0.25]}},
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
                        np.full((len(k), len(radii)), np.nan))
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {
        "level": 3, "expect": "positive-floor",
        "diagnostics": {"centers": 2, "radii": [0.5, 0.25]}})
    code = _run(["cone-deficiency", "--config", cfg, "--out", str(out)])
    assert code == 3
    assert "deficiency floor nan over" in capsys.readouterr().out
    res = json.loads((out / "cone_deficiency.json").read_text())["results"]
    assert math.isnan(res["floor"])
    assert res["verdict"] == "nonpositive-floor"


@pytest.mark.parametrize("words", [["measure", "ad-report"],
                                   ["cone-deficiency"]])
def test_default_radii_all_below_the_floor_are_a_config_error(tmp_path, capsys,
                                                              words):
    # level 1 has spacing 0.25, so the floor 1.0 is above every default
    # radius; the message names the floor and the key that sets radii
    cfg = _write_config(tmp_path, {"level": 1})
    assert _run([*words, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "every default radius lies below the resolution floor 1;" in err
    assert "'diagnostics.radii'" in err


@pytest.mark.parametrize("words, doc", [
    (["measure", "ad-report"], {}),
    (["cone-deficiency"], {}),
    # the level keeps the run short; 8 centres x 8 subgroups either way
    (["cone-deficiency"], {"n": 2, "level": 2}),
    (["riesz", "transform"], {}),
    (["riesz", "subgroup-probe"], {}),
], ids=["ad-report", "cone-deficiency", "cone-deficiency-n2", "transform",
        "subgroup-probe"])
def test_each_batch_of_centres_is_one_sweep(tmp_path, monkeypatch, words, doc):
    # riesz binds binned_sweep at import, so the transforms' sweeps are
    # counted there, and the ball and cone masses' in measure
    sweeps = []
    for module in (measure, riesz):
        def counted(*args, _sweep=module.binned_sweep, **kwargs):
            sweeps.append(len(np.atleast_2d(args[1])))
            return _sweep(*args, **kwargs)
        monkeypatch.setattr(module, "binned_sweep", counted)
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, doc)
    assert _run([*words, "--quick", "--config", cfg, "--out", str(out)]) == 0
    stem = next(e[1] for e in cli.COMMANDS if e[0] == tuple(words))
    res = json.loads((out / f"{stem}.json").read_text())["results"]
    # one sweep per subgroup for cone-deficiency, one in all elsewhere,
    # each taking every centre of the run
    centres = len(res["centers" if "centers" in res else "points"])
    assert sweeps == [centres] * res.get("distinct_subgroups", 1)


def test_cone_deficiency_n2_tests_subgroups_of_the_measure_dimension(tmp_path):
    # the n = 2 corner family has a = 3, so every subgroup is L x T with
    # L a horizontal line, none the center line or a horizontal plane
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {"n": 2, "level": 2, "diagnostics": {
        "centers": 2, "cone_subgroups": 3, "radii": [0.5]}})
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
    gen = _write_config(tmp_path, {"n": 2, "level": 1})
    assert _run(["ifs", "generate", "--config", gen,
                 "--out", str(tmp_path / "gen")]) == 0
    cfg = _write_config(tmp_path, {
        "measure": {"csv": str(tmp_path / "gen" / "ifs_measure.csv"), "a": 2.0},
        "diagnostics": {"centers": 2, "cone_subgroups": 3, "radii": [0.5]}})
    out = tmp_path / "run"
    assert _run(["cone-deficiency", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "cone_deficiency.json").read_text())["results"]
    assert res["a"] == 2.0
    kinds = [desc["kind"] for desc in res["subgroups"]]
    assert kinds == ["vertical", "horizontal", "horizontal"]
    assert res["subgroups"][0]["basis"] == []
    for desc in res["subgroups"][1:]:
        assert make_horizontal(2, desc["basis"]).hausdorff_dimension == 2


@pytest.mark.parametrize("csv_measure", [False, True],
                         ids=["corner-family-a=3", "csv-a=2"])
def test_every_cone_subgroup_reads_back_as_a_riesz_subgroup(tmp_path,
                                                            csv_measure):
    # cone-deficiency names each subgroup as riesz.subgroup reads one:
    # vertical lines at a = 3, the center line and horizontal planes at
    # a = 2, each probed at its own dimension, which is the measure's
    if csv_measure:
        gen = _write_config(tmp_path, {"n": 2, "level": 1})
        assert _run(["ifs", "generate", "--config", gen,
                     "--out", str(tmp_path / "gen")]) == 0
        doc = {"measure": {"csv": str(tmp_path / "gen" / "ifs_measure.csv"),
                           "a": 2.0}}
    else:
        doc = {"level": 2}
    cfg = _write_config(tmp_path, {"n": 2, **doc})
    out = tmp_path / "cone"
    assert _run(["cone-deficiency", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "cone_deficiency.json").read_text())["results"]
    kinds = [desc["kind"] for desc in res["subgroups"]]
    assert kinds == (["vertical"] + ["horizontal"] * 7 if csv_measure
                     else ["vertical"] * 8)
    for i, desc in enumerate(res["subgroups"]):
        cfg = _write_config(tmp_path, {"n": 2, "riesz": {
            "resolution": 64, "points": 2, "subgroup": desc}})
        probe = tmp_path / f"probe{i}"
        assert _run(["riesz", "subgroup-probe", "--config", cfg,
                     "--out", str(probe)]) == 0
        got = json.loads((probe / "subgroup_probe.json").read_text())
        assert got["results"]["kind"] == desc["kind"]
        assert got["results"]["s"] == res["a"]


def test_config_and_library_take_the_same_subgroup_kinds():
    # riesz.subgroup's kind is checked on load and again by SubgroupSpec;
    # a kind that one of them takes and the other refuses fails here
    kinds = {v for k, v in vars(subgroups).items()
             if k.isupper() and isinstance(v, str)}

    def library_takes(kind):
        # one basis vector: both kinds take it, and a horizontal subgroup
        # needs at least one
        try:
            subgroups.SubgroupSpec(1, kind, np.eye(2)[:1])
        except ValueError:
            return False
        return True

    candidates = kinds | {"taxis", "diagonal", "center", ""}
    assert {k for k in candidates if library_takes(k)} == kinds
    assert {k for k in candidates if cli._SUB["kind"].test(k)} == kinds


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
        gen = _write_config(tmp_path, {"level": 2})
        assert _run(["ifs", "generate", "--config", gen,
                     "--out", str(tmp_path / "gen")]) == 0
        doc["measure"]["csv"] = str(tmp_path / "gen" / "ifs_measure.csv")
    # a CSV measure fixes the atoms, so only the cylinder measure takes a level
    doc["diagnostics"] = {"radii": [0.5]}
    if "measure" not in doc:
        doc["level"] = 2
    cfg = _write_config(tmp_path, doc)
    code = _run(["cone-deficiency", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "got a = " in err


def test_flag_overrides_config(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {"seed": 7, "level": 2})
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
    # both levels sit below the command's quick level; the report echoes
    # the run's level at top level, and the command's block has none
    cfg = _write_config(tmp_path, {"level": level})
    out = tmp_path / "run"
    assert _run([*command, "--config", cfg, "--quick", "--out", str(out)]) == 0
    doc = json.loads((out / report).read_text())
    assert doc["config"]["level"] == level
    assert "level" not in doc["config"][block]
    assert doc["config"]["ifs"]["level_used"] == level
    assert doc["results"]["atoms"] == atoms


@pytest.mark.parametrize("quick", [[], ["--quick"]], ids=["full", "quick"])
@pytest.mark.parametrize("command,doc", [
    (["ifs", "generate"], {"level": "x"}),
    (["riesz", "transform"], {"riesz": {"points": "x"}}),
    (["riesz", "transform"], {"riesz": {"eps": ["a"]}}),
    (["measure", "ad-report"], {"level": [1]}),
    (["selftest"], {"n": "x"}),
    # a level or a count is type-checked, not coerced: int(True) is 1,
    # int(2.9) is 2
    (["ifs", "generate"], {"level": True}),
    (["ifs", "verify"], {"level": 2.9}),
    (["cone-deficiency"], {"level": 2, "diagnostics": {"centers": 2.9}}),
    (["cone-deficiency"], {"level": 2,
                           "diagnostics": {"cone_subgroups": True}}),
    (["measure", "ad-report"], {"level": 2, "diagnostics": {"centers": True}}),
    (["riesz", "transform"], {"level": 2, "riesz": {"points": True}}),
    (["riesz", "subgroup-probe"], {"riesz": {"points": 2.9}}),
    (["riesz", "subgroup-probe"], {"riesz": {"resolution": 256.5}}),
    (["ifs", "verify"], {"ifs": {"resolution": 32.7}}),
    # a verdict the command cannot give, a string, bool or fraction where
    # a number or a letter goes, and an output directory that is no
    # string: each is refused by its kind, not coerced
    (["ifs", "verify"], {"expect": "certifed"}),
    (["tangent", "blowup"], {"level": 2, "tangent": {"r": "0.25"}}),
    (["cone-deficiency"], {"level": 2, "diagnostics": {"delta": True}}),
    (["tangent", "blowup"], {"level": 2, "tangent": {"word": [0.9]}}),
    (["measure", "ad-report"], {"level": 2,
                                "diagnostics": {"radii": ["0.25"]}}),
    (["riesz", "transform"], {"level": 2, "riesz": {"eps": ["0.5", "0.25"]}}),
    (["ifs", "generate"], {"level": 2, "ifs": {"r": "0.125"}}),
    (["riesz", "subgroup-probe"], {"riesz": {"window": "2"}}),
    (["ifs", "generate"], {"level": 2, "ifs": {
        "maps": [{"q": ["0", "0", "0"], "r": "0.25"}]}}),
    (["selftest"], {"out": 5}),
    # an empty system has no set to run on
    (["ifs", "generate"], {"level": 2, "ifs": {"maps": []}}),
    # a subgroup's basis is a list of points, its kind one of two
    (["riesz", "subgroup-probe"], {"riesz": {"subgroup": {
        "kind": "vertical", "basis": [["1", "0"]]}}}),
    (["riesz", "subgroup-probe"], {"riesz": {"subgroup": {
        "kind": "vertical", "basis": [1, 0]}}}),
    (["riesz", "subgroup-probe"], {"riesz": {"subgroup": {
        "kind": "vertical", "basis": [], "s": 3}}}),
    (["riesz", "subgroup-probe"], {"riesz": {"subgroup": {
        "kind": "diagonal", "basis": [[1, 0]]}}}),
], ids=["ifs-level", "riesz-points", "riesz-eps", "diag-level", "n",
        "ifs-level-bool", "ifs-level-fraction", "cone-points-fraction",
        "cone-subgroups-bool", "centers-bool", "riesz-points-bool",
        "probe-points-fraction", "probe-resolution-fraction",
        "ifs-resolution-fraction", "misspelt-expect", "tangent-r-string",
        "delta-bool", "word-fraction", "radii-strings", "eps-strings",
        "ifs-r-string", "window-string", "map-strings", "out-number",
        "maps-empty", "basis-strings", "basis-flat", "subgroup-extra-key",
        "subgroup-kind-unknown"])
def test_malformed_value_is_config_error(tmp_path, capsys, monkeypatch,
                                         command, doc, quick):
    # every value is checked by its kind while the config loads, so the
    # run stops before any work and writes nothing, not even a directory
    cfg = _write_config(tmp_path, doc)
    monkeypatch.chdir(tmp_path)
    assert _run([*command, "--config", cfg, *quick]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and " must be " in err
    assert [f.name for f in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("key,value", [
    ("quick", "false"), ("quick", 1), ("quick", None),
    ("n", 1.7), ("n", True), ("n", "1"),
    ("seed", 2.9), ("seed", False),
    ("atom_cap", 1e7 + 0.5), ("atom_cap", [10]),
    ("level", True), ("level", 2.9), ("level", "3"),
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
    cfg = _write_config(tmp_path, {"atom_cap": 1e7, "seed": 2.0, "level": 1})
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
    cfg = _write_config(tmp_path, {"level": 2, "tangent": {"word": word}})
    code = _run(["tangent", "blowup", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_thread_count_does_not_move_the_output(tmp_path, monkeypatch,
                                               helper_pools):
    # every sweep of the level-5 measure spreads its 16 chunks over the
    # CPUs the process may use: no helper on one CPU; on 64, as many
    # workers as SWEEP_BYTES holds, three, for a batch, whose workers each
    # hold their built piece, and two for the reach pass over the table's
    # held parents, one chunk of two pieces
    monkeypatch.setattr(measure, "PARALLEL_CHUNKS", 1)
    files = {}
    for cpus in (1, 64):
        monkeypatch.setattr(measure, "_cpu_count", lambda: cpus)
        run_dir = tmp_path / str(cpus)
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        helper_pools.clear()
        assert _run(["riesz", "divergence", "--quick", "--out", "."]) == 0
        assert set(helper_pools) == ({1, 2} if cpus == 64 else set())
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
    # README's key list and the CLI's settings table are one surface: a
    # key added, removed or renamed, or a kind changed, on one side only
    # fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("Config keys", 1)[1].split("\n\n", 2)[1]
    listed = {}
    for item in section.split("\n- "):
        name, keys = item.lstrip("- ").split(":", 1)
        listed[name.strip("`")] = re.findall(r"`(\w+)` \(([^)]*)\)",
                                             " ".join(keys.split()))
    blocks = {k: v for k, v in cli._SETTINGS.items() if isinstance(v, dict)}
    tables = {"top level": [(k, entry[1].text) for k, entry
                            in cli._SETTINGS.items() if k not in blocks],
              **{name: [(k, kind.text) for k, (_, kind) in table.items()]
                 for name, table in blocks.items()}}
    assert listed == tables


def test_readme_config_example_loads(tmp_path):
    # the example under README's key list is a working config: a key
    # removed from the CLI but left in the example fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("Config keys", 1)[1].split("```json\n", 1)[1]
    path = _write_config(tmp_path, json.loads(example.split("```", 1)[0]))
    cfg = cli._load_run_config(cli._build_parser().parse_args(
        ["riesz", "transform", "--config", path]))
    assert cfg.level is not None and cfg.blocks


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


def test_perfbench_tracer_wraps_and_restores_every_target(perfbench):
    # the traced pass replaces vars(owner)[attr] for each target while it
    # is active, diagnostics.blowup_map among them though no blow-up row
    # calls it, and puts back the very objects it found
    spans, hz = perfbench
    targets = spans.targets(hz)
    assert len(targets) == 24
    assert "blowup_map" in vars(hz.diagnostics)
    found = [vars(t.owner)[t.attr] for t in targets]
    with spans.Tracer(targets).active():
        assert all(vars(t.owner)[t.attr] is not raw for t, raw in zip(targets, found))
    assert all(vars(t.owner)[t.attr] is raw for t, raw in zip(targets, found))


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
