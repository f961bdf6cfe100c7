"""Command-line surface: configs, exit codes, files, determinism."""

import csv
import json

import numpy as np
import pytest

import heisriesz.core as core
from heisriesz.cli import main


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
    monkeypatch.setattr(core, "symplectic_form", lambda p, q: -orig(p, q))
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
    cfg = _write_config(tmp_path, {"ifs": {"resolution": 32, "samples": 20_000}})
    code = _run(["ifs", "verify", "--config", cfg, "--quick", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "ifs_verify.json").read_text())
    res = doc["results"]
    assert res["verdict"] == "certified"
    assert res["region"]["violations"] == 0
    assert res["phi"]["residual"] == 0.0
    assert res["separation"]["value"] > 0.0
    assert doc["config"]["ifs"]["separation_level_used"] == 3
    assert res["separation"]["level"] == 3


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


def test_atom_cap_exit(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"atom_cap": 10, "ifs": {"level": 2}})
    code = _run(["ifs", "generate", "--config", cfg, "--out", str(tmp_path / "o")])
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


def test_transform_zero_far_from_support(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(
        tmp_path,
        {
            "riesz": {
                "level": 2,
                "point_coords": [[0.5, 0.5, 0.25]],
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
            },
            "diagnostics": {"a": 2.0, "centers": 4, "radii": [0.25]},
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
            "measure": {"csv": str(gen_out / "ifs_measure.csv"), **extra},
            "diagnostics": {"a": 2.0, "centers": 4, "radii": [0.25]},
        })
        assert _run(["measure", "ad-report", "--config", cfg2, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        notes.append(err)
        assert "floor is off" not in (out / "ad_report.json").read_text()
    assert notes[0].count("\n") == 1
    assert "no 'spacing'" in notes[0] and "resolution floor is off" in notes[0]
    assert notes[1] == ""


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


def test_flag_overrides_config(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {"seed": 7, "ifs": {"level": 2}})
    code = _run(["ifs", "generate", "--config", cfg, "--seed", "9", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "ifs_generate.json").read_text())
    assert doc["config"]["seed"] == 9


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
