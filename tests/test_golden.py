"""Golden outputs: every CLI command in --quick mode, byte for byte.

Each command runs twice in fresh directories with the default config
and `--out .`, so the reports carry no machine path.  Both runs must
write identical bytes, equal to the expected outputs stored in
``tests/golden/<run>/``, where a run is named by the command's words
joined with ``-``; `selftest` must write them from a fresh interpreter
too, through `python -m heisriesz.cli`.  A second set pins the
config-driven paths, each of which exits 0: a relative ``measure.csv``
block (the --quick cylinder measure copied into the run directory), an
explicit blow-up point, explicit transform points and cutoffs, a
two-map custom system, the corner family in H^2 under --quick and a
horizontal subgroup in H^2.

An output of at most 20,000 bytes is stored as itself, a larger one as
``<file>.sha256``, the hex SHA-256 of its bytes.  A run's directory
holds exactly what the run writes, and every directory names a run.  A
failure names the JSON paths or CSV lines that moved and the directory
holding the written files.  To re-record a move made on purpose, copy
the written file over the stored one (for a sidecar, write its
`sha256sum` hex), so the move shows in `git diff`, and name the moved
fields in CHANGES.md.
"""

import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from heisriesz.cli import COMMANDS, main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# outputs larger than this are stored as their SHA-256 digest
SIDECAR_BYTES = 20_000


def _json_moves(got, want, path=""):
    """The paths, such as ``results.subgroups[0].kind``, at which two
    JSON values differ."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(got.keys() | want.keys()):
            sub = f"{path}.{key}" if path else key
            if key in got and key in want:
                yield from _json_moves(got[key], want[key], sub)
            else:
                yield sub
    elif (isinstance(got, list) and isinstance(want, list)
          and len(got) == len(want)):
        for i, (x, y) in enumerate(zip(got, want)):
            yield from _json_moves(x, y, f"{path}[{i}]")
    elif json.dumps(got) != json.dumps(want):
        yield path


def _moved(written, stored):
    """What moved in a written file against the stored one (its bytes,
    or its digest for a sidecar), or None."""
    name, data, want = written.name, written.read_bytes(), stored.read_bytes()
    if stored.suffix == ".sha256":
        digest = hashlib.sha256(data).hexdigest()
        return None if digest == want.decode().split()[0] else (
            f"{name}: SHA-256 {digest}")
    if data == want:
        return None
    if name.endswith(".json"):
        try:
            paths = list(_json_moves(json.loads(data), json.loads(want)))
        except ValueError:  # the written report is not JSON
            paths = []
        if paths:
            return f"{name}: JSON paths {', '.join(paths[:10])}"
    lines = [i for i, (x, y) in enumerate(itertools.zip_longest(
        data.splitlines(), want.splitlines()), 1) if x != y]
    return f"{name}: lines {lines[:5]}"


def check_golden(run, folder, inputs=()):
    """Assert that the files in `folder`, less `inputs`, are the outputs
    stored in tests/golden/<run>/, no more and no fewer."""
    run_dir = GOLDEN_DIR / run
    stored = {f.name for f in run_dir.iterdir()} if run_dir.is_dir() else set()
    # the stored name of each written file: itself, or its sidecar
    names = {f.name + ".sha256" * (f.stat().st_size > SIDECAR_BYTES): f.name
             for f in folder.iterdir() if f.name not in inputs}
    moves = [f"{names[s]}: written, but no {s} is stored"
             for s in sorted(names.keys() - stored)]
    moves += [f"{s}: stored, not written"
              for s in sorted(stored - names.keys())]
    moves += filter(None, (_moved(folder / names[s], run_dir / s)
                           for s in sorted(names.keys() & stored)))
    assert not moves, (f"golden {run!r} moved; the written files are in "
                       f"{folder}\n" + "\n".join(moves))


QUICK_RUNS = {"-".join(entry[0]): entry for entry in COMMANDS}


@pytest.mark.parametrize("run", list(QUICK_RUNS))
def test_quick_outputs_match_golden(run, tmp_path, monkeypatch):
    command, stem, _, _, verdicts, _ = QUICK_RUNS[run]
    runs = []
    for name in ("first", "second"):
        run_dir = tmp_path / name
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert main([*command, "--quick", "--out", "."]) == 0
        runs.append({f.name: f.read_bytes() for f in run_dir.iterdir()})
    assert runs[0] == runs[1]
    check_golden(run, tmp_path / "first")
    # the verdict, if any, is one that the command's entry declares, so
    # an "expect" can name it
    results = json.loads(runs[0][f"{stem}.json"])["results"]
    verdict = results.get("verdict", results.get("overall"))
    assert verdict in verdicts if verdicts else verdict is None


def test_module_entry_point_writes_the_golden_bytes(tmp_path):
    # every other golden runs in this one process: the module run as a
    # script, in a fresh interpreter, must write the same bytes
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    subprocess.run([sys.executable, "-m", "heisriesz.cli", "selftest",
                    "--quick", "--out", "."], cwd=tmp_path, env=env,
                   timeout=120, capture_output=True, check=True)
    check_golden("selftest", tmp_path)


# the --quick measure and its dimension, which a CSV does not carry
QUICK_MEASURE = {"csv": "ifs_measure.csv", "a": 2.0}

CONFIG_RUNS = {
    "ad-report-csv": (("measure", "ad-report"), {
        "measure": {**QUICK_MEASURE, "spacing": 0.015625},
        "diagnostics": {"centers": 16},
    }),
    "cone-deficiency-csv": (("cone-deficiency",), {
        "measure": {**QUICK_MEASURE, "spacing": 0.015625},
        "diagnostics": {"centers": 4},
    }),
    "blowup-csv-point": (("tangent", "blowup"), {
        "measure": QUICK_MEASURE,
        "tangent": {"point": [0.0, 0.0, 0.0], "r": 0.25},
    }),
    "transform-csv-coords": (("riesz", "transform"), {
        "measure": QUICK_MEASURE,
        "riesz": {"points": [[0.1, 0.2, 0.3], [0.5, 0.5, 0.25]],
                  "eps": [0.5, 0.125, 0.03125]},
    }),
    "verify-custom": (("ifs", "verify"), {
        "level": 3,
        "ifs": {"maps": [{"q": [0.0, 0.0, 0.0], "r": 0.25},
                         {"q": [0.75, 0.0, 0.0], "r": 0.25}]},
    }),
    # the corner family in H^2 through the planar tilt sum: "expect"
    # turns any other verdict into exit 3
    "verify-corner-n2": (("ifs", "verify"), {
        "n": 2, "quick": True, "expect": "certified",
    }),
    # the kernel degree is the line's dimension 1, with no "s" key
    "subgroup-probe-horizontal-n2": (("riesz", "subgroup-probe"), {
        "n": 2,
        "riesz": {"resolution": 256, "eps": [0.5, 0.25, 0.125],
                  "points": 4,
                  "subgroup": {"kind": "horizontal",
                               "basis": [[1.0, 0.0, 0.0, 0.0]]}},
    }),
}


def test_every_golden_directory_names_a_run():
    # a deleted run leaves no stale expected files behind
    assert ({d.name for d in GOLDEN_DIR.iterdir()}
            == QUICK_RUNS.keys() | CONFIG_RUNS.keys())


@pytest.fixture(scope="module")
def quick_measure(tmp_path_factory):
    # the --quick measure, checked as the "ifs-generate" golden
    out = tmp_path_factory.mktemp("quick_measure")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(out)
        assert main(["ifs", "generate", "--quick", "--out", "."]) == 0
    check_golden("ifs-generate", out)
    return out / "ifs_measure.csv"


def test_golden_check_fails_on_one_flipped_byte(quick_measure, tmp_path):
    # a report stored as itself, and a CSV stored as its digest
    for name, after, moved in (
            ("ifs_generate.json", b'"atoms": ', r"JSON paths results\.atoms\b"),
            ("ifs_measure.csv", b"\n", "ifs_measure.csv: SHA-256")):
        copy = tmp_path / name
        shutil.copytree(quick_measure.parent, copy)
        data = bytearray((copy / name).read_bytes())
        data[data.index(after) + len(after)] ^= 1
        (copy / name).write_bytes(data)
        with pytest.raises(AssertionError, match=moved):
            check_golden("ifs-generate", copy)


@pytest.mark.parametrize("name", list(CONFIG_RUNS))
def test_config_outputs_match_golden(name, quick_measure, tmp_path,
                                     monkeypatch):
    command, config = CONFIG_RUNS[name]
    runs = []
    for run in ("first", "second"):
        run_dir = tmp_path / run
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        (run_dir / "config.json").write_text(json.dumps(config))
        if "measure" in config:
            shutil.copy(quick_measure, run_dir / "ifs_measure.csv")
        inputs = {f.name for f in run_dir.iterdir()}
        assert main([*command, "--config", "config.json", "--out", "."]) == 0
        runs.append({f.name: f.read_bytes() for f in run_dir.iterdir()})
    assert runs[0] == runs[1]
    check_golden(name, tmp_path / "first", inputs)
