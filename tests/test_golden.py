"""Golden outputs: every CLI command in --quick mode, byte for byte.

Each command runs twice in fresh directories with the default config
and `--out .`, so the reports carry no machine path.  Both runs must
write identical bytes, and those bytes must hash to the recorded
SHA-256 digests; `selftest` must write them from a fresh interpreter
too, through `python -m heisriesz.cli`.  A change that moves output on
purpose re-records the affected digests and names the moved fields in
CHANGES.md.

A second set pins the config-driven paths: a relative ``measure.csv``
block (the --quick cylinder measure copied into the run directory), an
explicit blow-up point, explicit transform points and cutoffs, a
two-map custom system, the corner family in H^2 under --quick and a
horizontal subgroup in H^2.  Those runs pin their exit code too.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from heisriesz.cli import COMMANDS, main

GOLDEN = {
    ("selftest",): {
        "selftest.json":
            "75841f572dd3321d3d37a58d14cb2f91d0c3d477097bbf6423d67cda01842398",
    },
    ("ifs", "generate"): {
        "ifs_generate.json":
            "9069d6feb093faede86f4102d591f419ef6be320e9987dbfab3d4d4aa18266aa",
        "ifs_measure.csv":
            "5d0688b1dab4ac5c110c86779b1adb4f523b985bcf44bd7e0b55929a51337efe",
    },
    ("ifs", "verify"): {
        "ifs_verify.json":
            "74b712f2da1cddaab5b39187ebfe086afa084b055936a5c43d4c9cc0513731e0",
    },
    ("measure", "ad-report"): {
        "ad_report.json":
            "3bc8cf6d7945c3c52d859bf2e6e250d0281cfdcc53ce5b0ef49d278c3c38949a",
    },
    ("riesz", "transform"): {
        "riesz_transform.csv":
            "49aa44e75c3372e31884484b987c22c9439042e06acc100d29ecec96cfa212f9",
        "riesz_transform.json":
            "24a821e7c9dc9b64aeae5907d5b91342f3f4354da2c6aec638ae1a58aa98319f",
    },
    ("riesz", "divergence"): {
        "riesz_divergence.csv":
            "b8ca5fce28855e3d820b24325793c974df8a42ba6d797e87aec64d4b6bdbef47",
        "riesz_divergence.json":
            "7757a072b07026e5f1ae57bcf6964caf2f33865821ea22eca340e8d9a6d4ff9f",
    },
    ("riesz", "subgroup-probe"): {
        "subgroup_probe.csv":
            "952fce8fac7b2a2399868ab3a161b515a0558191bf4870e9f8f1f23aba1b134e",
        "subgroup_probe.json":
            "c7056fb6ca73d8126074bc5e96f8f9a598ea67782994cfeb5009cae66d24599e",
    },
    ("tangent", "blowup"): {
        "blowup.json":
            "cd3e071be3087a97d966a47b4faa75b2fdfa7285ded71a29a975ddb1ca2989b6",
        "blowup_measure.csv":
            "b8a71b508fd9a99a9fe9224dea32ce90699ef09755453a6897192bb974e5d034",
    },
    ("cone-deficiency",): {
        "cone_deficiency.csv":
            "8baabdc83ca08b5447a1d056fde634e9c25263d9c8c7b69a0425fee99345b360",
        "cone_deficiency.json":
            "a102f8bab9e401213556b0722bb3cccf72099f489cdb0378d30de222545c3e93",
    },
}


@pytest.mark.parametrize("command", list(GOLDEN), ids="-".join)
def test_quick_outputs_match_golden(command, tmp_path, monkeypatch):
    runs = []
    for name in ("first", "second"):
        run_dir = tmp_path / name
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert main([*command, "--quick", "--out", "."]) == 0
        runs.append({f.name: f.read_bytes() for f in run_dir.iterdir()})
    assert runs[0] == runs[1]
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in runs[0].items()}
    assert digests == GOLDEN[command]
    # the verdict, if any, is one that the command's entry declares, so
    # an "expect" can name it
    _, stem, _, _, verdicts, _ = next(e for e in COMMANDS
                                      if e[0] == command)
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
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in tmp_path.iterdir()}
    assert digests == GOLDEN[("selftest",)]


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

CONFIG_GOLDEN = {
    "ad-report-csv": (0, {
        "ad_report.json":
            "23f538eeb28b5ffe04ab5bbbf35afc36e12a52160cf014092fcfa7b53c5d7afb",
    }),
    "cone-deficiency-csv": (0, {
        "cone_deficiency.csv":
            "427311cbfc13a55cc168a7b66ba3cfc515a6b8029dd5c72090f08cce18ef2f63",
        "cone_deficiency.json":
            "254094a740378f58fc39a76eedbbcd34499c6743d26c9b428af307b2fbeecd28",
    }),
    "blowup-csv-point": (0, {
        "blowup.json":
            "057f9a6d7daa0fa02fcbbbbe3de81a9648f07c79b218b90e7ea2cde6e6ad2f08",
        "blowup_measure.csv":
            "ba261037874d506f3def2d15752f7f66abd997459905a4ea60b40a27800112ae",
    }),
    "transform-csv-coords": (0, {
        "riesz_transform.csv":
            "2d19ab520c2ebc093a4ab932304c6c1c5d7dc6cd4ee21a78ec0f3094907a4b57",
        "riesz_transform.json":
            "4700a1609b69b7812cc96aeb492a67e3fb58415b03b32fd857c3e09c40690ba7",
    }),
    "verify-custom": (0, {
        "ifs_verify.json":
            "cc913bc89c7585db0e9feb1c009d4210a870c7bef18dd60e7aede0ea344e263c",
    }),
    "verify-corner-n2": (0, {
        "ifs_verify.json":
            "e6c5d060fd2d936041d12659cb1a63d660556ed6a258095de54caa2767a251eb",
    }),
    "subgroup-probe-horizontal-n2": (0, {
        "subgroup_probe.csv":
            "4a715ace929eb20a6e6bda7644ec6d24bec3ba6c0d051ae8b8d9682393f7fd14",
        "subgroup_probe.json":
            "6734cd1718f585ad4bdec74e792aa23c6c037ccf21957533f5a3a8b1c01173c4",
    }),
}


@pytest.fixture(scope="module")
def quick_measure(tmp_path_factory):
    # the --quick measure whose bytes the ("ifs", "generate") entry pins
    out = tmp_path_factory.mktemp("quick_measure")
    assert main(["ifs", "generate", "--quick", "--out", str(out)]) == 0
    path = out / "ifs_measure.csv"
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == GOLDEN[("ifs", "generate")]["ifs_measure.csv"])
    return path


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
        code = main([*command, "--config", "config.json", "--out", "."])
        runs.append((code, {f.name: f.read_bytes() for f in run_dir.iterdir()
                            if f.name not in inputs}))
    assert runs[0] == runs[1]
    code, files = runs[0]
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in files.items()}
    assert (code, digests) == CONFIG_GOLDEN[name]
