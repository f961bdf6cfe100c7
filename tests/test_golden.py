"""Golden outputs: every CLI command in --quick mode, byte for byte.

Each command runs twice in fresh directories with the default config
and `--out .`, so the reports carry no machine path.  Both runs must
write identical bytes, and those bytes must hash to the recorded
SHA-256 digests.  A change that moves output on purpose re-records the
affected digests and names the moved fields in CHANGES.md.

A second set pins the config-driven paths: a relative ``measure.csv``
block (the --quick cylinder measure copied into the run directory), an
explicit blow-up point, explicit transform points and cutoffs, a
two-map custom system, the corner family in H^2 under --quick and a
horizontal subgroup in H^2.  Those runs pin their exit code too.
"""

import hashlib
import json
import shutil

import pytest

from heisriesz.cli import main

GOLDEN = {
    ("selftest",): {
        "selftest.json":
            "090600518d018c9209024979363343ba15577ae8fb1a458148eba225a26f4a86",
    },
    ("ifs", "generate"): {
        "ifs_generate.json":
            "ec1101a64d0eb4b604134bee0bb14c618528fc6ba129a5eeafd2a71d5c67a755",
        "ifs_measure.csv":
            "5d0688b1dab4ac5c110c86779b1adb4f523b985bcf44bd7e0b55929a51337efe",
    },
    ("ifs", "verify"): {
        "ifs_verify.json":
            "ae1b7c698008c6023d0b499aecc11caff1e7e4de36a4086aeda59d335c69622a",
    },
    ("measure", "ad-report"): {
        "ad_report.json":
            "89b985c501d97c298f0a6f10099e9930705b39e151e787706714040e8427c243",
    },
    ("riesz", "transform"): {
        "riesz_transform.csv":
            "49aa44e75c3372e31884484b987c22c9439042e06acc100d29ecec96cfa212f9",
        "riesz_transform.json":
            "763195a9afc45a0fdff89f02e8f3469d92be80d0eb01878265803df27ae928e6",
    },
    ("riesz", "divergence"): {
        "riesz_divergence.csv":
            "b8ca5fce28855e3d820b24325793c974df8a42ba6d797e87aec64d4b6bdbef47",
        "riesz_divergence.json":
            "236d1ddcb98f795e30302c52bdd6e7599e336b549ced3bf1284a9f359554d05e",
    },
    ("riesz", "subgroup-probe"): {
        "subgroup_probe.csv":
            "952fce8fac7b2a2399868ab3a161b515a0558191bf4870e9f8f1f23aba1b134e",
        "subgroup_probe.json":
            "e29c213da194917f5acf8321c395baddd63e02a9396593d2b2cdeaaa76d1f4eb",
    },
    ("tangent", "blowup"): {
        "blowup.json":
            "20192ecc26efb7e9f1d34b1ec40cd0ca9c14ff147900040b361680311ee74104",
        "blowup_measure.csv":
            "b8a71b508fd9a99a9fe9224dea32ce90699ef09755453a6897192bb974e5d034",
    },
    ("cone-deficiency",): {
        "cone_deficiency.csv":
            "8baabdc83ca08b5447a1d056fde634e9c25263d9c8c7b69a0425fee99345b360",
        "cone_deficiency.json":
            "701d61293604f2ca6678c561ef73edbc1fd02206e5529eaa8e78ba6a06730c3d",
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


# the --quick measure and its dimension, which a CSV does not carry
QUICK_MEASURE = {"csv": "ifs_measure.csv", "a": 2.0}

CONFIG_RUNS = {
    "ad-report-csv": (("measure", "ad-report"), {
        "measure": {**QUICK_MEASURE, "spacing": 0.015625},
        "diagnostics": {"centers": 16},
    }),
    "cone-deficiency-csv": (("cone-deficiency",), {
        "measure": {**QUICK_MEASURE, "spacing": 0.015625},
        "diagnostics": {"cone_points": 4},
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
        "ifs": {"kind": "custom", "separation_level": 3,
                "maps": [{"q": [0.0, 0.0, 0.0], "r": 0.25},
                         {"q": [0.75, 0.0, 0.0], "r": 0.25}]},
    }),
    # the corner family in H^2 through the planar tilt sum: "expect"
    # turns any other verdict into exit 3
    "verify-corner-n2": (("ifs", "verify"), {
        "n": 2, "quick": True, "ifs": {"expect": "certified"},
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
            "cfd85bd9ee0fb59852930957d15129c2ad319941e5e030255c15d9df245a5c0a",
    }),
    "cone-deficiency-csv": (0, {
        "cone_deficiency.csv":
            "427311cbfc13a55cc168a7b66ba3cfc515a6b8029dd5c72090f08cce18ef2f63",
        "cone_deficiency.json":
            "3029321f092b355ff33ffc7f433d2e17aa5b0e5c3f3ea87d039e1aba785eb95b",
    }),
    "blowup-csv-point": (0, {
        "blowup.json":
            "ce28539e90a0a725bddb633ae6bb5c1d9fe942806727b0c7f43bbab01aa7e970",
        "blowup_measure.csv":
            "ba261037874d506f3def2d15752f7f66abd997459905a4ea60b40a27800112ae",
    }),
    "transform-csv-coords": (0, {
        "riesz_transform.csv":
            "2d19ab520c2ebc093a4ab932304c6c1c5d7dc6cd4ee21a78ec0f3094907a4b57",
        "riesz_transform.json":
            "0187c2a11b4ceebd08df342578be8898c4e6e3fc87a458e88f8ff076ba23d085",
    }),
    "verify-custom": (0, {
        "ifs_verify.json":
            "a4cd8793b65df5c45beb3f670f46a62785eb9ed958a0c426cc469e224062745f",
    }),
    "verify-corner-n2": (0, {
        "ifs_verify.json":
            "7b4462aeb938c3ecde02c8348ba9595fdbd1e58676b5c848265f971ace409c1b",
    }),
    "subgroup-probe-horizontal-n2": (0, {
        "subgroup_probe.csv":
            "4a715ace929eb20a6e6bda7644ec6d24bec3ba6c0d051ae8b8d9682393f7fd14",
        "subgroup_probe.json":
            "d5b168873ceaa19077d8edac9679744d25a10bd446db1806ae57778df56b9f4f",
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
