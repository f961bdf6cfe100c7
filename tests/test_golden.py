"""Golden outputs: every CLI command in --quick mode, byte for byte.

Each command runs twice in fresh directories with the default config
and `--out .`, so the reports carry no machine path.  Both runs must
write identical bytes, and those bytes must hash to the recorded
SHA-256 digests.  A change that moves output on purpose re-records the
affected digests and names the moved fields in CHANGES.md.

A second set pins the config-driven paths: a relative ``measure.csv``
block (the --quick cylinder measure copied into the run directory), an
explicit blow-up point, explicit transform points and cutoffs, a
two-map custom system and a horizontal subgroup in H^2.  Those runs
pin their exit code too.
"""

import hashlib
import json
import shutil

import pytest

from heisriesz.cli import main

GOLDEN = {
    ("selftest",): {
        "selftest.json":
            "575c2d5a7af1402250b6fa430f5a347524c4103c5deddf2c9686c20dcea7f220",
    },
    ("ifs", "generate"): {
        "ifs_generate.json":
            "0570efb0d8dab255c6b91401a331452855ffe5af328e937f77a1011a322a1570",
        "ifs_measure.csv":
            "5d0688b1dab4ac5c110c86779b1adb4f523b985bcf44bd7e0b55929a51337efe",
    },
    ("ifs", "verify"): {
        "ifs_verify.json":
            "f71aa843cbfc8b714b0b15a0bb88d058cc27c8ea84cf2265ed2bb8a90e78fde9",
    },
    ("measure", "ad-report"): {
        "ad_report.json":
            "9dbb7cfffad043444f7dcf0e37b92bce626186a5ae335c3e2712ded6d6d56fc6",
    },
    ("riesz", "transform"): {
        "riesz_transform.csv":
            "ef2832ed03bc4ab1114860279b0972720efaefcf11aef2e671dae244f6942071",
        "riesz_transform.json":
            "37381a318170406040428eb9bfd2c939e4c0937753f176b634d6551d0d06231e",
    },
    ("riesz", "divergence"): {
        "riesz_divergence.csv":
            "ae905377ecec4b10b25d477619b0c8d55cc307afad704f885b27d7286f0432b8",
        "riesz_divergence.json":
            "2be013c220bf3790a8433fbe4bbf78ddce2313280f9f406a73eeda1ecb7cafa4",
    },
    ("riesz", "subgroup-probe"): {
        "subgroup_probe.csv":
            "2a40d9d65434ed724086f1ede89ab74a5bc45d735eead4423a2f8f2c115924fd",
        "subgroup_probe.json":
            "95784cb197a06a417285cc0749ea4ce8de52f59e40b90096385e416f7e4578fc",
    },
    ("tangent", "blowup"): {
        "blowup.json":
            "f01ca12e476c5d8b189d0688020f4d337ad9694b92b61858875fc75f4a7f90c8",
        "blowup_measure.csv":
            "b8a71b508fd9a99a9fe9224dea32ce90699ef09755453a6897192bb974e5d034",
    },
    ("cone-deficiency",): {
        "cone_deficiency.csv":
            "8baabdc83ca08b5447a1d056fde634e9c25263d9c8c7b69a0425fee99345b360",
        "cone_deficiency.json":
            "ee8ce8fdacfbe792d65cf041b0a81219b73753855b1dd1adc011e1f2fd61b6d9",
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


QUICK_MEASURE = {"csv": "ifs_measure.csv"}

CONFIG_RUNS = {
    "ad-report-csv": (("measure", "ad-report"), {
        "measure": {**QUICK_MEASURE, "spacing": 0.015625},
        "diagnostics": {"a": 2.0, "centers": 16},
    }),
    "cone-deficiency-csv": (("cone-deficiency",), {
        "measure": {**QUICK_MEASURE, "spacing": 0.015625},
        "diagnostics": {"a": 2.0, "cone_points": 4},
    }),
    "blowup-csv-point": (("tangent", "blowup"), {
        "measure": QUICK_MEASURE,
        "tangent": {"point": [0.0, 0.0, 0.0], "r": 0.25, "s": 2.0},
    }),
    "transform-csv-coords": (("riesz", "transform"), {
        "measure": QUICK_MEASURE,
        "riesz": {"point_coords": [[0.1, 0.2, 0.3], [0.5, 0.5, 0.25]],
                  "eps": [0.5, 0.125, 0.03125]},
    }),
    "verify-custom": (("ifs", "verify"), {
        "ifs": {"kind": "custom", "separation_level": 3,
                "maps": [{"q": [0.0, 0.0, 0.0], "r": 0.25},
                         {"q": [0.75, 0.0, 0.0], "r": 0.25}]},
    }),
    "subgroup-probe-horizontal-n2": (("riesz", "subgroup-probe"), {
        "n": 2,
        "riesz": {"s": 1.0, "resolution": 256, "eps": [0.5, 0.25, 0.125],
                  "points": 4,
                  "subgroup": {"kind": "horizontal",
                               "basis": [[1.0, 0.0, 0.0, 0.0]]}},
    }),
}

CONFIG_GOLDEN = {
    "ad-report-csv": (0, {
        "ad_report.json":
            "94a26e34b2148e0bbbd5335d24d60571137d15bfed206452e98d6a9503ee5100",
    }),
    "cone-deficiency-csv": (0, {
        "cone_deficiency.csv":
            "427311cbfc13a55cc168a7b66ba3cfc515a6b8029dd5c72090f08cce18ef2f63",
        "cone_deficiency.json":
            "181d88c06ba41b4ac1a9cbfa816b61c546bdfa6013aa8737fa493950413203b8",
    }),
    "blowup-csv-point": (0, {
        "blowup.json":
            "345d40b767e5f21842836c9bd83053201f98672f8a4241a02e3dcdfb93676b77",
        "blowup_measure.csv":
            "ba261037874d506f3def2d15752f7f66abd997459905a4ea60b40a27800112ae",
    }),
    "transform-csv-coords": (0, {
        "riesz_transform.csv":
            "c85a79d408ba4cd974000c7d2ff5030cfff3291851d621bcb926de1e862b7215",
        "riesz_transform.json":
            "674cbeb4e483769b5574e952b8e051b3690a182484fc8f536b441521d8001e11",
    }),
    "verify-custom": (0, {
        "ifs_verify.json":
            "53e6bb7abab73bbee37488475b78f0c813175d8fb2f511c15271cbfe79a6356b",
    }),
    "subgroup-probe-horizontal-n2": (0, {
        "subgroup_probe.csv":
            "4a715ace929eb20a6e6bda7644ec6d24bec3ba6c0d051ae8b8d9682393f7fd14",
        "subgroup_probe.json":
            "1f9d6ae666fed96f51c71584f368e386b23bc0d679a65ac3cea4de0a7f9d7058",
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
