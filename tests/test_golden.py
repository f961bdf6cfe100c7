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
            "ffdba81e80a0d57c41153091ea823242f493a03361f96862d82dc87fda418b1b",
    },
    ("ifs", "generate"): {
        "ifs_generate.json":
            "92853d1868f6687e54578259d88718bc34140ebe64230838e4c0ede1623fd270",
        "ifs_measure.csv":
            "5d0688b1dab4ac5c110c86779b1adb4f523b985bcf44bd7e0b55929a51337efe",
    },
    ("ifs", "verify"): {
        "ifs_verify.json":
            "c41ac7b317a197b28469b6124855fa6b372d3bdcc8da5c14c2a2cc92d42ad5b0",
    },
    ("measure", "ad-report"): {
        "ad_report.json":
            "e6e6283263d9a5853ccc083f63a2b34501c7870958a34e6934f9235db56a85d3",
    },
    ("riesz", "transform"): {
        "riesz_transform.csv":
            "49aa44e75c3372e31884484b987c22c9439042e06acc100d29ecec96cfa212f9",
        "riesz_transform.json":
            "8427aed88acf138ec8cf8d565eb8a4408f8a577c1f51114974301e092e8a679a",
    },
    ("riesz", "divergence"): {
        "riesz_divergence.csv":
            "b8ca5fce28855e3d820b24325793c974df8a42ba6d797e87aec64d4b6bdbef47",
        "riesz_divergence.json":
            "cbf84aaa49b8d8496b931b6060609384702e22fbbb726ee1a8386a4a9b3a0967",
    },
    ("riesz", "subgroup-probe"): {
        "subgroup_probe.csv":
            "952fce8fac7b2a2399868ab3a161b515a0558191bf4870e9f8f1f23aba1b134e",
        "subgroup_probe.json":
            "da6dc395be286fb08826b599492c217b70c9b97b490490b49514d31359b57726",
    },
    ("tangent", "blowup"): {
        "blowup.json":
            "a95e091d0b0845d8cfba3137c8e1b0f4b53d1a10f327aaba9e3eb1a6b3a34981",
        "blowup_measure.csv":
            "b8a71b508fd9a99a9fe9224dea32ce90699ef09755453a6897192bb974e5d034",
    },
    ("cone-deficiency",): {
        "cone_deficiency.csv":
            "8baabdc83ca08b5447a1d056fde634e9c25263d9c8c7b69a0425fee99345b360",
        "cone_deficiency.json":
            "49b19629a84e8e2a353296ecbbcf547c49049098c6ee1e06771cbd8c8676459a",
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
        "ifs": {"kind": "custom", "level": 3,
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
            "284e65bf44acf1a2655c196343080333dabb07b7a06484f5771e4f82d3389d00",
    }),
    "cone-deficiency-csv": (0, {
        "cone_deficiency.csv":
            "427311cbfc13a55cc168a7b66ba3cfc515a6b8029dd5c72090f08cce18ef2f63",
        "cone_deficiency.json":
            "751891f00d917a53c5d9fe96c611d3f50be8ee73144e742eba615b333839811c",
    }),
    "blowup-csv-point": (0, {
        "blowup.json":
            "74491b291276069aa9fa660cd5af945adef512c6c7c11a429a278195f1b559d4",
        "blowup_measure.csv":
            "ba261037874d506f3def2d15752f7f66abd997459905a4ea60b40a27800112ae",
    }),
    "transform-csv-coords": (0, {
        "riesz_transform.csv":
            "2d19ab520c2ebc093a4ab932304c6c1c5d7dc6cd4ee21a78ec0f3094907a4b57",
        "riesz_transform.json":
            "82cdf446526c50dcf2e1ec57671bf9ca050c4c313d6d2ae0e52be98f8d91c099",
    }),
    "verify-custom": (0, {
        "ifs_verify.json":
            "ac70b32505005dbfe46779afcf2db63779b893f58d99dc027856f43828718f31",
    }),
    "verify-corner-n2": (0, {
        "ifs_verify.json":
            "aa96692a3d4165fe2bf849e20c948be5f5e9c6acba7c9d1e42f922c1edb62402",
    }),
    "subgroup-probe-horizontal-n2": (0, {
        "subgroup_probe.csv":
            "4a715ace929eb20a6e6bda7644ec6d24bec3ba6c0d051ae8b8d9682393f7fd14",
        "subgroup_probe.json":
            "accd38cbeb527abef780446a78737ba81f16fb9f4f9eba5f231b3bee5e78c3a8",
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
