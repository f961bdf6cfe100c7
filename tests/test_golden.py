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
            "20ad83be1d7d37b51b741d6dedd8dc50e1388f89b9436a0ec72a36fbad093e46",
    },
    ("ifs", "generate"): {
        "ifs_generate.json":
            "a5055ae4e1a9e9e63d654a6d0d185c3aa5ee70b0945278a4589274753bc7285a",
        "ifs_measure.csv":
            "5d0688b1dab4ac5c110c86779b1adb4f523b985bcf44bd7e0b55929a51337efe",
    },
    ("ifs", "verify"): {
        "ifs_verify.json":
            "a95fec8344c44eb9fcdaab23b5744285ac9a3c8066ad072bccd70d0624d57f83",
    },
    ("measure", "ad-report"): {
        "ad_report.json":
            "30af6f2cadfcb0148b60c12dd2035f710df28e6caad77f2bbc751a07a0d965bb",
    },
    ("riesz", "transform"): {
        "riesz_transform.csv":
            "49aa44e75c3372e31884484b987c22c9439042e06acc100d29ecec96cfa212f9",
        "riesz_transform.json":
            "bc1ba6ae958b870987f3736cb7f320c54686471b1926794f119053b6bedc7e55",
    },
    ("riesz", "divergence"): {
        "riesz_divergence.csv":
            "b8ca5fce28855e3d820b24325793c974df8a42ba6d797e87aec64d4b6bdbef47",
        "riesz_divergence.json":
            "d41feda0f58f2895ffa6a9a08922de7ab9a161121f14796804ab116306b67956",
    },
    ("riesz", "subgroup-probe"): {
        "subgroup_probe.csv":
            "952fce8fac7b2a2399868ab3a161b515a0558191bf4870e9f8f1f23aba1b134e",
        "subgroup_probe.json":
            "b38e3dddd62dbb8f7c7d82ba8fb27744545db7149ec5c06d6aa8909132e7eb42",
    },
    ("tangent", "blowup"): {
        "blowup.json":
            "a8aa9668b11f25ef76ada4b22ad421acc7968a0dcb1ff989f691bbe0e5f96f3a",
        "blowup_measure.csv":
            "b8a71b508fd9a99a9fe9224dea32ce90699ef09755453a6897192bb974e5d034",
    },
    ("cone-deficiency",): {
        "cone_deficiency.csv":
            "8baabdc83ca08b5447a1d056fde634e9c25263d9c8c7b69a0425fee99345b360",
        "cone_deficiency.json":
            "167eb331a4af6620a41717f8d860ac5dafbd24f964cd8c3a3884e0c8eb811104",
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
        "riesz": {"points": [[0.1, 0.2, 0.3], [0.5, 0.5, 0.25]],
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
            "596215ade1411f0c5e3167c6fd7d4226d2d7f3728121047e372acfc461858415",
    }),
    "cone-deficiency-csv": (0, {
        "cone_deficiency.csv":
            "427311cbfc13a55cc168a7b66ba3cfc515a6b8029dd5c72090f08cce18ef2f63",
        "cone_deficiency.json":
            "cca4f69aee489824142ee6d53a36e3ae8640203949ae382d5b881e0b15fab752",
    }),
    "blowup-csv-point": (0, {
        "blowup.json":
            "25f92467057a99ab4140b56dae2738227dc3f323a9b1683f693f9ce8eaac1cb9",
        "blowup_measure.csv":
            "ba261037874d506f3def2d15752f7f66abd997459905a4ea60b40a27800112ae",
    }),
    "transform-csv-coords": (0, {
        "riesz_transform.csv":
            "2d19ab520c2ebc093a4ab932304c6c1c5d7dc6cd4ee21a78ec0f3094907a4b57",
        "riesz_transform.json":
            "6cc8fd8c02792126742462390e250cbdca73e8197e2cbffd752fe377d3bf2e40",
    }),
    "verify-custom": (0, {
        "ifs_verify.json":
            "2e3626939ceb5ca3403c044f837e6f59d926b12bb95b28e91837bf5516f5f913",
    }),
    "subgroup-probe-horizontal-n2": (0, {
        "subgroup_probe.csv":
            "4a715ace929eb20a6e6bda7644ec6d24bec3ba6c0d051ae8b8d9682393f7fd14",
        "subgroup_probe.json":
            "8ed05516e05c526cfd5fada19d63722246e16778b632e7294f55799cde6679b1",
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
