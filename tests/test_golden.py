"""Golden outputs: every CLI command in --quick mode, byte for byte.

Each command runs twice in fresh directories with the default config
and `--out .`, so the reports carry no machine path.  Both runs must
write identical bytes, and those bytes must hash to the recorded
SHA-256 digests.  A change that moves output on purpose re-records the
affected digests and names the moved fields in CHANGES.md.
"""

import hashlib

import pytest

from heisriesz.cli import main

GOLDEN = {
    ("selftest",): {
        "selftest.json":
            "21bc47df1effd5f899fbc35c21d2ce788ad06286402bf7a116c7bff6d2dcb69b",
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
            "adf13177830fe66c50ad061b91206477ec86aed4c2593c3c25647496cf6448b8",
        "riesz_transform.json":
            "0b9ef981ccac1e89f699e10931b9d2f92b6201c4825bf0e95d9e81cc280eb253",
    },
    ("riesz", "divergence"): {
        "riesz_divergence.csv":
            "a716c13967f6db2ead0a2c29d2edbef270a402ef71f31d6d13508d2bc3ece723",
        "riesz_divergence.json":
            "5fbb3d46ea3228bfbca7e0004f0f1d4ce14ddb7319c4e6e0f911b135c92b55e7",
    },
    ("riesz", "subgroup-probe"): {
        "subgroup_probe.csv":
            "74fc226f01faa8c2478f3118665e090e4237a16fe6796dadcf6af044863cdf26",
        "subgroup_probe.json":
            "c4b1679c5b5cb342efac894c0ee8fa5935ba10ba1c8078b1d94df8720bcc24a8",
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
