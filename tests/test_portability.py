"""The pinned bits do not depend on numpy's SIMD level.

numpy picks some of its loops by CPU feature at run time, and a loop
such as ``np.power`` or ``np.exp`` can give other last bits under
AVX-512 than under AVX2 or SSE.  The package keeps them off every
pinned path, so a process with all of numpy's dispatched features
switched off (``NPY_DISABLE_CPU_FEATURES``) must reproduce this one's
digests: the ``test_core`` batch pins, the cylinder pins, a small
``horest_check`` run, the corner family's level-3 and the unequal-ratio
trio's level-5 separation, small invariant-region reports in H^1 and
H^2 (the tilt grid, its interpolation, the sum over the planes and the
group law), ball-mass and cone ratios at the non-integer dimension
a = 4/3, and the ``selftest`` and ``riesz transform`` quick outputs.
Every pinned run has an integer kernel degree; for a non-integer s the
sweep kernel keeps one ``np.power``, and nothing of it is pinned here.

A second test reruns this file and ``test_selftest.py`` with only
numpy's AVX-512 loops switched off, the AVX2 level of most x86 CPUs, so
a pin recorded on an AVX-512 machine that moves at AVX2 fails where it
is recorded.

Run as a script, this file prints the digests as one JSON line.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import heisriesz
from heisriesz.cli import main
from heisriesz.core import dist, koranyi_norm, symplectic_form
from heisriesz.diagnostics import (ad_regularity_report, cone_deficiency,
                                   horest_check)
from heisriesz.fractal import (cylinder_measure, make_strichartz_ifs,
                               min_piece_separation, phi_fixed_point,
                               verify_invariant_region)
from heisriesz.subgroups import make_vertical

from test_core import _batch
from test_fractal import _CYLINDER_DIGESTS, _mixed_trio


def _found_features():
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    return list(simd.get("found", []))


def _sha(data) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests() -> dict:
    out = {}
    for n in (1, 2, 3):
        p, q = _batch(n, 100 + n, 4096)
        out[f"batch n={n}"] = [_sha(v.tobytes()) for v in
                               (dist(p, q), koranyi_norm(p), symplectic_form(p, q))]
    for i, (make, level, _) in enumerate(_CYLINDER_DIGESTS):
        mu = cylinder_measure(make(), level)
        out[f"cylinder {i}"] = _sha(np.ascontiguousarray(mu.points).tobytes()
                                    + mu.weights.tobytes())
    horest = horest_check(2, 0.5, trials=20_000, seed=3)
    out["horest"] = [horest.hypothesis_rejections, horest.min_margin.hex()]
    out["separation"] = min_piece_separation(make_strichartz_ifs(1, 0.25), 3).hex()
    out["separation trio L5"] = min_piece_separation(_mixed_trio(), 5).hex()
    for n, key in ((1, "region"), (2, "region n=2")):
        phi = phi_fixed_point(n, 0.25, 64)
        region = verify_invariant_region(make_strichartz_ifs(n, 0.25), phi,
                                         sample_count=5000, seed=0)
        out[key] = [_sha(phi.values.tobytes()), region.violations,
                    region.min_lower_margin.hex(),
                    region.min_upper_margin.hex(), region.slack.hex()]
    # r^a at a non-integer a, on the r = 1/8 family's level-3 measure
    mu = cylinder_measure(make_strichartz_ifs(1, 0.125), 3)
    radii = np.linspace(0.05, 0.6, 12)
    ad = ad_regularity_report(mu, 4.0 / 3.0, centers=8, radii=radii, seed=1)
    cone = cone_deficiency(mu, 4.0 / 3.0, ad.centers[0], make_vertical(1, []),
                           0.5, radii)
    out["a=4/3"] = _sha(ad.ratios.tobytes() + cone.tobytes())
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for command in (["selftest"], ["riesz", "transform"]):
            run = Path(tmp) / "-".join(command)
            run.mkdir()
            os.chdir(run)
            try:
                assert main([*command, "--quick", "--out", "."]) == 0
            finally:
                os.chdir(home)
            for f in sorted(run.iterdir()):
                out[f.name] = _sha(f.read_bytes())
    return out


def test_digests_match_with_every_dispatched_feature_off():
    found = _found_features()
    if not found:
        pytest.skip("numpy dispatches no CPU feature above its baseline here")
    src = str(Path(heisriesz.__file__).resolve().parent.parent)
    # features this process already runs without stay off in the child
    off = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split() + found
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(off),
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, __file__], env=env, timeout=300,
                          capture_output=True, text=True, check=True)
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    # the switch took effect: the child's numpy finds nothing to dispatch
    assert child.pop("found") == []
    assert child == _digests()


# numpy's AVX-512 dispatch targets; a name the CPU lacks is ignored, so
# on a CPU without AVX-512 the rerun is at its own level
AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def test_selftest_and_portability_pins_hold_at_avx2():
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(
               [*os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split(),
                *AVX512]),
           "PYTHONPATH": os.pathsep.join(
               [str(tests.parent / "src"),
                *filter(None, [os.environ.get("PYTHONPATH")])])}
    # the child prints the features its numpy found, then runs the two
    # files without this test
    code = ("import json, sys, numpy as np, pytest; "
            "print(json.dumps(np.show_config(mode='dicts')"
            "['SIMD Extensions'].get('found', []))); "
            "sys.exit(pytest.main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "-q", "-p", "no:cacheprovider",
         "-k", "not pins_hold_at_avx2", str(tests / "test_selftest.py"),
         str(tests / "test_portability.py")],
        cwd=tests.parent, env=env, timeout=300, capture_output=True,
        text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    found = json.loads(proc.stdout.splitlines()[0])
    assert not set(found) & set(AVX512)


if __name__ == "__main__":
    print(json.dumps({**_digests(), "found": _found_features()}))
