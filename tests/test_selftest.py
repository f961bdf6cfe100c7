"""The built-in identity suite must pass and expose failures honestly."""

import numpy as np
import pytest

import heisriesz.core as core
import heisriesz.riesz as riesz
from heisriesz.selftest import CheckResult, run_selftest

# (samples, seed, quick) settings, and at each of them the point batch
# size and trial count that the results report
SETTINGS = {
    (10_000, 0, False): (10_000, 19),
    (2_000, 3, False): (2_000, 4),
    (10_000, 0, True): (1_000, 4),
    (500, 7, False): (500, 4),
}

# worst.hex() of every check, in run order, at each of SETTINGS
PINNED_WORST = {
    "reference_values": ("0x0.0p+0",) * 4,
    "associativity": (
        "0x1.7344770e9aa20p-47", "0x1.75026c4360028p-48",
        "0x1.40f085ad1641fp-48", "0x1.9f6032c59a79fp-48"),
    "inverse_identity": ("0x0.0p+0",) * 4,
    "metric_left_invariance": (
        "0x1.8288309737a59p-48", "0x1.233eaa0a5a40dp-48",
        "0x1.a0a3f4374f75ep-50", "0x1.5a6bd07129591p-47"),
    "metric_dilation_scaling": (
        "0x1.5c87ae2f59d3cp-46", "0x1.58a5fff86d825p-49",
        "0x1.8dc78aca658fcp-49", "0x1.2158ca63ed708p-50"),
    "norm_homogeneity": (
        "0x1.e4eb01eccedbfp-52", "0x1.d5a2535d95cc6p-52",
        "0x1.d54a21d3feda2p-52", "0x1.9aa50f235cd65p-52"),
    "triangle_inequality": ("0x0.0p+0",) * 4,
    "kernel_antisymmetry": ("0x0.0p+0",) * 4,
    "kernel_homogeneity": (
        "0x1.30f4cfe12fdd6p-50", "0x1.d726a5fabd013p-51",
        "0x1.f5be5aa383f67p-51", "0x1.8f48380961a4fp-51"),
    "truncation_consistency": (
        "0x1.3fcd5ef8726e1p-52", "0x1.f06fd067841a9p-53",
        "0x1.da36f8b38a741p-53", "0x1.e2df58c182253p-53"),
    "translation_covariance": (
        "0x1.1af45a7188efcp-51", "0x1.0dec95c287238p-52",
        "0x1.426b618cf722bp-52", "0x1.4e363200096b0p-52"),
    "dilation_covariance": (
        "0x1.47881e8fe8763p-51", "0x1.907dfee0828adp-52",
        "0x1.b13101f0e2f7ep-52", "0x1.567498e529f6fp-52"),
}

EXPECTED_CHECKS = {
    "reference_values",
    "associativity",
    "inverse_identity",
    "metric_left_invariance",
    "metric_dilation_scaling",
    "norm_homogeneity",
    "triangle_inequality",
    "kernel_antisymmetry",
    "kernel_homogeneity",
    "truncation_consistency",
    "translation_covariance",
    "dilation_covariance",
}


def test_full_suite_passes():
    results = run_selftest(samples=2000, seed=0)
    assert {r.name for r in results} == EXPECTED_CHECKS
    assert all(r.passed for r in results)
    for r in results:
        assert r.worst <= r.tol, r.name


@pytest.mark.parametrize("column, setting", enumerate(SETTINGS))
def test_results_keep_their_bits(column, setting):
    samples, seed, quick = setting
    batch, trials = SETTINGS[setting]
    results = run_selftest(samples=samples, seed=seed, quick=quick)
    assert [(r.name, r.worst.hex()) for r in results] == [
        (name, worst[column]) for name, worst in PINNED_WORST.items()]
    assert [(r.samples, r.tol) for r in results] == (
        [(4, 1e-12)] + [(batch, 1e-12)] * 8
        + [(trials, 64 * 2.0 ** -53)] + [(trials, 1e-10)] * 2)


def test_nan_row_in_group_mul_fails_the_group_checks(monkeypatch):
    # one NaN row in each batch of sample points: max(worst, nan) would
    # drop it and report these checks as passed
    orig = core.group_mul

    def nan_row(p, q, out=None):
        prod = orig(p, q, out=out)
        # the covariance checks' 256-atom measures would reject a NaN atom
        if prod.ndim == 2 and len(prod) > 256:
            prod[len(prod) // 2] = np.nan
        return prod

    monkeypatch.setattr(core, "group_mul", nan_row)
    results = run_selftest(samples=500, seed=0)
    failing = [r for r in results if not r.passed]
    assert [r.name for r in failing] == [
        "associativity", "inverse_identity", "metric_left_invariance"]
    assert all(np.isnan(r.worst) for r in failing)


def test_quick_mode_caps_samples():
    results = run_selftest(samples=50_000, quick=True)
    assert all(r.passed for r in results)
    assert max(r.samples for r in results) <= 1000


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_truncation_check_holds_the_summation_bound(seed):
    # the tolerance is the derived 64 u, u = 2^-53, not zero: the swept
    # sums are compared with exact sums of reference kernel terms
    results = run_selftest(samples=2000, seed=seed)
    trunc = next(r for r in results if r.name == "truncation_consistency")
    assert trunc.tol == 64 * 2.0 ** -53
    assert 0.0 < trunc.worst <= trunc.tol


def test_vertical_kernel_column_mutation_is_caught(monkeypatch):
    # a sign flip in the sweep's vertical column keeps both covariance
    # checks (they compare the transform with itself); only the
    # reference kernel terms can catch it
    orig = riesz._kernel_columns

    def negated(params, mu, f):
        columns = orig(params, mu, f)

        def flipped(sl, u, d, out):
            cols = columns(sl, u, d, out)
            cols[-1] *= -1.0
            return cols

        return flipped

    monkeypatch.setattr(riesz, "_kernel_columns", negated)
    results = run_selftest(samples=500, seed=0)
    assert [r.name for r in results if not r.passed] == ["truncation_consistency"]


def test_check_result_passed_property():
    assert CheckResult("x", 10, 1e-13, 1e-12).passed
    assert not CheckResult("x", 10, 1e-11, 1e-12).passed
    assert not CheckResult("x", 1, 1.0, 0.5).passed


def test_twist_sign_mutation_is_caught(monkeypatch):
    # flipping the sign of the bilinear twist leaves the group axioms
    # intact (any bilinear form gives an associative product), so the
    # catch must come from pinned reference values, not associativity
    orig = core.symplectic_form
    monkeypatch.setattr(core, "symplectic_form",
                        lambda p, q, out=None: -orig(p, q, out=out))
    results = run_selftest(samples=500, seed=0)
    assert not all(r.passed for r in results)
    failing = [r.name for r in results if not r.passed]
    assert failing[0] == "reference_values"
    assoc = next(r for r in results if r.name == "associativity")
    assert assoc.passed


def test_norm_exponent_mutation_is_caught(monkeypatch):
    orig = core.koranyi_norm
    monkeypatch.setattr(core, "koranyi_norm",
                        lambda p, out=None: 1.01 * orig(p, out=out))
    results = run_selftest(samples=500, seed=0)
    failing = [r.name for r in results if not r.passed]
    assert "norm_homogeneity" in failing or "reference_values" in failing
