"""The built-in identity suite must pass and expose failures honestly."""

import numpy as np
import pytest

import heisriesz.core as core
import heisriesz.riesz as riesz
from heisriesz.selftest import CheckResult, run_selftest

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
