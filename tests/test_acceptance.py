"""End-to-end acceptance gate.

One test per shipped guarantee.  Each prints a single summary line with
the measured numbers next to the thresholds it must clear; pinned
values are exact reruns of the deterministic pipeline and double as
regression anchors.
"""

import time

import numpy as np
import pytest

from heisriesz.diagnostics import (
    _fit_slope,
    ad_regularity_report,
    blowup_measure,
    cone_deficiency,
    divergence_probe,
    horest_check,
    subgroup_boundedness_probe,
)
from heisriesz.fractal import (
    cycle_atom_indices,
    cylinder_measure,
    make_strichartz_ifs,
    min_piece_separation,
    phi_fixed_point,
    similarity_dimension,
    verify_invariant_region,
)
from heisriesz.riesz import RieszParams
from heisriesz.selftest import run_selftest
from heisriesz.subgroups import make_vertical


@pytest.fixture(scope="module")
def phi256():
    return phi_fixed_point(1, 0.25, 256)


@pytest.fixture(scope="module")
def mu6(ifs14):
    return cylinder_measure(ifs14, 6)


def test_criterion_1_identity_suite_fast_and_green():
    t0 = time.perf_counter()
    results = run_selftest(samples=10_000, seed=0)
    elapsed = time.perf_counter() - t0
    assert all(r.passed for r in results)
    worst = max(r.worst for r in results)
    assert elapsed < 10.0
    print(f"[PASS] criterion 1: 12/12 identity checks, "
          f"worst residual {worst:.2e}, {elapsed:.2f}s < 10s")


def test_criterion_2_similarity_dimensions_exact(ifs14):
    d4 = similarity_dimension(ifs14)
    d8 = similarity_dimension(make_strichartz_ifs(1, 0.125))
    assert abs(d4 - 2.0) < 1e-12
    assert abs(d8 - 4.0 / 3.0) < 1e-12
    print(f"[PASS] criterion 2: dimension(r=1/4) = {d4!r} (target 2), "
          f"dimension(r=1/8) = {d8!r} (target 4/3), both within 1e-12")


def test_criterion_3_tilt_grid_converges(phi256):
    t0 = time.perf_counter()
    phi = phi_fixed_point(1, 0.25, 256)
    elapsed = time.perf_counter() - t0
    ratios = phi.contraction_ratios()
    max_ratio = float(ratios.max())
    assert max_ratio <= 0.0625 + 0.01
    assert phi.residual < 1e-8
    sup = float(np.max(np.abs(phi.values)))
    assert sup <= 0.4
    assert elapsed < 60.0
    np.testing.assert_array_equal(phi.values, phi256.values)
    print(f"[PASS] criterion 3: contraction {max_ratio:.4f} <= 0.0725, "
          f"residual {phi.residual:.1e} < 1e-8, sup {sup:.10f} <= 0.4, "
          f"{elapsed:.1f}s < 60s")


def test_criterion_4_invariant_region_and_separation(ifs14, phi256):
    report = verify_invariant_region(ifs14, phi256, sample_count=100_000, seed=0)
    assert report.violations == 0
    # the report's bits, pinned: the samples, the group law, the tilt
    # interpolation and the slack all reach them
    assert report.min_lower_margin.hex() == "-0x1.52485250b2434p-14"
    assert report.min_upper_margin.hex() == "0x1.7fd6f5362d518p-3"
    assert report.slack.hex() == "0x1.6d6f27a57f5dcp-12"
    assert report.disjoint_certified
    assert report.certified
    # slabs: thickness r^2 strictly below the offset spacing 1/4
    assert report.slab_thickness < report.offset_spacing
    sep4 = min_piece_separation(ifs14, 4)
    sep5 = min_piece_separation(ifs14, 5)
    assert sep4 > 0.0
    assert 0.9 <= sep5 / sep4 <= 1.1
    assert sep4 == pytest.approx(0.2829205360163959, rel=1e-12)
    assert sep5 == pytest.approx(0.2777802464949159, rel=1e-12)
    print(f"[PASS] criterion 4: 0 violations in {report.sample_count} samples, "
          f"slabs {report.slab_thickness} vs spacing {report.offset_spacing}, "
          f"separation {sep4:.6f} with level ratio {sep5 / sep4:.4f} in [0.9, 1.1]")


def test_criterion_5_ball_mass_regularity(mu5):
    report = ad_regularity_report(mu5, 2.0, centers=64, seed=0)
    assert report.regular
    assert report.implied_c <= 50.0
    # deterministic rerun pin: the implied constant is exactly 4
    assert report.implied_c == pytest.approx(4.0, rel=1e-9)
    print(f"[PASS] criterion 5: regular with implied constant "
          f"{report.implied_c:.6f} <= 50 over {report.centers.shape[0]} centers "
          f"x {report.radii.size} radii (pinned 4.0)")


def test_criterion_6_divergence_and_boundedness(mu6):
    t0 = time.perf_counter()
    # (a) growth at short-cycle support points of the level-6 measure
    params = RieszParams(s=2.0, n=1)
    idx = cycle_atom_indices(16, 6, 32, seed=0)
    points = [mu6.points[i] for i in idx]
    eps = [0.25 ** k for k in range(1, 6)]
    reports = divergence_probe(mu6, params, points, eps, c=0.05, threads=2)
    growing = 0
    for rep in reports:
        m = rep.max_magnitudes
        if m[2] < m[3] < m[4] and _fit_slope(m) > 0.0:
            growing += 1
    assert growing >= 24
    # (b) flat profile on the dimension-matched vertical axis sample
    t_axis = make_vertical(1, [])
    flat = subgroup_boundedness_probe(
        t_axis, 2.0, [0.5 ** k for k in range(1, 9)],
        window=2.0, resolution=2048, points=8, seed=0, slope_tol=0.01,
    )
    elapsed = time.perf_counter() - t0
    assert flat.verdict == "bounded"
    assert abs(flat.slope) < 0.01
    assert flat.bound < 1e-10
    assert elapsed < 300.0
    print(f"[PASS] criterion 6: (a) {growing}/32 cycle points grow "
          f"monotonically over the last 3 of 5 levels (needed 24); "
          f"(b) axis profile bound {flat.bound:.2e} with slope "
          f"{flat.slope:.2e} < 0.01; {elapsed:.0f}s < 300s")


def test_criterion_7_cone_deficiency_floor(mu5):
    rng = np.random.default_rng(0)
    idx = np.sort(rng.choice(len(mu5), size=8, replace=False))
    t_axis = make_vertical(1, [])
    radii = [0.25 ** j for j in range(1, 5)]
    floor = np.inf
    total = 0
    for i in idx:
        ratios = cone_deficiency(mu5, 2.0, mu5.points[i], t_axis, 0.5, radii)
        assert np.all(ratios > 0.0)
        total += ratios.size
        floor = min(floor, float(ratios.min()))
    assert floor > 0.0
    # deterministic rerun pin
    assert floor == pytest.approx(0.0830078125, rel=1e-6)
    print(f"[PASS] criterion 7: all {total} cone-complement ratios positive "
          f"over 8 points x 4 radii, floor {floor:.10f} (pinned 0.0830078125)")


# (hypothesis rejections, min_margin.hex()) of each seed-0 run; the
# sampling and the arithmetic are deterministic, so these are exact
HOREST_PINS = {
    (1, 0.1): (3463, "0x1.b577b62889bebp-14"),
    (1, 0.5): (97903, "0x1.7573961d44f0bp-11"),
    (1, 0.9): (834952, "0x1.75d28354f73edp-11"),
    (2, 0.1): (7067, "0x1.1d8ab9ef84cd4p-11"),
    (2, 0.5): (210447, "0x1.5e805110630d4p-8"),
    (2, 0.9): (3737338, "0x1.29c7c98ce3912p-7"),
}


def test_criterion_8_vertical_lower_bound_holds():
    worst_margin = worst_proved = np.inf
    combos = 0
    for n in (1, 2):
        for delta in (0.1, 0.5, 0.9):
            report = horest_check(n, delta, trials=1_000_000, seed=0)
            assert report.passed, (n, delta)
            assert report.violations == 0
            assert (report.hypothesis_rejections,
                    report.min_margin.hex()) == HOREST_PINS[n, delta]
            assert report.proved_margin > 0.0
            worst_margin = min(worst_margin, report.min_margin)
            worst_proved = min(worst_proved, report.proved_margin)
            combos += 1
    print(f"[PASS] criterion 8: 0 violations in {combos} x 1e6 perturbation "
          f"trials, worst margin {worst_margin:.3e} above the bound, proved "
          f"margin {worst_proved:.6f} (delta ||x||)^2")


def test_criterion_9_blowup_self_similarity(ifs14, mu5):
    worst = 0.0
    center = np.zeros(3)
    for j in (1, 2):
        nu = blowup_measure(mu5, center, 0.25 ** j, s=2.0)
        coarse = cylinder_measure(ifs14, 5 - j)
        prefix = len(coarse)
        gap = float(np.max(np.abs(nu.points[:prefix] - coarse.points)))
        assert gap < 1e-10
        np.testing.assert_allclose(
            nu.weights[:prefix], coarse.weights, rtol=1e-12
        )
        worst = max(worst, gap)
    print(f"[PASS] criterion 9: zoomed level-5 atoms reproduce the coarser "
          f"levels at scales 1/4 and 1/16, worst coordinate gap {worst:.1e} "
          f"< 1e-10")
