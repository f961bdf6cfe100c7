"""Scaling reports, growth probes, blow-ups, and the vertical lower bound."""

import math
import tracemalloc

import numpy as np
import pytest

import heisriesz.core as core
from heisriesz.core import dist, group_inv, group_mul
from heisriesz.diagnostics import (
    ad_regularity_report,
    blowup_measure,
    cone_deficiency,
    divergence_probe,
    horest_check,
    subgroup_boundedness_probe,
)
from heisriesz.diagnostics import _fit_slope, _growth_verdict
from heisriesz.measure import DiscreteMeasure
from heisriesz.riesz import RieszParams
from heisriesz.subgroups import make_horizontal, make_vertical


def _segment_measure(count=4096, half_width=1.0):
    # unit-density line segment on the first horizontal axis
    xs = (np.arange(count) + 0.5) / count * (2 * half_width) - half_width
    pts = np.zeros((count, 3))
    pts[:, 0] = xs
    w = np.full(count, 2 * half_width / count)
    return DiscreteMeasure(1, pts, w, spacing=2 * half_width / count)


def test_fit_slope_recovers_exact_line():
    y = 3.0 + 2.0 * np.arange(6)
    assert _fit_slope(y) == pytest.approx(2.0, rel=1e-14)
    assert _fit_slope(np.array([5.0])) == 0.0


def test_ad_regularity_on_uniform_segment():
    mu = _segment_measure()
    # interior centers: a gauge ball of radius rho meets the segment in
    # an interval of length 2 rho, so the scaled ratio is 2 throughout
    report = ad_regularity_report(
        mu, 1.0, centers=[[0.1, 0.0, 0.0], [-0.3, 0.0, 0.0]],
        radii=(0.25, 0.0625),
    )
    assert report.ratios.shape == (2, 2)
    np.testing.assert_allclose(report.ratios, 2.0, rtol=2e-2)
    assert report.implied_c == pytest.approx(2.0, rel=2e-2)
    assert report.regular
    assert not ad_regularity_report(
        mu, 1.0, centers=[[0.1, 0.0, 0.0]], radii=(0.25,), c_cap=1.5
    ).regular


def test_ad_regularity_rejects_noise_radii():
    mu = _segment_measure(count=256)
    with pytest.raises(ValueError):
        ad_regularity_report(mu, 1.0, radii=(mu.spacing,))
    with pytest.raises(ValueError):
        ad_regularity_report(mu, 1.0, radii=())


def test_nan_radii_are_rejected(mu3):
    # a NaN fails every comparison; unchecked, the ball B(c, nan) held
    # the total mass and the report came out irregular with implied_c inf
    c = mu3.points[0]
    with pytest.raises(ValueError):
        mu3.ball_mass(c, np.nan)
    with pytest.raises(ValueError):
        mu3.ball_mass(c, [0.25, np.nan])
    with pytest.raises(ValueError):
        ad_regularity_report(mu3, 2.0, centers=[c], radii=(0.25, np.nan))
    with pytest.raises(ValueError):
        cone_deficiency(mu3, 2.0, c, make_vertical(1, []), 0.5, [np.nan])


def test_ad_regularity_sampled_centers_shape():
    mu = _segment_measure(count=512)
    report = ad_regularity_report(mu, 1.0, centers=8, radii=(0.25,), seed=3)
    assert report.centers.shape == (8, 3)
    assert report.ratios.shape == (8, 1)


def test_integer_exponents_scale_by_a_product_of_radii():
    # for an integer a, r^a is the left-to-right product r * r * r, one
    # rounding per step; math.pow(0.3, 3) lands one ulp lower
    want = 1.0 / (0.3 * 0.3 * 0.3)
    assert want != 1.0 / math.pow(0.3, 3)
    # the ball of radius 0.3 about (1, 0, 0) holds that atom alone, and
    # about (0.9, 0, 0) a horizontal step away, outside the vertical cone
    mu = DiscreteMeasure(1, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], np.ones(2))
    report = ad_regularity_report(mu, 3, centers=[[1.0, 0.0, 0.0]],
                                  radii=(0.3,))
    assert report.ratios[0, 0] == want
    ratios = cone_deficiency(mu, 3, np.array([0.9, 0.0, 0.0]),
                             make_vertical(1, []), 0.5, [0.3])
    assert ratios[0] == want


def test_cone_deficiency_full_versus_empty():
    mu = _segment_measure()
    t = make_vertical(1, [])
    # the segment is horizontal: every atom sits at full distance from
    # the vertical axis, so nothing is swallowed by the cone
    ratios = cone_deficiency(mu, 1.0, np.zeros(3), t, 0.5, [0.25, 0.125])
    np.testing.assert_allclose(ratios, 2.0, rtol=2e-2)
    # against its own line the measure lies inside every cone
    h = make_horizontal(1, [[1.0, 0.0]])
    ratios_h = cone_deficiency(mu, 1.0, np.zeros(3), h, 0.5, [0.25, 0.125])
    np.testing.assert_array_equal(ratios_h, 0.0)


def test_cone_deficiency_monotone_in_aperture():
    mu = _segment_measure(count=1024)
    t = make_vertical(1, [])
    narrow = cone_deficiency(mu, 1.0, np.zeros(3), t, 0.2, [0.25])
    wide = cone_deficiency(mu, 1.0, np.zeros(3), t, 0.8, [0.25])
    assert np.all(narrow >= wide)
    with pytest.raises(ValueError):
        cone_deficiency(mu, 1.0, np.zeros(3), t, 1.2, [0.25])


def test_one_flat_step_in_the_finer_half_is_not_diverging():
    # the finer half (2, 2, 3) rises on average but not at every step
    assert _growth_verdict(np.array([0.0, 1.0, 2.0, 2.0, 3.0]), 0.05) \
        == "inconclusive"
    assert _growth_verdict(np.array([0.0, 1.0, 2.0, 2.5, 3.0]), 0.05) \
        == "diverging"


def test_divergence_probe_on_symmetric_measure():
    # atoms symmetric under inversion cancel pairwise at the center
    rng = np.random.default_rng(51)
    half = rng.uniform(-1, 1, size=(128, 3))
    pts = np.vstack([half, -half])
    w = np.tile(rng.uniform(0.1, 1.0, size=128), 2)
    mu = DiscreteMeasure(1, pts, w)
    params = RieszParams(s=2.0, n=1)
    reports = divergence_probe(mu, params, [np.zeros(3)], [0.5, 0.25, 0.125])
    assert len(reports) == 1
    rep = reports[0]
    assert rep.verdict == "bounded"
    assert float(rep.max_magnitudes.max()) < 1e-12
    assert rep.eps == (0.5, 0.25, 0.125)


def test_divergence_probe_trims_at_resolution_floor():
    mu = _segment_measure(count=64)  # spacing 1/32, floor 1/8
    params = RieszParams(s=1.0, n=1)
    with pytest.warns(UserWarning):
        reports = divergence_probe(
            mu, params, [mu.points[10]], [0.5, 0.25, 0.01]
        )
    assert reports[0].eps == (0.5, 0.25)
    with pytest.raises(ValueError):
        with pytest.warns(UserWarning):
            divergence_probe(mu, params, [mu.points[10]], [0.05, 0.01])


def test_divergence_probe_threaded_matches_serial():
    mu = _segment_measure(count=512)
    params = RieszParams(s=1.0, n=1)
    pts = [mu.points[5], mu.points[100], mu.points[300]]
    eps = [0.5, 0.25, 0.125]
    serial = divergence_probe(mu, params, pts, eps, threads=1)
    for threads in (3, None):
        threaded = divergence_probe(mu, params, pts, eps, threads=threads)
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a.magnitudes, b.magnitudes)
            assert a.verdict == b.verdict
    with pytest.raises(ValueError, match="threads"):
        divergence_probe(mu, params, pts, eps, threads=0)


def test_subgroup_probe_bounded_on_vertical_axis():
    t = make_vertical(1, [])
    report = subgroup_boundedness_probe(
        t, 2.0, [0.5, 0.25, 0.125, 0.0625], resolution=256, points=4
    )
    assert report.verdict == "bounded"
    assert report.bound < 1e-10
    assert abs(report.slope) < 0.01
    assert report.per_eps_max.shape == (4,)
    with pytest.raises(ValueError):
        subgroup_boundedness_probe(t, 1.5, [0.5, 0.25])


def test_horest_check_small_run():
    report = horest_check(1, 0.5, trials=20_000, seed=2)
    assert report.passed
    assert report.violations == 0
    assert report.trials == 20_000
    assert report.min_margin > 0.0
    # 1/2 - 2/(100 n) - delta^2/(10^4 n^2)
    assert report.proved_margin == pytest.approx(0.479975, rel=1e-15)
    assert horest_check(2, 0.9, trials=1).proved_margin == pytest.approx(
        0.5 - 0.01 - 0.81 / 4e4, rel=1e-15)
    with pytest.raises(ValueError):
        horest_check(1, 1.5, trials=10)
    with pytest.raises(ValueError):
        horest_check(1, 0.5, trials=0)


def test_horest_check_counts_a_nan_margin_as_a_violation(monkeypatch):
    # NaN < 0 is false and min(m, nan) is m, so a NaN margin in every
    # third row could pass with no violation and an infinite margin
    orig = core.symplectic_form

    def nan_thirds(p, q, out=None):
        form = orig(p, q, out=out)
        form[::3] = np.nan
        return form

    monkeypatch.setattr(core, "symplectic_form", nan_thirds)
    report = horest_check(1, 0.5, 20_000)
    assert report.violations == 6667
    assert math.isnan(report.min_margin)
    assert not report.passed


# (hypothesis rejections, min_margin.hex()) of seed-0 runs: one trial
# and 64 trials cap the first batch's kept rows, and 131073 trials take
# a second batch after a full one of 131072 draws
HOREST_EDGE_PINS = {
    (1, 1, 0.5): (4, "0x1.6924b9ab3abacp+0"),
    (1, 1, 0.9): (35, "0x1.e2e9f0ae06d9bp-1"),
    (1, 2, 0.5): (11, "0x1.cc28c26038f40p-2"),
    (1, 2, 0.9): (53, "0x1.ff4059740737ep-1"),
    (64, 1, 0.5): (7, "0x1.c0681556e6944p-4"),
    (64, 1, 0.9): (93, "0x1.7a49ed2f32522p-3"),
    (64, 2, 0.5): (32, "0x1.6c308b91ca3a3p-3"),
    (64, 2, 0.9): (295, "0x1.43c494f291838p-2"),
    (131073, 1, 0.5): (13227, "0x1.414f1c59e90f5p-9"),
    (131073, 1, 0.9): (113593, "0x1.c2dee693c2b78p-9"),
    (131073, 2, 0.5): (30220, "0x1.ce12f55fd07acp-7"),
    (131073, 2, 0.9): (489985, "0x1.668691eee9603p-6"),
}


@pytest.mark.parametrize("trials, n, delta", sorted(HOREST_EDGE_PINS))
def test_horest_check_batch_edges_are_pinned(trials, n, delta):
    report = horest_check(n, delta, trials=trials, seed=0)
    assert report.violations == 0
    assert (report.hypothesis_rejections,
            report.min_margin.hex()) == HOREST_EDGE_PINS[trials, n, delta]


def test_horest_check_memory_is_three_point_buffers():
    tracemalloc.start()
    try:
        report = horest_check(2, 0.1, trials=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.violations == 0
    # three 131072 x 5 point buffers take 15.7 MB and two scalar vectors
    # 2.1 MB; four buffers, a draw buffer and four vectors took 32 MB
    assert peak < 22e6


def test_blowup_power_normalization_exact(mu3):
    nu = blowup_measure(mu3, np.zeros(3), 0.25, s=2.0)
    np.testing.assert_array_equal(nu.weights, mu3.weights * 16.0)
    # equal weights held once stay held once
    assert mu3.weights.strides == nu.weights.strides == (0,)
    seg = _segment_measure(count=64)
    full = blowup_measure(seg, np.zeros(3), 0.25, s=2.0).weights
    assert full.strides == (8,)
    np.testing.assert_array_equal(full, seg.weights * 16.0)
    assert nu.spacing == pytest.approx(mu3.spacing * 4.0, rel=1e-15)
    assert "blowup" in nu.label
    with pytest.raises(ValueError):
        blowup_measure(mu3, np.zeros(3), 0.25)
    with pytest.raises(ValueError):
        blowup_measure(mu3, np.zeros(3), 0.25, s=2.0, normalization="mass")


def test_blowup_ball_mass_normalization(mu3):
    nu = blowup_measure(mu3, np.zeros(3), 0.25, normalization="ball-mass")
    assert nu.ball_mass(np.zeros(3), 1.0) == pytest.approx(1.0, rel=1e-12)


def test_blowup_at_fixed_point_translates_lower_level(ifs14, mu2, mu3):
    # zooming by one contraction step at the fixed point of a map sends
    # that map's cylinder block onto a left translate of the coarser set
    s5 = ifs14.maps[5]
    v = s5.fixed_point()
    nu = blowup_measure(mu3, v, 0.25, s=2.0)
    block = nu.points[5 * 256 : 6 * 256]
    expected = group_mul(group_inv(v), mu2.points)
    assert float(np.max(np.abs(block - expected))) < 1e-10
