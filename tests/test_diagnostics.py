"""Scaling reports, growth probes, blow-ups, and the vertical lower bound."""

import math
import tracemalloc

import numpy as np
import pytest

import heisriesz.core as core
import heisriesz.diagnostics as diagnostics
import heisriesz.measure as measure
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
from heisriesz.riesz import RieszParams, growth_profile, truncations
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


def test_explicit_centers_are_a_list_of_points():
    # one flat point is not a list of them
    mu = _segment_measure(count=512)
    with pytest.raises(ValueError,
                       match=r"points must have shape \(k, 3\), got \(3,\)"):
        ad_regularity_report(mu, 1.0, centers=[0.0, 0.0, 0.0], radii=(0.25,))


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
    injected = []

    def nan_thirds(p, q, out=None):
        form = orig(p, q, out=out)
        form[::3] = np.nan
        injected.append(len(form[::3]))
        return form

    monkeypatch.setattr(core, "symplectic_form", nan_thirds)
    report = horest_check(1, 0.5, 20_000)
    # every NaN row is a violation: the 20,000 rows run as blocks of
    # 16384 and 3616, each from a new third
    assert report.violations == sum(injected) == 5462 + 1206
    assert math.isnan(report.min_margin)
    assert not report.passed


def test_sphere_scale_has_the_bits_of_the_masked_divide():
    # zeros, infinities, NaNs, equal and adjacent doubles on either side
    tiny, big = 5e-324, 1.7976931348623157e308
    rho = np.array([0.0, 0.0, 1.0, 1.0, np.inf, np.inf, 1.0, np.nan, 0.0,
                    1.0, 1.0, np.nextafter(1.0, 2.0), 1.0, tiny, big, 2.0,
                    0.5, 3.0, 1e-300, 1e300])
    norm = np.array([0.0, 1.0, 0.0, np.inf, 1.0, np.inf, np.nan, 1.0, np.nan,
                     1.0, np.nextafter(1.0, 2.0), 1.0, np.nextafter(1.0, 0.0),
                     tiny, tiny, big, 0.25, 7.0, 1e300, 1e-300])
    want = np.ones_like(rho)
    np.divide(rho, norm, out=want, where=norm > rho)
    got = diagnostics._sphere_scale(rho, norm, np.empty_like(rho))
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_batched_divergence_probe_is_the_per_point_profiles(mu5, monkeypatch,
                                                            helper_pools):
    # one sweep serves every point: ball masses, cone masses, truncations
    # and growth profiles of a batch have the bits of the calls per point,
    # on the level-5 table (each chunk built once for every point) and on
    # an explicit copy, on one worker and on two, each holding its chunk
    params = RieszParams(s=2.0, n=1)
    pts = mu5.points[[0, 4369, 12345, 600000, len(mu5) - 1]]
    eps = [0.25, 0.0625, 0.015625]
    taxis = make_vertical(1, [])
    queries = {
        "ball_mass": lambda mu, p: mu.ball_mass(p, 0.25),
        "ball_masses": lambda mu, p: mu.ball_mass(p, eps),
        "cone": lambda mu, p: cone_deficiency(mu, 2.0, p, taxis, 0.5, eps),
        "truncations": lambda mu, p: truncations(mu, params, None, p, eps),
        "growth": lambda mu, p: growth_profile(mu, params, p, eps),
    }
    explicit = DiscreteMeasure(1, np.asarray(mu5.points), mu5.weights,
                               spacing=mu5.spacing)
    monkeypatch.setattr(measure, "PARALLEL_CHUNKS", 1)
    for mu in (mu5, explicit):
        with measure._worker_cap(1):
            want = {name: [np.asarray(query(mu, p)) for p in pts]
                    for name, query in queries.items()}
        for cpus in (1, 64):
            monkeypatch.setattr(measure, "_cpu_count", lambda: cpus)
            helper_pools.clear()
            for name, query in queries.items():
                batch = query(mu, pts)
                assert batch.shape == (len(pts), *want[name][0].shape)
                for got, one in zip(batch, want[name]):
                    assert got.tobytes() == one.tobytes(), name
            reports = divergence_probe(mu, params, pts, eps)
            assert helper_pools == ([] if cpus == 1 else [1] * 6)
            for p, rep, one in zip(pts, reports, want["growth"]):
                assert rep.magnitudes.tobytes() == np.abs(one).T.tobytes()
                assert rep.point.tobytes() == p.tobytes()
    # a batch of one keeps its axis, and centres have at most two axes
    assert mu5.ball_mass(pts[:1], eps).shape == (1, len(eps))
    assert mu5.ball_mass(pts[:1], 0.25).shape == (1,)
    assert cone_deficiency(mu5, 2.0, pts[:1], taxis, 0.5, eps).shape == (1, 3)
    with pytest.raises(ValueError, match="centres must be one point"):
        mu5.ball_mass(pts[None], eps)
    with pytest.raises(ValueError, match="centres must be one point"):
        cone_deficiency(mu5, 2.0, pts[None], taxis, 0.5, eps)


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


def test_horest_check_memory_is_the_accepted_rows_plus_a_block():
    tracemalloc.start()
    try:
        report = horest_check(2, 0.1, trials=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.violations == 0
    # the accepted rows of x (131072 x 5) and their norms take 6.3 MB,
    # and one block of 16384 rows 1.7 MB; three batch-size point buffers
    # and two vectors took 20.0 MB
    assert peak < 10e6


@pytest.mark.parametrize("n", [1, 2])
def test_horest_blocks_draw_the_one_stream_of_the_seed(n, monkeypatch):
    # each block reads its own segment of the seed's stream through a
    # copy advanced to it; together they must draw every double of one
    # default_rng(seed).random call once, in place
    drawn, stream_at = [], diagnostics._stream_at

    class Recorder:
        def __init__(self, seed, offset):
            self.gen, self.at = stream_at(seed, offset), offset

        def random(self, out):
            self.gen.random(out=out)
            drawn.append((self.at, out.copy()))
            self.at += out.size
            return out

    want = horest_check(n, 0.5, trials=100, seed=5)
    monkeypatch.setattr(diagnostics, "_stream_at", Recorder)
    # 48 rows a block: the 264 candidate rows of the one batch and its
    # 100 accepted rows each end in a short block
    monkeypatch.setattr(diagnostics, "_HOREST_BLOCK", 48)
    got = horest_check(n, 0.5, trials=100, seed=5)
    assert (got.hypothesis_rejections, got.min_margin.hex()) == (
        want.hypothesis_rejections, want.min_margin.hex())
    total = (2 * n + 1) * (264 + 100)
    stream = np.random.default_rng(5).random(total)
    uses = np.zeros(total, dtype=int)
    for at, values in drawn:
        assert np.array_equal(values, stream[at:at + values.size]), (
            f"a block's draws differ from doubles {at}.. of the seed's "
            "stream: if Generator.random no longer takes one 64-bit word "
            "per double, horest_check's block segments are misplaced")
        uses[at:at + values.size] += 1
    assert np.all(uses == 1)


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


@pytest.mark.parametrize("source", ["table", "explicit", "blowup"])
def test_blowup_view_rows_are_the_explicit_map(mu5, source):
    explicit = np.asarray(mu5.points)
    center = explicit[70_001]
    mu = {"table": mu5,
          "explicit": DiscreteMeasure(1, explicit, mu5.weights),
          "blowup": blowup_measure(mu5, explicit[3], 0.5, s=2.0)}[source]
    atoms = np.asarray(mu.points) if source == "blowup" else explicit
    want = core.blowup_map(center, 0.25, atoms)
    nu = blowup_measure(mu, center, 0.25, s=2.0)
    assert isinstance(nu.points, diagnostics.BlowupView)
    assert nu.points.shape == want.shape and nu.points.nbytes == 0
    # a source that is a view builds its rows into scratch of their own,
    # and a blow-up source its own source's rows too
    assert nu.points.row_scratch == {"explicit": 0, "table": 24,
                                     "blowup": 48}[source]
    idx = np.array([0, 7, 65535, 65536, 600_001, len(mu) - 1, -2])
    out = np.empty((measure.CHUNK, 3), order="F")
    for got, expected in [
            (nu.points.rows(slice(65530, 131080)), want[65530:131080]),
            (nu.points.rows(slice(100, 200), out), want[100:200]),
            (nu.points[12345], want[12345]), (nu.points[-1], want[-1]),
            (nu.points[idx], want[idx]),
            (nu.points[65530:131080], want[65530:131080]),
            (nu.points[5:200_000:3], want[5:200_000:3]),
            (np.asarray(nu.points), want)]:
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    with pytest.raises(IndexError):
        nu.points[[len(mu)]]


def test_a_blowup_whose_map_overflows_is_refused_when_built():
    mu = DiscreteMeasure(1, [[0.0, 0.0, 0.0], [0.0, 0.0, 1e300]], np.ones(2))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        blowup_measure(mu, np.zeros(3), 1e-10, s=2.0)
