"""Self-similar systems: maps, cylinder measures, tilt grid, separation."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from heisriesz import fractal
from heisriesz.core import dilate, dist, group_mul
from heisriesz.fractal import (
    GridFunction,
    Ifs,
    RegionReport,
    Similarity,
    cycle_atom_indices,
    cylinder_measure,
    make_strichartz_ifs,
    min_piece_separation,
    phi_fixed_point,
    similarity_dimension,
    verify_invariant_region,
    word_similarity,
)
from heisriesz.fractal import (_ss2_residual_sup, _stencil,
                               _strichartz_corners, _TiltOperator, _tilt_term)
from heisriesz.measure import AtomCapExceeded


def test_corner_family_layout(ifs14):
    assert len(ifs14.maps) == 16
    # first block is the four corners at vertical offset zero,
    # corner index binary over the horizontal axes
    qs = np.array([s.q for s in ifs14.maps])
    np.testing.assert_array_equal(qs[0], [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(qs[1], [0.75, 0.0, 0.0])
    np.testing.assert_array_equal(qs[2], [0.0, 0.75, 0.0])
    np.testing.assert_array_equal(qs[3], [0.75, 0.75, 0.0])
    np.testing.assert_array_equal(qs[4], [0.0, 0.0, 0.25])
    np.testing.assert_array_equal(qs[8], [0.0, 0.0, 0.5])
    np.testing.assert_array_equal(qs[12], [0.0, 0.0, 0.75])
    assert np.all(ifs14.ratios == 0.25)


def test_corner_family_second_group():
    ifs = make_strichartz_ifs(2, 0.25)
    assert len(ifs.maps) == 2 ** 6
    assert ifs.maps[0].q.shape == (5,)


def test_corner_family_rejects_bad_ratio():
    for r in (0.5, 0.6, 0.0, -0.1):
        with pytest.raises(ValueError):
            make_strichartz_ifs(1, r)


def test_similarity_apply_and_fixed_point(ifs14):
    s = ifs14.maps[3]
    p = np.array([0.2, 0.4, 0.1])
    np.testing.assert_allclose(
        s.apply(p), group_mul(s.q, dilate(s.r, p)), rtol=1e-15
    )
    fp = s.fixed_point()
    np.testing.assert_allclose(s.apply(fp), fp, atol=1e-15)
    # the zero-corner map is the plain dilation, fixed at the identity
    np.testing.assert_array_equal(ifs14.maps[0].fixed_point(), np.zeros(3))


def test_similarity_validation():
    with pytest.raises(ValueError):
        Similarity(n=1, r=1.0, q=np.zeros(3))
    with pytest.raises(ValueError):
        Similarity(n=1, r=0.5, q=np.zeros(4))


def test_similarity_dimension_values(ifs14):
    assert similarity_dimension(ifs14) == pytest.approx(2.0, abs=1e-12)
    ifs8 = make_strichartz_ifs(1, 0.125)
    assert similarity_dimension(ifs8) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_similarity_dimension_mixed_ratios():
    maps = (
        Similarity(n=1, r=0.5, q=np.zeros(3)),
        Similarity(n=1, r=0.25, q=np.array([0.5, 0.0, 0.0])),
    )
    ifs = Ifs(n=1, maps=maps)
    # with ratios 1/2 and 1/4 the dimension solves 2^-a + 4^-a = 1
    expected = math.log2(2.0 / (math.sqrt(5.0) - 1.0))
    assert similarity_dimension(ifs) == pytest.approx(expected, abs=1e-12)


def test_similarity_dimension_of_one_map_is_zero():
    # r^a = 1 only at a = 0: the attractor is the map's fixed point
    ifs = Ifs(n=1, maps=(Similarity(n=1, r=0.5, q=np.ones(3)),))
    assert similarity_dimension(ifs) == 0.0


def test_ifs_needs_maps_of_its_own_group():
    with pytest.raises(ValueError, match="needs at least one map"):
        Ifs(n=1, maps=())
    with pytest.raises(ValueError,
                       match="map group index 2 does not match system index 1"):
        Ifs(n=1, maps=(Similarity(n=2, r=0.5, q=np.zeros(5)),))


def test_ifs_sorts_maps_by_ratio():
    maps = (
        Similarity(n=1, r=0.4, q=np.zeros(3)),
        Similarity(n=1, r=0.2, q=np.array([1.0, 0.0, 0.0])),
    )
    ifs = Ifs(n=1, maps=maps)
    assert list(ifs.ratios) == [0.2, 0.4]


def test_word_similarity_matches_apply_word(ifs14):
    p = np.array([0.3, 0.3, 0.2])
    for word in ((5,), (2, 7), (2, 7, 13)):
        s = word_similarity(ifs14, word)
        assert s.r == 0.25 ** len(word)
        # S_{w_0}(S_{w_1}(... S_{w_{k-1}}(p))), innermost letter last
        folded = p
        for idx in reversed(word):
            folded = ifs14.maps[idx].apply(folded)
        np.testing.assert_allclose(np.asarray(s.apply(p)), np.asarray(folded),
                                   rtol=1e-15)
    fp = s.fixed_point()
    np.testing.assert_allclose(np.asarray(s.apply(fp)), fp, atol=1e-15)
    for bad in ((), (16,), (-1,)):
        with pytest.raises(ValueError):
            word_similarity(ifs14, bad)


def test_cylinder_measure_structure(ifs14, mu2, mu3):
    mu0 = cylinder_measure(ifs14, 0)
    assert len(mu0) == 1
    np.testing.assert_array_equal(mu0.points[0], np.zeros(3))
    assert len(mu2) == 256
    np.testing.assert_allclose(mu2.total_mass, 1.0, rtol=1e-12)
    assert mu2.spacing == pytest.approx(0.25 ** 2, rel=1e-15)
    assert np.ptp(mu2.weights) == 0.0
    assert mu2.weights[0] == 0.25 ** 4
    # deepening a word by the zero letter refines in place: atom 16j of
    # the next level sits exactly on atom j of this one
    np.testing.assert_array_equal(mu3.points[::16], mu2.points)


def _unequal_trio():
    return Ifs(n=1, maps=tuple(
        Similarity(n=1, q=np.array(q), r=r)
        for q, r in (((0.0, 0.0, 0.0), 0.35), ((0.6, 0.1, 0.2), 0.2),
                     ((0.2, 0.7, 0.5), 0.3))))


# SHA-256 of the points' and weights' bytes, recorded before the build
# moved in place; the trio covers the unequal-ratio weights, and its
# digest was re-recorded when their factors moved to math.pow
_CYLINDER_DIGESTS = [
    (lambda: make_strichartz_ifs(1, 0.25), 5,
     "a408210e1abe971b5a9763e07f8d623b1a76804a9b99665b7aa04c650205ee53"),
    (lambda: make_strichartz_ifs(2, 0.25), 3,
     "493e70da02900500e0d851d4eda8f23bb260bf906090ffdb77e681bf78b69eca"),
    (lambda: make_strichartz_ifs(1, 0.125), 4,
     "eee0233093656a314d4c2aa72002ab745e58321776944065ba00733d048629ba"),
    (_unequal_trio, 6,
     "d2ecd53387cd7322fce9fb23740c7f495b781ca9a2e158e2e39a33ebc0db21b8"),
]


@pytest.mark.parametrize("make, level, digest", _CYLINDER_DIGESTS,
                         ids=["n1_r4_L5", "n2_r4_L3", "n1_r8_L4", "trio_L6"])
def test_cylinder_measure_bytes_are_pinned(make, level, digest):
    mu = cylinder_measure(make(), level)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(mu.points).tobytes())
    h.update(mu.weights.tobytes())
    assert h.hexdigest() == digest


def test_cylinder_measure_memory_is_output_plus_a_chunk(ifs14):
    tracemalloc.start()
    try:
        mu = cylinder_measure(ifs14, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # equal ratios: the weight is held once, and the coordinates as the
    # level-4 parents of a table (its nbytes), so the measure holds them
    # alone; a full weight vector would be 8.4 MB, a copy of the parents
    # 1.5 MB, and a full-size validation temporary 3 MB
    assert mu.weights.strides == (0,)
    assert peak - mu.points.nbytes < 3e6


def _held_level(n, level):
    """The measure of the corner family at ``level``, with its build's
    tracemalloc peak, after checking that it holds a table of tables:
    its dilated level - 2 atoms."""
    mu, peak = _traced_peak(lambda: cylinder_measure(make_strichartz_ifs(n, 0.25),
                                                     level))
    N, dim = 4 ** (n + 1), 2 * n + 1
    assert len(mu) == N ** level and mu.points.shape == (N ** level, dim)
    assert mu.points.parents.builds
    assert mu.points.nbytes == N ** (level - 2) * dim * 8
    return peak


def test_level_6_measure_holds_its_level_4_atoms():
    # the 16.8M atoms' coordinates would take 403 MB, and the level-5
    # atoms 25.2 MB; the table holds the dilated level-4 atoms, 1.57 MB,
    # and the build a chunk of scratch
    assert _held_level(1, 6) < 5e6


def test_n2_level_4_measure_holds_its_level_2_atoms():
    # 64^4 atoms again: 671 MB of coordinates, 10.5 MB at level 3, and
    # 0.16 MB held
    assert _held_level(2, 4) < 1e6


def test_unequal_ratio_weights_are_stored_in_full():
    mu = cylinder_measure(_unequal_trio(), 4)
    assert mu.weights.flags.c_contiguous
    assert mu.weights.strides == (mu.weights.itemsize,)
    assert len(np.unique(mu.weights)) > 1


def test_cylinder_measure_atom_cap(ifs14):
    with pytest.raises(AtomCapExceeded):
        cylinder_measure(ifs14, 3, atom_cap=1000)


def test_cylinder_measure_rejects_a_negative_level(ifs14):
    with pytest.raises(ValueError, match="level must be >= 0, got -1"):
        cylinder_measure(ifs14, -1)


def test_cycle_atom_indices_worked_example():
    # level 2, sixteen letters: constant words sit at i*(16+1)
    idx = cycle_atom_indices(16, 2, 16)
    np.testing.assert_array_equal(idx, np.arange(16) * 17)
    # asking for more appends distinct alternating pairs i*16 + j
    more = cycle_atom_indices(16, 2, 20, seed=1)
    assert len(more) == 20
    assert len(set(more.tolist())) == 20
    singles = set(range(0, 256, 17))
    extras = [int(v) for v in more if int(v) not in singles]
    assert len(extras) == 4
    for v in extras:
        i, j = divmod(v, 16)
        assert i != j


def test_cycle_atom_indices_bounds_and_errors(ifs14, mu3):
    idx = cycle_atom_indices(16, 3, 32, seed=0)
    assert np.all(idx >= 0) and np.all(idx < 16 ** 3)
    assert len(idx) == 32
    # a constant word's atom converges to that map's fixed point
    i7 = int(cycle_atom_indices(16, 3, 16)[7])
    fp = ifs14.maps[7].fixed_point()
    assert dist(mu3.points[i7], fp) < 0.25 ** 2
    with pytest.raises(ValueError):
        cycle_atom_indices(16, 0, 4)
    with pytest.raises(ValueError):
        cycle_atom_indices(16, 3, 0)
    np.testing.assert_array_equal(cycle_atom_indices(1, 4, 1), [0])


def test_phi_fixed_point_certificates(phi64):
    assert phi64.residual == 0.0
    assert phi64.history[0] > 0.0
    ratios = phi64.contraction_ratios()
    assert np.all(ratios <= 0.0625 + 1e-12)
    # closed-form ceiling: sup h / (1 - r^2)
    assert float(np.max(np.abs(phi64.values))) <= 0.375 / (1.0 - 0.0625) + 1e-12
    assert len(phi64.history) <= 10


def test_phi_fixed_point_pinned_value():
    # a mirrored group law negates the tilt, so this value flips sign
    phi = phi_fixed_point(1, 0.25, 256)
    value = phi.evaluate(np.array([0.3, 0.7]))
    assert value == pytest.approx(0.26890747691584826, rel=1e-12)


def _traced_peak(call):
    """The value of call() and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_phi_fixed_point_memory_is_the_operator_plus_a_block():
    phi, peak = _traced_peak(lambda: phi_fixed_point(1, 0.25, 256))
    assert phi.residual == 0.0
    # the operator holds 65 bytes a node (4.3 MB for 257^2 nodes), the
    # iteration two grids (1.1 MB) and one block of 8192 nodes about
    # 0.3 MB: 5.7 MB; whole-grid temporaries peaked at 14.8 MB
    assert peak < 7e6


def test_defect_scan_memory_is_a_block():
    phi = phi_fixed_point(1, 0.25, 256)
    sup, peak = _traced_peak(lambda: _ss2_residual_sup(phi))
    assert sup == float.fromhex("0x1.6d6f0fb284800p-12")
    # one block of grid rows and its stencils take 1.3 MB; the scan over
    # the whole 257^2 grid at once took 10.6 MB
    assert peak < 2e6


def _cell_arrays(nodes, z, pt, r, M):
    # the operator's per-node arrays for pull-backs through the points pt
    # of the cells z + r Q
    d = np.sqrt(np.sum((nodes - pt) ** 2, axis=-1))
    eps = 0.5 * (1.0 - 2.0 * r)
    idx, w = map(np.stack, zip(*_stencil((pt - z) / r, M)))
    return (np.clip((eps - d) / eps, 0.0, 1.0), _tilt_term(z, pt), idx, w,
            d == 0.0)


def _operator_arrays(op):
    return op.theta, op.twist, op.gather_idx, op.gather_w, op.in_cell


@pytest.mark.parametrize("r, M", [(0.25, 63), (0.125, 33)])
def test_tilt_operator_takes_the_nearest_cell(r, M):
    # brute force over the 4 planar corner cells; M is odd, so no node
    # has a coordinate at 1/2 and every node has one nearest cell
    nodes = np.indices((M + 1, M + 1), dtype=float).reshape(2, -1).T / M
    corners = _strichartz_corners(1, r)
    clipped = np.clip(nodes[None], corners[:, None], corners[:, None] + r)
    d = np.sqrt(np.sum((nodes[None] - clipped) ** 2, axis=-1))
    best = np.argmin(d, axis=0)
    assert np.all(np.sum(d == d[best, np.arange(len(nodes))], axis=0) == 1)
    expected = _cell_arrays(nodes, corners[best],
                            clipped[best, np.arange(len(nodes))], r, M)
    for got, want in zip(_operator_arrays(_TiltOperator(r, M)), expected):
        np.testing.assert_array_equal(got, want)


def test_tilt_operator_node_at_one_half_takes_the_lower_cell():
    # at r = 0.3 the rounded distances from x = 1/2 to [0, r] and to
    # [1 - r, 1] differ, and the upper one is the smaller
    r, M = 0.3, 20
    assert 1.0 - r - 0.5 < 0.5 - r
    op = _TiltOperator(r, M)
    node = np.array([[0.5, 0.0]])
    i = (M // 2) * (M + 1)
    lower = _cell_arrays(node, np.zeros((1, 2)), np.array([[r, 0.0]]), r, M)
    for got, want in zip(_operator_arrays(op), lower):
        np.testing.assert_array_equal(got[..., i], want[..., 0])


def test_phi_fixed_point_rejects_a_slow_contraction(monkeypatch):
    # an operator that contracts by 1/2, far above r^2 = 1/16, must
    # trip the guard on its second update
    monkeypatch.setattr(_TiltOperator, "apply",
                        lambda self, f, out: 0.5 * f + 1.0)
    with pytest.raises(RuntimeError, match="contraction violated"):
        phi_fixed_point(1, 0.25, 16)


def test_phi_fixed_point_resolution_guard():
    with pytest.raises(ValueError):
        phi_fixed_point(1, 0.25, 4)
    with pytest.raises(ValueError):
        phi_fixed_point(1, 0.6, 64)


def test_phi_fixed_point_respects_the_atom_cap():
    # the planar stencil holds (M + 1)^2 4 entries for every n: 33^2 * 4
    # at M = 32
    for n in (1, 2):
        assert phi_fixed_point(n, 0.25, 32,
                               atom_cap=33 ** 2 * 4).resolution == 32
        with pytest.raises(AtomCapExceeded, match="4356 stencil entries"):
            phi_fixed_point(n, 0.25, 32, atom_cap=33 ** 2 * 4 - 1)
    # so n = 2 at the default resolution fits the default cap
    assert phi_fixed_point(2, 0.25, 256).values.shape == (257, 257)


def test_phi_is_a_sum_over_the_symplectic_planes():
    # phi(w) = phi_1(w_0, w_2) + phi_1(w_1, w_3) in H^2, bit for bit
    planar, phi = phi_fixed_point(1, 0.25, 64), phi_fixed_point(2, 0.25, 64)
    np.testing.assert_array_equal(phi.values, planar.values)
    w = np.random.default_rng(17).random((5000, 4))
    np.testing.assert_array_equal(phi.evaluate(w), planar.evaluate(w[:, [0, 2]])
                                  + planar.evaluate(w[:, [1, 3]]))
    # the n-plane defect is the planar one n times over, attained with
    # the same cell and point in every plane
    reports = [verify_invariant_region(make_strichartz_ifs(n, 0.25), f,
                                       sample_count=2000)
               for n, f in ((1, planar), (2, phi))]
    assert reports[1].discretization_sup == 2.0 * reports[0].discretization_sup
    assert reports[1].certified


class _MisPaired(GridFunction):
    """The planar sum over the axis pairs (0, 1) and (2, 3) of H^2, which
    are not symplectic planes."""

    def evaluate(self, pts):
        return super().evaluate(np.asarray(pts)[..., [0, 2, 1, 3]])


def test_region_check_fails_on_the_wrong_planes():
    phi = phi_fixed_point(2, 0.25, 64)
    wrong = _MisPaired(n=2, r=0.25, resolution=64, values=phi.values)
    # more samples than one block of 8192
    report = verify_invariant_region(make_strichartz_ifs(2, 0.25), wrong,
                                     sample_count=40_000)
    # the grid and its defect scan are the same; only the pairing differs
    assert report.slack < 1e-2
    assert not report.certified
    assert report.violations == 662407
    assert report.witness.tobytes().hex() == (
        "de9cec17db6feb3f20cf1be72032a13ffa79f8605659e73f"
        "905cec24e27bc63f40bf8b0e45e4a93f")
    assert report.min_lower_margin < -1.0


class _Bumped(GridFunction):
    """phi raised by 1/2 on two discs of radius 1e-3, which the grid
    values, and so the slack, do not see."""

    def evaluate(self, pts):
        w = np.asarray(pts)
        near = sum(np.hypot(w[..., 0] - x, w[..., 1] - y) < 1e-3
                   for x, y in ((0.1, 0.12), (0.9, 0.1)))
        return super().evaluate(w) + 0.5 * near


def test_region_witness_is_the_first_violation_of_the_lowest_map(phi64):
    bumped = _Bumped(n=1, r=0.25, resolution=64, values=phi64.values)
    report = verify_invariant_region(make_strichartz_ifs(1, 0.25), bumped,
                                     sample_count=100_000, seed=2)
    # maps 0 and 4 violate 4 times each, first at sample 71369; maps 1
    # and 5 violate 5 times each, first at sample 12903, in an earlier
    # block
    assert report.violations == 18
    horizontal = np.random.default_rng(2).random((100_000, 2))
    np.testing.assert_array_equal(report.witness[:2], horizontal[71369])
    assert report.witness.tobytes().hex() == (
        "e4e568b9757ed93fbc97cbcd69b8de3f34243225f283c83f")


def test_region_memory_is_the_samples_plus_a_block(phi64):
    count = 400_000
    tracemalloc.start()
    try:
        report = verify_invariant_region(make_strichartz_ifs(1, 0.25), phi64,
                                         sample_count=count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.certified
    # the samples take 9.6 MB and one block of 8192 of them, or of the
    # defect scan's grid nodes, 2.5 MB; blocks of 32768 samples and a
    # whole-grid scan took 17.2 MB, temporaries the size of the samples
    # 8.4 times the samples
    assert peak < count * 3 * 8 + 3.5e6


def test_grid_function_eval_reproduces_affine():
    res = 8
    nodes = np.linspace(0.0, 1.0, res + 1)
    xx, yy = np.meshgrid(nodes, nodes, indexing="ij")
    values = 2.0 * xx - 3.0 * yy + 0.5
    g = GridFunction(n=1, r=0.25, resolution=res, values=values)
    rng = np.random.default_rng(41)
    pts = rng.uniform(0, 1, size=(50, 2))
    expected = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 0.5
    np.testing.assert_allclose(g.evaluate(pts), expected, rtol=1e-12, atol=1e-12)
    # node evaluation returns the stored values
    np.testing.assert_allclose(
        g.evaluate(np.stack([xx, yy], axis=-1)), values, atol=1e-13
    )


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(n=1, r=0.25, resolution=4, values=np.zeros((4, 4)))
    with pytest.raises(ValueError):
        GridFunction(n=1, r=0.25, resolution=4, values=np.full((5, 5), np.nan))
    g = GridFunction(n=2, r=0.25, resolution=4, values=np.zeros((5, 5)))
    with pytest.raises(ValueError, match="points must have 4 coordinates"):
        g.evaluate(np.zeros((3, 2)))


def test_contraction_ratios_need_two_updates():
    # a ratio is one update over the one before it
    for history in ((), (0.5,)):
        g = GridFunction(n=1, r=0.25, resolution=4, values=np.zeros((5, 5)),
                         history=history)
        assert g.contraction_ratios().shape == (0,)
    g = GridFunction(n=1, r=0.25, resolution=4, values=np.zeros((5, 5)),
                     history=(0.5, 0.25))
    assert g.contraction_ratios().tolist() == [0.5]


def test_grid_function_rejects_points_outside_q():
    nodes = np.linspace(0.0, 1.0, 5)
    xx, yy = np.meshgrid(nodes, nodes, indexing="ij")
    g = GridFunction(n=1, r=0.25, resolution=4, values=xx + 2.0 * yy)
    # within the rounding slack the point is clamped onto Q
    edge = g.evaluate(np.array([[1.0, 0.0], [0.0, 1.0]]))
    slack = g.evaluate(np.array([[1.0 + 1e-13, -1e-13], [-1e-13, 1.0 + 1e-13]]))
    np.testing.assert_array_equal(slack, edge)
    for bad in ([1.0 + 1e-9, 0.5], [0.5, -1e-9], [2.0, 0.5], [np.nan, 0.5],
                [0.5, np.nan], [np.inf, 0.5], [0.5, -np.inf]):
        with pytest.raises(ValueError, match="must lie in Q"):
            g.evaluate(np.array([[0.5, 0.5], bad]))
        with pytest.raises(ValueError, match="must lie in Q"):
            g.evaluate(np.array(bad))
    assert g.evaluate(np.zeros((0, 2))).shape == (0,)


def test_invariant_region_certified(ifs14, phi64):
    report = verify_invariant_region(ifs14, phi64, sample_count=20_000, seed=0)
    assert report.violations == 0
    assert report.witness is None
    assert report.disjoint_certified
    assert report.certified
    assert report.slab_thickness == pytest.approx(0.0625, rel=1e-15)
    assert report.offset_spacing == pytest.approx(0.25, rel=1e-15)
    assert report.vertical_separation == pytest.approx(0.1875, rel=1e-15)
    assert report.horizontal_gap == pytest.approx(0.5, rel=1e-15)
    # sampled margins may dip below zero only within the discretization slack
    assert report.min_lower_margin >= -report.slack
    assert report.min_upper_margin >= -report.slack


def test_region_check_counts_a_nan_image_as_a_violation(ifs14, phi64,
                                                        monkeypatch):
    # a NaN margin fails neither lower < -slack nor upper < -slack, so a
    # NaN vertical in every fifth image could still certify
    orig = Similarity.apply

    def nan_fifths(self, p):
        image = orig(self, p)
        image[::5, -1] = np.nan
        return image

    monkeypatch.setattr(Similarity, "apply", nan_fifths)
    report = verify_invariant_region(ifs14, phi64, sample_count=5000, seed=0)
    assert report.violations == 16 * 1000
    assert not report.certified
    assert math.isnan(report.min_lower_margin)
    assert math.isnan(report.min_upper_margin)
    # the first sample, through the first map
    np.testing.assert_array_equal(
        report.witness[:-1], np.random.default_rng(0).random((5000, 2))[0])


@pytest.mark.parametrize("slack, certified", [(0.009, True), (0.011, False)])
def test_region_slack_above_a_tenth_of_the_separation_does_not_certify(
        slack, certified):
    report = RegionReport(
        sample_count=100, violations=0, witness=None, min_lower_margin=0.0,
        min_upper_margin=0.0, slack=slack, discretization_sup=0.0,
        slab_thickness=0.0625, offset_spacing=0.25, vertical_separation=0.1,
        horizontal_gap=0.5, disjoint_certified=True)
    assert report.certified is certified


def test_invariant_region_parameter_mismatch(ifs14):
    other = phi_fixed_point(1, 0.125, 64)
    with pytest.raises(ValueError):
        verify_invariant_region(ifs14, other)
    plain = Ifs(n=1, maps=(Similarity(n=1, r=0.25, q=np.zeros(3)),))
    with pytest.raises(ValueError):
        verify_invariant_region(plain, other)


def test_invariant_region_needs_a_sample(ifs14, phi64):
    with pytest.raises(ValueError, match="sample_count must be positive"):
        verify_invariant_region(ifs14, phi64, sample_count=0)


def test_invariant_region_needs_the_corner_family_maps(ifs14, phi64):
    # sixteen maps at the right ratio are not enough: moving a single
    # translation by a tenth makes the system another one
    maps = list(ifs14.maps)
    moved = maps[5].q.copy()
    moved[-1] += 0.1
    maps[5] = Similarity(n=1, q=moved, r=0.25)
    with pytest.raises(ValueError, match="corner family"):
        verify_invariant_region(Ifs(n=1, maps=tuple(maps)), phi64)
    # an equal system built apart from make_strichartz_ifs is accepted
    rebuilt = Ifs(n=1, maps=tuple(Similarity(n=1, q=s.q.copy(), r=s.r)
                                  for s in ifs14.maps))
    assert verify_invariant_region(rebuilt, phi64, sample_count=1000).certified


def _brute_separation(ifs, level):
    """Cross-first-letter minimum over all level atoms, through core.dist."""
    pts = np.asarray(cylinder_measure(ifs, level).points)
    k = len(ifs.maps) ** (level - 1)
    return min(
        float(np.min(dist(pts[g * k:(g + 1) * k, None], pts[None, (g + 1) * k:])))
        for g in range(len(ifs.maps) - 1)
    )


def test_min_piece_separation_matches_brute_force(ifs14):
    for level in (1, 2):
        want = _brute_separation(ifs14, level)
        assert min_piece_separation(ifs14, level) == pytest.approx(want, rel=1e-12)
    # unequal ratios: the drift bound uses the largest
    mixed = _mixed_trio()
    for level in (3, 4, 5):
        want = _brute_separation(mixed, level)
        assert min_piece_separation(mixed, level) == pytest.approx(want, rel=1e-12)


def test_min_piece_separation_matches_brute_force_on_random_systems():
    # seeded 3-5-map systems in H^1 at levels 2 and 3: a pruning slack
    # too small to keep every ancestor pair of the minimum loses it on
    # some of them and reports a larger value
    rng = np.random.default_rng(0)
    for _ in range(60):
        ifs = Ifs(n=1, maps=tuple(
            Similarity(n=1, q=rng.uniform(-1.0, 1.0, 3),
                       r=float(rng.uniform(0.3, 0.5)))
            for _ in range(int(rng.integers(3, 6)))))
        level = int(rng.integers(2, 4))
        want = _brute_separation(ifs, level)
        assert min_piece_separation(ifs, level) == pytest.approx(want, rel=1e-12)


def _mixed_trio():
    return Ifs(n=1, maps=tuple(
        Similarity(n=1, q=np.array(q), r=r)
        for q, r in (((0.0, 0.0, 0.0), 0.35), ((0.6, 0.1, 0.2), 0.2),
                     ((0.2, 0.7, 0.5), 0.3))))


@pytest.mark.parametrize("family, level, want", [
    ("ifs14", 3, "0x1.36dafd8531683p-2"),
    ("ifs14", 4, "0x1.21b5ebc63a956p-2"),
    ("mixed", 3, "0x1.badd07ea7ba4cp-2"),
    ("mixed", 4, "0x1.ad9770f9201c1p-2"),
    ("mixed", 5, "0x1.aa05bd37af911p-2"),
    ("r8", 3, "0x1.ce12949eaf465p-2"),
    ("n2", 2, "0x1.3a13de01ef15dp-2"),
    # the horizontal word-pair path keeps the whole-word path's bits
    ("ifs14", 5, "0x1.1c726cc8ae92fp-2"),
    ("ifs14", 6, "0x1.1b21f0c6d9f3cp-2"),
    ("r8", 4, "0x1.cc61a3605443cp-2"),
    ("n2", 3, "0x1.974b2334f2346p-3"),
    ("r0.4", 3, "0x1.26ecb828dc039p-3"),
    ("r0.4", 4, "0x1.b089b12b9875ep-4"),
    # here the offset search's own least is 0x1.85cde8c42892dp-3, 13 ulps
    # above: only the pairs measured again by whole words give these bits
    ("r0.3", 4, "0x1.85cde8c428920p-3"),
])
def test_min_piece_separation_bits(ifs14, family, level, want):
    ifs = {"ifs14": lambda: ifs14, "mixed": _mixed_trio,
           "r8": lambda: make_strichartz_ifs(1, 0.125),
           "r0.4": lambda: make_strichartz_ifs(1, 0.4),
           "r0.3": lambda: make_strichartz_ifs(1, 0.3),
           "n2": lambda: make_strichartz_ifs(2, 0.25)}[family]()
    assert min_piece_separation(ifs, level) == float.fromhex(want)


def _offset_digits(levels):
    """The corner family's digit sets of c_{w'} - c_w for words of
    `levels`, as min_piece_separation takes them."""
    T = np.array([0.0, 0.25, 0.5, 0.75])
    both = np.unique(np.subtract.outer(T, T))
    return [both if k < min(levels) else T if k < levels[1] else -T[::-1]
            for k in range(max(levels))]


@pytest.mark.parametrize("r", [0.4, 0.25])
@pytest.mark.parametrize("levels", [(1, 1), (2, 2), (4, 4), (2, 4), (3, 1)])
def test_offset_search_finds_the_nearest_offset_word(r, levels):
    # at r = 0.4 a digit's tail spans 0.29 of its weight against a step of
    # 0.25, so neighbouring digits' ranges overlap and the search must
    # branch; every offset word is enumerated here
    digits = _offset_digits(levels)
    weights = fractal._offset_weights(1, r, max(levels))
    words = np.array(np.meshgrid(*[np.arange(len(d)) for d in digits],
                                 indexing="ij")).reshape(len(digits), -1).T
    sums = sum(w * d[words[:, k]] for k, (w, d) in enumerate(zip(weights, digits)))
    rng = np.random.default_rng(7)
    x = rng.uniform(sums.min() - 0.05, sums.max() + 0.05, 4000)
    same = rng.random(4000) < 0.5
    allowed = [sums, sums[digits[0][words[:, 0]] != 0.0]]
    best = np.array([np.min(np.abs(xi - allowed[s])) for xi, s in zip(x, same.astype(int))])
    got = fractal._offset_search(x, same, digits, weights)
    np.testing.assert_allclose(np.abs(x - got), best, rtol=0.0, atol=1e-15)
    # with a radius, every word within it, and no other
    radius = 1.5 * best + rng.uniform(0.0, 0.05, 4000)
    at, choice = fractal._offset_search(x, same, digits, weights, radius)
    want = [np.sum(np.abs(xi - allowed[s]) <= ri) for xi, s, ri in zip(x, same.astype(int), radius)]
    np.testing.assert_array_equal(np.bincount(at, minlength=4000), want)
    found = sum(w * d[choice[:, k]] for k, (w, d) in enumerate(zip(weights, digits)))
    assert np.all(np.abs(x[at] - found) <= radius[at] + 1e-15)
    assert not np.any(same[at] & (digits[0][choice[:, 0]] == 0.0))


@pytest.mark.parametrize("n, r, level", [(1, 0.4, 2), (1, 0.4, 3), (2, 0.25, 2)])
def test_horizontal_word_pairs_match_brute_force(n, r, level):
    ifs = make_strichartz_ifs(n, r)
    want = _brute_separation(ifs, level)
    assert min_piece_separation(ifs, level) == pytest.approx(want, rel=1e-12)


def _word_pair_minimum(ifs, level):
    """The least distance over every pair of level words with different
    first letters, each composed by one-letter appends, as
    min_piece_separation composes them."""
    N, sq, sr = len(ifs.maps), np.stack([s.q for s in ifs.maps]), ifs.ratios
    words = np.indices((N,) * level).reshape(level, -1).T
    q, rw = sq[words[:, 0]], sr[words[:, 0]]
    for k in range(1, level):
        q, rw = fractal._compose_after(q, rw, sq[words[:, k]], sr[words[:, k]])
    pts = np.ascontiguousarray(
        fractal._compose_after(q, rw, ifs.maps[0].fixed_point(), 1.0)[0])
    k = N ** (level - 1)
    return min(float(np.min(dist(pts[g * k:(g + 1) * k, None], pts[None, (g + 1) * k:])))
               for g in range(N - 1))


@pytest.mark.parametrize("r", [0.25, 0.4])
def test_horizontal_word_pairs_follow_a_stretched_dilation(r, monkeypatch):
    # the offsets' weights are core.dilate's vertical factors, so with a
    # stretched one the search still solves the words' offsets exactly
    # and keeps the bits of every word pair; weights of its own, r^(2k),
    # would miss the pair that holds the minimum
    orig = fractal.core.dilate

    def stretched(ratio, p, out=None):
        d = orig(ratio, p, out=out)
        d[..., -1] *= 1.25
        return d

    monkeypatch.setattr(fractal.core, "dilate", stretched)
    ifs = make_strichartz_ifs(1, r)
    assert min_piece_separation(ifs, 3) == _word_pair_minimum(ifs, 3)


def test_the_corner_family_refines_horizontal_word_pairs(ifs14, monkeypatch):
    rows = []
    orig = fractal.dist

    def counting(p, q):
        d = orig(p, q)
        rows.append(np.size(d))
        return d

    monkeypatch.setattr(fractal, "dist", counting)
    assert min_piece_separation(ifs14, 5) == float.fromhex("0x1.1c726cc8ae92fp-2")
    # 4,210 distances; about 1.7M over pairs of whole words
    assert sum(rows) < 50_000
    # a system of three ratios keeps the whole-word path, row for row
    rows.clear()
    assert min_piece_separation(_mixed_trio(), 5) == float.fromhex("0x1.aa05bd37af911p-2")
    assert sum(rows) == 654
    assert fractal._offset_product(_mixed_trio()) is None


@pytest.fixture(scope="module")
def brute3(ifs14):
    return _brute_separation(ifs14, 3)


@pytest.mark.parametrize("chunk", [16, 256, 4096])
def test_min_piece_separation_refinement_matches_brute_force(ifs14, brute3,
                                                             chunk, monkeypatch):
    # a chunk of 16 splits the one-letter table into its 16 rows, the
    # last with no pair i < j, and each refinement into 1-parent pieces;
    # the distances are elementwise, so the chunk moves no bit
    monkeypatch.setattr(fractal, "CHUNK", chunk)
    got = min_piece_separation(ifs14, 3)
    assert got == float.fromhex("0x1.36dafd8531683p-2")
    assert got == pytest.approx(brute3, rel=1e-12)


def test_min_piece_separation_memory_is_the_pairs_plus_a_chunk(ifs14):
    sep, peak = _traced_peak(lambda: min_piece_separation(ifs14, 5))
    assert sep == float.fromhex("0x1.1c726cc8ae92fp-2")
    # pairs of horizontal words: 1.7 MB
    assert peak < 3e6
    # one offset moved by 1e-3 leaves no product of corners and offsets,
    # so the whole-word path serves it: at most about 49,000 pairs at a
    # level, the words of two levels (64 bytes a pair), one level's
    # indices and a chunk of 2^15 distances take 6.2 MB; pairs held three
    # times over, in full, took 14.0 MB
    last = ifs14.maps[-1]
    nudged = Ifs(n=1, maps=ifs14.maps[:-1] + (
        Similarity(n=1, q=last.q + [0.0, 0.0, 1e-3], r=last.r),))
    assert fractal._offset_product(nudged) is None
    _, peak = _traced_peak(lambda: min_piece_separation(nudged, 5))
    assert peak < 8e6


def test_min_piece_separation_raises_on_a_nan_distance(ifs14, monkeypatch):
    # min(least, nan) keeps least, so NaN distances could leave +inf
    orig = fractal.dist

    def nan_sevenths(p, q):
        d = orig(p, q)
        if np.ndim(d):
            d.flat[::7] = np.nan
        return d

    monkeypatch.setattr(fractal, "dist", nan_sevenths)
    with pytest.raises(RuntimeError, match="NaN distance") as caught:
        min_piece_separation(ifs14, 3)
    assert caught.type is RuntimeError


def test_min_piece_separation_caps_the_candidate_pairs():
    # 64 coincident pieces keep all 2016 * 64^2 pairs at levels [2, 2]:
    # past 2^22 the size cap raises, as the atom cap does
    stack = Ifs(n=1, maps=(Similarity(n=1, r=0.5, q=np.zeros(3)),) * 64)
    with pytest.raises(AtomCapExceeded,
                       match=r"over 4194304 candidate pairs at levels \[2, 2\]"):
        min_piece_separation(stack, 3)


def test_min_piece_separation_single_map():
    solo = Ifs(n=1, maps=(Similarity(n=1, r=0.25, q=np.zeros(3)),))
    assert min_piece_separation(solo, 3) == math.inf
    with pytest.raises(ValueError):
        min_piece_separation(solo, 0)


def test_min_piece_separation_stabilises(ifs14):
    s3 = min_piece_separation(ifs14, 3)
    s4 = min_piece_separation(ifs14, 4)
    assert s3 > 0 and s4 > 0
    assert 0.9 <= s4 / s3 <= 1.1
