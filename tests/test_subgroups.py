"""Homogeneous subgroups: distances, cones, and intrinsic uniform samples."""

import numpy as np
import pytest

from heisriesz.core import dist, group_mul, koranyi_norm
from heisriesz.subgroups import (
    SubgroupSpec,
    dist_to_subgroup,
    haar_sample,
    in_cone,
    make_horizontal,
    make_vertical,
    subspace_distance,
)


def test_make_vertical_kinds_and_dimensions():
    t = make_vertical(1, [])
    assert t.kind == "taxis"
    assert t.hausdorff_dimension == 2
    v = make_vertical(1, [[1.0, 0.0]])
    assert v.kind == "vertical"
    assert v.hausdorff_dimension == 3
    v2 = make_vertical(2, [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    assert v2.hausdorff_dimension == 4


def test_make_vertical_normalises_basis():
    v = make_vertical(1, [[2.0, 0.0]])
    np.testing.assert_allclose(v.basis, [[1.0, 0.0]], atol=1e-15)
    with pytest.raises(ValueError):
        make_vertical(1, [[1.0, 0.0], [2.0, 0.0]])


def test_make_horizontal_dimension_and_isotropy():
    h = make_horizontal(1, [[1.0, 0.0]])
    assert h.kind == "horizontal"
    assert h.hausdorff_dimension == 1
    # a symplectically paired couple cannot span a horizontal subgroup;
    # in the first group there is no two dimensional one at all
    with pytest.raises(ValueError):
        make_horizontal(1, [[1.0, 0.0], [0.0, 1.0]])
    # in the second group an isotropic pair is fine
    ok = make_horizontal(2, [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    assert ok.hausdorff_dimension == 2
    with pytest.raises(ValueError):
        make_horizontal(2, [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])


def test_dist_to_taxis_is_horizontal_radius():
    t = make_vertical(1, [])
    assert dist_to_subgroup([3.0, 4.0, 17.0], t) == 5.0
    assert dist_to_subgroup([0.0, 0.0, -3.0], t) == 0.0


def test_dist_to_vertical_plane_is_perpendicular_distance():
    v = make_vertical(1, [[1.0, 0.0]])
    assert dist_to_subgroup([5.0, -3.0, 7.0], v) == 3.0
    batch = np.array([[1.0, 2.0, 0.0], [0.0, -4.0, 9.0]])
    np.testing.assert_allclose(dist_to_subgroup(batch, v), [2.0, 4.0])


def test_dist_to_horizontal_axis_worked_value():
    h = make_horizontal(1, [[1.0, 0.0]])
    # from the unit vertical point the nearest axis point is the identity
    assert dist_to_subgroup([0.0, 0.0, 1.0], h) == pytest.approx(1.0, rel=1e-12)
    # on the axis itself the distance vanishes
    assert dist_to_subgroup([2.5, 0.0, 0.0], h) == pytest.approx(0.0, abs=1e-12)


def test_dist_to_horizontal_matches_grid_search():
    h = make_horizontal(1, [[1.0, 0.0]])
    rng = np.random.default_rng(9)
    pts = rng.uniform(-3, 3, size=(6, 3))
    grid = np.linspace(-12.0, 12.0, 240_001)
    axis = np.zeros((grid.size, 3))
    axis[:, 0] = grid
    for p in pts:
        brute = float(np.min(dist(p, axis)))
        got = dist_to_subgroup(p, h)
        assert got == pytest.approx(brute, abs=2e-4)
        assert got <= brute + 1e-12


def test_in_cone_apex_and_membership():
    t = make_vertical(1, [])
    p = np.array([0.5, 0.5, 0.25])
    assert in_cone(p, p, t, 0.5)
    # a purely vertical offset from p lies on the coset, inside any cone
    q = group_mul(p, [0.0, 0.0, 2.0])
    assert in_cone(p, q, t, 0.1)
    # a purely horizontal offset is at full distance, outside every cone
    q2 = group_mul(p, [1.0, 0.0, 0.0])
    assert not in_cone(p, q2, t, 0.9)


def test_in_cone_monotone_in_aperture():
    t = make_vertical(1, [])
    rng = np.random.default_rng(13)
    p = rng.uniform(-1, 1, size=3)
    qs = rng.uniform(-2, 2, size=(64, 3))
    narrow = in_cone(p, qs, t, 0.3)
    wide = in_cone(p, qs, t, 0.8)
    assert np.all(wide[narrow])
    with pytest.raises(ValueError):
        in_cone(p, qs, t, 1.0)


def test_haar_sample_taxis_grid():
    t = make_vertical(1, [])
    mu = haar_sample(t, window_radius=2.0, resolution=2048)
    assert len(mu) == 2048
    np.testing.assert_allclose(mu.total_mass, 8.0, rtol=1e-12)
    assert mu.spacing == pytest.approx(0.0625, rel=1e-12)
    # purely vertical support inside the window
    assert np.all(mu.points[:, :2] == 0.0)
    assert np.all(koranyi_norm(mu.points) <= 2.0 + 1e-12)
    # equal weights on a uniform grid
    assert np.ptp(mu.weights) == 0.0


def test_haar_sample_vertical_plane_structure():
    v = make_vertical(1, [[1.0, 0.0]])
    mu = haar_sample(v, window_radius=1.0, resolution=16)
    # corner cells of the bounding box fall outside the gauge window
    assert 0 < len(mu) < 16 * 16
    assert np.all(koranyi_norm(mu.points) <= 1.0 + 1e-12)
    assert np.ptp(mu.weights) == 0.0
    assert np.all(mu.points[:, 1] == 0.0)


def test_haar_sample_horizontal_line():
    h = make_horizontal(1, [[0.0, 1.0]])
    mu = haar_sample(h, window_radius=1.0, resolution=32)
    assert len(mu) == 32
    np.testing.assert_allclose(mu.total_mass, 2.0, rtol=1e-12)
    assert np.all(mu.points[:, 0] == 0.0)
    assert np.all(mu.points[:, 2] == 0.0)


def test_subspace_distance_between_lines():
    a = make_horizontal(1, [[1.0, 0.0]])
    for theta in (0.0, 0.3, np.pi / 2):
        b = make_horizontal(1, [[np.cos(theta), np.sin(theta)]])
        assert subspace_distance(a, b) == pytest.approx(abs(np.sin(theta)), abs=1e-12)
    t = make_vertical(1, [])
    assert subspace_distance(a, t) == pytest.approx(1.0, rel=1e-12)
    assert subspace_distance(t, t) == 0.0


def test_unknown_subgroup_kind_rejected():
    with pytest.raises(ValueError):
        SubgroupSpec("diagonal", 1, np.zeros((0, 2)))


def _layout_subgroups(n, rng):
    # random directions, so the orthonormal bases have no zero entries;
    # vectors in the first n horizontal coordinates span isotropic planes
    line = rng.normal(size=2 * n)
    plane = rng.normal(size=(2, 2 * n))
    yield "vertical line", make_vertical(n, [line])
    yield "vertical plane", make_vertical(n, plane)
    yield "horizontal line", make_horizontal(n, [line])
    if n >= 2:
        lagrangian = np.pad(rng.normal(size=(2, n)), ((0, 0), (0, n)))
        yield "horizontal plane", make_horizontal(n, lagrangian)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subgroup_distance_bits_do_not_depend_on_the_layout(n):
    # the projections are summed left to right over coordinate views, as
    # core does; a BLAS product gave C and F order different bits
    rng = np.random.default_rng(60 + n)
    x = rng.uniform(-2.0, 2.0, size=(2000, 2 * n + 1))
    xf = np.asfortranarray(x)
    for name, spec in _layout_subgroups(n, rng):
        ref = dist_to_subgroup(x, spec)
        assert dist_to_subgroup(xf, spec).tobytes() == ref.tobytes(), name
        single = [dist_to_subgroup(p, spec) for p in x[:50]]
        assert np.array(single).tobytes() == ref[:50].tobytes(), name
