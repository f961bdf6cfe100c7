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
)
from heisriesz.subgroups import _coefficients, _monotone_cubic_root, _row_sum


def test_make_vertical_kinds_and_dimensions():
    # the center line is the vertical subgroup with L = {0}
    t = make_vertical(1, [])
    assert t.kind == "vertical"
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


def test_haar_sample_needs_a_positive_window():
    for window in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="window radius must be positive"):
            haar_sample(make_vertical(1, []), window, 16)


def test_haar_sample_horizontal_line():
    h = make_horizontal(1, [[0.0, 1.0]])
    mu = haar_sample(h, window_radius=1.0, resolution=32)
    assert len(mu) == 32
    np.testing.assert_allclose(mu.total_mass, 2.0, rtol=1e-12)
    assert np.all(mu.points[:, 0] == 0.0)
    assert np.all(mu.points[:, 2] == 0.0)


def test_unknown_subgroup_kind_rejected():
    # the center line is a vertical subgroup, not a kind of its own
    for kind in ("diagonal", "taxis"):
        with pytest.raises(ValueError,
                           match=f"unknown subgroup kind: '{kind}'"):
            SubgroupSpec(1, kind, np.zeros((0, 2)))


def test_horizontal_spec_needs_one_to_n_vectors():
    # the spec itself refuses the dimension, so an empty basis never
    # reaches dist_to_subgroup, which has no vectors to stack
    for n, k in ((1, 0), (1, 2), (2, 0), (2, 3)):
        basis = np.eye(2 * n)[:k]
        with pytest.raises(ValueError, match=(
                rf"^a horizontal subgroup of H\^{n} has dimension 1 to {n}, "
                rf"got {k} vectors$")):
            SubgroupSpec(n, "horizontal", basis)
    assert SubgroupSpec(1, "horizontal", [[1.0, 0.0]]).hausdorff_dimension == 1


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_center_line_distance_is_the_horizontal_length(n):
    # the vertical path with L = {0} subtracts a projection of +0.0 from
    # each coordinate, which keeps every bit of the horizontal length
    rng = np.random.default_rng(70 + n)
    x = rng.uniform(-2.0, 2.0, size=(2000, 2 * n + 1))
    x[0, :-1] = -0.0
    total = np.zeros(len(x))
    for i in range(2 * n):
        total += x[:, i] * x[:, i]
    want = np.sqrt(total).tobytes()
    spec = make_vertical(n, [])
    assert dist_to_subgroup(x, spec).tobytes() == want
    assert dist_to_subgroup(np.asfortranarray(x), spec).tobytes() == want


def test_coefficients_sum_each_basis_vector_left_to_right():
    rng = np.random.default_rng(75)
    for n in (1, 2, 3):
        xh = rng.uniform(-2.0, 2.0, size=(500, 2 * n))
        for k in range(1, 2 * n + 1):
            basis = rng.normal(size=(k, 2 * n))
            want = np.stack([_row_sum(xh * b) for b in basis], axis=-1)
            for arr in (xh, np.asfortranarray(xh)):
                assert _coefficients(arr, basis).tobytes() == want.tobytes()
        assert _coefficients(xh, np.zeros((0, 2 * n))).shape == (500, 0)


@pytest.mark.parametrize("b", [1.0, 7.5])
def test_cubic_root_is_exact_far_below_its_bracket(b):
    # 4t^3 + bt + c with |c| / b^(3/2) from 1e-3 down to 1e-12: the root,
    # about -c/b, lies far inside the bracket cbrt(|c|/4) the bisection
    # starts from, so only a full run of halvings resolves it
    c = np.array([10.0 ** -k for k in range(3, 13)]) * b ** 1.5
    c = np.concatenate([c, -c])
    t = _monotone_cubic_root(b, c)
    residual = 4.0 * t * t * t + b * t + c
    assert np.all(np.abs(residual) <= 2.0 * np.spacing(np.abs(c)))
