"""Group operations, gauge norm, and the zoom map."""

import numpy as np
import pytest

from heisriesz import core
from heisriesz.core import (
    HPoint,
    Tolerances,
    ambient_dim,
    blowup_map,
    dilate,
    dist,
    group_index,
    group_inv,
    group_mul,
    koranyi_norm,
    origin,
    symplectic_form,
    translate,
)


def test_product_worked_example():
    out = group_mul([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(out, [1.0, 1.0, -2.0])


def test_product_swapped_flips_twist():
    out = group_mul([0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(out, [1.0, 1.0, 2.0])


def test_product_is_noncommutative_but_associative():
    rng = np.random.default_rng(3)
    p, q, w = rng.uniform(-5, 5, size=(3, 5))
    left = group_mul(group_mul(p, q), w)
    right = group_mul(p, group_mul(q, w))
    np.testing.assert_allclose(left, right, atol=1e-12)
    assert not np.allclose(group_mul(p, q), group_mul(q, p))


def test_inverse_is_negation():
    p = np.array([0.5, -1.5, 2.0])
    np.testing.assert_array_equal(group_inv(p), -p)
    np.testing.assert_array_equal(group_mul(p, group_inv(p)), origin(1).coords)


def test_symplectic_form_values_and_antisymmetry():
    e1 = [1.0, 0.0, 0.0]
    e2 = [0.0, 1.0, 0.0]
    assert symplectic_form(e1, e2) == -2.0
    assert symplectic_form(e2, e1) == 2.0
    rng = np.random.default_rng(0)
    p = rng.normal(size=(40, 5))
    q = rng.normal(size=(40, 5))
    np.testing.assert_array_equal(symplectic_form(p, q), -symplectic_form(q, p))
    # the vertical coordinate never enters the form
    p2 = p.copy()
    p2[:, -1] += 100.0
    np.testing.assert_array_equal(symplectic_form(p, q), symplectic_form(p2, q))


def test_norm_worked_values():
    assert koranyi_norm([3.0, 0.0, 0.0]) == 3.0
    assert koranyi_norm([0.0, 0.0, 4.0]) == 2.0
    np.testing.assert_allclose(koranyi_norm([1.0, 0.0, 1.0]), 2.0 ** 0.25, rtol=1e-15)
    assert koranyi_norm(origin(2)) == 0.0


def test_norm_homogeneity_under_dilation():
    rng = np.random.default_rng(1)
    p = rng.uniform(-4, 4, size=(50, 3))
    for r in (0.3, 2.0, 17.5):
        np.testing.assert_allclose(
            koranyi_norm(dilate(r, p)), r * koranyi_norm(p), rtol=1e-14
        )


def test_dilate_scales_vertical_quadratically():
    out = dilate(3.0, [1.0, 2.0, 5.0])
    np.testing.assert_allclose(out, [3.0, 6.0, 45.0], rtol=1e-15)


def test_dilate_rejects_bad_ratio():
    for r in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            dilate(r, [1.0, 0.0, 0.0])


def test_dist_is_left_invariant():
    rng = np.random.default_rng(2)
    p, q, a = rng.uniform(-8, 8, size=(3, 3))
    np.testing.assert_allclose(
        dist(group_mul(a, p), group_mul(a, q)), dist(p, q), rtol=1e-13
    )
    assert dist(p, p) == 0.0


def test_dist_worked_example():
    # purely vertical displacement: d = sqrt(|dv|)
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([0.0, 0.0, 5.0])
    assert dist(p, q) == 2.0


def test_translate_matches_product():
    rng = np.random.default_rng(4)
    a, p = rng.uniform(-3, 3, size=(2, 5))
    np.testing.assert_array_equal(translate(a, p), group_mul(a, p))


def test_blowup_map_centers_and_scales():
    a = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(blowup_map(a, 0.5, a), origin(1).coords)
    p = np.array([0.2, -0.3, 0.7])
    np.testing.assert_array_equal(
        blowup_map(origin(1).coords, 0.25, p), dilate(4.0, p)
    )


def test_blowup_map_is_an_isometry_up_to_scale():
    rng = np.random.default_rng(5)
    a = rng.uniform(-2, 2, size=3)
    p, q = rng.uniform(-2, 2, size=(2, 3))
    r = 0.125
    np.testing.assert_allclose(
        dist(blowup_map(a, r, p), blowup_map(a, r, q)), dist(p, q) / r, rtol=1e-13
    )


def test_broadcasting_single_against_batch():
    rng = np.random.default_rng(6)
    batch = rng.uniform(-1, 1, size=(7, 3))
    single = np.array([0.5, 0.5, 0.5])
    out = group_mul(single, batch)
    assert out.shape == (7, 3)
    for i in range(7):
        np.testing.assert_array_equal(out[i], group_mul(single, batch[i]))


def test_ambient_dim_and_group_index_are_inverse():
    for n in (1, 2, 5):
        assert ambient_dim(n) == 2 * n + 1
        assert group_index(ambient_dim(n)) == n
    with pytest.raises(ValueError):
        group_index(4)
    with pytest.raises(ValueError):
        group_index(1)


def test_mixed_group_index_rejected():
    with pytest.raises(ValueError):
        group_mul([1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0])


def test_hpoint_wrapper():
    p = HPoint(1, np.array([1.0, 2.0, 3.0]))
    assert p.n == 1
    np.testing.assert_array_equal(p.horizontal, [1.0, 2.0])
    assert p.vertical == 3.0
    with pytest.raises(ValueError):
        HPoint(2, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        HPoint(1, np.array([1.0, np.nan, 3.0]))


def test_hpoint_accepted_by_operations():
    # wrapped inputs come back wrapped
    p = HPoint(1, np.array([1.0, 0.0, 0.0]))
    q = HPoint(1, np.array([0.0, 1.0, 0.0]))
    out = group_mul(p, q)
    assert isinstance(out, HPoint)
    np.testing.assert_array_equal(out.coords, [1.0, 1.0, -2.0])


def test_tolerances_validation():
    t = Tolerances()
    assert t.eq_tol == 1e-12
    for bad in (0.0, -1e-12, float("nan")):
        with pytest.raises(ValueError):
            Tolerances(eq_tol=bad)
    # the policy has a single knob; there is no iteration tolerance
    with pytest.raises(TypeError):
        Tolerances(opt_tol=1e-9)


def test_negated_form_reaches_every_caller(monkeypatch, ifs14, mu2, phi64):
    # every twist in the package goes through core.symplectic_form, so
    # mirroring the group law here must move each caller's output
    from heisriesz.diagnostics import cone_deficiency, horest_check
    from heisriesz.fractal import (Ifs, Similarity, min_piece_separation,
                                   phi_fixed_point, verify_invariant_region)
    from heisriesz.riesz import (RieszParams, growth_profile,
                                 maximal_transform, truncated_transform)
    from heisriesz.subgroups import in_cone, make_horizontal, make_vertical

    params = RieszParams(s=2.0, n=1)
    center = mu2.points[37]
    radii = np.array([0.3, 0.4, 0.5, 0.6, 0.8])
    axis = make_vertical(1, [])
    # the corner family is symmetric enough that its mirror image is an
    # isometric copy, so its separation cannot tell the two laws apart;
    # three generic maps can
    trio = Ifs(n=1, maps=tuple(
        Similarity(n=1, q=np.array(q), r=0.3)
        for q in ((0.0, 0.0, 0.0), (0.6, 0.1, 0.2), (0.2, 0.7, 0.5))))

    def outputs():
        with pytest.raises(ValueError) as isotropy:
            make_horizontal(2, [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        region = verify_invariant_region(ifs14, phi64, sample_count=5000)
        return {
            "separation": min_piece_separation(trio, 3),
            "horest": horest_check(1, 0.5, trials=5000, seed=2).min_margin,
            "transform": tuple(truncated_transform(mu2, params, None, center, 0.01).value),
            "growth": tuple(tuple(v) for _, v in growth_profile(
                mu2, params, center, [0.5, 0.25, 0.125])),
            "maximal": tuple(maximal_transform(mu2, params, None, center,
                                               [0.5, 0.25, 0.125])),
            "ball_mass": tuple(mu2.ball_mass(center, radii)),
            "cone": tuple(cone_deficiency(mu2, 2.0, center, axis, 0.5, radii)),
            "isotropy": str(isotropy.value),
            "region": (region.certified, region.min_lower_margin,
                       region.min_upper_margin),
        }

    before = outputs()
    assert before["region"][0]
    orig = core.symplectic_form
    monkeypatch.setattr(core, "symplectic_form", lambda p, q: -orig(p, q))
    after = outputs()
    for key, value in before.items():
        assert after[key] != value, key
    # the masses also agree exactly with sums built from core.dist and
    # in_cone under the mirrored law, so a private copy in the cone
    # membership or the ball test cannot hide behind the moving radii
    d = core.dist(center, mu2.points)
    outside = ~in_cone(center, mu2.points, axis, 0.5)
    masses = np.array([[mu2.weights[d <= r].sum() for r in radii],
                       [mu2.weights[outside & (d <= r)].sum() for r in radii]])
    np.testing.assert_array_equal(after["ball_mass"], masses[0])
    np.testing.assert_array_equal(after["cone"], masses[1] / radii ** 2.0)
    mirrored = phi_fixed_point(1, 0.25, 64)
    assert not np.array_equal(mirrored.values, phi64.values)
    # a consistently mirrored law keeps the corner family's separation
    # exactly; mixing a private copy of the law into one step would not
    assert min_piece_separation(ifs14, 3) == 0.30356975675054104
