"""Group operations, gauge norm, and the zoom map."""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

from heisriesz import core
from heisriesz.core import (
    ambient_dim,
    blowup_map,
    dilate,
    dist,
    group_index,
    group_inv,
    group_mul,
    koranyi_norm,
    symplectic_form,
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
    np.testing.assert_array_equal(group_mul(p, group_inv(p)), np.zeros(3))


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
    assert koranyi_norm(np.zeros(5)) == 0.0


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
        # one bad ratio anywhere in a per-point array raises too
        for i in (0, 2, 4):
            ratios = np.full(5, 0.5)
            ratios[i] = r
            with pytest.raises(ValueError, match="finite positive"):
                dilate(ratios, np.ones((5, 3)))
    # an empty batch has no ratio to check and dilates to an empty batch
    assert dilate(np.zeros(0), np.zeros((0, 3))).shape == (0, 3)


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


def test_blowup_map_centers_and_scales():
    a = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(blowup_map(a, 0.5, a), np.zeros(3))
    p = np.array([0.2, -0.3, 0.7])
    np.testing.assert_array_equal(
        blowup_map(np.zeros(3), 0.25, p), dilate(4.0, p)
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


def test_a_point_has_an_axis():
    with pytest.raises(ValueError, match="a point must have at least one axis"):
        core._coords(np.float64(1.0))


def _trio():
    """Three generic maps of ratio 0.3 in H^1."""
    from heisriesz.fractal import Ifs, Similarity
    return Ifs(n=1, maps=tuple(
        Similarity(n=1, q=np.array(q), r=0.3)
        for q in ((0.0, 0.0, 0.0), (0.6, 0.1, 0.2), (0.2, 0.7, 0.5))))


def test_negated_form_reaches_every_caller(monkeypatch, ifs14, mu2, phi64):
    # every twist in the package goes through core.symplectic_form, so
    # mirroring the group law here must move each caller's output
    from heisriesz.diagnostics import cone_deficiency, horest_check
    from heisriesz.fractal import (cylinder_measure, min_piece_separation,
                                   phi_fixed_point, verify_invariant_region)
    from heisriesz.riesz import (RieszParams, growth_profile,
                                 maximal_transform, truncated_transform,
                                 truncations)
    from heisriesz.subgroups import (dist_to_subgroup, in_cone,
                                     make_horizontal, make_vertical)

    params = RieszParams(s=2.0, n=1)
    center = mu2.points[37]
    radii = np.array([0.3, 0.4, 0.5, 0.6, 0.8])
    axis = make_vertical(1, [])
    line = make_horizontal(1, [[0.6, 0.8]])
    plane = make_horizontal(2, [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    rng = np.random.default_rng(3)
    p1, p2 = rng.uniform(-1.0, 1.0, (64, 3)), rng.uniform(-1.0, 1.0, (64, 5))
    # the corner family is symmetric enough that its mirror image is an
    # isometric copy, so its separation cannot tell the two laws apart;
    # three generic maps can
    trio = _trio()

    def outputs():
        cylinder = cylinder_measure(trio, 3)
        with pytest.raises(ValueError) as isotropy:
            make_horizontal(2, [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        region = verify_invariant_region(ifs14, phi64, sample_count=5000)
        return {
            "separation": min_piece_separation(trio, 3),
            "cylinder": np.asarray(cylinder.points).tobytes(),
            "horest": horest_check(1, 0.5, trials=5000, seed=2).min_margin,
            "transform": tuple(truncated_transform(mu2, params, None, center, 0.01).value),
            "growth": tuple(map(tuple, growth_profile(
                mu2, params, center, [0.5, 0.25, 0.125]))),
            "maximal": tuple(maximal_transform(mu2, params, None, center,
                                               [0.5, 0.25, 0.125])),
            "truncations": tuple(map(tuple, truncations(
                mu2, params, None, center, [0.5, 0.25, 0.125]))),
            "ball_mass": tuple(mu2.ball_mass(center, radii)),
            "cone": tuple(cone_deficiency(mu2, 2.0, center, axis, 0.5, radii)),
            "subgroup_line": dist_to_subgroup(p1, line).tobytes(),
            "subgroup_plane": dist_to_subgroup(p2, plane).tobytes(),
            # mu2.points[0] is the identity, whose displacements do not
            # depend on the law: only the distance to the line can move
            "cone_line": tuple(cone_deficiency(mu2, 2.0, mu2.points[0], line,
                                               0.5, radii)),
            "isotropy": str(isotropy.value),
            "region": (region.certified, region.min_lower_margin,
                       region.min_upper_margin),
        }

    before = outputs()
    assert before["region"][0]
    orig = core.symplectic_form
    monkeypatch.setattr(core, "symplectic_form",
                        lambda p, q, out=None: -orig(p, q, out=out))
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
    # the closed-form distance to the line is the minimum of core.dist
    # along it under the mirrored law too
    t = np.linspace(-3.0, 3.0, 60001)
    brute = [np.min(core.dist(x, np.outer(t, [0.6, 0.8, 0.0]))) for x in p1[:8]]
    np.testing.assert_allclose(np.frombuffer(after["subgroup_line"])[:8], brute,
                               rtol=0.0, atol=1e-7)
    mirrored = phi_fixed_point(1, 0.25, 64)
    assert not np.array_equal(mirrored.values, phi64.values)
    # a consistently mirrored law keeps the corner family's separation
    # exactly; mixing a private copy of the law into one step would not
    assert min_piece_separation(ifs14, 3) == 0.30356975675054104


def test_corrupted_dilation_reaches_every_caller(monkeypatch, ifs14, mu2,
                                                 phi64):
    # cylinder atoms, word composites, the maps, the zoom and the
    # vertical-bound check's ball draws all dilate through core.dilate,
    # so scaling its vertical factor here must move each of these outputs
    from heisriesz.diagnostics import blowup_measure, horest_check
    from heisriesz.fractal import (cylinder_measure, min_piece_separation,
                                   verify_invariant_region, word_similarity)

    trio = _trio()
    s = trio.maps[2]

    def outputs():
        region = verify_invariant_region(ifs14, phi64, sample_count=5000)
        fixed = s.fixed_point()
        return {
            "cylinder": np.asarray(cylinder_measure(trio, 3).points).tobytes(),
            "word": word_similarity(trio, (1, 2)).q.tobytes(),
            "separation": min_piece_separation(trio, 3),
            "blowup": np.asarray(blowup_measure(mu2, mu2.points[37], 0.25,
                                                s=2.0).points).tobytes(),
            "region": (region.min_lower_margin, region.min_upper_margin),
            "fixed_point": float(np.max(np.abs(s.apply(fixed) - fixed))),
            "horest": horest_check(1, 0.5, trials=5000).min_margin,
        }

    before = outputs()
    assert before["fixed_point"] < 1e-15
    orig = core.dilate

    def stretched(r, p, out=None):
        d = orig(r, p, out=out)
        d[..., -1] *= 1.25
        return d

    monkeypatch.setattr(core, "dilate", stretched)
    after = outputs()
    for key, value in before.items():
        assert after[key] != value, key


def _batch(n, seed, size):
    """Two C-order batches with zero horizontal parts mixed in, so that
    some form terms are -0.0 and the sign of a zero sum is pinned too."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(-2.0, 2.0, size=(size, 2 * n + 1))
    q = rng.uniform(-2.0, 2.0, size=(size, 2 * n + 1))
    p[::4, :-1] = 0.0
    q[1::6, n:-1] = 0.0
    return p, q


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_layout_gives_the_same_bits(n):
    # coordinates are summed left to right one view at a time, so C
    # order, F order, out= in either order and a single point agree
    # bit for bit; numpy's own last-axis sum would not past n = 3
    p, q = _batch(n, 40 + n, 3000)
    pf, qf = np.asfortranarray(p), np.asfortranarray(q)
    calls = {
        "dist": lambda p, q, out: dist(p, q),
        "norm": lambda p, q, out: koranyi_norm(p, out=out),
        "form": lambda p, q, out: symplectic_form(p, q, out=out),
    }
    for name, call in calls.items():
        ref = call(p, q, None)
        assert call(pf, qf, None).tobytes() == ref.tobytes(), name
        for order in "CF":
            out = np.empty(p.shape, order=order)
            assert np.array(call(p, q, out)).tobytes() == ref.tobytes(), name
        single = [call(p[i], q[i], None) for i in range(20)]
        assert all(type(v) is np.float64 for v in single), name
        assert np.array(single).tobytes() == ref[:20].tobytes(), name


def _strided_copy(a):
    """a in every other row of a wider buffer: strides unlike C or F order."""
    view = np.empty((2 * len(a), a.shape[1] + 2))[::2, 1:-1]
    view[...] = a
    return view


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_law_bits_do_not_depend_on_layout(n):
    # the horizontal blocks are written one coordinate column at a time,
    # so C order, F order and a strided slice give the same bits, into a
    # fresh array, into out= of any layout, and dilating in place
    p, q = _batch(n, 60 + n, 2000)
    r = np.random.default_rng(n).uniform(0.1, 3.0, len(p))
    calls = {
        "mul": lambda p, q, out: group_mul(p, q, out=out),
        "disp": lambda p, q, out: core.left_displacement(p, q, out=out),
        "dilate": lambda p, q, out: dilate(0.3, p, out=out),
        "dilate per point": lambda p, q, out: dilate(r, p, out=out),
        "blowup": lambda p, q, out: blowup_map(p[7], 0.2, q, out=out),
    }
    layouts = (np.ascontiguousarray, np.asfortranarray, _strided_copy)
    for name, call in calls.items():
        ref = call(p, q, None)
        for layout in layouts:
            for out in (None, np.empty(p.shape), np.empty(p.shape, order="F"),
                        _strided_copy(np.empty(p.shape))):
                got = np.ascontiguousarray(call(layout(p), layout(q), out))
                assert got.tobytes() == ref.tobytes(), name
    for ratio in (0.3, r):
        ref = dilate(ratio, p)
        for layout in layouts:
            a = layout(p.copy())
            assert dilate(ratio, a, out=a) is a
            assert np.ascontiguousarray(a).tobytes() == ref.tobytes()


@pytest.mark.parametrize("n, digests", [
    (1, ("5b104c6044d6f7990e421a653ff4730649b8d78d1ed74b68933afc52f0845b7c",
         "0b15372b8aa09852c0b166ccf74dc5262676d953a5f0b033e318578b5a15df24",
         "847a13d0928007c89c805b35e0da93643d0a72d1eb3b4f5e6e044538a125f649")),
    (2, ("f142f2556e8fd67017e9426a3e4f5f975c9342c22660fde216f4c80474462511",
         "1c0877b87dbe9bcafcd5e2e309c50c7a38cc303e68717490f87b7987c2d44baa",
         "8072acf8065437a3eaee07fc334cdd8039d791e836941b3769eeddef7bd68b0e")),
    (3, ("0eb7907f484c48b9d7d44052f2269109d794f31a79452c414b5361cbd1bc2daa",
         "a1583c5209f709ee9f3027d0df110896eacc02b409347d3d30c7fba86e70dbde",
         "d4f54ac551ed3617c69d08152e4931411c42f40dfb911d5a3336c100bffb6cb7")),
])
def test_batch_bits_are_pinned(n, digests):
    # dist, koranyi_norm and symplectic_form of 4096 C-order pairs; the
    # form's digests were recorded while the sums were numpy's last-axis
    # np.sum, the two gauge distances' with the root as two square roots
    p, q = _batch(n, 100 + n, 4096)
    got = tuple(hashlib.sha256(v.tobytes()).hexdigest() for v in
                (dist(p, q), koranyi_norm(p), symplectic_form(p, q)))
    assert got == digests


def test_corrupted_norm_reaches_every_caller(monkeypatch, ifs14, mu2):
    # every gauge norm in the package ends in core._gauge, so scaling it
    # here must move each caller's output
    from heisriesz.fractal import min_piece_separation
    from heisriesz.riesz import RieszParams, riesz_kernel, truncated_transform
    from heisriesz.subgroups import dist_to_subgroup, make_horizontal

    params = RieszParams(s=2.0, n=1)
    center = mu2.points[37]
    p, q = _batch(1, 7, 64)
    line = make_horizontal(1, [[0.6, 0.8]])

    def outputs():
        return {
            "dist": dist(p, q).tobytes(),
            "ball_mass": tuple(mu2.ball_mass(center, [0.3, 0.4, 0.5, 0.6])),
            "transform": tuple(truncated_transform(mu2, params, None, center, 0.01).value),
            "kernel": riesz_kernel(params, q).tobytes(),
            "subgroup_line": dist_to_subgroup(q, line).tobytes(),
            "separation": min_piece_separation(ifs14, 3),
        }

    before = outputs()
    orig = core._gauge

    def stretched(sq, v, tmp):
        g = orig(sq, v, tmp)
        g *= 1.25
        return g

    monkeypatch.setattr(core, "_gauge", stretched)
    after = outputs()
    for key, value in before.items():
        assert after[key] != value, key
    assert after["dist"] == (1.25 * np.frombuffer(before["dist"])).tobytes()


def test_core_sums_no_last_axis():
    # a reduction over axis=-1 sums contiguous coordinates pairwise from
    # 8 terms on, so its bits would depend on the memory layout again
    tree = ast.parse(Path(core.__file__).read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.keyword) and node.arg == "axis"
             and ast.unparse(node.value) in ("-1", "(-1,)")]
    assert found == []


def test_group_law_refuses_an_out_that_overlaps_its_inputs():
    rng = np.random.default_rng(3)
    p, q = rng.normal(size=(2, 6, 3))
    for law in (group_mul, core.left_displacement):
        for out in (p, q, q[::-1], p.view()):
            with pytest.raises(ValueError, match="share memory"):
                law(p, q, out=out)
        np.testing.assert_array_equal(law(p, q, out=np.empty((6, 3))), law(p, q))
    # dilating in place stays allowed
    want = dilate(0.5, q)
    assert dilate(0.5, q, out=q) is q
    assert q.tobytes() == want.tobytes()
