"""Kernel values and the truncated singular-integral machinery."""

import tracemalloc

import numpy as np
import pytest

from heisriesz.core import dilate, dist, group_inv, group_mul
from heisriesz.measure import DiscreteMeasure, binned_sweep
from heisriesz.riesz import (
    RieszParams,
    _kernel_columns,
    annulus_transform,
    coordinate_function,
    growth_profile,
    maximal_transform,
    riesz_kernel,
    truncated_transform,
    truncations,
)


def _random_measure(seed, count=64, n=1):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2, 2, size=(count, 2 * n + 1))
    w = rng.uniform(0.1, 1.0, size=count)
    return DiscreteMeasure(n, pts, w)


def test_params_validation():
    RieszParams(s=4.0, n=1)
    with pytest.raises(ValueError):
        RieszParams(s=0.0, n=1)
    with pytest.raises(ValueError):
        RieszParams(s=4.5, n=1)
    RieszParams(s=6.0, n=2)


def test_kernel_worked_values():
    params = RieszParams(s=2.0, n=1)
    np.testing.assert_array_equal(riesz_kernel(params, [1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(riesz_kernel(params, [0.0, 0.0, 1.0]), [0.0, 0.0, 1.0])
    # at (1,0,1) the gauge norm is 2^(1/4)
    out = riesz_kernel(params, [1.0, 0.0, 1.0])
    np.testing.assert_allclose(out, [2.0 ** -0.75, 0.0, 0.5], rtol=1e-14)


def test_kernel_rejects_identity():
    params = RieszParams(s=2.0, n=1)
    with pytest.raises(ValueError):
        riesz_kernel(params, [0.0, 0.0, 0.0])


def test_kernel_is_odd():
    params = RieszParams(s=1.5, n=1)
    rng = np.random.default_rng(21)
    p = rng.uniform(-3, 3, size=(80, 3))
    np.testing.assert_array_equal(
        riesz_kernel(params, group_inv(p)), -riesz_kernel(params, p)
    )


def test_kernel_homogeneity_uniform_across_components():
    # every component, the vertical one included, scales by r^(-s)
    params = RieszParams(s=2.0, n=1)
    rng = np.random.default_rng(22)
    p = rng.uniform(-3, 3, size=(40, 3))
    for r in (0.2, 5.0):
        np.testing.assert_allclose(
            riesz_kernel(params, dilate(r, p)),
            riesz_kernel(params, p) / r ** params.s,
            rtol=1e-12,
        )


def test_truncated_transform_matches_hand_loop():
    mu = _random_measure(31, count=20)
    params = RieszParams(s=2.0, n=1)
    p = np.array([0.1, -0.2, 0.05])
    eps = 0.8
    expected = np.zeros(3)
    used = 0
    for q, w in zip(mu.points, mu.weights):
        u = group_mul(group_inv(p), q)
        d = (np.sum(u[:2] ** 2) ** 2 + u[2] ** 2) ** 0.25
        if d > eps:
            expected += w * riesz_kernel(params, u)
            used += 1
    res = truncated_transform(mu, params, None, p, eps)
    np.testing.assert_allclose(res.value, expected, rtol=1e-12, atol=1e-14)
    assert res.atom_count_used == used
    assert res.epsilon == eps


def test_truncated_transform_with_density():
    mu = _random_measure(32, count=16)
    params = RieszParams(s=2.0, n=1)
    p = np.array([0.0, 0.0, 0.0])
    f = coordinate_function(2)
    res = truncated_transform(mu, params, f, p, 0.5)
    reweighted = DiscreteMeasure(1, mu.points, mu.weights * np.abs(mu.points[:, 2]))
    # signs differ where the coordinate is negative, so compare by a loop
    expected = np.zeros(3)
    for q, w in zip(mu.points, mu.weights):
        u = group_mul(group_inv(p), q)
        d = (np.sum(u[:2] ** 2) ** 2 + u[2] ** 2) ** 0.25
        if d > 0.5:
            expected += w * q[2] * riesz_kernel(params, u)
    np.testing.assert_allclose(res.value, expected, rtol=1e-12, atol=1e-14)
    assert reweighted.total_mass > 0.0


def test_center_atom_never_contributes():
    mu = _random_measure(33, count=10)
    params = RieszParams(s=2.0, n=1)
    res = truncated_transform(mu, params, None, mu.points[3], 1e-9)
    assert np.all(np.isfinite(res.value))
    assert res.atom_count_used <= len(mu) - 1


def test_atoms_at_the_cutoff_are_excluded():
    # gauge distances 1 (four ties) and 2 from the origin, all exact
    pts = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0],
                    [0.0, 0.0, -1.0], [2.0, 0.0, 0.0]])
    mu = DiscreteMeasure(1, pts, np.full(5, 0.5))
    params = RieszParams(s=2.0, n=1)
    origin = np.zeros(3)
    np.testing.assert_array_equal(dist(origin, pts), [1.0, 1.0, 1.0, 1.0, 2.0])
    res = truncated_transform(mu, params, None, origin, 1.0)
    assert res.atom_count_used == 1
    np.testing.assert_array_equal(res.value, 0.5 * riesz_kernel(params, pts[4]))
    assert truncated_transform(mu, params, None, origin, 0.5).atom_count_used == 5
    # the closed ball keeps the ties
    assert mu.ball_mass(origin, 1.0) == 2.0


def test_atom_count_matches_brute_force_across_chunks():
    # three chunks of the sweep; counts and values against direct sums
    mu = _random_measure(38, count=150_000)
    params = RieszParams(s=2.0, n=1)
    p = np.array([0.2, -0.1, 0.3])
    d = dist(p, mu.points)
    terms = mu.weights[:, None] * riesz_kernel(params, group_mul(group_inv(p), mu.points))
    for eps in (0.05, 0.5, 1.0, 2.5):
        res = truncated_transform(mu, params, None, p, eps)
        assert res.atom_count_used == int((d > eps).sum())
        keep = terms[d > eps]
        np.testing.assert_allclose(res.value, keep.sum(axis=0), rtol=0.0,
                                   atol=1e-12 * np.abs(keep).sum())


def test_kernel_and_measure_group_index_must_match():
    mu = _random_measure(39, count=8)
    with pytest.raises(ValueError):
        truncated_transform(mu, RieszParams(s=2.0, n=2), None, mu.points[0], 0.5)


def test_truncation_radius_must_be_positive():
    mu = _random_measure(34, count=8)
    params = RieszParams(s=2.0, n=1)
    with pytest.raises(ValueError):
        truncated_transform(mu, params, None, mu.points[0], 0.0)


def test_annulus_is_bitwise_difference_of_truncations():
    mu = _random_measure(35, count=128)
    params = RieszParams(s=2.5, n=1)
    p = np.array([0.3, 0.3, 0.1])
    lo, hi = 0.4, 1.7
    t_lo = truncated_transform(mu, params, None, p, lo).value
    t_hi = truncated_transform(mu, params, None, p, hi).value
    ann = annulus_transform(mu, params, p, lo, hi)
    np.testing.assert_array_equal(ann, t_lo - t_hi)
    with pytest.raises(ValueError):
        annulus_transform(mu, params, p, hi, lo)


def test_maximal_dominates_each_truncation():
    mu = _random_measure(36, count=96)
    params = RieszParams(s=2.0, n=1)
    p = np.array([0.0, 0.1, 0.0])
    grid = [1.6, 0.8, 0.4, 0.2]
    best = maximal_transform(mu, params, None, p, grid)
    for eps in grid:
        single = np.abs(truncated_transform(mu, params, None, p, eps).value)
        assert np.all(best + 1e-15 >= single)
    with pytest.raises(ValueError):
        maximal_transform(mu, params, None, p, [0.2, 0.8])


def test_truncations_match_single_cutoffs(mu5):
    params = RieszParams(s=2.0, n=1)
    eps = [0.25, 0.0625, 0.015625]
    centers = mu5.points[np.linspace(0, len(mu5) - 1, 16).astype(int)]
    for p in centers:
        table = truncations(mu5, params, None, p, eps)
        assert table.shape == (3, len(eps))
        for j, e in enumerate(eps):
            single = truncated_transform(mu5, params, None, p, e).value
            assert np.all(np.abs(table[:, j] - single)
                          <= 1e-13 * (1.0 + np.abs(single)))
        # the maximal transform as it was written before truncations
        # existed: one sweep, suffix sums, componentwise sup
        edges = np.concatenate([np.array(eps)[::-1], [np.inf]])
        sums, _ = binned_sweep(mu5, p, edges, _kernel_columns(params, mu5, None))
        np.testing.assert_array_equal(
            maximal_transform(mu5, params, None, p, eps),
            np.abs(np.cumsum(sums[:, ::-1], axis=1)).max(axis=1))
    with pytest.raises(ValueError):
        truncations(mu5, params, None, centers[0], [0.0625, 0.25])


def test_growth_profile_matches_annuli():
    mu = _random_measure(37, count=200)
    params = RieszParams(s=2.0, n=1)
    p = mu.points[11]
    eps = [0.5, 0.25, 0.125, 0.0625]
    prof = growth_profile(mu, params, p, eps)
    # the layout of truncations: one column per cutoff
    assert prof.shape == (3, 4)
    for j, e in enumerate(eps):
        ann = annulus_transform(mu, params, p, e, 1.0)
        np.testing.assert_allclose(prof[:, j], ann, rtol=1e-12, atol=1e-13)
    with pytest.raises(ValueError):
        growth_profile(mu, params, p, [0.5, 0.6])
    with pytest.raises(ValueError):
        growth_profile(mu, params, p, [1.5, 0.5])


@pytest.mark.parametrize("call", ["truncated", "growth"])
def test_sweep_memory_is_bounded_by_the_chunk(call, mu5):
    # the level-5 coordinates alone are 25 MB; one full term array or
    # distance sort would need several times that
    params = RieszParams(s=2.0, n=1)
    p = mu5.points[12345]
    tracemalloc.start()
    try:
        if call == "truncated":
            truncated_transform(mu5, params, None, p, 0.0625)
        else:
            growth_profile(mu5, params, p, [0.25, 0.0625, 0.015625])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_vertical_axis_sample_nearly_cancels():
    # a symmetric vertical-axis sample leaves only numerical dust in the
    # dimension-matched annulus transform at interior support points
    from heisriesz.subgroups import haar_sample, make_vertical

    t = make_vertical(1, [])
    mu = haar_sample(t, window_radius=2.0, resolution=4096)
    params = RieszParams(s=2.0, n=1)
    p = mu.points[len(mu) // 2]
    ann = annulus_transform(mu, params, p, 0.125, 1.0)
    assert float(np.max(np.abs(ann))) < 1e-6
