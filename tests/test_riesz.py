"""Kernel values and the truncated singular-integral machinery."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from heisriesz import fractal, measure
from heisriesz.core import (dilate, dist, group_inv, group_mul, koranyi_norm,
                            left_displacement)
from heisriesz.measure import DiscreteMeasure, binned_sweep, chunk_slices
from heisriesz.riesz import (
    RieszParams,
    _kernel_columns,
    growth_profile,
    maximal_transform,
    riesz_kernel,
    truncated_transform,
    truncations,
)
from heisriesz.selftest import TRUNCATION_TOL

from test_measure import _counting


def _used(mu, params, f, p, eps):
    """Atoms with d(p, q) > eps, counted by the sweep the truncation makes."""
    sums = binned_sweep(mu, p, [eps, np.inf],
                        _counting(_kernel_columns(params, mu, f)))
    return int(sums[-1, 0])


def _coordinate(i):
    """Density picking coordinate i of the atom position."""

    def f(pts):
        return pts[..., i]

    return f


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
    with pytest.raises(ValueError, match="group index must be >= 1, got 0"):
        RieszParams(s=1.0, n=0)
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
    assert _used(mu, params, None, p, eps) == used


def test_truncated_transform_with_density():
    mu = _random_measure(32, count=16)
    params = RieszParams(s=2.0, n=1)
    p = np.array([0.0, 0.0, 0.0])
    res = truncated_transform(mu, params, _coordinate(2), p, 0.5)
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
    assert _used(mu, params, None, mu.points[3], 1e-9) <= len(mu) - 1


def test_atoms_at_the_cutoff_are_excluded():
    # gauge distances 1 (four ties) and 2 from the origin, all exact
    pts = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0],
                    [0.0, 0.0, -1.0], [2.0, 0.0, 0.0]])
    mu = DiscreteMeasure(1, pts, np.full(5, 0.5))
    params = RieszParams(s=2.0, n=1)
    origin = np.zeros(3)
    np.testing.assert_array_equal(dist(origin, pts), [1.0, 1.0, 1.0, 1.0, 2.0])
    res = truncated_transform(mu, params, None, origin, 1.0)
    assert _used(mu, params, None, origin, 1.0) == 1
    np.testing.assert_array_equal(res.value, 0.5 * riesz_kernel(params, pts[4]))
    assert _used(mu, params, None, origin, 0.5) == 5
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
        assert _used(mu, params, None, p, eps) == int((d > eps).sum())
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


@pytest.mark.parametrize("call, eps", [
    (lambda mu, params, p, eps: truncated_transform(mu, params, None, p, eps[0]),
     [np.nan]),
    (lambda mu, params, p, eps: truncations(mu, params, None, p, eps), [np.nan]),
    (lambda mu, params, p, eps: maximal_transform(mu, params, None, p, eps),
     [np.nan, 0.25]),
    (lambda mu, params, p, eps: growth_profile(mu, params, p, eps), [0.5, np.nan]),
], ids=["truncated", "truncations", "maximal", "growth"])
def test_nan_cutoffs_are_rejected(call, eps):
    # a NaN fails every comparison, so it must be caught as not-in-range
    mu = _random_measure(40, count=8)
    with pytest.raises(ValueError):
        call(mu, RieszParams(s=2.0, n=1), mu.points[0], eps)


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
        sums = binned_sweep(mu5, p, edges, _kernel_columns(params, mu5, None))
        np.testing.assert_array_equal(
            maximal_transform(mu5, params, None, p, eps),
            np.abs(np.cumsum(sums[:, ::-1], axis=1)).max(axis=1))
    with pytest.raises(ValueError):
        truncations(mu5, params, None, centers[0], [0.0625, 0.25])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("s", [1.0, 2.0, 3.0, 4.0 / 3.0])
def test_truncations_match_exact_reference_sums(s, n):
    # s = 1, 2, 3 form d^(s+1) by products and s = 4/3 (the r = 1/8
    # family) by np.power; either way each swept truncation stays within
    # the derived bound of the math.fsum of riesz_kernel terms.  Fails
    # when the vertical column drops its / d or d^s replaces d^(s+1)
    params = RieszParams(s=s, n=n)
    rng = np.random.default_rng(60 + n)
    for _ in range(8):
        mu = _random_measure(rng.integers(2 ** 32), count=256, n=n)
        p = rng.uniform(-2, 2, size=2 * n + 1)
        u = left_displacement(p, mu.points)
        d = koranyi_norm(u)
        eps = np.quantile(d, [0.75, 0.5, 0.25])
        table = truncations(mu, params, None, p, eps)
        for j, e in enumerate(eps):
            terms = mu.weights[d > e, None] * riesz_kernel(params, u[d > e])
            exact = np.array([math.fsum(col) for col in terms.T])
            scale = np.array([math.fsum(col) for col in np.abs(terms).T])
            assert np.all(np.abs(table[:, j] - exact) <= TRUNCATION_TOL * scale)


def test_growth_profile_matches_annuli():
    mu = _random_measure(37, count=200)
    params = RieszParams(s=2.0, n=1)
    p = mu.points[11]
    eps = [0.5, 0.25, 0.125, 0.0625]
    prof = growth_profile(mu, params, p, eps)
    # the layout of truncations: one column per cutoff
    assert prof.shape == (3, 4)
    outer = truncated_transform(mu, params, None, p, 1.0).value
    for j, e in enumerate(eps):
        ann = truncated_transform(mu, params, None, p, e).value - outer
        np.testing.assert_allclose(prof[:, j], ann, rtol=1e-12, atol=1e-13)
    with pytest.raises(ValueError):
        growth_profile(mu, params, p, [0.5, 0.6])
    with pytest.raises(ValueError):
        growth_profile(mu, params, p, [1.5, 0.5])


@pytest.mark.parametrize("call", ["truncated", "growth"])
def test_sweep_memory_is_bounded_by_the_chunk(call, mu5, monkeypatch,
                                              helper_pools):
    # the level-5 coordinates alone are 25 MB; one full term array or
    # distance sort would need several times that.  With 64 CPUs and
    # every sweep spread over threads, their workspaces stay within it too.
    params = RieszParams(s=2.0, n=1)
    p = mu5.points[12345]
    for cpus in (None, 64):
        if cpus is not None:
            monkeypatch.setattr(measure, "_cpu_count", lambda: cpus)
            monkeypatch.setattr(measure, "PARALLEL_CHUNKS", 1)
        tracemalloc.start()
        try:
            if call == "truncated":
                truncated_transform(mu5, params, None, p, 0.0625)
            else:
                growth_profile(mu5, params, p, [0.25, 0.0625, 0.015625])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6, cpus
        # the calling thread alone, or with three helpers: four workers'
        # half-chunk rows fill the budget
        assert helper_pools == ([] if cpus is None else [3])


def _workspaces(monkeypatch):
    """With 64 CPUs, the workspace bytes of each worker that a sweep
    starts, in order."""
    monkeypatch.setattr(measure, "_cpu_count", lambda: 64)
    workers = []
    map_pieces = measure._map_pieces

    def counting(worker, pieces, chunks, workspace, key=None):
        def counted():
            workers.append(workspace)
            return worker()
        return map_pieces(counted, pieces, chunks, workspace, key)

    monkeypatch.setattr(measure, "_map_pieces", counting)
    return workers


def _traced(call):
    """call()'s value and its tracemalloc peak."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_level_6_sweeps_run_three_workers_within_the_budget(monkeypatch):
    # a worker of a single-centre sweep holds its parent rows beside its
    # half-chunk rows, and a batch worker its built piece (the parent
    # rows in its displacement rows): 0.79 + 1.90 MB, three in
    # SWEEP_BYTES
    ifs = fractal.make_strichartz_ifs(1, 0.25)
    mu = fractal.cylinder_measure(ifs, 6)
    assert mu.points.source.builds
    mu.chunk_reach()
    points = mu.points[fractal.cycle_atom_indices(16, 6, 2)]
    params = RieszParams(s=2.0, n=1)
    workers = _workspaces(monkeypatch)
    for call in (lambda: truncated_transform(mu, params, None, points[0], 0.0625),
                 lambda: growth_profile(mu, params, points, [0.25, 0.0625, 0.015625])):
        workers.clear()
        _, peak = _traced(call)
        assert workers == [32768 * (24 + 58)] * 3
        assert peak < measure.SWEEP_BYTES + 1e6


def test_n2_sweeps_over_a_nested_table_run_two_workers(monkeypatch):
    # level 3 has more than a chunk of atoms, so level 4 is a table of
    # tables.  A worker holds half a chunk of parent rows or of built
    # rows, 1.31 MB, and 2.95 MB of its own half-chunk rows, so two fit in
    # SWEEP_BYTES, and the sweeps keep the bits of one worker
    mu = fractal.cylinder_measure(fractal.make_strichartz_ifs(2, 0.25), 4)
    assert mu.points.source.builds
    mu.chunk_reach()
    points = mu.points[[5, 1_000_003, 9_000_001]]
    params = RieszParams(s=4.0, n=2)
    # 16, 256 and 85 chunks kept
    monkeypatch.setattr(measure, "PARALLEL_CHUNKS", 1)
    calls = [lambda: mu.ball_mass(points[1], [0.1, 0.3]),
             lambda: truncations(mu, params, None, points[0], [0.3, 0.1]),
             lambda: mu.ball_mass(points, [0.1, 0.3])]
    with measure._worker_cap(1):
        want = [call() for call in calls]
    workers = _workspaces(monkeypatch)
    for call, one in zip(calls, want):
        workers.clear()
        got, peak = _traced(call)
        assert workers == [32768 * (40 + 90)] * 2
        assert peak < measure.SWEEP_BYTES + 1e6
        assert got.tobytes() == one.tobytes()


def test_vertical_axis_sample_nearly_cancels():
    # a symmetric vertical-axis sample leaves only numerical dust in the
    # dimension-matched annulus transform at interior support points
    from heisriesz.subgroups import haar_sample, make_vertical

    t = make_vertical(1, [])
    mu = haar_sample(t, window_radius=2.0, resolution=4096)
    params = RieszParams(s=2.0, n=1)
    p = mu.points[len(mu) // 2]
    ann = (truncated_transform(mu, params, None, p, 0.125).value
           - truncated_transform(mu, params, None, p, 1.0).value)
    assert float(np.max(np.abs(ann))) < 1e-6


# Error bound of a sweep's per-bin sums.  In a chunk, a bin's sum is
# numpy's pairwise np.add.reduce of a row of at most CHUNK = 2^16 terms
# (zeros where an atom lies in another bin, which add no error).  In that
# sum every term passes through at most 35 additions: 1 because the
# reduction starts from the first entry, 10 for the halvings down to
# blocks of at most 128 terms, and 24 inside a block of k terms, which
# has eight running sums of k // 8 terms, a three-level tree over them
# and then k % 8 leftover terms added one by one, so
# (k // 8 - 1) + 3 + k % 8 <= 14 + 3 + 7.  The chunk sums are then added
# in chunk order, at most one more addition per chunk.  A sum in which every term
# passes through at most h additions errs by at most
# gamma_h * sum |x|, gamma_h = h u / (1 - h u), u = 2^-53 (Higham,
# "The accuracy of floating point summation", SIAM J. Sci. Comput. 14,
# 1993), and math.fsum is correctly rounded, so it is within u sum |x|
# of the exact sum.
_PAIRWISE_DEPTH = 35


@pytest.mark.parametrize("center, f, edges", [
    (0, None, [0.00390625, 0.015625, 0.0625, 0.25, 1.0]),
    (-1, None, [0.00390625, 0.015625, 0.0625, 0.25, 1.0]),
    (54321, _coordinate(2), [0.015625, 0.0625, 0.25, np.inf]),
])
def test_sweep_sums_stay_within_the_pairwise_bound(mu5, center, f, edges):
    params = RieszParams(s=2.0, n=1)
    p = mu5.points[center]
    columns = _kernel_columns(params, mu5, f)
    sums = binned_sweep(mu5, p, edges, _counting(columns))
    slices = list(chunk_slices(len(mu5)))
    # the same per-atom terms, chunk by chunk, gathered per bin
    terms = [[] for _ in range(len(edges) - 1)]
    for sl in slices:
        u = left_displacement(p, mu5.points[sl])
        d = koranyi_norm(u)
        cols = np.array(columns(sl, u, d, np.empty((3, len(d)))))
        for b in range(len(edges) - 1):
            terms[b].append(cols[:, (edges[b] < d) & (d <= edges[b + 1])])
    u = 2.0 ** -53
    h = _PAIRWISE_DEPTH + len(slices)
    for b, parts in enumerate(terms):
        x = np.concatenate(parts, axis=1)
        assert sums[3, b] == x.shape[1]
        for j in range(3):
            exact = math.fsum(x[j])
            bound = (h * u / (1.0 - h * u) + u) * math.fsum(np.abs(x[j]))
            assert abs(sums[j, b] - exact) <= bound, (b, j)


def test_transform_centred_on_an_atom_is_finite_without_warnings(mu5):
    # the centre atom's own terms are 0/0; they stay in the bin below
    # every window, which the sweep never sums
    params = RieszParams(s=2.0, n=1)
    eps = [0.25, 0.0625, 0.015625]
    for p in (mu5.points[0], mu5.points[12345]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [
                truncated_transform(mu5, params, None, p, 1e-9).value,
                truncated_transform(mu5, params, _coordinate(0), p,
                                    0.0625).value,
                truncations(mu5, params, None, p, eps),
                maximal_transform(mu5, params, None, p, eps),
                growth_profile(mu5, params, p, eps),
            ]
        assert all(np.all(np.isfinite(v)) for v in values)
        assert _used(mu5, params, None, p, 1e-9) == len(mu5) - 1
