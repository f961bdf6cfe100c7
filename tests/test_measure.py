"""Discrete measures: construction, ball masses, serialisation."""

import io
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from heisriesz import core, measure
from heisriesz.core import dist
from heisriesz.diagnostics import cone_deficiency
from heisriesz.measure import CHUNK, DiscreteMeasure, chunk_slices
from heisriesz.riesz import (RieszParams, coordinate_function, growth_profile,
                             maximal_transform, truncated_transform)
from heisriesz.subgroups import make_vertical


def _square_measure():
    pts = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0, 1.0, 0.5],
        ]
    )
    return DiscreteMeasure(1, pts, np.array([0.1, 0.2, 0.3, 0.4]), label="square")


def test_total_mass_and_len():
    mu = _square_measure()
    assert len(mu) == 4
    np.testing.assert_allclose(mu.total_mass, 1.0, rtol=1e-15)


def test_validation_errors():
    pts = np.zeros((3, 3))
    w = np.ones(3)
    with pytest.raises(ValueError):
        DiscreteMeasure(0, pts, w)
    with pytest.raises(ValueError):
        DiscreteMeasure(2, pts, w)
    with pytest.raises(ValueError):
        DiscreteMeasure(1, pts, np.ones(2))
    with pytest.raises(ValueError):
        DiscreteMeasure(1, pts, np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        DiscreteMeasure(1, pts, np.array([1.0, -1.0, 1.0]))
    bad = pts.copy()
    bad[1, 1] = np.inf
    with pytest.raises(ValueError):
        DiscreteMeasure(1, bad, w)
    with pytest.raises(ValueError):
        DiscreteMeasure(1, pts, w, spacing=0.0)


@pytest.mark.parametrize("row", [CHUNK + 17, 2 * CHUNK + 5])
def test_validation_reaches_every_chunk(row):
    # validation runs one chunk at a time: a bad entry in a middle chunk
    # and in the last, partial chunk is still found
    pts = np.zeros((2 * CHUNK + 10, 3))
    w = np.ones(len(pts))
    bad = pts.copy()
    bad[row, 2] = np.nan
    with pytest.raises(ValueError, match="coordinates must be finite"):
        DiscreteMeasure(1, bad, w)
    zero = w.copy()
    zero[row] = 0.0
    with pytest.raises(ValueError, match="finite and strictly positive"):
        DiscreteMeasure(1, pts, zero)


def test_ball_mass_closed_ball_and_vector_radii():
    mu = _square_measure()
    center = np.array([0.0, 0.0, 0.0])
    # exactly at radius 1 the two unit neighbours are included
    assert mu.ball_mass(center, 1.0) == pytest.approx(0.1 + 0.2 + 0.3)
    assert mu.ball_mass(center, 0.5) == pytest.approx(0.1)
    out = mu.ball_mass(center, [0.5, 1.0, 10.0])
    np.testing.assert_allclose(out, [0.1, 0.6, 1.0], rtol=1e-15)
    with pytest.raises(ValueError):
        mu.ball_mass(center, -1.0)


def test_ball_mass_against_direct_loop():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2, 2, size=(200, 3))
    w = rng.uniform(0.1, 1.0, size=200)
    mu = DiscreteMeasure(1, pts, w)
    center = pts[17]
    for r in (0.3, 1.1):
        expected = sum(
            wi for pi, wi in zip(pts, w) if dist(center, pi) <= r
        )
        assert mu.ball_mass(center, r) == pytest.approx(expected, rel=1e-12)


def test_diameter_bound_dominates_true_diameter():
    mu = _square_measure()
    true_diam = max(
        dist(p, q) for p in mu.points for q in mu.points
    )
    assert mu.diameter_bound() >= true_diam - 1e-15


def test_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-5, 5, size=(50, 5))
    w = rng.uniform(0.01, 2.0, size=50)
    mu = DiscreteMeasure(2, pts, w, label="rt", spacing=0.125)
    path = tmp_path / "mu.csv"
    mu.to_csv(path)
    back = DiscreteMeasure.from_csv(path, label="rt", spacing=0.125)
    assert back.n == 2
    np.testing.assert_array_equal(back.points, pts)
    np.testing.assert_array_equal(back.weights, w)


def test_csv_chunked_write_matches_one_savetxt(tmp_path):
    # two chunks of rows; the bytes must equal a single full-array savetxt
    rng = np.random.default_rng(12)
    pts = rng.uniform(-5, 5, size=(70_000, 3))
    w = rng.uniform(0.01, 2.0, size=70_000)
    path = tmp_path / "mu.csv"
    DiscreteMeasure(1, pts, w).to_csv(path)
    ref = io.StringIO()
    np.savetxt(ref, np.column_stack([pts, w]), delimiter=",",
               header="x1,x2,x3,weight", comments="", fmt="%.17g")
    assert path.read_bytes() == ref.getvalue().encode()


def test_csv_write_memory_is_bounded_by_the_chunk(tmp_path, mu5, monkeypatch):
    # row formatting is swapped for a recorder, since tracemalloc slows
    # it tens of times over; the bytes are pinned by the test above
    rows = []
    monkeypatch.setattr(np, "savetxt", lambda fh, data, **kw: rows.append(len(data)))
    tracemalloc.start()
    try:
        mu5.to_csv(tmp_path / "mu5.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(rows) == len(mu5)
    # the full (N, 4) row array alone would be 33.5 MB
    assert peak < 10e6


def test_csv_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        DiscreteMeasure.from_csv(path)


def test_chunk_slices_cover_range():
    pieces = list(chunk_slices(10, 3))
    assert pieces[0] == slice(0, 3)
    covered = []
    for sl in pieces:
        covered.extend(range(sl.start, sl.stop))
    assert covered == list(range(10))
    assert list(chunk_slices(0)) == [slice(0, 0)]


# ----------------------------------------------------------------------
# far-chunk pruning in the sweep
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def mu_h2():
    """Three full chunks and a partial one on H^2, each a tight cluster."""
    rng = np.random.default_rng(5)
    sizes = (CHUNK, CHUNK, CHUNK, 1000)
    pts = np.concatenate([rng.uniform(-0.05, 0.05, size=(m, 5)) + [2.0 * k, 0, 0, 0, 0]
                          for k, m in enumerate(sizes)])
    return DiscreteMeasure(2, pts, rng.uniform(0.5, 1.0, size=len(pts)))


@pytest.fixture
def displaced(monkeypatch):
    """Rows that reach core.left_displacement, one entry per call."""
    rows = []
    orig = core.left_displacement

    def counting(p, q, out=None):
        rows.append(len(q))
        return orig(p, q, out=out)

    monkeypatch.setattr(core, "left_displacement", counting)
    return rows


def _unpruned(monkeypatch, mu):
    # an infinite reach puts every chunk inside the window
    reach = mu.chunk_reach()
    monkeypatch.setattr(mu, "_reach", (mu.points, np.full(reach.shape, np.inf)))


def _sweep_call(mu, kind, center, arg):
    params = RieszParams(s=2.0, n=mu.n)
    f = coordinate_function(0)
    if kind == "ball":
        return mu.ball_mass(center, arg)
    if kind == "cone":
        return cone_deficiency(mu, 2.0, center, make_vertical(mu.n, []), 0.5, arg)
    if kind == "truncated":
        res = truncated_transform(mu, params, f, center, arg)
        return np.append(res.value, res.atom_count_used)
    if kind == "maximal":
        return maximal_transform(mu, params, f, center, arg)
    return growth_profile(mu, params, center, arg)


_LADDER = [0.25, 0.0625, 0.015625]
_CORNER, _TOP, _FAR1 = 0, -1, [5.0, 5.0, 5.0]
_FAR2 = [50.0, 0.0, 0.0, 0.0, 0.0]

# (measure, centre atom index or point, call, window, chunks skipped)
_PRUNE_CASES = [
    ("mu5", _CORNER, "ball", [0.25, 0.0625], "some"),
    ("mu5", _CORNER, "ball", [2.0], "none"),
    ("mu5", _FAR1, "ball", [0.25], "all"),
    ("mu5", _CORNER, "cone", [0.0625, 0.25], "some"),
    ("mu5", _CORNER, "cone", [0.25, 2.0], "none"),
    ("mu5", _FAR1, "cone", [0.25], "all"),
    ("mu5", _CORNER, "truncated", 0.5, "some"),
    ("mu5", _CORNER, "truncated", 0.0625, "none"),
    ("mu5", _CORNER, "truncated", 10.0, "all"),
    ("mu5", _CORNER, "maximal", [2.0, 1.0], "some"),
    ("mu5", _CORNER, "maximal", [0.25, 0.0625], "none"),
    ("mu5", _CORNER, "maximal", [20.0, 10.0], "all"),
    ("mu5", _TOP, "growth", _LADDER, "some"),
    ("mu5", _CORNER, "growth", _LADDER, "none"),
    ("mu5", _FAR1, "growth", _LADDER, "all"),
    ("mu_h2", 0, "ball", [0.5], "some"),
    ("mu_h2", 0, "ball", [100.0], "none"),
    ("mu_h2", _FAR2, "ball", [1.0], "all"),
    ("mu_h2", 0, "cone", [0.5, 0.25], "some"),
    ("mu_h2", 0, "cone", [100.0], "none"),
    ("mu_h2", _FAR2, "cone", [1.0], "all"),
    ("mu_h2", 0, "truncated", 1.0, "some"),
    ("mu_h2", 0, "truncated", 0.01, "none"),
    ("mu_h2", 0, "truncated", 100.0, "all"),
    ("mu_h2", 0, "maximal", [1.0, 0.5], "some"),
    ("mu_h2", 0, "maximal", [0.1, 0.01], "none"),
    ("mu_h2", 0, "maximal", [200.0, 100.0], "all"),
    ("mu_h2", 0, "growth", [0.5, 0.25], "some"),
    ("mu_h2", _FAR2, "growth", [0.5, 0.25], "all"),
]


@pytest.mark.parametrize("name, center, kind, arg, skipped", _PRUNE_CASES)
def test_pruned_sweep_is_bitwise_the_full_sweep(request, monkeypatch, displaced,
                                                name, center, kind, arg, skipped):
    mu = request.getfixturevalue(name)
    c = mu.points[center] if isinstance(center, int) else np.array(center)
    pruned = _sweep_call(mu, kind, c, arg)
    rows = sum(displaced)
    assert {"none": rows == len(mu), "some": 0 < rows < len(mu),
            "all": rows == 0}[skipped], rows
    if skipped == "all":
        # zero sums, and no atom used by a truncation
        assert np.all(pruned == 0.0)
    _unpruned(monkeypatch, mu)
    displaced.clear()
    full = _sweep_call(mu, kind, c, arg)
    assert sum(displaced) == len(mu)
    np.testing.assert_array_equal(pruned, full)


@pytest.fixture
def masked_chunks(monkeypatch, displaced):
    """Chunks, numbered from 1 in sweep order, that sum their bins through
    measure._bin_sums rather than as one bin."""
    chunks = set()
    orig = measure._bin_sums

    def recording(*args):
        chunks.add(len(displaced))
        return orig(*args)

    monkeypatch.setattr(measure, "_bin_sums", recording)
    return chunks


def test_pruned_sweeps_take_both_reduction_paths(request, monkeypatch, displaced,
                                                 masked_chunks):
    # the pruned-vs-full comparison above checks the one-bin path against
    # the masked one only if the pruned sweeps take both paths; without
    # pruning, every chunk takes the masked path
    one_bin = masked = 0
    for name, center, kind, arg, skipped in _PRUNE_CASES:
        mu = request.getfixturevalue(name)
        c = mu.points[center] if isinstance(center, int) else np.array(center)
        displaced.clear()
        masked_chunks.clear()
        _sweep_call(mu, kind, c, arg)
        one_bin += len(displaced) - len(masked_chunks)
        masked += len(masked_chunks)
    assert one_bin > 0 and masked > 0, (one_bin, masked)
    mu = request.getfixturevalue("mu_h2")
    _unpruned(monkeypatch, mu)
    displaced.clear()
    masked_chunks.clear()
    _sweep_call(mu, "growth", mu.points[0], [0.5, 0.25])
    assert masked_chunks == set(range(1, len(displaced) + 1)) != set()


@pytest.mark.parametrize("name, center", [("mu5", -1), ("mu_h2", -1)])
def test_pruning_keeps_atoms_exactly_on_an_edge(request, monkeypatch, name, center):
    # edges at each chunk's nearest and farthest atom are where the
    # triangle-inequality test is tightest: the ball of the nearest
    # atom's radius holds it, the truncation at the farthest drops the
    # whole chunk.  From the last atom of mu5 its own chunk attains the
    # bound: d(c, a_k) = reach_k, and the nearest atom is c itself.
    mu = request.getfixturevalue(name)
    c = mu.points[center]
    # the sweep's own distances, so each edge below is hit exactly
    d = core.koranyi_norm(core.left_displacement(c, mu.points))
    near = np.array([d[sl].min() for sl in chunk_slices(len(mu))])
    far = np.array([d[sl].max() for sl in chunk_slices(len(mu))])
    edges = np.concatenate([near, far, [d[CHUNK + 17]]])
    params = RieszParams(s=2.0, n=mu.n)

    def outputs():
        # one ball per edge: a vector of radii would open the window to
        # the largest one
        return ([mu.ball_mass(c, e) for e in edges],
                [truncated_transform(mu, params, None, c, e) for e in far])

    masses, truncations = outputs()
    np.testing.assert_allclose(masses, [mu.weights[d <= e].sum() for e in edges],
                               rtol=1e-12)
    for e, res in zip(far, truncations):
        assert res.atom_count_used == np.count_nonzero(d > e)
    _unpruned(monkeypatch, mu)
    masses_full, truncations_full = outputs()
    np.testing.assert_array_equal(masses, masses_full)
    for res, res_full in zip(truncations, truncations_full):
        np.testing.assert_array_equal(res.value, res_full.value)
        assert res.atom_count_used == res_full.atom_count_used


def test_pruning_margin_covers_rounding(monkeypatch):
    # three points on a horizontal line, q between c and a: in exact
    # arithmetic d(c, q) = d(c, a) - d(a, q), but the computed distances
    # break that by an ulp, so a margin of zero would skip q's chunk
    c = np.array([-0.4482971586351133, 2.287207346292238, -2.050697109104336])
    q = np.array([-0.4417049493001976, 2.287207346292238, -2.020541609866105])
    a = np.array([-0.4405368689455752, 2.287207346292238, -2.0151983259298007])
    radius = core.koranyi_norm(core.left_displacement(c, q[None]))[0]
    assert dist(c, a) - dist(a, q) > radius
    mu = DiscreteMeasure(1, np.vstack([np.tile(c, (CHUNK, 1)), a, q]),
                         np.ones(CHUNK + 2))
    pruned = mu.ball_mass(c, radius)
    assert pruned == CHUNK + 1.0
    _unpruned(monkeypatch, mu)
    assert mu.ball_mass(c, radius) == pruned


def test_sweep_skips_far_chunks(mu5, displaced):
    # fails when pruning is off: a quarter-radius ball at the corner
    # atom lies inside two of the sixteen level-1 cylinders' reach
    mu5.ball_mass(mu5.points[0], 0.25)
    assert 0 < sum(displaced) < len(mu5)


def test_chunk_reach_matches_brute_force(mu_h2):
    reach = mu_h2.chunk_reach()
    expected = [dist(mu_h2.points[sl.start], mu_h2.points[sl]).max()
                for sl in chunk_slices(len(mu_h2))]
    np.testing.assert_array_equal(reach, expected)
    assert mu_h2.chunk_reach() is reach


def test_reach_cache_cannot_go_stale():
    mu = _square_measure()
    assert mu.ball_mass(mu.points[0], 1.0) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        mu.points[3, 2] = 9.0
    with pytest.raises(ValueError):
        mu.weights[0] = 9.0
    # the cache belongs to the points array: a new array gets a new reach
    reach = mu.chunk_reach()
    mu.points = core.dilate(2.0, mu.points)
    np.testing.assert_array_equal(mu.chunk_reach(), 2.0 * reach)


def test_measure_keeps_the_callers_arrays_writable():
    pts = np.asfortranarray(np.zeros((2, 3)))
    w = np.ones(2)
    mu = DiscreteMeasure(1, pts, w)
    assert np.shares_memory(mu.points, pts) and np.shares_memory(mu.weights, w)
    pts[0, 0] = 1.0
    w[0] = 2.0
    assert mu.points[0, 0] == 1.0 and mu.weights[0] == 2.0


def test_empty_measure_sweeps_to_zero():
    mu = DiscreteMeasure(1, np.zeros((0, 3)), np.zeros(0))
    assert mu.ball_mass([0.0, 0.0, 0.0], 1.0) == 0.0
    res = truncated_transform(mu, RieszParams(s=2.0, n=1), None, [0.0, 0.0, 0.0], 0.5)
    np.testing.assert_array_equal(res.value, np.zeros(3))
    assert res.atom_count_used == 0


def test_chunk_reach_is_computed_once_across_threads(monkeypatch):
    mu = DiscreteMeasure(1, np.random.default_rng(3).uniform(size=(2 * CHUNK + 5, 3)),
                         np.ones(2 * CHUNK + 5))
    calls = []
    orig = measure.dist

    def slow(p, q):
        calls.append(len(q))
        time.sleep(0.001)
        return orig(p, q)

    monkeypatch.setattr(measure, "dist", slow)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(mu.chunk_reach) for _ in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert calls == [CHUNK, CHUNK, 5]
    assert all(r is results[0] for r in results)
