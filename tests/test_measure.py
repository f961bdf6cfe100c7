"""Discrete measures: construction, ball masses, serialisation."""

import ast
import io
import os
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from heisriesz import core, fractal, measure
from heisriesz.core import dist
from heisriesz.diagnostics import (BlowupView, ad_regularity_report,
                                   blowup_measure, cone_deficiency,
                                   divergence_probe)
from heisriesz.measure import (CHUNK, AtomTable, DiscreteMeasure, binned_sweep,
                               chunk_slices)
from heisriesz.riesz import (RieszParams, _kernel_columns, growth_profile,
                             maximal_transform, truncated_transform, truncations)
from heisriesz.subgroups import make_vertical


def _counting(columns):
    """A sweep's columns and a column of ones, whose bin sums count the
    atoms of each bin."""
    return lambda sl, u, d, out: [*columns(sl, u, d, out), np.ones(len(d))]


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


@pytest.mark.parametrize("bad", [-1.0, np.nan])
def test_weights_held_once_are_checked_once(monkeypatch, bad):
    totals = []
    slices = measure.chunk_slices

    def recording(total):
        totals.append(total)
        return slices(total)

    monkeypatch.setattr(measure, "chunk_slices", recording)
    pts = np.zeros((2 * CHUNK + 5, 3))
    DiscreteMeasure(1, pts, np.broadcast_to(0.5, (len(pts),)))
    # the coordinates chunk by chunk, the one weight once
    assert totals == [len(pts), 1]
    with pytest.raises(ValueError, match="finite and strictly positive"):
        DiscreteMeasure(1, pts, np.broadcast_to(bad, (len(pts),)))


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


def test_diameter_bound_is_tight_from_a_midpoint():
    # the bound is twice the farthest atom from the first; with the first
    # atom midway between the other two, the factor 2 is needed
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    mu = DiscreteMeasure(1, pts, np.ones(3))
    brute = max(float(dist(p, q)) for p in pts for q in pts)
    assert brute == 2.0
    assert mu.diameter_bound() >= brute


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


def _csv_bytes(columns):
    """The bytes of one np.savetxt of the stacked columns."""
    ref = io.StringIO()
    np.savetxt(ref, np.column_stack(columns), delimiter=",", fmt="%.17g")
    return ref.getvalue().encode()


def _mixed_columns():
    """Three blocks of rows that cycle through signed zeros, subnormals,
    infinities, NaNs and integral floats, so that each value repeats
    within a block and across its boundaries, beside an int column."""
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     np.inf, -np.inf, np.nan, -np.nan, 1.0, -3.0, 2.0 ** 53,
                     1e16, 0.1, 1 / 3, -0.0, 7.0])
    rows = 2 * measure.CSV_BLOCK + 5
    floats = pool[np.arange(rows) % len(pool)]
    ints = np.arange(rows, dtype=np.int64) % 11 - 5
    ints[::997] = 2 ** 60 + 1
    return floats, ints


@pytest.mark.parametrize("case", ["mixed", "ints", "block_beside_column",
                                  "no_rows"])
def test_csv_writer_has_the_bytes_of_one_savetxt(tmp_path, case):
    floats, ints = _mixed_columns()
    columns = {
        "mixed": [floats, ints],
        "ints": [ints, ints[::-1]],
        "block_beside_column": [np.column_stack([floats, -floats]), floats[::-1]],
        "no_rows": [np.empty((0, 3)), np.empty(0)],
    }[case]
    path = tmp_path / "t.csv"
    measure.write_csv(path, "h", columns)
    assert path.read_bytes() == b"h\n" + _csv_bytes(columns)


def test_csv_write_memory_is_bounded_by_the_chunk(tmp_path, mu5, monkeypatch):
    # row formatting is swapped for a recorder, since tracemalloc slows
    # it tens of times over; the bytes are pinned by the tests above
    rows = []
    monkeypatch.setattr(measure, "_format_block",
                        lambda block: rows.append(len(block)) or "")

    def peak_of(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the full (N, 4) row array alone would be 33.5 MB
    assert peak_of(lambda: mu5.to_csv(tmp_path / "mu5.csv")) < 10e6
    assert sum(rows) == len(mu5)
    # a blow-up holds no atoms: the explicit array alone would be 25.2 MB
    rows.clear()
    assert peak_of(lambda: blowup_measure(mu5, np.zeros(3), 0.25, s=2.0)
                   .to_csv(tmp_path / "zoom.csv")) < 10e6
    assert sum(rows) == len(mu5)


def test_csv_read_memory_is_the_measure_plus_a_block(tmp_path):
    # rows that cross two block boundaries, each with distinct values;
    # the whole (N, 4) loadtxt result alone would be 4.2 MB
    rows = 2 * CHUNK + 5
    path = tmp_path / "mu.csv"
    path.write_text("x1,x2,x3,weight\n" + "".join(
        f"{i},{-i},{0.5 * i},{i + 1}\n" for i in range(rows)))
    tracemalloc.start()
    try:
        mu = DiscreteMeasure.from_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - mu.points.nbytes - mu.weights.nbytes < 3e6
    i = np.arange(rows, dtype=float)
    np.testing.assert_array_equal(mu.points, np.column_stack([i, -i, 0.5 * i]))
    np.testing.assert_array_equal(mu.weights, i + 1)
    assert np.asarray(mu.points).flags.f_contiguous


def test_csv_equal_weights_read_back_held_once(tmp_path, mu2):
    path = tmp_path / "mu2.csv"
    mu2.to_csv(path)
    back = DiscreteMeasure.from_csv(path)
    assert back.weights.strides == (0,)
    assert back.weights.tobytes() == mu2.weights.tobytes()
    # its blow-ups keep the one weight too
    nu = blowup_measure(back, back.points[3], 0.25, s=2.0)
    assert nu.weights.strides == (0,)


def test_csv_one_differing_weight_keeps_a_full_vector(tmp_path):
    # the odd weight sits in the second block of the equality test
    rows = CHUNK + 5
    lines = [f"{i},0,0,0.5\n" for i in range(rows)]
    path = tmp_path / "mu.csv"
    path.write_text("x1,x2,x3,weight\n" + "".join(lines))
    assert DiscreteMeasure.from_csv(path).weights.strides == (0,)
    lines[-1] = f"{rows - 1},0,0,0.25\n"
    path.write_text("x1,x2,x3,weight\n" + "".join(lines))
    w = DiscreteMeasure.from_csv(path).weights
    assert w.flags.c_contiguous and w.strides == (8,)
    assert w[-1] == 0.25 and np.all(w[:-1] == 0.5)


def test_csv_read_of_equal_weights_allocates_no_weight_vector(tmp_path, mu5):
    # the level-5 file: a full weight vector would be 8.4 MB, and one
    # loadtxt block and its parse take under 3 MB
    path = tmp_path / "mu5.csv"
    mu5.to_csv(path)
    tracemalloc.start()
    try:
        back = DiscreteMeasure.from_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.weights.strides == (0,)
    assert back.weights.tobytes() == mu5.weights.tobytes()
    assert peak - back.points.nbytes < 8e6


@pytest.mark.parametrize("case", ["equal", "last_block", "last_row", "one_row"])
def test_csv_weights_read_back_with_the_bits_of_loadtxt(tmp_path, case):
    # equal weights up to the last block or the last row, whose rows
    # before are then filled with the first weight
    rows = 1 if case == "one_row" else 2 * CHUNK + 5
    w = np.full(rows, 0.1)
    if case == "last_block":
        w[2 * CHUNK:] = 1 / 3
        w[2 * CHUNK + 3] = 2.0
    elif case == "last_row":
        w[-1] = 0.1 + 2 ** -56
    path = tmp_path / "mu.csv"
    i = np.arange(rows, dtype=float)
    DiscreteMeasure(1, np.column_stack([i, -i, 0.5 * i]), w).to_csv(path)
    want = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    back = DiscreteMeasure.from_csv(path)
    assert np.asarray(back.points).tobytes() == np.asfortranarray(want[:, :3]).tobytes()
    assert back.weights.tobytes() == want[:, 3].tobytes()
    assert back.weights.strides == ((8,) if case.startswith("last") else (0,))


@pytest.mark.parametrize("variant,rows", [
    ("no-final-newline", 5), ("blank-lines", 5), ("blank-lines", CHUNK),
    ("comment-lines", 5), ("comment-lines", CHUNK),
])
def test_csv_reads_the_clean_rows_through_skipped_lines(tmp_path, variant,
                                                         rows):
    # the row count takes a last row without its newline, and counts the
    # blank and '#' lines that np.loadtxt skips, so the arrays are
    # trimmed: after a short block, or, with CHUNK rows, after a second
    # block that reads no row
    lines = [f"{i},{-i},{0.5 * i},0.25\n" for i in range(rows)]
    clean = tmp_path / "clean.csv"
    clean.write_text("x1,x2,x3,weight\n" + "".join(lines))
    if variant == "no-final-newline":
        lines[-1] = lines[-1].rstrip("\n")
    else:
        skipped = "\n" if variant == "blank-lines" else "# note\n"
        for at in (rows, rows // 2, 0):
            lines.insert(at, skipped)
    path = tmp_path / "mu.csv"
    path.write_text("x1,x2,x3,weight\n" + "".join(lines))
    want = DiscreteMeasure.from_csv(clean)
    with warnings.catch_warnings():
        # numpy notes each skipped line that max_rows does not count
        warnings.simplefilter("ignore", UserWarning)
        got = DiscreteMeasure.from_csv(path)
    assert got.points.shape == want.points.shape == (rows, 3)
    assert np.asarray(got.points).tobytes() == np.asarray(want.points).tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.weights.strides == want.weights.strides == (0,)


def test_csv_header_only_reads_as_an_empty_measure(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x1,x2,x3,x4,x5,weight\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu = DiscreteMeasure.from_csv(path)
    assert mu.n == 2 and len(mu) == 0 and mu.points.shape == (0, 5)


def test_csv_rejects_a_row_width_off_the_header(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("x1,x2,x3,weight\n1,2,3\n4,5,6\n")
    with pytest.raises(ValueError, match="row width"):
        DiscreteMeasure.from_csv(path)


def test_csv_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        DiscreteMeasure.from_csv(path)


def test_chunk_slices_cover_range():
    total = 2 * CHUNK + 5
    pieces = list(chunk_slices(total))
    assert pieces[0] == slice(0, CHUNK)
    covered = []
    for sl in pieces:
        covered.extend(range(sl.start, sl.stop))
    assert covered == list(range(total))
    assert list(chunk_slices(0)) == [slice(0, 0)]


_CENTRE_READERS = {
    "ball_mass": lambda mu, c: mu.ball_mass(c, 0.25),
    "truncated_transform": lambda mu, c: truncated_transform(
        mu, RieszParams(s=2.0, n=1), None, c, 0.25),
    "growth_profile": lambda mu, c: growth_profile(
        mu, RieszParams(s=2.0, n=1), c, [0.5, 0.25]),
    "cone_deficiency": lambda mu, c: cone_deficiency(
        mu, 2.0, c, make_vertical(1, []), 0.5, [0.25]),
    "ad_regularity_report": lambda mu, c: ad_regularity_report(
        mu, 2.0, centers=[c], radii=(0.25,)),
}


@pytest.mark.parametrize("reader", sorted(_CENTRE_READERS))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_centre_is_rejected(mu3, reader, bad):
    # every reader takes its centre through binned_sweep, which checks it
    with pytest.raises(ValueError, match="finite"):
        _CENTRE_READERS[reader](mu3, np.array([bad, 0.0, 0.0]))


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


def _chunk_key(p, q):
    # a sweep's chunk, named by its centre and its first atom: worker
    # threads reach the chunks in no fixed order
    return np.asarray(p, dtype=float).tobytes(), q[0].tobytes()


@pytest.fixture
def displaced(monkeypatch):
    """Rows of each chunk that reaches core.left_displacement, keyed by
    _chunk_key."""
    rows = {}
    orig = core.left_displacement

    def counting(p, q, out=None):
        rows[_chunk_key(p, q)] = len(q)
        return orig(p, q, out=out)

    monkeypatch.setattr(core, "left_displacement", counting)
    return rows


def _unpruned(monkeypatch, mu):
    # an infinite reach puts every chunk inside the window
    reach = mu.chunk_reach()
    monkeypatch.setattr(mu, "_reach", (mu.points, np.full(reach.shape, np.inf)))


def _sweep_call(mu, kind, center, arg):
    params = RieszParams(s=2.0, n=mu.n)

    def f(pts):
        return pts[..., 0]

    if kind == "ball":
        return mu.ball_mass(center, arg)
    if kind == "cone":
        return cone_deficiency(mu, 2.0, center, make_vertical(mu.n, []), 0.5, arg)
    if kind == "truncated":
        # the one sweep of truncated_transform, with its atom count
        return binned_sweep(mu, center, [arg, np.inf],
                            _counting(_kernel_columns(params, mu, f)))[:, 0]
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
    rows = sum(displaced.values())
    assert {"none": rows == len(mu), "some": 0 < rows < len(mu),
            "all": rows == 0}[skipped], rows
    if skipped == "all":
        # zero sums, and no atom used by a truncation
        assert np.all(pruned == 0.0)
    _unpruned(monkeypatch, mu)
    displaced.clear()
    full = _sweep_call(mu, kind, c, arg)
    assert sum(displaced.values()) == len(mu)
    np.testing.assert_array_equal(pruned, full)


@pytest.fixture
def masked_chunks(monkeypatch, displaced):
    """Chunks, keyed as in ``displaced``, that sum their bins through
    measure._bin_sums rather than as one bin."""
    chunks, current = set(), threading.local()
    displace, bin_sums = core.left_displacement, measure._bin_sums

    def displacing(p, q, out=None):
        # a chunk's bins are summed on the thread that displaced it
        current.key = _chunk_key(p, q)
        return displace(p, q, out=out)

    def recording(*args):
        chunks.add(current.key)
        return bin_sums(*args)

    monkeypatch.setattr(core, "left_displacement", displacing)
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
    assert masked_chunks == set(displaced) != set()


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
        # the largest one; the atom counts come from the truncation's sweep
        return ([mu.ball_mass(c, e) for e in edges],
                [truncated_transform(mu, params, None, c, e).value for e in far],
                [binned_sweep(mu, c, [e, np.inf],
                              _counting(_kernel_columns(params, mu, None)))[-1, 0]
                 for e in far])

    masses, values, used = outputs()
    np.testing.assert_allclose(masses, [mu.weights[d <= e].sum() for e in edges],
                               rtol=1e-12)
    for e, count in zip(far, used):
        assert count == np.count_nonzero(d > e)
    _unpruned(monkeypatch, mu)
    masses_full, values_full, used_full = outputs()
    np.testing.assert_array_equal(masses, masses_full)
    np.testing.assert_array_equal(values, values_full)
    assert used == used_full


def test_pruning_margin_covers_rounding(monkeypatch):
    # three points on a horizontal line, q between c and a: in exact
    # arithmetic d(c, q) = d(c, a) - d(a, q), but the computed distances
    # break that by an ulp, so a margin of zero would skip q's chunk
    c = np.array([-0.007281465369706641, -1.680192330144295, -0.6851247929272839])
    q = np.array([-0.0058060500734748175, -1.680192330144295, -0.6900827558562964])
    a = np.array([0.005856556717471557, -1.680192330144295, -0.7292736008155702])
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
    assert 0 < sum(displaced.values()) < len(mu5)


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
    # the cache belongs to the points view: a new view gets a new reach
    reach = mu.chunk_reach()
    mu.points = measure.ArrayView(core.dilate(2.0, mu.points))
    np.testing.assert_array_equal(mu.chunk_reach(), 2.0 * reach)


def test_measure_keeps_the_callers_arrays_writable():
    pts = np.asfortranarray(np.zeros((2, 3)))
    w = np.ones(2)
    mu = DiscreteMeasure(1, pts, w)
    assert np.shares_memory(mu.points, pts) and np.shares_memory(mu.weights, w)
    pts[0, 0] = 1.0
    w[0] = 2.0
    assert mu.points[0, 0] == 1.0 and mu.weights[0] == 2.0


def test_weights_held_once_give_the_bits_of_the_full_vector(tmp_path, displaced,
                                                           masked_chunks):
    rng = np.random.default_rng(21)
    pts = np.asfortranarray(rng.uniform(-1.0, 1.0, size=(2 * CHUNK + 5, 3)))
    once = DiscreteMeasure(1, pts, np.broadcast_to(1 / 3, (len(pts),)))
    full = DiscreteMeasure(1, pts, np.full(len(pts), 1 / 3))
    assert once.weights.strides == (0,) and full.weights.flags.c_contiguous
    params = RieszParams(s=2.0, n=1)

    def f(atoms):
        return atoms[..., 2]

    taxis = make_vertical(1, [])
    # chunks straddle the bins around an atom (the masked path) and lie
    # in one bin seen from far away (the one-bin path)
    near, far = pts[7], np.array([6.0, 0.0, 0.0])

    def outputs(mu, name):
        path = tmp_path / f"{name}.csv"
        mu.to_csv(path)
        zoom = blowup_measure(mu, near, 0.5, s=2.0)
        return [
            mu.ball_mass(near, [0.125, 0.5, 10.0]), mu.ball_mass(far, 10.0),
            cone_deficiency(mu, 2.0, near, taxis, 0.5, [0.25, 0.5]),
            truncated_transform(mu, params, None, near, 0.05).value,
            truncated_transform(mu, params, f, near, 0.05).value,
            truncated_transform(mu, params, f, far, 0.5).value,
            truncations(mu, params, f, near, [0.5, 0.25, 0.125]),
            growth_profile(mu, params, near, [0.5, 0.25, 0.125]),
            mu.total_mass, path.read_bytes(), zoom.points, zoom.weights,
        ]

    got = outputs(once, "once")
    assert len(displaced) > len(masked_chunks) > 0
    want = outputs(full, "full")
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    with pytest.raises(ValueError):
        once.weights[0] = 1.0
    with pytest.raises(ValueError):
        DiscreteMeasure(1, np.zeros((3, 3)), np.broadcast_to(0.0, (3,)))
    # any other stride is stored contiguous
    w = np.linspace(1.0, 2.0, 10)
    mu = DiscreteMeasure(1, np.zeros((5, 3)), w[::2])
    assert mu.weights.flags.c_contiguous
    np.testing.assert_array_equal(mu.weights, w[::2])


def test_empty_measure_sweeps_to_zero():
    mu = DiscreteMeasure(1, np.zeros((0, 3)), np.zeros(0))
    assert mu.ball_mass([0.0, 0.0, 0.0], 1.0) == 0.0
    params = RieszParams(s=2.0, n=1)
    res = truncated_transform(mu, params, None, [0.0, 0.0, 0.0], 0.5)
    np.testing.assert_array_equal(res.value, np.zeros(3))
    sums = binned_sweep(mu, [0.0, 0.0, 0.0], [0.5, np.inf],
                        _counting(_kernel_columns(params, mu, None)))
    assert sums[-1, 0] == 0


@pytest.mark.parametrize("chunk", [CHUNK, 4096, 1500, 512])
def test_piece_sums_have_the_bits_of_numpys_pairwise_sum(chunk, monkeypatch):
    # a sweep sums each piece of a chunk and adds the pieces' sums along
    # the split of numpy's pairwise sum, so that they add up to the bits
    # of np.add.reduce over the chunk; a numpy that splits elsewhere fails
    # here first.  Full and ragged chunks, at the chunk sizes the tests
    # use too; columns that are contiguous, of a stride, or one weight
    # held once
    monkeypatch.setattr(measure, "CHUNK", chunk)
    rng = np.random.default_rng(42)
    values = (rng.standard_normal((chunk, 3))
              * np.exp2(rng.integers(-30, 30, size=(chunk, 3))))
    columns = {"contiguous": np.asfortranarray(values)[:, 1],
               "strided": np.ascontiguousarray(values)[:, 1],
               "zero-stride": np.broadcast_to(values[0, 0], (chunk,))}
    piece = measure._piece_rows()
    for m in sorted({chunk, chunk - 1, 40_001 * chunk // CHUNK, piece + 1,
                     3 * chunk // 4 + 3}):
        for name, col in columns.items():
            pieces = []

            def reduce(a, b):
                pieces.append((a, b))
                return np.add.reduce(col[a:b])

            got = measure._pairwise(0, m, reduce)
            assert got.tobytes() == np.add.reduce(col[:m]).tobytes(), (name, m)
            assert len(pieces) > 1 and pieces[0][0] == 0 and pieces[-1][1] == m
            assert all(b - a <= piece and b == c for (a, b), (c, _) in
                       zip(pieces, pieces[1:] + [(m, None)]))


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
    # one pass, each chunk half a chunk at a time
    assert calls == [CHUNK // 2] * 4 + [5]
    assert all(r is results[0] for r in results)


# ----------------------------------------------------------------------
# sweeps on worker threads
# ----------------------------------------------------------------------


@pytest.fixture
def pools(monkeypatch, helper_pools):
    """512-atom chunks, 64 CPUs and helper threads for every sweep of two
    chunks or more; the helper count of each sweep's pool, in order."""
    monkeypatch.setattr(measure, "CHUNK", 512)
    monkeypatch.setattr(measure, "PARALLEL_CHUNKS", 2)
    monkeypatch.setattr(measure, "_cpu_count", lambda: 64)
    return helper_pools


def _clusters(chunk):
    """Forty-one chunks and a partial one of 77 atoms; chunk k is a tight
    cluster at 0.25 k along x1."""
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.05, 0.05, size=(41 * chunk + 77, 3))
    pts[:, 0] += 0.25 * (np.arange(len(pts)) // chunk)
    pts[:, 2] *= 0.01
    return np.asfortranarray(pts), rng.uniform(0.5, 1.0, size=len(pts))


def test_sweeps_keep_their_bits_at_every_worker_count(pools, displaced,
                                                      masked_chunks):
    pts, w = _clusters(measure.CHUNK)
    params = RieszParams(s=2.0, n=1)
    taxis = make_vertical(1, [])
    # an atom: its own term is the NaN of 0 * inf, in the bin below
    # every truncation's window
    c = pts[3 * measure.CHUNK + 10]

    def f(atoms):
        return atoms[..., 1]

    def outputs(workers):
        mu = DiscreteMeasure(1, pts, w)
        with measure._worker_cap(workers):
            return [
                mu.chunk_reach(), mu.diameter_bound(),
                truncations(mu, params, f, c, [2.0, 1.0, 0.5, 0.25, 0.03]),
                maximal_transform(mu, params, None, c, [1.5, 0.7, 0.2]),
                growth_profile(mu, params, c, [0.5, 0.25, 0.125, 0.03]),
                mu.ball_mass(c, [0.1, 0.6, 1.7]),
                cone_deficiency(mu, 2.0, c, taxis, 0.5, [0.25, 1.0]),
            ]

    want = outputs(1)
    assert pools == [] and not np.any(np.isnan(want[2]))
    for workers in (2, 5):
        pools.clear()
        # more threads than cores, switching often: a chunk taken twice or
        # a result lost would show in the bits
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = outputs(workers)
        finally:
            sys.setswitchinterval(interval)
        # the reach pass and one sweep per call, each on the calling
        # thread and workers - 1 helpers; the diameter takes the reach
        assert pools == [workers - 1] * 6
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    # the growth sweep skips chunks beyond radius 1 and takes both the
    # one-bin and the masked path
    mu = DiscreteMeasure(1, pts, w)
    displaced.clear()
    masked_chunks.clear()
    with measure._worker_cap(5):
        growth_profile(mu, params, c, [0.5, 0.25, 0.125, 0.03])
    assert 0 < len(masked_chunks) < len(displaced) < 42


def test_empty_measure_sweeps_to_zero_with_threads_for_every_sweep(
        monkeypatch, pools):
    monkeypatch.setattr(measure, "PARALLEL_CHUNKS", 0)
    mu = DiscreteMeasure(1, np.zeros((0, 3)), np.zeros(0))
    with measure._worker_cap(5):
        assert mu.ball_mass([0.0, 0.0, 0.0], [1.0, 2.0]).tolist() == [0.0, 0.0]
        sums = binned_sweep(mu, [0.0, 0.0, 0.0], [0.5, 1.0, np.inf],
                            _counting(_kernel_columns(RieszParams(s=2.0, n=1),
                                                      mu, None)))
        assert mu.diameter_bound() == 0.0 and len(mu.chunk_reach()) == 0
    assert sums[:3].tobytes() == np.zeros((3, 2)).tobytes()
    assert sums[3].tolist() == [0, 0] and pools == []


def test_divergence_probe_caps_the_threads_of_its_sweeps(pools):
    pts, w = _clusters(measure.CHUNK)
    mu = DiscreteMeasure(1, pts, w)
    mu.chunk_reach()
    params = RieszParams(s=2.0, n=1)
    centres = pts[[5 * measure.CHUNK, 20 * measure.CHUNK]]
    pools.clear()
    want = divergence_probe(mu, params, centres, [0.5, 0.25, 0.125], threads=1)
    assert pools == []
    for threads in (3, None):
        got = divergence_probe(mu, params, centres, [0.5, 0.25, 0.125],
                               threads=threads)
        # one sweep for both points; with no cap, a thread per chunk kept
        assert pools == [2] if threads else len(pools) == 1 < min(pools)
        assert [r.magnitudes.tobytes() for r in got] == [
            r.magnitudes.tobytes() for r in want]
        pools.clear()
    assert measure._WORKER_CAP.get() is None


@pytest.mark.parametrize("raiser", ["helper", "caller"])
def test_an_error_in_a_worker_reaches_the_caller(pools, raiser):
    pts, w = _clusters(measure.CHUNK)
    mu = DiscreteMeasure(1, pts, w)
    mu.chunk_reach()
    pools.clear()

    def columns(sl, u, d, out):
        # the empty chunk that sets the column count is the caller's
        on_caller = threading.current_thread() is threading.main_thread()
        if len(d) and on_caller == (raiser == "caller"):
            raise RuntimeError(f"chunk at {sl.start}")
        # the other thread is slow, so that both take chunks
        time.sleep(0.001)
        return [d]

    with measure._worker_cap(2), pytest.raises(RuntimeError, match="chunk at"):
        binned_sweep(mu, pts[0], [-np.inf, np.inf], columns)
    assert pools == [1]


def test_cpu_count_falls_back_where_there_is_no_affinity(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert measure._cpu_count() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert measure._cpu_count() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert measure._cpu_count() == 1


# ----------------------------------------------------------------------
# cylinder measures held as their parents and maps
# ----------------------------------------------------------------------


def _two_maps():
    return fractal.Ifs(n=1, maps=(
        fractal.Similarity(n=1, q=np.array([0.0, 0.0, 0.0]), r=0.5),
        fractal.Similarity(n=1, q=np.array([0.5, 0.25, 0.125]), r=0.5)))


@pytest.mark.parametrize("make, level, chunk, nested", [
    (lambda: fractal.make_strichartz_ifs(1, 0.25), 5, CHUNK, False),
    (lambda: fractal.make_strichartz_ifs(2, 0.25), 3, CHUNK, False),
    # 1024 rows per first letter: the second chunk starts inside the
    # first letter and ends in the second
    (_two_maps, 11, 1500, False),
    # level 4 has more than a chunk of atoms, so level 5 is a table of
    # tables, each chunk inside one letter of either
    (lambda: fractal.make_strichartz_ifs(1, 0.25), 5, 4096, True),
    # 2048 rows per first letter, and 1024 per letter of the parents: the
    # second chunk spans letters of the table, and the parent rows of the
    # first chunk and of the second's second letter span the parents'
    (_two_maps, 12, 1500, True),
], ids=["n1_L5", "n2_L3", "two_maps_L11", "n1_L5_nested", "two_maps_L12"])
def test_every_table_chunk_is_the_explicit_build(make, level, chunk, nested,
                                                 monkeypatch):
    monkeypatch.setattr(measure, "CHUNK", chunk)
    ifs = make()
    mu = fractal.cylinder_measure(ifs, level)
    full = fractal._cylinder_atoms(ifs, level)
    assert isinstance(mu.points, AtomTable) and mu.points.shape == full.shape
    assert mu.points.parents.builds == nested
    out = np.empty((min(len(mu), chunk), full.shape[1]), order="F")
    slices = list(chunk_slices(len(mu)))
    for sl in slices:
        rows = mu.rows(sl, out)
        assert np.shares_memory(rows, out)
        np.testing.assert_array_equal(rows.view(np.uint64),
                                      full[sl].view(np.uint64))
    if nested:
        # one parent block kept across reads in chunk order and back: a
        # block taken for parent rows of another start, or of the same
        # start and another length, would give other bits
        block = measure.ParentBlock(np.empty_like(out))
        for sl in slices + slices[::-1]:
            assert mu.rows(sl, out, block).tobytes() == full[sl].tobytes()


def test_table_indexing_builds_the_same_bits(mu5, ifs14, monkeypatch):
    full = np.asarray(mu5.points)
    assert full.flags.f_contiguous and full.shape == mu5.points.shape
    idx = np.array([0, 7, 65535, 65536, 600001, len(mu5) - 1, -2])
    for got, want in [(mu5.points[idx], full[idx]),
                      (mu5.points[65530:131080], full[65530:131080]),
                      (mu5.points[::CHUNK], full[::CHUNK]),
                      (mu5.points[12345], full[12345]),
                      (mu5.rows(slice(100, 200)), full[100:200])]:
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    with pytest.raises(IndexError):
        mu5.points[[len(mu5)]]
    with pytest.raises(TypeError):
        mu5.points[0, 0] = 1.0
    # a table of tables takes its rows' parents from its own parents
    monkeypatch.setattr(measure, "CHUNK", 4096)
    nested = fractal.cylinder_measure(ifs14, 5).points
    assert nested.parents.builds
    for got, want in [(nested[idx], full[idx]), (nested[::4096], full[::4096]),
                      (nested[5:200_000:3], full[5:200_000:3])]:
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # one level of tables nests, and only with the ratio that dilates it
    for parents, ratio in [(nested, 0.25), (nested.parents.table, None)]:
        with pytest.raises(ValueError, match="table of arrays"):
            AtomTable(parents, nested.translations, ratio=ratio)


def _flat_and_nested(ifs, level):
    """The equal-ratio cylinder measure of ``level`` twice: as a table of
    its level - 1 atoms and as a table of tables."""
    maps = ifs.maps
    parents = fractal._cylinder_atoms(ifs, level - 1)
    flat = AtomTable(core.dilate(maps[0].r, parents), [s.q for s in maps])
    nested = fractal.cylinder_measure(ifs, level)
    assert nested.points.parents.builds
    return DiscreteMeasure(ifs.n, flat, nested.weights), nested


def test_sweeps_over_a_nested_table_have_the_flat_table_bits(
        ifs14, monkeypatch, helper_pools):
    # 256 chunks of 4096 atoms over 16 parent blocks, on one worker and
    # on two; a batch builds each chunk's parent block into the rows of
    # its displacements
    monkeypatch.setattr(measure, "CHUNK", 4096)
    monkeypatch.setattr(measure, "PARALLEL_CHUNKS", 2)
    monkeypatch.setattr(measure, "_cpu_count", lambda: 64)
    params = RieszParams(s=2.0, n=1)

    def outputs(mu, centres, workers):
        with measure._worker_cap(workers):
            return [mu.chunk_reach(), mu.diameter_bound(),
                    truncations(mu, params, None, centres[0],
                                [0.25, 0.0625, 0.015625]),
                    growth_profile(mu, params, centres, [0.5, 0.25, 0.125, 0.0625]),
                    mu.ball_mass(centres[0], [0.01, 0.1, 1.0]),
                    mu.ball_mass(centres, [0.01, 0.1, 1.0])]

    for workers in (1, 2):
        flat, nested = _flat_and_nested(ifs14, 5)
        centres = flat.points[[12345, 600_001, 1_000_000]]
        want = outputs(flat, centres, workers)
        helper_pools.clear()
        got = outputs(nested, centres, workers)
        # four sweeps: the reach comes from the parents, whose one held
        # chunk takes no helper, and the diameter from the reach
        assert helper_pools == ([1] * 4 if workers == 2 else [])
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_a_table_row_that_overflows_is_refused_by_the_first_sweep():
    # a dilated parent clear of overflow (an array refuses one that is not
    # when it is made) and a finite translation, but the twist A(q, x) is
    # 2e310
    table = AtomTable([[1e70, 0.0, 0.0]], [[0.0, 1e240, 0.0]])
    mu = DiscreteMeasure(1, table, np.ones(1))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isinf(mu.points[0][2])
        with pytest.raises(ValueError, match="finite"):
            mu.ball_mass([0.0, 0.0, 0.0], 1.0)


def test_an_array_whose_distances_could_overflow_is_refused_when_made():
    # |x_h|^4 = 1e400 overflows, so the atom at distance 1e100 would fall
    # in every ball; a table's rows are refused by the same bound
    with pytest.raises(ValueError, match="finite"):
        DiscreteMeasure(1, [[1e100, 0.0, 0.0]], [1.0])
    with pytest.raises(ValueError, match="finite"):
        measure.ArrayView([[0.0, 0.0, 1e160]])
    # an atom of that size whose distances stay finite is swept
    mu = DiscreteMeasure(1, [[1e70, 0.0, 0.0]], [1.0])
    assert mu.ball_mass([0.0, 0.0, 0.0], 1e300) == 1.0
    assert mu.ball_mass([0.0, 0.0, 0.0], 1e69) == 0.0


@pytest.mark.parametrize("nested", [False, True])
def test_a_table_row_that_overflows_after_a_pieces_first_is_refused(nested):
    # row 0, the only first row, is finite, and so are the distances
    # between parents; only the twist of a later row, 2e310, overflows
    if nested:
        table = AtomTable(AtomTable([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                                    [[0.0, 0.0, 0.0], [1e70, 0.0, 0.0]]),
                          [[0.0, 1e240, 0.0]], ratio=0.5)
    else:
        table = AtomTable([[0.0, 0.0, 0.0], [1e70, 0.0, 0.0]], [[0.0, 1e240, 0.0]])
    mu = DiscreteMeasure(1, table, np.ones(len(table)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.all(np.isfinite(mu.points[0]))
        assert np.isinf(mu.points[len(table) - 1][2])
        with pytest.raises(ValueError, match="finite"):
            mu.ball_mass([0.0, 1e240, 0.0], 1.0)
    # rows of that size whose distances stay finite are swept
    safe = AtomTable([[0.0, 0.0, 0.0], [1e70, 0.0, 0.0]], [[0.0, 1e70, 0.0]])
    assert DiscreteMeasure(1, safe, np.ones(2)).ball_mass([0.0, 1e70, 0.0], 1.0) == 1.0


# ----------------------------------------------------------------------
# chunk reach from the group law
# ----------------------------------------------------------------------


def _built_reach(mu):
    """Each chunk's largest distance from its first atom, over its built
    rows."""
    reach = []
    for sl in chunk_slices(len(mu)):
        rows = mu.rows(sl)
        reach.append(dist(rows[0], rows).max())
    return np.array(reach)


def _corner(n, r, level):
    return lambda: fractal.cylinder_measure(fractal.make_strichartz_ifs(n, r), level)


def _zoom(index, r):
    def make():
        mu = fractal.cylinder_measure(fractal.make_strichartz_ifs(1, 0.25), 5)
        return blowup_measure(mu, mu.points[index], r, s=2.0)
    return make


def _signed_table(n, nested):
    """A table of both signs in every coordinate, flat or nested."""
    rng = np.random.default_rng(7)
    table = AtomTable(rng.normal(size=(40, 2 * n + 1)), rng.normal(size=(3, 2 * n + 1)))
    if nested:
        table = AtomTable(table, 4.0 * rng.normal(size=(5, 2 * n + 1)), ratio=0.5)
    return DiscreteMeasure(n, table, np.ones(len(table)))


@pytest.mark.parametrize("make, chunk, nested", [
    (_corner(1, 0.25, 4), CHUNK, False), (_corner(1, 0.25, 5), 1024, True),
    (_corner(2, 0.25, 3), 1024, True), (lambda: _signed_table(1, False), CHUNK, False),
    (lambda: _signed_table(2, True), CHUNK, True)],
    ids=["n1_L4", "n1_L5", "n2_L3", "signed_n1", "signed_n2_nested"])
def test_a_table_extent_bounds_every_row(make, chunk, nested, monkeypatch):
    monkeypatch.setattr(measure, "CHUNK", chunk)
    mu = make()
    assert mu.points.parents.builds == nested
    rows = np.abs(np.asarray(mu.points))
    assert np.all(rows <= mu.points.extent)
    # the twists take the vertical rows near the bound: it is not slack
    assert rows[:, -1].max() > 0.5 * mu.points.extent[-1]


def _zoom_source(kind):
    """The n = 1 level-4 corner measure as an array, a table, a table of
    tables (when CHUNK is below its level 3) or a zoom of the table."""
    mu = fractal.cylinder_measure(fractal.make_strichartz_ifs(1, 0.25), 4)
    if kind == "array":
        return DiscreteMeasure(1, np.asarray(mu.points), mu.weights)
    if kind == "zoom":
        return blowup_measure(mu, mu.points[7], 0.5, s=2.0)
    assert mu.points.parents.builds == (kind == "nested")
    return mu


_ZOOM_SOURCES = pytest.mark.parametrize("source, chunk", [
    ("array", CHUNK), ("flat", CHUNK), ("nested", 1024), ("zoom", CHUNK)])


@_ZOOM_SOURCES
def test_a_zoom_extent_bounds_every_row(source, chunk, monkeypatch):
    monkeypatch.setattr(measure, "CHUNK", chunk)
    mu = _zoom_source(source)
    nu = blowup_measure(mu, mu.points[12_345], 0.25, s=2.0)
    rows = np.abs(np.asarray(nu.points))
    assert np.all(rows <= nu.points.extent)
    # the twist by the centre takes the vertical rows near the bound
    assert rows[:, -1].max() > 0.1 * nu.points.extent[-1]


@_ZOOM_SOURCES
def test_making_a_zoom_builds_none_of_its_rows(source, chunk, monkeypatch):
    monkeypatch.setattr(measure, "CHUNK", chunk)
    mu = _zoom_source(source)
    centre = mu.points[12_345]
    read = []

    def recorder(cls, name):
        method = getattr(cls, name)

        def recorded(view, *args, **kwargs):
            read.append((cls.__name__, name))
            return method(view, *args, **kwargs)
        return recorded

    for cls in (measure.AtomView, measure.ArrayView, AtomTable, measure.DilatedTable,
                BlowupView):
        for name in {"rows", "_take", "__getitem__"} & set(vars(cls)):
            monkeypatch.setattr(cls, name, recorder(cls, name))
    nu = blowup_measure(mu, centre, 0.25, s=2.0)
    assert read == []
    # the recorder sees a read
    nu.points[0]
    assert ("BlowupView", "_take") in read


@pytest.mark.parametrize("make, chunk, exact", [
    (_corner(1, 0.25, 5), CHUNK, True),
    (_corner(1, 0.25, 6), CHUNK, True),
    (_corner(2, 0.25, 4), CHUNK, False),
    (_corner(1, 0.2, 6), CHUNK, False),
    # 2048 rows per first letter, each chunk of 1500 spanning letters of
    # the table or of its parents
    (lambda: fractal.cylinder_measure(_two_maps(), 12), 1500, False),
    (_zoom(70_001, 0.25), CHUNK, True),
    (_zoom(12_345, 0.3), CHUNK, False),
], ids=["n1_L5", "n1_L6", "n2_L4", "r0.2_L6", "two_maps_L12", "zoom_r0.25",
        "zoom_r0.3"])
def test_every_view_reach_bounds_its_built_reach(make, chunk, exact, monkeypatch):
    monkeypatch.setattr(measure, "CHUNK", chunk)
    mu = make()
    assert isinstance(mu.points, (AtomTable, BlowupView))
    reach, built = mu.chunk_reach(), _built_reach(mu)
    assert reach.shape == built.shape
    # a reach from the parents or the source may fall below the built one
    # by rounding (1e-14 of itself at ratio 0.2), far inside the margin of
    # 1e-7 n (1 + |c| + |a_k| + reach) that the sweep adds
    assert np.all(reach >= built * (1.0 - 1e-12))
    # with a dyadic ratio and one letter and parent chunk per chunk, it is
    # the built reach, bit for bit
    if exact:
        assert reach.tobytes() == built.tobytes()


@pytest.mark.parametrize("nested", [False, True])
def test_a_table_or_zoom_reach_builds_none_of_its_rows(ifs14, monkeypatch, nested):
    if nested:
        monkeypatch.setattr(measure, "CHUNK", 4096)
    mu = fractal.cylinder_measure(ifs14, 5)
    centre = mu.points[70_001]
    assert mu.points.parents.builds == nested
    built, taken = [], []
    table_rows, zoom_rows, take = AtomTable.rows, BlowupView.rows, AtomTable._take

    def rows(view, sl, out=None, block=None):
        built.append((type(view).__name__, sl))
        return (table_rows if isinstance(view, AtomTable) else zoom_rows)(
            view, sl, out, block)

    def counted(view, idx):
        if view is mu.points:
            taken.append(len(idx))
        return take(view, idx)

    monkeypatch.setattr(AtomTable, "rows", rows)
    monkeypatch.setattr(BlowupView, "rows", rows)
    monkeypatch.setattr(AtomTable, "_take", counted)
    # making the zoom builds no row, and takes none
    nu = blowup_measure(mu, centre, 0.25, s=2.0)
    assert built == [] and taken == []
    reach = nu.chunk_reach()
    assert built == []
    # the chunks' first rows and one row per piece, one chunk a piece
    chunks = len(list(chunk_slices(len(mu))))
    assert sum(taken) == 2 * chunks == 2 * len(reach)
    assert mu.chunk_reach().tobytes() == (0.25 * reach).tobytes()


def test_only_the_construction_sites_ask_which_view_they_hold():
    # what differs between views is an attribute or a method of the view;
    # isinstance against a view class only wraps an array, in
    # DiscreteMeasure, or nests a table, in AtomTable
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(measure.__file__).parent.glob("*.py"))}
    classes = [node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    views = {"AtomView"}
    while True:
        grown = views | {c.name for c in classes
                         if {ast.unparse(b).split(".")[-1] for b in c.bases} & views}
        if grown == views:
            break
        views = grown
    assert views == {"AtomView", "ArrayView", "AtomTable", "DilatedTable", "BlowupView"}
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and ast.unparse(child.func) in (
                    "isinstance", "issubclass"):
                kinds = child.args[1]
                kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if {ast.unparse(k).split(".")[-1] for k in kinds} & views:
                    found.add(scope)
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for name, tree in trees.items():
        visit(tree, name.removesuffix(".py"))
    assert found == {"measure.DiscreteMeasure.__post_init__",
                     "measure.AtomTable.__init__"}
