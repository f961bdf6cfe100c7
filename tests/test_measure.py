"""Discrete measures: construction, ball masses, serialisation."""

import io
import tracemalloc

import numpy as np
import pytest

from heisriesz.core import dist
from heisriesz.measure import DiscreteMeasure, chunk_slices


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


def test_atoms_iterator():
    mu = _square_measure()
    got = list(mu.atoms())
    assert len(got) == 4
    pt, w = got[3]
    np.testing.assert_array_equal(pt.coords, [1.0, 1.0, 0.5])
    assert w == 0.4


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


def test_json_roundtrip(tmp_path):
    mu = _square_measure()
    path = tmp_path / "mu.json"
    mu.to_json(path)
    back = DiscreteMeasure.from_json(path)
    assert back.n == mu.n
    assert back.label == "square"
    np.testing.assert_array_equal(back.points, mu.points)
    np.testing.assert_array_equal(back.weights, mu.weights)


def test_chunk_slices_cover_range():
    pieces = list(chunk_slices(10, 3))
    assert pieces[0] == slice(0, 3)
    covered = []
    for sl in pieces:
        covered.extend(range(sl.start, sl.stop))
    assert covered == list(range(10))
    assert list(chunk_slices(0)) == [slice(0, 0)]
