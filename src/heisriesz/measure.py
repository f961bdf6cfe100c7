"""Weighted atomic measures on H^n.

Atoms are stored as a dense coordinate array plus a weight vector so that
ten-million-atom measures stay practical.  The coordinate array is
coordinate-major (Fortran order), so each coordinate of a chunk of atoms
is one contiguous run;
ball masses and every transform are one :func:`binned_sweep` over it.
Validation and sweeps need O(CHUNK) memory beyond the atoms.
Each measure keeps, once computed, the reach of every chunk from its
first atom, which lets a sweep skip the chunks that the triangle
inequality puts outside the distance window it reads; ``points`` and
``weights`` are read-only, so that cache cannot go stale.  Measures are
written to and read from CSV files with the header
``x1,...,x{2n+1},weight``; the label and the resolution scale are given
on reading.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import core
from .core import ambient_dim, dist, group_index, _coords

__all__ = ["AtomCapExceeded", "DEFAULT_ATOM_CAP", "DiscreteMeasure",
           "binned_sweep", "closed_ball_sums"]

# Default ceiling on atom counts; a level-6 cylinder measure of the
# sixteen-map system (16^6 atoms) must fit below it.
DEFAULT_ATOM_CAP = 20_000_000

# Chunk length for streaming passes over the atom array: a chunk's
# coordinates and temporaries stay cache-resident (2^16 measured fastest
# for a level-6 growth profile), and peak memory is O(CHUNK), not O(N).
CHUNK = 1 << 16


class AtomCapExceeded(RuntimeError):
    """Raised when a construction would exceed the configured atom cap."""


def chunk_slices(total: int, chunk: int = CHUNK):
    """Yield slices covering range(total) in fixed order (at least one)."""
    for start in range(0, max(total, 1), chunk):
        yield slice(start, min(start + chunk, total))


def binned_sweep(mu, center, edges, columns):
    """Sum per-atom columns over a window of gauge-distance bins.

    ``edges`` is ascending, with +-inf allowed at the ends; bin i holds
    the atoms with edges[i] < d <= edges[i+1], and atoms outside the
    window (edges[0], edges[-1]] contribute nothing.  So a closed ball
    of radius r is the window [-inf, r] and the truncation d > eps is
    [eps, inf].  One pass walks the atoms in fixed chunk order; for each
    chunk it takes the displacements u = center^{-1} q and distances
    d = ||u|| from :mod:`core`, and ``columns(sl, u, d, out)`` returns
    the chunk's per-atom values as k arrays: arrays of its own, or rows
    of ``out``, a (2n+1, len(d)) scratch that it may fill.  Returns the
    (k, len(edges) - 1) per-bin sums and the per-bin atom counts.

    Each call allocates one coordinate-major workspace of CHUNK rows (u,
    the norm's scratch and d, bin indices, columns) and writes every chunk
    into it, so a sweep's cost does not depend on what the allocator
    holds from earlier work, and sweeps may run on several threads.

    A chunk is skipped when the triangle inequality, applied to the
    distance of its first atom from the centre and its cached reach,
    puts all of its atoms outside the window.  Such a chunk would add
    exact zeros to every bin, and the other chunks are reduced in the
    same order, so skipping does not change a bit of the result.
    """
    c, _, _ = _coords(center, mu.n)
    edges = np.asarray(edges, dtype=float)
    nbins = len(edges) + 1
    anchors, reach = mu.points[::CHUNK], mu.chunk_reach()
    gap = dist(c, anchors)
    # rounding can move a computed gauge distance by up to about the
    # square root of an ulp of the coordinates (the fourth root of a
    # cancelled vertical term), so the margin scales with the sizes
    margin = 1e-7 * mu.n * (1.0 + core.koranyi_norm(c)
                            + core.koranyi_norm(anchors) + reach)
    far = ((gap - reach > edges[-1] + margin)
           | (gap + reach <= edges[0] - margin))

    rows, dim = min(len(mu), CHUNK), ambient_dim(mu.n)
    u_ws = np.empty((rows, dim), order="F")
    norm_ws = np.empty((rows, dim), order="F")
    bins_ws = np.empty(rows, dtype=np.intp)
    above_ws = np.empty(rows, dtype=bool)
    cols_ws = np.empty((dim, rows))
    # an empty chunk sets the column count, so a sweep that skips every
    # chunk still returns zero-filled bins
    k = len(columns(slice(0, 0), u_ws[:0], norm_ws[:0, -1], cols_ws[:, :0]))
    sums, counts = np.zeros((k, nbins)), np.zeros(nbins, dtype=np.intp)
    for sl, skip in zip(chunk_slices(len(mu)), far):
        if skip:
            continue
        m = sl.stop - sl.start
        u = core.left_displacement(c, mu.points[sl], out=u_ws[:m])
        d = core.koranyi_norm(u, out=norm_ws[:m])
        # the bin of d is the count of edges below it, which for
        # ascending edges is searchsorted(edges, d, side="left")
        bins, above = bins_ws[:m], above_ws[:m]
        bins.fill(0)
        for e in edges:
            bins += np.less(e, d, out=above)
        for j, col in enumerate(columns(sl, u, d, cols_ws[:, :m])):
            sums[j] += np.bincount(bins, weights=col, minlength=nbins)
        counts += np.bincount(bins, minlength=nbins)
    # the outer two bins lie outside the window
    return sums[:, 1:-1], counts[1:-1]


def closed_ball_sums(mu, center, radii, column):
    """Sums of one per-atom column over the closed balls B(center, r).

    ``column(sl, u, d)`` gives the values of the atoms in slice ``sl``
    from their displacements and distances; radii may come in any order
    and repeat.  One sweep serves every radius.
    """
    radii = np.asarray(radii, dtype=float)
    edges = np.unique(radii)
    sums, _ = binned_sweep(mu, center, np.concatenate([[-np.inf], edges]),
                           lambda sl, u, d, out: [column(sl, u, d)])
    inside = np.cumsum(sums[0])
    return inside[np.searchsorted(edges, radii)]


@dataclass
class DiscreteMeasure:
    """A finite positive atomic measure on H^n.

    Parameters
    ----------
    n : int
        Group index; coordinates have length 2n+1.
    points : ndarray, shape (N, 2n+1)
        Atom positions, stored coordinate-major.
    weights : ndarray, shape (N,)
        Strictly positive atom masses.
    label : str
        Free-form provenance string.
    spacing : float or None
        Metric scale of the discretisation (finest atom spacing).  Ball
        statistics are unreliable below four times this value; consumers
        use it as a resolution floor.

    ``points`` and ``weights`` are kept as read-only views of the given
    arrays (no copy is made), so an in-place write through the measure
    raises instead of invalidating its cached chunk reach.
    """

    n: int
    points: np.ndarray
    weights: np.ndarray
    label: str = ""
    spacing: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"group index must be >= 1, got {self.n}")
        pts = np.asfortranarray(self.points, dtype=float)
        wts = np.ascontiguousarray(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != ambient_dim(self.n):
            raise ValueError(
                f"points must have shape (N, {ambient_dim(self.n)}), got {pts.shape}"
            )
        if wts.shape != (pts.shape[0],):
            raise ValueError("weights must be a vector matching the atom count")
        # one chunk at a time, so that checking a measure costs O(CHUNK)
        if not all(np.all(np.isfinite(pts[sl])) for sl in chunk_slices(len(pts))):
            raise ValueError("atom coordinates must be finite")
        if not all(np.all(np.isfinite(wts[sl])) and not np.any(wts[sl] <= 0.0)
                   for sl in chunk_slices(len(wts))):
            raise ValueError("weights must be finite and strictly positive")
        if self.spacing is not None and not self.spacing > 0.0:
            raise ValueError("spacing must be positive when given")
        self.points = pts.view()
        self.weights = wts.view()
        self.points.flags.writeable = False
        self.weights.flags.writeable = False
        self._reach = None
        self._reach_lock = threading.Lock()

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def ball_mass(self, center, radius):
        """Mass of the closed gauge ball(s) B(center, radius).

        ``radius`` may be a scalar or a sequence; the return type follows.
        """
        radii = np.atleast_1d(np.asarray(radius, dtype=float))
        if np.any(radii < 0.0):
            raise ValueError("radii must be nonnegative")
        totals = closed_ball_sums(self, center, radii,
                                  lambda sl, u, d: self.weights[sl])
        if np.isscalar(radius) or np.asarray(radius).ndim == 0:
            return float(totals[0])
        return totals

    def chunk_reach(self) -> np.ndarray:
        """Reach max d(a_k, q) of each sweep chunk k from its first atom a_k.

        One chunked distance pass, computed on first use and cached
        against the ``points`` array; threads that ask at the same time
        wait for the one computation.
        """
        with self._reach_lock:
            if self._reach is None or self._reach[0] is not self.points:
                pts = self.points
                reach = np.array([dist(pts[sl.start], pts[sl]).max()
                                  for sl in chunk_slices(len(self))
                                  if sl.stop > sl.start], dtype=float)
                self._reach = (pts, reach)
            return self._reach[1]

    def diameter_bound(self) -> float:
        """Upper bound for the support diameter via the triangle inequality."""
        if len(self) == 0:
            return 0.0
        top = 0.0
        ref = self.points[0]
        for sl in chunk_slices(len(self)):
            d = dist(ref, self.points[sl])
            top = max(top, float(d.max()))
        return 2.0 * top

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------

    def to_csv(self, path) -> None:
        cols = [f"x{i + 1}" for i in range(ambient_dim(self.n))] + ["weight"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for sl in chunk_slices(len(self)):
                rows = np.column_stack([self.points[sl], self.weights[sl]])
                np.savetxt(fh, rows, delimiter=",", fmt="%.17g")

    @classmethod
    def from_csv(cls, path, label: str = "", spacing: float | None = None):
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
        cols = header.split(",")
        if len(cols) < 4 or cols[-1] != "weight":
            raise ValueError(f"unrecognised measure header: {header!r}")
        n = group_index(len(cols) - 1)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != len(cols):
            raise ValueError("row width does not match the header")
        return cls(n, data[:, :-1], data[:, -1], label=label, spacing=spacing)
