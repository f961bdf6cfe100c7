"""Weighted atomic measures on H^n.

Atoms are stored as a dense coordinate array plus a weight vector so that
ten-million-atom measures stay practical.  Equal weights may be held
once, as a zero-stride vector (``np.broadcast_to``), which is kept as
given.  The coordinate array is coordinate-major (Fortran order), so
each coordinate of a chunk of atoms is one contiguous run; ball masses
and every transform are one :func:`binned_sweep` over it.
Validation, sweeps and CSV reads need O(CHUNK) memory beyond the atoms.
Each measure keeps, once computed, the reach of every chunk from its
first atom, which gives a sweep the range of distance bins each chunk
can reach: it skips the chunks that the triangle inequality puts
outside the window it reads, and sums a chunk that falls in one bin
without binning its atoms.  A sweep over many chunks, and the reach
itself, run on as many threads as the process has CPUs (fewer where
the sweep workspaces would pass SWEEP_BYTES), with the same bits as on
one.  ``points`` and ``weights`` are read-only, so that cache cannot go
stale.  Measures are written to and read from CSV files with the
header ``x1,...,x{2n+1},weight``; the label and the resolution scale
are given on reading.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import core
from .core import ambient_dim, dist, group_index, _coords

__all__ = ["AtomCapExceeded", "DEFAULT_ATOM_CAP", "DiscreteMeasure",
           "binned_sweep", "closed_ball_sums", "write_csv"]

# Default ceiling on atom counts; a level-6 cylinder measure of the
# sixteen-map system (16^6 atoms) must fit below it.
DEFAULT_ATOM_CAP = 20_000_000

# Chunk length for streaming passes over the atom array: a chunk's
# coordinates and temporaries stay cache-resident (2^16 measured fastest
# for a level-6 growth profile), and peak memory is O(CHUNK), not O(N).
CHUNK = 1 << 16

# A sweep that keeps fewer chunks runs on the calling thread.  Helper
# threads for the level-5 sweeps (16 chunks) raised a level-5 query
# run's peak RSS by 12 MB (their malloc arenas) with no time gained; the
# growth sweeps at level-6 cycle points keep 67 to 256 chunks.
PARALLEL_CHUNKS = 32

# Bytes that the workspaces of one sweep's worker threads hold together;
# two n = 1 workspaces (4.86 MB each) fit, so peak sweep memory stays
# bounded by the chunk at every CPU count.
SWEEP_BYTES = 10 * 10 ** 6

# The cap on a sweep's worker threads, set by _worker_cap; None is every CPU.
_WORKER_CAP = contextvars.ContextVar("heisriesz_sweep_workers", default=None)


class AtomCapExceeded(RuntimeError):
    """Raised when a construction would exceed a size cap: the configured
    atom cap, or the separation's cap on candidate pairs."""


def chunk_slices(total: int):
    """Yield CHUNK-long slices covering range(total) in fixed order (at
    least one)."""
    for start in range(0, max(total, 1), CHUNK):
        yield slice(start, min(start + CHUNK, total))


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one (Linux), else every CPU."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _worker_cap(threads):
    """Cap the workers of every sweep made in the block at ``threads``;
    None leaves every CPU to them."""
    token = _WORKER_CAP.set(threads)
    try:
        yield
    finally:
        _WORKER_CAP.reset(token)


def _map_chunks(worker, chunks, n: int) -> list:
    """``[work(chunk) for chunk in chunks]`` for a measure on H^n, where
    each thread that works takes ``work = worker()`` once, so that it can
    hold a workspace of its own.

    Fewer than PARALLEL_CHUNKS chunks run on the calling thread.  More
    are spread over it and helper threads, as many in all as the process
    has CPUs, at most the cap of :func:`_worker_cap`, and at most as many
    as SWEEP_BYTES holds of sweep workspaces: CHUNK rows of u, the norm's
    scratch and the columns, 2n+1 doubles each, plus two masks.  Each
    thread takes the next chunk not yet taken, and the results keep the
    order of ``chunks``.  An exception in any thread reaches the caller.
    """
    workers = 1
    if len(chunks) >= PARALLEL_CHUNKS:
        cap = _WORKER_CAP.get()
        workspace = CHUNK * (24 * ambient_dim(n) + 2)
        workers = min(_cpu_count(), len(chunks), SWEEP_BYTES // workspace,
                      len(chunks) if cap is None else cap)
    if workers <= 1:
        work = worker()
        return [work(chunk) for chunk in chunks]
    results = [None] * len(chunks)
    taken, lock = iter(range(len(chunks))), threading.Lock()

    def drain():
        work = worker()
        while True:
            with lock:
                i = next(taken, None)
            if i is None:
                return
            results[i] = work(chunks[i])

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for helper in helpers:
            helper.result()
    return results


def write_csv(path, header: str, columns) -> None:
    """Write the line ``header``, then one line per row of ``columns``.

    ``columns`` are arrays of equal length, each one column or a block
    of columns, joined side by side.  Every value is written as
    ``"%.17g"``, which reads back with the same bits and writes an
    integral value without a point, CHUNK rows at a time.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for sl in chunk_slices(len(columns[0])):
            np.savetxt(fh, np.column_stack([c[sl] for c in columns]),
                       delimiter=",", fmt="%.17g")


def binned_sweep(mu, center, edges, columns):
    """Sum per-atom columns over a window of gauge-distance bins.

    ``edges`` is ascending, with +-inf allowed at the ends; bin i holds
    the atoms with edges[i] < d <= edges[i+1], and atoms outside the
    window (edges[0], edges[-1]] contribute nothing.  So a closed ball
    of radius r is the window [-inf, r] and the truncation d > eps is
    [eps, inf].  One pass walks the atoms chunk by chunk; for each
    chunk it takes the displacements u = center^{-1} q and distances
    d = ||u|| from :mod:`core`, and ``columns(sl, u, d, out)`` returns
    the chunk's per-atom values as k arrays: arrays of its own, or rows
    of ``out``, a (2n+1, len(d)) scratch that it may fill (several
    threads may call it at once, each with its own ``out``).  Returns the
    (k, len(edges) - 1) per-bin sums; a column of ones counts the atoms
    of each bin.  A centre that is not finite raises ``ValueError``:
    every ball mass, cone mass and transform reads its centre here.  The
    distances end in two correctly rounded square roots
    (``core._gauge``), so they and the bins have the same bits at every
    numpy SIMD level; the sums do too when the columns use no
    CPU-dependent loop.

    Each thread that works on a call allocates one coordinate-major
    workspace of CHUNK rows (u, the norm's scratch and d, bin masks,
    columns) and writes each chunk it takes into it, so a sweep's cost
    does not depend on what the allocator holds from earlier work.  A
    sweep that keeps PARALLEL_CHUNKS chunks or more spreads them over
    the calling thread and helper threads (:func:`_map_chunks`).  Each
    chunk's per-bin sums are kept, and the caller adds them into the
    bins in chunk order, as one thread does, so the result has the same
    bits at every thread count.

    The triangle inequality, applied to the distance of a chunk's first
    atom from the centre and the chunk's cached reach, bounds the
    distances of all its atoms, and so the range of bins they can fall
    in.  A chunk whose range misses the window is skipped.  A chunk whose
    range is one bin adds the pairwise sum ``np.add.reduce`` of each
    column to that bin without comparing a single distance with an
    edge.  Any other chunk, for each window bin in its range, adds the
    pairwise sum of a zero-filled copy of each column that holds only
    the atoms of that bin (:func:`_bin_sums`).  Bins outside the window
    are never summed, so the columns may hold NaN or inf for atoms
    there.  Across chunks the sums are taken in chunk order.  A bin that
    holds every atom of a chunk gets the same bits from either path, and
    a bin that holds none gets +0.0 or nothing, so pruning does not
    change a bit of the result.  Against exact arithmetic, a bin's sum over c chunks errs by
    at most about (35 + c) u sum |terms|, u = 2^-53 (numpy's pairwise sum
    takes each term of a chunk through at most 35 additions).
    """
    c, _ = _coords(center, mu.n)
    if not np.all(np.isfinite(c)):
        raise ValueError("the centre's coordinates must be finite")
    edges = np.asarray(edges, dtype=float)
    # window bins are 1..top, numbered by the count of edges below d
    top = len(edges) - 1
    anchors, reach = mu.points[::CHUNK], mu.chunk_reach()
    gap = dist(c, anchors)
    # rounding can move a computed gauge distance by up to about the
    # square root of an ulp of the coordinates (the fourth root of a
    # cancelled vertical term), so the margin scales with the sizes
    margin = 1e-7 * mu.n * (1.0 + core.koranyi_norm(c)
                            + core.koranyi_norm(anchors) + reach)
    # bin(x) = searchsorted(edges, x) is monotone in x, so a chunk's
    # atoms lie in the bins first..last
    first = np.searchsorted(edges, gap - reach - margin)
    last = np.searchsorted(edges, gap + reach + margin)

    dim = ambient_dim(mu.n)
    # an empty chunk sets the column count, so a sweep that skips every
    # chunk still returns zero-filled bins
    k = len(columns(slice(0, 0), np.empty((0, dim), order="F"), np.empty(0),
                    np.empty((dim, 0))))
    kept = [(sl, lo, hi) for sl, lo, hi in zip(chunk_slices(len(mu)), first, last)
            if hi >= 1 and lo <= top]

    def sweeper():
        rows = min(len(mu), CHUNK)
        u_ws = np.empty((rows, dim), order="F")
        norm_ws = np.empty((rows, dim), order="F")
        inside_ws = np.empty((2, rows), dtype=bool)
        cols_ws = np.empty((dim, rows))

        def sweep_chunk(chunk):
            """The chunk's first window bin, and its sums per bin from
            there on."""
            sl, lo, hi = chunk
            m = sl.stop - sl.start
            u = core.left_displacement(c, mu.points[sl], out=u_ws[:m])
            d = core.koranyi_norm(u, out=norm_ws[:m])
            cols = columns(sl, u, d, cols_ws[:, :m])
            if lo == hi:
                return lo - 1, [[np.add.reduce(col) for col in cols]]
            # the norm's first coordinate is free once d is known
            return max(lo, 1) - 1, [
                _bin_sums(cols, d, edges[b - 1], edges[b], inside_ws[:, :m],
                          norm_ws[:m, 0])
                for b in range(max(lo, 1), min(hi, top) + 1)]

        return sweep_chunk

    sums = np.zeros((k, top))
    for start, bins in _map_chunks(sweeper, kept, mu.n):
        for b, bin_sums in enumerate(bins, start):
            sums[:, b] += bin_sums
    return sums


def _bin_sums(cols, d, lower, upper, inside, part):
    """Pairwise sums of each column over the atoms with lower < d <= upper.

    ``inside`` is (2, len(d)) boolean scratch.  Each column is copied
    into the zero-filled scratch row ``part`` where the atom is inside,
    so a bin that holds every atom gets the bits of ``np.add.reduce`` of
    the column itself.
    """
    mask = np.less(lower, d, out=inside[0])
    mask &= np.less_equal(d, upper, out=inside[1])
    sums = []
    for col in cols:
        part.fill(0.0)
        np.copyto(part, col, where=mask)
        sums.append(np.add.reduce(part))
    return sums


def closed_ball_sums(mu, center, radii, column):
    """Sums of one per-atom column over the closed balls B(center, r).

    ``column(sl, u, d)`` gives the values of the atoms in slice ``sl``
    from their displacements and distances; radii may come in any order
    and repeat.  One sweep serves every radius.
    """
    radii = np.asarray(radii, dtype=float)
    edges = np.unique(radii)
    sums = binned_sweep(mu, center, np.concatenate([[-np.inf], edges]),
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
    raises instead of invalidating its cached chunk reach.  A weight
    vector with zero stride, such as ``np.broadcast_to(w, (N,))``, is
    kept as given: equal weights are then held once, in 8 bytes, not
    8N, and every sweep, sum and CSV row reads the same bits as from
    the full vector.  Any other vector is stored C-contiguous.
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
        wts = np.asarray(self.weights, dtype=float)
        # a zero-stride vector (one weight held once) is kept as given
        if wts.ndim != 1 or wts.strides != (0,):
            wts = np.ascontiguousarray(wts)
        if pts.ndim != 2 or pts.shape[1] != ambient_dim(self.n):
            raise ValueError(
                f"points must have shape (N, {ambient_dim(self.n)}), got {pts.shape}"
            )
        if wts.shape != (pts.shape[0],):
            raise ValueError("weights must be a vector matching the atom count")
        # one chunk at a time, so that checking a measure costs O(CHUNK)
        if not all(np.all(np.isfinite(pts[sl])) for sl in chunk_slices(len(pts))):
            raise ValueError("atom coordinates must be finite")
        # a zero-stride vector holds one weight, so its first entry is all
        held = wts[:1] if wts.strides == (0,) else wts
        if not all(np.all(np.isfinite(held[sl])) and not np.any(held[sl] <= 0.0)
                   for sl in chunk_slices(len(held))):
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
        if not np.all(radii >= 0.0):
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
                reach = np.array(_map_chunks(
                    lambda: lambda sl: dist(pts[sl.start], pts[sl]).max(),
                    [sl for sl in chunk_slices(len(self)) if sl.stop > sl.start],
                    self.n), dtype=float)
                self._reach = (pts, reach)
            return self._reach[1]

    def diameter_bound(self) -> float:
        """Upper bound for the support diameter via the triangle inequality."""
        if len(self) == 0:
            return 0.0
        ref = self.points[0]
        return 2.0 * max(0.0, *_map_chunks(
            lambda: lambda sl: float(dist(ref, self.points[sl]).max()),
            list(chunk_slices(len(self))), self.n))

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------

    def to_csv(self, path) -> None:
        cols = [f"x{i + 1}" for i in range(ambient_dim(self.n))] + ["weight"]
        write_csv(path, ",".join(cols), [self.points, self.weights])

    @classmethod
    def from_csv(cls, path, label: str = "", spacing: float | None = None):
        """Read a measure written by :meth:`to_csv`.

        One binary pass counts the rows; the coordinate-major points and
        the weights are allocated once and filled from ``np.loadtxt``
        blocks of CHUNK rows, so a read holds the measure plus one block.
        Blank and comment lines are skipped as ``np.loadtxt`` skips them
        (numpy warns about them when it reads by rows, and the arrays are
        then trimmed, by a copy).  Weights that all have the same bits
        are held once, as a zero-stride vector.
        """
        with open(path, "rb") as fh:
            header = fh.readline().decode("utf-8").strip()
            cols = header.split(",")
            if len(cols) < 4 or cols[-1] != "weight":
                raise ValueError(f"unrecognised measure header: {header!r}")
            rows, last = 0, b"\n"
            for block in iter(lambda: fh.read(1 << 20), b""):
                rows += block.count(b"\n")
                last = block[-1:]
            if last != b"\n":
                rows += 1
        n = group_index(len(cols) - 1)
        pts, wts = np.empty((rows, len(cols) - 1), order="F"), np.empty(rows)
        filled = 0
        with open(path, "r", encoding="utf-8") as fh:
            fh.readline()
            while filled < rows:
                want = min(CHUNK, rows - filled)
                data = np.loadtxt(fh, delimiter=",", max_rows=want, ndmin=2)
                got = len(data)
                if got == 0:
                    break
                if data.shape[1] != len(cols):
                    raise ValueError("row width does not match the header")
                pts[filled:filled + got] = data[:, :-1]
                wts[filled:filled + got] = data[:, -1]
                filled += got
                # the next block must not be parsed while this one is held
                del data
                if got < want:
                    break
        wts = wts[:filled]
        # equal weights are held once, as a cylinder measure holds them;
        # the copy lets the full vector go
        same = wts[:1].view(np.int64)
        if filled and all(np.all(wts[sl].view(np.int64) == same)
                          for sl in chunk_slices(filled)):
            wts = np.broadcast_to(wts[:1].copy(), (filled,))
        return cls(n, pts[:filled], wts, label=label, spacing=spacing)
