"""Weighted atomic measures on H^n.

Atoms are stored as a coordinate array plus a weight vector so that
ten-million-atom measures stay practical.  The coordinate array is
either explicit and coordinate-major (Fortran order), so each coordinate
of a chunk of atoms is one contiguous run, or an :class:`AtomTable`: the
level L - 1 atoms of an equal-ratio cylinder measure, dilated by its
ratio, and its maps' translations, from which each chunk of atoms is
built on demand, bit for bit as the full build makes it.  Every reader
takes its rows through :meth:`DiscreteMeasure.rows` (or the table's
indexing, which builds the same rows).  Equal weights may be held once,
as a zero-stride vector (``np.broadcast_to``), which is kept as given.
Ball masses, cone masses and every transform are one
:func:`binned_sweep` over the atoms, for one centre or a (k, 2n+1)
batch: a ball mass is a float or (R,) for R radii at one centre, and
(k,) or (k, R) for a batch.
Validation, sweeps and CSV reads need O(CHUNK) memory beyond the held
atoms.  Each measure keeps, once computed, the reach of every chunk from
its first atom, which gives a sweep the range of distance bins each
chunk can reach: it skips the chunks that the triangle inequality puts
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

__all__ = ["AtomCapExceeded", "AtomTable", "DEFAULT_ATOM_CAP",
           "DiscreteMeasure", "binned_sweep", "closed_ball_sums", "write_csv"]

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

# Bytes that the workspaces of one sweep's worker threads hold together,
# so that peak sweep memory stays bounded by the chunk at every CPU
# count.  A worker holds CHUNK rows of 2(2n+1)+1 doubles, and 3(2n+1)+1
# when it sweeps a table's built chunk for a batch of centres, plus two
# byte masks: 3.80 MB and 5.37 MB for n = 1, so two of either fit.
SWEEP_BYTES = 11 * 10 ** 6

# The cap on a sweep's worker threads, set by _worker_cap; None is every CPU.
_WORKER_CAP = contextvars.ContextVar("heisriesz_sweep_workers", default=None)


class AtomCapExceeded(RuntimeError):
    """Raised when a construction would exceed a size cap: the configured
    atom cap, or the separation's cap on candidate pairs.  The message
    starts with the cap's name ("atom cap exceeded: ..." or "pair cap
    exceeded: ...")."""


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


def _map_chunks(worker, chunks, row_bytes: int) -> list:
    """``[work(chunk) for chunk in chunks]``, where each thread that
    works takes ``work = worker()`` once, so that it can hold a workspace
    of its own, of ``row_bytes`` per CHUNK row.

    Fewer than PARALLEL_CHUNKS chunks run on the calling thread.  More
    are spread over it and helper threads, as many in all as the process
    has CPUs, at most the cap of :func:`_worker_cap`, and at most as many
    workspaces as SWEEP_BYTES holds.  Each thread takes the next chunk
    not yet taken, and the results keep the order of ``chunks``.  An
    exception in any thread reaches the caller.
    """
    workers = 1
    if len(chunks) >= PARALLEL_CHUNKS:
        cap = _WORKER_CAP.get()
        workers = min(_cpu_count(), len(chunks),
                      SWEEP_BYTES // (CHUNK * row_bytes),
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


class AtomTable:
    """Atom coordinates held as dilated parents and translations, built
    on demand.

    With B rows D of dilated parent atoms and translations q_0, q_1, ...,
    row m B + j is q_m . D[j], formed by ``core.group_mul``, which is
    elementwise, so every row has the same bits however the rows are
    grouped.  An equal-ratio cylinder measure of level L holds
    D = delta_r(its level L - 1 atoms), formed once by ``core.dilate``,
    and its maps' translations: row m B + j is then S_m(parent j), by the
    ops of the last level of its build, with the bits of the full build.

    The table is a read-only lazy view of the (len(translations) B, 2n+1)
    coordinate array.  ``len``, ``shape``, ``[int]``, ``[int array]``
    and ``[slice]`` build only the rows asked for, ``np.asarray`` builds
    every row (coordinate-major), and ``nbytes`` counts the bytes held,
    those of D.
    """

    def __init__(self, dilated, translations) -> None:
        dilated = np.asfortranarray(dilated, dtype=float)
        if dilated.ndim != 2:
            raise ValueError(f"dilated parents must be (B, 2n+1), got {dilated.shape}")
        dilated.flags.writeable = False
        self.dilated = dilated
        self.translations = tuple(np.asarray(q, dtype=float) for q in translations)
        self.shape = (len(self.translations) * len(dilated), dilated.shape[1])

    def __len__(self) -> int:
        return self.shape[0]

    @property
    def nbytes(self) -> int:
        return self.dilated.nbytes

    def rows(self, sl, out=None) -> np.ndarray:
        """Rows ``sl`` (a slice of step 1) written into ``out``, a
        (>= m, 2n+1) array, allocated when None.  A slice that spans
        several first letters is built one letter segment at a time."""
        start, stop, step = sl.indices(len(self))
        if step != 1:
            raise ValueError("rows are read in slices of step 1")
        m = max(stop - start, 0)
        out = np.empty((m, self.shape[1]), order="F") if out is None else out[:m]
        at = start
        while at < stop:
            letter, j = divmod(at, len(self.dilated))
            k = min(stop - at, len(self.dilated) - j)
            core.group_mul(self.translations[letter], self.dilated[j:j + k],
                           out=out[at - start:at - start + k])
            at += k
        return out

    def _take(self, idx) -> np.ndarray:
        idx = np.asarray(idx)
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise IndexError("a table is indexed by an int, a slice or a "
                             "1-D int array")
        idx = np.where(idx < 0, idx + len(self), idx).astype(np.int64)
        if idx.size and not (0 <= idx.min() and idx.max() < len(self)):
            raise IndexError(f"row index out of range for {len(self)} rows")
        letters, j = np.divmod(idx, len(self.dilated))
        out = np.empty((len(idx), self.shape[1]), order="F")
        for letter in np.unique(letters):
            at = np.flatnonzero(letters == letter)
            out[at] = core.group_mul(self.translations[letter], self.dilated[j[at]])
        return out

    def __getitem__(self, key):
        if isinstance(key, slice) and key.step in (None, 1):
            return self.rows(key)
        if isinstance(key, slice):
            return self._take(np.arange(*key.indices(len(self))))
        if isinstance(key, (int, np.integer)):
            return self._take([key])[0]
        return self._take(key)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a table's rows are built, so they are a copy")
        out = self.rows(slice(None))
        return out if dtype is None else out.astype(dtype, copy=False)


def binned_sweep(mu, centers, edges, columns):
    """Sum per-atom columns over a window of gauge-distance bins.

    ``centers`` is one point or a (k, 2n+1) batch.  ``edges`` is
    ascending, with +-inf allowed at the ends; bin i holds the atoms with
    edges[i] < d <= edges[i+1], and atoms outside the window
    (edges[0], edges[-1]] contribute nothing.  So a closed ball of radius
    r is the window [-inf, r] and the truncation d > eps is [eps, inf].
    One pass walks the atoms chunk by chunk; for each chunk and centre it
    takes the displacements u = center^{-1} q and distances d = ||u||
    from :mod:`core`, and ``columns(sl, u, d, out)`` returns the chunk's
    per-atom values as c arrays: arrays of its own, or rows of ``out``, a
    (2n+1, len(d)) scratch that it may fill (several threads may call it
    at once, each with its own ``out``), but no view of ``u``, whose rows
    the sweep reuses once the columns are formed.  Returns the per-bin
    sums, (c, len(edges) - 1) for one centre and (k, c, len(edges) - 1)
    for a batch; a column of ones counts the atoms of each bin.  A centre
    that is not finite raises ``ValueError``: every ball mass, cone mass
    and transform reads its centre here.  The distances end in two
    correctly rounded square roots (``core._gauge``), so they and the
    bins have the same bits at every numpy SIMD level; the sums do too
    when the columns use no CPU-dependent loop.

    Each thread that works on a call allocates one coordinate-major
    workspace of CHUNK rows (u, the columns and d, bin masks) and writes
    each chunk it takes into it, so a sweep's cost does not depend on
    what the allocator holds from earlier work.  A table's chunk is built
    once per chunk (:meth:`DiscreteMeasure.rows`): into the columns'
    rows for one centre, where it is spent once u is formed, and into a
    buffer of its own for a batch, which every centre that the chunk can
    reach then sweeps.  A sweep that keeps PARALLEL_CHUNKS chunks or more
    spreads them over the calling thread and helper threads
    (:func:`_map_chunks`).  Each (centre, chunk) pair's per-bin sums are
    kept, and the caller adds them into the centre's bins in chunk order,
    as one thread does, so the result has the same bits at every thread
    count and for a batch as for each centre alone.

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
    c, _ = _coords(centers, mu.n)
    if c.ndim > 2:
        raise ValueError(f"centres must be one point or a (k, {c.shape[-1]}) "
                         f"batch, got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("the centre's coordinates must be finite")
    batch = np.atleast_2d(c)
    edges = np.asarray(edges, dtype=float)
    # window bins are 1..top, numbered by the count of edges below d
    top = len(edges) - 1
    anchors, reach = mu.points[::CHUNK], mu.chunk_reach()
    gap = dist(batch[:, None], anchors)
    # rounding can move a computed gauge distance by up to about the
    # square root of an ulp of the coordinates (the fourth root of a
    # cancelled vertical term), so the margin scales with the sizes
    margin = 1e-7 * mu.n * (1.0 + core.koranyi_norm(batch)[:, None]
                            + core.koranyi_norm(anchors) + reach)
    # bin(x) = searchsorted(edges, x) is monotone in x, so a chunk's
    # atoms lie in the bins first..last
    first = np.searchsorted(edges, gap - reach - margin)
    last = np.searchsorted(edges, gap + reach + margin)
    keep = (last >= 1) & (first <= top)

    dim = ambient_dim(mu.n)
    # an empty chunk sets the column count, so a sweep that skips every
    # chunk still returns zero-filled bins
    k = len(columns(slice(0, 0), np.empty((0, dim), order="F"), np.empty(0),
                    np.empty((dim, 0))))
    kept = []
    for j, sl in zip(range(keep.shape[1]), chunk_slices(len(mu))):
        centres = np.flatnonzero(keep[:, j])
        if centres.size:
            kept.append((sl, [(i, first[i, j], last[i, j]) for i in centres]))
    # a table's chunk built for several centres needs rows of its own;
    # for one, the columns' rows hold it until u is formed
    held = isinstance(mu.points, AtomTable) and len(batch) > 1

    def sweeper():
        rows = min(len(mu), CHUNK)
        u_ws = np.empty((rows, dim), order="F")
        # the columns and then d; the norm's scratch is the last column
        cols_ws = np.empty((dim + 1, rows))
        inside_ws = np.empty((2, rows), dtype=bool)
        chunk_ws = np.empty((rows, dim), order="F") if held else cols_ws[:dim].T

        def sweep_chunk(chunk):
            """Each kept centre's first window bin, and its sums per bin
            from there on."""
            sl, centres = chunk
            m = sl.stop - sl.start
            q = mu.rows(sl, out=chunk_ws)
            out = []
            for i, lo, hi in centres:
                u = core.left_displacement(batch[i], q, out=u_ws[:m])
                d = core.koranyi_norm(u, out=cols_ws[dim - 1:, :m].T)
                cols = columns(sl, u, d, cols_ws[:dim, :m])
                if lo == hi:
                    out.append((i, lo - 1, [[np.add.reduce(col) for col in cols]]))
                    continue
                # u is spent once the columns are formed
                out.append((i, max(lo, 1) - 1, [
                    _bin_sums(cols, d, edges[b - 1], edges[b], inside_ws[:, :m],
                              u_ws[:m, 0])
                    for b in range(max(lo, 1), min(hi, top) + 1)]))
            return out

        return sweep_chunk

    sums = np.zeros((len(batch), k, top))
    row_bytes = 8 * ((3 if held else 2) * dim + 1) + 2
    for results in _map_chunks(sweeper, kept, row_bytes):
        for i, start, bins in results:
            for b, bin_sums in enumerate(bins, start):
                sums[i, :, b] += bin_sums
    return sums if c.ndim == 2 else sums[0]


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


def closed_ball_sums(mu, centers, radii, column):
    """Sums of one per-atom column over the closed balls B(center, r).

    ``column(sl, u, d)`` gives the atoms' values in slice ``sl`` from
    their displacements and distances; radii may repeat, in any order.
    One sweep gives (R,) for R radii at one centre, (k, R) for a batch.
    """
    radii = np.asarray(radii, dtype=float)
    edges = np.unique(radii)
    sums = binned_sweep(mu, centers, np.concatenate([[-np.inf], edges]),
                        lambda sl, u, d, out: [column(sl, u, d)])
    inside = np.cumsum(sums[..., 0, :], axis=-1)
    return inside[..., np.searchsorted(edges, radii)]


@dataclass
class DiscreteMeasure:
    """A finite positive atomic measure on H^n.

    Parameters
    ----------
    n : int
        Group index; coordinates have length 2n+1.
    points : ndarray or AtomTable, shape (N, 2n+1)
        Atom positions: an array, stored coordinate-major, or a table
        that builds them on demand, kept as given.
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
    the full vector.  Any other vector is stored C-contiguous.  Readers
    take atom rows through :meth:`rows`.
    """

    n: int
    points: np.ndarray
    weights: np.ndarray
    label: str = ""
    spacing: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"group index must be >= 1, got {self.n}")
        table = isinstance(self.points, AtomTable)
        pts = self.points if table else np.asfortranarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        # a zero-stride vector (one weight held once) is kept as given
        if wts.ndim != 1 or wts.strides != (0,):
            wts = np.ascontiguousarray(wts)
        if len(pts.shape) != 2 or pts.shape[1] != ambient_dim(self.n):
            raise ValueError(
                f"points must have shape (N, {ambient_dim(self.n)}), got {pts.shape}"
            )
        if wts.shape != (pts.shape[0],):
            raise ValueError("weights must be a vector matching the atom count")
        # one chunk at a time, so that checking a measure costs O(CHUNK);
        # a table's rows are translates of its dilated parents, and a
        # twist that overflows shows in the chunk reach
        held = pts.dilated if table else pts
        if not all(np.all(np.isfinite(held[sl])) for sl in chunk_slices(len(held))):
            raise ValueError("atom coordinates must be finite")
        # a zero-stride vector holds one weight, so its first entry is all
        held = wts[:1] if wts.strides == (0,) else wts
        if not all(np.all(np.isfinite(held[sl])) and not np.any(held[sl] <= 0.0)
                   for sl in chunk_slices(len(held))):
            raise ValueError("weights must be finite and strictly positive")
        if self.spacing is not None and not self.spacing > 0.0:
            raise ValueError("spacing must be positive when given")
        if not table:
            pts = pts.view()
            pts.flags.writeable = False
        self.points = pts
        self.weights = wts.view()
        self.weights.flags.writeable = False
        self._reach = None
        self._reach_lock = threading.Lock()

    def __len__(self) -> int:
        return self.points.shape[0]

    def rows(self, sl, out=None) -> np.ndarray:
        """Coordinates of the atoms in ``sl``, a slice of step 1.

        An explicit array gives a read-only view.  A table builds the rows
        into ``out``, a coordinate-major array of at least as many rows
        (allocated when None), and returns them.
        """
        if isinstance(self.points, AtomTable):
            return self.points.rows(sl, out)
        return self.points[sl]

    def _row_buffer(self):
        """``out`` for :meth:`rows` of one chunk: CHUNK rows for a table,
        None for an explicit array."""
        if not isinstance(self.points, AtomTable):
            return None
        return np.empty((min(len(self), CHUNK), ambient_dim(self.n)), order="F")

    def _chunk_max_dists(self, ref=None) -> np.ndarray:
        """The largest distance of each chunk's atoms from ``ref``, or
        from the chunk's first atom when None, in one chunked pass.  A
        worker holds a table's built rows and the six temporaries of
        ``core.dist`` per CHUNK row."""
        def worker():
            out = self._row_buffer()

            def farthest(sl):
                rows = self.rows(sl, out)
                return dist(rows[0] if ref is None else ref, rows).max()

            return farthest

        built = ambient_dim(self.n) if isinstance(self.points, AtomTable) else 0
        return np.array(_map_chunks(
            worker, [sl for sl in chunk_slices(len(self)) if sl.stop > sl.start],
            8 * (built + 6)), dtype=float)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def ball_mass(self, center, radius):
        """Mass of the closed gauge ball(s) B(center, radius), from one
        sweep: a float or (R,) for a scalar or R radii at one centre, and
        (k,) or (k, R) for a (k, 2n+1) batch of centres.
        """
        radii = np.asarray(radius, dtype=float)
        if not np.all(radii >= 0.0):
            raise ValueError("radii must be nonnegative")
        totals = closed_ball_sums(self, center, radii.ravel(),
                                  lambda sl, u, d: self.weights[sl])
        totals = totals.reshape(totals.shape[:-1] + radii.shape)
        return float(totals) if totals.ndim == 0 else totals

    def chunk_reach(self) -> np.ndarray:
        """Reach max d(a_k, q) of each sweep chunk k from its first atom a_k.

        One chunked distance pass, computed on first use and cached
        against the ``points`` array; threads that ask at the same time
        wait for the one computation.
        """
        with self._reach_lock:
            if self._reach is None or self._reach[0] is not self.points:
                pts = self.points
                reach = self._chunk_max_dists()
                if not np.all(np.isfinite(reach)):
                    raise ValueError("atom coordinates must be finite")
                self._reach = (pts, reach)
            return self._reach[1]

    def diameter_bound(self) -> float:
        """Upper bound for the support diameter via the triangle inequality."""
        if len(self) == 0:
            return 0.0
        return 2.0 * max(0.0, float(self._chunk_max_dists(self.points[0]).max()))

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------

    def to_csv(self, path) -> None:
        cols = [f"x{i + 1}" for i in range(ambient_dim(self.n))] + ["weight"]
        # a table's slices build their rows, a chunk at a time
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
