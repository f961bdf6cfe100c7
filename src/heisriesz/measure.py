"""Weighted atomic measures on H^n.

Atoms are stored as a coordinate array plus a weight vector so that
ten-million-atom measures stay practical.  The coordinate array is
either explicit and coordinate-major (Fortran order), so each coordinate
of a chunk of atoms is one contiguous run, or a read-only
:class:`AtomView` that builds each chunk of atoms on demand.  One view
is an :class:`AtomTable`: the level L - 1 atoms of an equal-ratio
cylinder measure, dilated by its ratio, and its maps' translations,
from which each chunk is built bit for bit as the full build makes it;
the level L - 1 atoms may themselves be such a table, of the level
L - 2 atoms, whose rows are built and dilated a parent block at a
time (:class:`ParentBlock`); another is a blow-up (``diagnostics.blowup_measure``), which maps its
source's rows as they are read and holds no atoms.  Every reader takes
its rows through :meth:`DiscreteMeasure.rows` (or the view's indexing,
which builds the same rows).  Equal weights may be held once,
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
header ``x1,...,x{2n+1},weight``, with the bytes of ``np.savetxt``
(``"%.17g"``) from a per-block table of each column's distinct values;
the label and the resolution scale are given on reading.
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

__all__ = ["AtomCapExceeded", "AtomTable", "AtomView", "DEFAULT_ATOM_CAP",
           "DiscreteMeasure", "binned_sweep", "closed_ball_sums", "write_csv"]

# Default ceiling on atom counts; a level-6 cylinder measure of the
# sixteen-map system (16^6 atoms) must fit below it.
DEFAULT_ATOM_CAP = 20_000_000

# Chunk length for streaming passes over the atom array: a chunk's
# coordinates and temporaries stay cache-resident (2^16 measured fastest
# for a level-6 growth profile), and peak memory is O(CHUNK), not O(N).
CHUNK = 1 << 16

# Rows per formatting block of write_csv: 65,536-row blocks raised the
# level-5 query run's peak RSS by 28 MB.
CSV_BLOCK = 1 << 13

# A sweep that keeps fewer chunks runs on the calling thread.  Helper
# threads for the level-5 sweeps (16 chunks) raised a level-5 query
# run's peak RSS by 12 MB (their malloc arenas) with no time gained; the
# growth sweeps at level-6 cycle points keep 67 to 256 chunks.
PARALLEL_CHUNKS = 32

# Bytes that the workspaces of one sweep's worker threads hold together,
# so that peak sweep memory stays bounded by the chunk at every CPU
# count.  A worker holds CHUNK rows of 2(2n+1)+1 doubles, and 3(2n+1)+1
# when it sweeps a view's built chunk for a batch of centres, plus two
# byte masks and the view's row scratch: 3.80 MB and 5.37 MB for n = 1
# with none, so two of either fit.  A nested table's parent block (2n+1
# doubles a row) is a buffer of its own for one centre, 5.37 MB in all,
# and the displacement rows for a batch, so two workers still fit.
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


def _map_chunks(worker, chunks, row_bytes: int, key=None) -> list:
    """``[work(chunk) for chunk in chunks]``, where each thread that
    works takes ``work = worker()`` once, so that it can hold a workspace
    of its own, of ``row_bytes`` per CHUNK row.

    Fewer than PARALLEL_CHUNKS chunks run on the calling thread.  More
    are spread over it and helper threads, as many in all as the process
    has CPUs, at most the cap of :func:`_worker_cap`, and at most as many
    workspaces as SWEEP_BYTES holds.  Each thread takes the next chunk
    not yet taken, in the order of ``key(chunk)`` (stably) when a key is
    given, and the results keep the order of ``chunks``.  An exception
    in any thread reaches the caller.
    """
    workers = 1
    if len(chunks) >= PARALLEL_CHUNKS:
        cap = _WORKER_CAP.get()
        workers = min(_cpu_count(), len(chunks),
                      SWEEP_BYTES // (CHUNK * row_bytes),
                      len(chunks) if cap is None else cap)
    order = range(len(chunks))
    if key is not None:
        order = sorted(order, key=lambda i: key(chunks[i]))
    results = [None] * len(chunks)
    if workers <= 1:
        work = worker()
        for i in order:
            results[i] = work(chunks[i])
        return results
    taken, lock = iter(order), threading.Lock()

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
    of columns, joined side by side.  The bytes are those of one
    ``np.savetxt(fh, np.column_stack(columns), fmt="%.17g",
    delimiter=",")``: every value is written as ``"%.17g"`` of its
    float, which reads back with the same bits and writes an integral
    value without a point.  Rows are formatted CSV_BLOCK at a time
    (:func:`_format_block`).
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), CSV_BLOCK):
            sl = slice(start, start + CSV_BLOCK)
            # savetxt's "%" formats an int column through its float
            fh.write(_format_block(np.column_stack([c[sl] for c in columns])
                                   .astype(float, copy=False)))


def _format_block(block) -> str:
    """The CSV lines of a float block, each distinct value formatted once.

    Each column's table of distinct values is keyed on the uint64 bit
    pattern, so -0.0 and +0.0, which ``"%.17g"`` writes as ``-0`` and
    ``0``, stay apart (keyed on the float, they would merge).  A table
    is formatted by one ``%`` over all its values, which costs less per
    value than one ``%`` each.
    """
    fields = []
    for j in range(block.shape[1]):
        keys, at = np.unique(np.ascontiguousarray(block[:, j]).view(np.uint64),
                             return_inverse=True)
        values = tuple(keys.view(float).tolist())
        text = ("%.17g\n" * len(values) % values).splitlines()
        fields.append(np.array(text, dtype=object)[at].tolist())
    return "\n".join(map(",".join, zip(*fields))) + "\n"


class AtomView:
    """A read-only lazy view of an (N, 2n+1) array of atom coordinates.

    A subclass holds what its rows are built from and supplies
    ``rows(sl, out, block)``, which builds the rows of a slice of step 1
    into ``out`` (allocated when None), with ``block`` a
    :class:`ParentBlock` for a nested :class:`AtomTable` and ignored by
    any other view, and ``_take(idx)``, which builds the
    rows of a 1-D array of in-range indices into a new array.  ``len``,
    ``shape``, ``[int]``, ``[int array]`` and ``[slice]`` build only the
    rows asked for, ``np.asarray`` builds every row (coordinate-major),
    and ``nbytes`` counts the bytes of the arrays held.  A subclass
    checks that its rows are finite when it is made.  ``row_scratch``
    is the bytes per row that ``rows`` allocates besides ``out``.
    """

    row_scratch = 0

    def __init__(self, shape, held=()) -> None:
        self.shape = tuple(shape)
        self._held = held

    def __len__(self) -> int:
        return self.shape[0]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._held)

    def _span(self, sl, out):
        """(start, stop, out) for rows ``sl``: ``out`` cut to their
        count, or a coordinate-major array of it when None."""
        start, stop, step = sl.indices(len(self))
        if step != 1:
            raise ValueError("rows are read in slices of step 1")
        m = max(stop - start, 0)
        out = np.empty((m, self.shape[1]), order="F") if out is None else out[:m]
        return start, stop, out

    def __getitem__(self, key):
        if isinstance(key, slice) and key.step in (None, 1):
            return self.rows(key)
        if isinstance(key, slice):
            return self._take(np.arange(*key.indices(len(self))))
        if isinstance(key, (int, np.integer)):
            return self[[key]][0]
        idx = np.asarray(key)
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise IndexError("a view is indexed by an int, a slice or a "
                             "1-D int array")
        idx = np.where(idx < 0, idx + len(self), idx).astype(np.int64)
        if idx.size and not (0 <= idx.min() and idx.max() < len(self)):
            raise IndexError(f"row index out of range for {len(self)} rows")
        return self._take(idx)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a view's rows are built, so they are a copy")
        out = self.rows(slice(None))
        return out if dtype is None else out.astype(dtype, copy=False)


class ParentBlock:
    """A buffer that a nested :class:`AtomTable` builds dilated parent
    rows into, and the (first row, row count) of the parent rows it
    holds (None while it holds none), so that the next read of the same
    parent rows takes them as they are."""

    def __init__(self, rows) -> None:
        self.rows, self.key = rows, None


class AtomTable(AtomView):
    """Atom coordinates held as dilated parents and translations, built
    on demand.

    With B rows D of dilated parent atoms and translations q_0, q_1, ...,
    row m B + j is q_m . D[j], formed by ``core.group_mul``, which is
    elementwise, so every row has the same bits however the rows are
    grouped.  An equal-ratio cylinder measure of level L holds
    D = delta_r(its level L - 1 atoms), formed once by ``core.dilate``,
    and its maps' translations: row m B + j is then S_m(parent j), by the
    ops of the last level of its build, with the bits of the full build.

    The parents may instead be a table T of B rows, with the ratio r:
    then D[j] = delta_r(T[j]), built on demand by T's ``group_mul`` and
    then ``core.dilate``, the ops of the last two levels of the build, so
    a measure of level L holds its level L - 2 atoms.  Only one level of
    tables nests.  The parent rows that one letter segment of a slice
    reads, its parent block, are built into ``block``, a
    :class:`ParentBlock` that keeps them for the next read of the same
    rows (one of ``min(m, B)`` rows, ``row_scratch``, when None).

    The table is a view (:class:`AtomView`) of the (len(translations) B,
    2n+1) coordinate array that holds D or T's dilated parents.  The held
    parents are checked for finiteness when they are made; a twist that
    overflows shows in the measure's chunk reach.
    """

    def __init__(self, parents, translations, ratio=None) -> None:
        if isinstance(parents, AtomTable):
            if parents.inner is not None or ratio is None:
                raise ValueError("a table's parents are an array, or a table "
                                 "of arrays with the ratio that dilates them")
            self.inner, self.ratio = parents, float(ratio)
            self.row_scratch = 8 * parents.shape[1]
            held = parents._held
        else:
            dilated = np.asfortranarray(parents, dtype=float)
            if dilated.ndim != 2:
                raise ValueError(f"dilated parents must be (B, 2n+1), got {dilated.shape}")
            if not all(np.all(np.isfinite(dilated[sl]))
                       for sl in chunk_slices(len(dilated))):
                raise ValueError("atom coordinates must be finite")
            dilated.flags.writeable = False
            self.inner, self.dilated, held = None, dilated, (dilated,)
            parents = dilated
        self.parent_count = len(parents)
        self.translations = tuple(np.asarray(q, dtype=float) for q in translations)
        super().__init__((len(self.translations) * len(parents), parents.shape[1]),
                         held)

    def rows(self, sl, out=None, block=None) -> np.ndarray:
        """Rows ``sl`` (a slice of step 1) written into ``out``, a
        (>= m, 2n+1) array, allocated when None.  A slice that spans
        several first letters is built one letter segment at a time; a
        nested table builds each segment's parent block into ``block``."""
        start, stop, out = self._span(sl, out)
        if self.inner is not None and block is None:
            block = ParentBlock(np.empty((min(len(out), self.parent_count),
                                          self.shape[1]), order="F"))
        at = start
        while at < stop:
            letter, j = divmod(at, self.parent_count)
            k = min(stop - at, self.parent_count - j)
            core.group_mul(self.translations[letter], self._parent_block(j, k, block),
                           out=out[at - start:at - start + k])
            at += k
        return out

    def _parent_block(self, j, k, block):
        """Dilated parent rows j .. j + k - 1: held, or built into
        ``block`` unless it holds them already."""
        if self.inner is None:
            return self.dilated[j:j + k]
        if block.key != (j, k):
            parents = self.inner.rows(slice(j, j + k), out=block.rows)
            core.dilate(self.ratio, parents, out=parents)
            block.key = (j, k)
        return block.rows[:k]

    def _take(self, idx) -> np.ndarray:
        letters, j = np.divmod(idx, self.parent_count)
        parents = (self.dilated[j] if self.inner is None
                   else core.dilate(self.ratio, self.inner._take(j)))
        out = np.empty((len(idx), self.shape[1]), order="F")
        for letter in np.unique(letters):
            at = np.flatnonzero(letters == letter)
            out[at] = core.group_mul(self.translations[letter], parents[at])
        return out


def _parent_order(points):
    """The key by which sweeps take the slices of their chunks: a nested
    table's grouped by the parent row they start at (stably), so that a
    worker that keeps its parent block builds each about once; None, for
    chunk order, for any other atoms."""
    if isinstance(points, AtomTable) and points.inner is not None:
        return lambda sl: sl.start % points.parent_count
    return None


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
    what the allocator holds from earlier work.  A view's chunk is built
    once per chunk (:meth:`DiscreteMeasure.rows`): into the columns'
    rows for one centre, where it is spent once u is formed, and into a
    buffer of its own for a batch, which every centre that the chunk can
    reach then sweeps.  A nested table's parent block goes into a buffer
    that the worker keeps across chunks for one centre (the chunks are
    taken grouped by parent block, so a worker builds each about once),
    and into u's rows, once per chunk, for a batch.  A sweep that keeps
    PARALLEL_CHUNKS chunks or more spreads them over the calling thread
    and helper threads (:func:`_map_chunks`).  Each (centre, chunk)
    pair's per-bin sums are kept, and the caller adds them into the
    centre's bins in chunk order, as one thread does, so the result has
    the same bits at every thread count and for a batch as for each
    centre alone.

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
    # a view's chunk built for several centres needs rows of its own;
    # for one, the columns' rows hold it until u is formed
    view = isinstance(mu.points, AtomView)
    held = view and len(batch) > 1
    by_parent = _parent_order(mu.points)
    # a nested table's parent block: for one centre, a buffer of the
    # worker's own that it keeps across chunks; for a batch, the
    # displacement rows, free until the chunk's first centre
    own_block = by_parent is not None and not held

    def sweeper():
        rows = min(len(mu), CHUNK)
        u_ws = np.empty((rows, dim), order="F")
        # the columns and then d; the norm's scratch is the last column
        cols_ws = np.empty((dim + 1, rows))
        inside_ws = np.empty((2, rows), dtype=bool)
        chunk_ws = np.empty((rows, dim), order="F") if held else cols_ws[:dim].T
        kept_block = (ParentBlock(np.empty((rows, dim), order="F"))
                      if own_block else None)

        def sweep_chunk(chunk):
            """Each kept centre's first window bin, and its sums per bin
            from there on."""
            sl, centres = chunk
            m = sl.stop - sl.start
            q = mu.rows(sl, out=chunk_ws, block=kept_block or ParentBlock(u_ws))
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
    # a view's row scratch, but for the parent block that a batch builds
    # into u
    scratch = (mu.points.row_scratch if view and (own_block or by_parent is None)
               else 0)
    key = None if by_parent is None else (lambda chunk: by_parent(chunk[0]))
    for results in _map_chunks(sweeper, kept, 8 * ((3 if held else 2) * dim + 1)
                               + 2 + scratch, key):
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
    points : ndarray or AtomView, shape (N, 2n+1)
        Atom positions: an array, stored coordinate-major, or a view
        that builds them on demand (an :class:`AtomTable`, or a
        blow-up's view of its source), kept as given.
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
        view = isinstance(self.points, AtomView)
        pts = self.points if view else np.asfortranarray(self.points, dtype=float)
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
        # a view checks its rows when it is made
        if not view and not all(np.all(np.isfinite(pts[sl]))
                                for sl in chunk_slices(len(pts))):
            raise ValueError("atom coordinates must be finite")
        # a zero-stride vector holds one weight, so its first entry is all
        held = wts[:1] if wts.strides == (0,) else wts
        if not all(np.all(np.isfinite(held[sl])) and not np.any(held[sl] <= 0.0)
                   for sl in chunk_slices(len(held))):
            raise ValueError("weights must be finite and strictly positive")
        if self.spacing is not None and not self.spacing > 0.0:
            raise ValueError("spacing must be positive when given")
        if not view:
            pts = pts.view()
            pts.flags.writeable = False
        self.points = pts
        self.weights = wts.view()
        self.weights.flags.writeable = False
        self._reach = None
        self._reach_lock = threading.Lock()

    def __len__(self) -> int:
        return self.points.shape[0]

    def rows(self, sl, out=None, block=None) -> np.ndarray:
        """Coordinates of the atoms in ``sl``, a slice of step 1.

        An explicit array gives a read-only view.  An :class:`AtomView`
        builds the rows into ``out``, a coordinate-major array of at
        least as many rows (allocated when None), and returns them; a
        nested table builds its parent rows into ``block``, a
        :class:`ParentBlock` (its own when None).
        """
        if isinstance(self.points, AtomView):
            return self.points.rows(sl, out, block)
        return self.points[sl]

    def _row_buffer(self):
        """``out`` for :meth:`rows` of one chunk: CHUNK rows for a view,
        None for an explicit array."""
        if not isinstance(self.points, AtomView):
            return None
        return np.empty((min(len(self), CHUNK), ambient_dim(self.n)), order="F")

    def _chunk_max_dists(self, ref=None) -> np.ndarray:
        """The largest distance of each chunk's atoms from ``ref``, or
        from the chunk's first atom when None, in one chunked pass.  A
        worker holds a view's built rows (and their scratch, a nested
        table's parent block, which it keeps across chunks) and the six
        temporaries of ``core.dist`` per CHUNK row."""
        by_parent = _parent_order(self.points)

        def worker():
            out = self._row_buffer()
            block = None if by_parent is None else ParentBlock(np.empty_like(out))

            def farthest(sl):
                rows = self.rows(sl, out, block)
                return dist(rows[0] if ref is None else ref, rows).max()

            return farthest

        built = (8 * ambient_dim(self.n) + self.points.row_scratch
                 if isinstance(self.points, AtomView) else 0)
        return np.array(_map_chunks(
            worker, [sl for sl in chunk_slices(len(self)) if sl.stop > sl.start],
            built + 8 * 6, key=by_parent), dtype=float)

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
        # a view's slices build their rows, a block at a time
        write_csv(path, ",".join(cols), [self.points, self.weights])

    @classmethod
    def from_csv(cls, path, label: str = "", spacing: float | None = None):
        """Read a measure written by :meth:`to_csv`.

        One binary pass counts the rows; the coordinate-major points are
        allocated once and filled from ``np.loadtxt`` blocks of CHUNK rows,
        so a read holds the measure plus one block.  Blank and comment
        lines are skipped as ``np.loadtxt`` skips them (numpy warns about
        them when it reads by rows, and the points are then trimmed, by a
        copy).  Weights that all have the bits of the first are held once,
        as a zero-stride vector, as they are read: the full vector is
        allocated, and its earlier rows filled with the first weight, only
        when a block holds a weight with other bits.
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
        pts = np.empty((rows, len(cols) - 1), order="F")
        # the first weight, and the full vector once another is read
        first, wts = np.empty(0), None
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
                if not filled:
                    first = data[:1, -1].copy()
                if wts is None and np.any(data[:, -1].view(np.int64)
                                          != first.view(np.int64)):
                    wts = np.empty(rows)
                    wts[:filled] = first
                if wts is not None:
                    wts[filled:filled + got] = data[:, -1]
                filled += got
                # the next block must not be parsed while this one is held
                del data
                if got < want:
                    break
        wts = (np.broadcast_to(first, (filled,)) if wts is None
               else wts[:filled])
        return cls(n, pts[:filled], wts, label=label, spacing=spacing)
