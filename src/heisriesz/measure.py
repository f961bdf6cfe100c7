"""Weighted atomic measures on H^n.

Atoms are a coordinate view plus a weight vector, so that
ten-million-atom measures stay practical.  Every ``points`` is an
:class:`AtomView`: an :class:`ArrayView` of an explicit coordinate-major
array (Fortran order, so each coordinate of a chunk of atoms is one
contiguous run); an :class:`AtomTable`, the level L - 1 atoms of an
equal-ratio cylinder measure, dilated by its ratio, and its maps'
translations, from which each chunk is built bit for bit as the full
build makes it (the level L - 1 atoms may themselves be such a table,
held with its ratio as a :class:`DilatedTable`); or a blow-up
(``diagnostics.blowup_measure``), which maps its source's rows as they
are read.  Each view takes its chunk reach and a bound on each
coordinate (``extent``) from what it wraps, by the group law, with no
row built.  Every reader takes its rows through
:meth:`DiscreteMeasure.rows` or the view's indexing.  Equal weights may
be held once, as a zero-stride vector (``np.broadcast_to``).

Ball masses, cone masses and every transform are one
:func:`binned_sweep` over the atoms, for one centre or a (k, 2n+1)
batch, in O(CHUNK) memory beyond the held atoms, as are validation and
CSV reads.  Each measure caches the reach of every chunk from its first
atom.  A sweep skips the chunks that the triangle inequality puts
outside its window and sums a chunk that falls in one bin without
binning it.  Sweeps and the reach pass take each chunk in half-chunk
pieces, along the split of numpy's pairwise sum, on up to one thread
per CPU, with the bits of one.  ``points`` and ``weights`` are
read-only, so the reach cannot go stale.  CSV files have the header
``x1,...,x{2n+1},weight`` and the bytes of ``np.savetxt`` (``"%.17g"``);
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

__all__ = ["AtomCapExceeded", "ArrayView", "AtomTable", "AtomView",
           "DEFAULT_ATOM_CAP", "DiscreteMeasure", "binned_sweep",
           "closed_ball_sums", "write_csv"]

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
# count.  A worker takes half a chunk of rows at a time (a piece) and
# forms its per-centre rows there: u, the columns and d, and two byte
# masks, 16(2n+1) + 10 bytes a row, 1.90 MB for n = 1 and 2.95 MB for
# n = 2.  A batch over a view holds the piece's built rows beside them,
# and a single-centre sweep over a nested table the piece's parent rows,
# 2n+1 doubles a row: 2.69 MB in all for n = 1 and 4.26 MB for n = 2,
# so two n = 2 workers fit.  Quarter-chunk pieces would hold less, but
# two threads took longer than one on them: each numpy call is then too
# short for the threads to overlap while they hand the GIL over.  More
# than four workers of 1.90 MB would pass 10 MB for one sweep, so the
# budget is no larger.
SWEEP_BYTES = 9 * 10 ** 6

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
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
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


def _map_pieces(worker, pieces, chunks: int, workspace: int, key=None) -> list:
    """``[work(piece) for piece in pieces]``, where each thread that
    works takes ``work = worker()`` once, so that it can hold a workspace
    of its own, of ``workspace`` bytes.

    The pieces cover ``chunks`` chunks; fewer than PARALLEL_CHUNKS chunks
    run on the calling thread.  More are spread over it and helper
    threads, as many in all as the process has CPUs, at most the cap of
    :func:`_worker_cap`, and at most as many workspaces as SWEEP_BYTES
    holds.  Each thread takes the next piece not yet taken, in the order
    of ``key(piece)`` (stably) when a key is given, and the results keep
    the order of ``pieces``.  An exception in any thread reaches the
    caller.
    """
    workers = 1
    if chunks >= PARALLEL_CHUNKS:
        cap = _WORKER_CAP.get()
        workers = min(_cpu_count(), len(pieces), SWEEP_BYTES // workspace,
                      len(pieces) if cap is None else cap)
    order = range(len(pieces))
    if key is not None:
        order = sorted(order, key=lambda i: key(pieces[i]))
    results = [None] * len(pieces)
    taken, lock = iter(order), threading.Lock()

    def drain():
        work = worker()
        while True:
            with lock:
                i = next(taken, None)
            if i is None:
                return
            results[i] = work(pieces[i])

    if workers <= 1:
        drain()
        return results
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
    """A read-only view of an (N, 2n+1) array of atom coordinates.

    A subclass supplies ``rows(sl, out, block)``, the rows of a slice of
    step 1, built into ``out`` (allocated when None) or a view of held
    rows, with ``block`` a table's :class:`ParentBlock`; ``_take(idx)``,
    the rows of a 1-D array of in-range indices in a new array;
    ``chunk_reach()`` (:meth:`DiscreteMeasure.chunk_reach`); and
    ``extent``, a bound on each coordinate's absolute value over the
    rows.  ``len``, ``shape``, ``[int]``, ``[int array]`` and ``[slice]``
    build only the rows asked for, ``np.asarray`` builds every row
    (coordinate-major), and ``nbytes`` counts the bytes of the arrays
    held.  An array or a blow-up, when it is made, and a table, at its
    first ``chunk_reach``, refuses an extent that is not finite or could
    overflow (:func:`_refuse_overflow`).
    ``builds`` says whether ``rows`` builds them, so that a reader that
    reads them twice holds a buffer; ``parent_order`` is None or the key
    by which sweeps take a nested table's slices; ``row_scratch`` is the
    bytes per row that ``rows`` allocates besides ``out``.
    """

    builds = True
    parent_order = None
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


class ArrayView(AtomView):
    """Atoms held as an explicit array: a read-only coordinate-major view
    of the one given, with no copy when it is coordinate-major already.
    ``rows``, indexing and ``np.asarray`` return it or views of it, a
    write raises ``ValueError``, the reach is one pass over its chunks,
    and the extent is the largest |x| of each coordinate, refused when it
    is made if it could overflow (:func:`_refuse_overflow`)."""

    builds = False

    def __init__(self, points) -> None:
        array = np.asfortranarray(points, dtype=float).view()
        # max |x| = max(max x, -min x) a chunk at a time, with no copy of
        # the chunk; a NaN carries through both
        self.extent = np.max([np.maximum(array[sl].max(axis=0, initial=0.0),
                                         -array[sl].min(axis=0, initial=0.0))
                              for sl in chunk_slices(len(array))], axis=0)
        _refuse_overflow(self.extent)
        array.flags.writeable = False
        self.array = array
        super().__init__(array.shape, (array,))

    def rows(self, sl, out=None, block=None) -> np.ndarray:
        return self.array[sl]

    def __getitem__(self, key):
        return self.array[key]

    def __setitem__(self, key, value) -> None:
        self.array[key] = value

    def __array__(self, dtype=None, copy=None):
        return np.array(self.array, dtype=dtype, copy=copy)

    def chunk_reach(self) -> np.ndarray:
        """The largest distance of each chunk's atoms from the chunk's
        first atom, in one pass over the chunks' pieces (a max is exact
        in any order, and NaN carries), with ``core.dist``'s six
        temporaries per piece row."""
        points = self.array
        chunks = [sl for sl in chunk_slices(len(points)) if sl.stop > sl.start]
        pieces = [(piece, sl.start) for sl in chunks for piece in _pieces(sl)]
        far = _map_pieces(lambda: lambda p: dist(points[p[1]], points[p[0]]).max(),
                          pieces, len(chunks), _piece_rows() * 8 * 6)
        return np.maximum.reduceat(np.array(far, dtype=float), np.searchsorted(
            [first for _, first in pieces], [sl.start for sl in chunks]))


class ParentBlock:
    """A buffer that a table's parents may build their rows into, and the
    parent rows last read through it, from row ``first`` on, so that a
    later read of any of them takes them as they are."""

    def __init__(self, rows) -> None:
        self.rows, self.first, self.held = rows, 0, rows[:0]

    def read(self, parents, j, k):
        """Rows j .. j + k - 1 of the view ``parents``, read from row j on,
        as many as the buffer holds, unless they are held."""
        if not self.first <= j <= j + k <= self.first + len(self.held):
            self.first = j
            self.held = parents.rows(slice(j, min(j + len(self.rows), len(parents))),
                                     out=self.rows)
        return self.held[j - self.first:j - self.first + k]


def _twisted_extent(translations, extent) -> np.ndarray:
    """A bound on each coordinate's size over q . x, for q in
    ``translations`` and |x| <= ``extent``: q . x twists x_t by at most
    2 sum_i (|q_i| |x_{n+i}| + |q_{n+i}| |x_i|)."""
    q = np.abs(np.reshape(translations, (-1, len(extent))))
    swapped = np.roll(extent[:-1], len(extent) // 2)
    with np.errstate(over="ignore", invalid="ignore"):
        q[:, -1] += extent[-1] + 2.0 * (q[:, :-1] * swapped).sum(axis=1)
        q[:, :-1] += extent[:-1]
        return q.max(axis=0, initial=0.0)


def _refuse_overflow(extent) -> None:
    """Refuse rows bounded by ``extent`` unless each row, and each
    distance between two, is clear of overflow: u between two rows has
    |u_h|^4 + u_t^2 <= 24 (|x_h|^4 + x_t^2), x = extent."""
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.square(extent[:-1]).sum()
        if not size * size + extent[-1] ** 2 < np.finfo(float).max / 32:
            raise ValueError("atom coordinates must be finite")


class DilatedTable(AtomView):
    """The rows delta_r(T[j]) of a table T of arrays, built by T into
    ``out`` and dilated there: a nested :class:`AtomTable`'s parents.
    delta_r scales distances by r, so the reach is r times T's."""

    def __init__(self, table, ratio) -> None:
        self.table, self.ratio = table, float(ratio)
        self.extent = core.dilate(self.ratio, table.extent)
        super().__init__(table.shape, table._held)

    def rows(self, sl, out=None, block=None) -> np.ndarray:
        rows = self.table.rows(sl, out)
        return core.dilate(self.ratio, rows, out=rows)

    def _take(self, idx) -> np.ndarray:
        return core.dilate(self.ratio, self.table._take(idx))

    def chunk_reach(self) -> np.ndarray:
        return self.ratio * self.table.chunk_reach()


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

    D is the view ``parents``, through which rows, indexing, reach and
    extent take it: an :class:`ArrayView`, or for a table T of arrays and
    the ratio r a :class:`DilatedTable`, by the ops of the last two levels
    of the build, so a measure of level L holds its level L - 2 atoms
    (one level of tables nests).  A slice reads D through ``block``, a
    :class:`ParentBlock` (``min(m, B)`` rows of ``row_scratch`` when
    None), so that the pieces of a chunk, and the next chunks with the
    same parents, take rows that T built as they are; sweeps take a
    nested table's slices grouped by parent row (``parent_order``).  The
    first ``chunk_reach`` makes :func:`_refuse_overflow` of ``extent``,
    :func:`_twisted_extent` of D's.
    """

    def __init__(self, parents, translations, ratio=None) -> None:
        if isinstance(parents, AtomTable):
            if parents.parents.builds or ratio is None:
                raise ValueError("a table's parents are an array, or a table "
                                 "of arrays with the ratio that dilates them")
            parents = DilatedTable(parents, ratio)
            self.row_scratch = 8 * parents.shape[1]
            self.parent_order = lambda sl: sl.start % self.parent_count
        else:
            parents = ArrayView(parents)
            if len(parents.shape) != 2:
                raise ValueError(f"dilated parents must be (B, 2n+1), got {parents.shape}")
        self.parents, self.parent_count = parents, len(parents)
        self.translations = np.array(translations, dtype=float).reshape(-1, parents.shape[1])
        self.extent = _twisted_extent(self.translations, parents.extent)
        super().__init__((len(self.translations) * len(parents), parents.shape[1]),
                         parents._held)

    def rows(self, sl, out=None, block=None) -> np.ndarray:
        """Rows ``sl`` (a slice of step 1) written into ``out``, a
        (>= m, 2n+1) array, allocated when None.  A slice that spans
        several first letters is built one letter segment at a time, and
        each segment takes its parent rows through ``block``, at most as
        many at a time as it holds."""
        start, stop, out = self._span(sl, out)
        if block is None:
            # row_scratch a row: none for parents held, which build no row
            block = ParentBlock(np.empty((min(len(out), self.parent_count),
                                          self.row_scratch // 8), order="F"))
        at = start
        while at < stop:
            letter, j = divmod(at, self.parent_count)
            k = min(stop - at, self.parent_count - j, len(block.rows))
            core.group_mul(self.translations[letter], block.read(self.parents, j, k),
                           out=out[at - start:at - start + k])
            at += k
        return out

    def _take(self, idx) -> np.ndarray:
        letters, j = np.divmod(idx, self.parent_count)
        return core.group_mul(self.translations[letters], self.parents[j])

    def chunk_reach(self) -> np.ndarray:
        """Each chunk's reach from its first row a_k, with no row built
        but a_k and the first row of each piece, a run of rows of one
        chunk, letter m and parent chunk p.  Its rows q_m . D[j] lie
        within d(a_k, q_m . D[p CHUNK]) + rho_p of a_k, as left
        translation keeps distances, with rho_p the reach of D's chunk p."""
        _refuse_overflow(self.extent)
        chunk, count = CHUNK, self.parent_count
        starts = np.union1d(np.arange(0, len(self), chunk), np.add.outer(
            count * np.arange(len(self.translations)), np.arange(0, count, chunk)))
        firsts = starts - starts % count % chunk
        anchors = np.arange(0, len(self), chunk)
        bound = dist(self._take(anchors)[starts // chunk], self._take(firsts))
        bound += self.parents.chunk_reach()[firsts % count // chunk]
        return np.maximum.reduceat(bound, np.searchsorted(starts, anchors))


def binned_sweep(mu, centers, edges, columns):
    """Sum per-atom columns over a window of gauge-distance bins.

    ``centers`` is one point or a (k, 2n+1) batch.  ``edges`` is
    ascending, with +-inf allowed at the ends; bin i holds the atoms with
    edges[i] < d <= edges[i+1], and atoms outside the window
    (edges[0], edges[-1]] contribute nothing.  So a closed ball of radius
    r is the window [-inf, r] and the truncation d > eps is [eps, inf].
    One pass walks the atoms chunk by chunk, and each chunk a piece at a
    time (:func:`_pieces`, half a chunk); for each piece and centre it
    takes the displacements u = center^{-1} q and distances d = ||u||
    from :mod:`core`, and ``columns(sl, u, d, out)`` returns the piece's
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
    workspace of half a chunk of rows (u, the columns and d, bin masks)
    and writes each piece it takes into it, so a sweep's cost does not
    depend on what the allocator holds from earlier work.  A piece that
    the view builds (``builds``) is built once: into the columns' rows
    for one centre, spent once u is formed, and for a batch into a
    buffer of its own, which every centre its chunk can reach sweeps.  A
    nested table's parent rows go into a buffer that the worker keeps
    across pieces for one centre (taken grouped by parent row, so a
    worker builds each about once), and into u's rows, once per piece,
    for a batch.  A sweep that keeps PARALLEL_CHUNKS chunks or more
    spreads its pieces over helper threads (:func:`_map_pieces`).  Each
    (centre, piece) pair's per-bin sums are kept; a chunk's pieces are
    added along the split of numpy's pairwise sum (:func:`_pairwise`),
    with the bits of the sum over the whole chunk, and the chunks in
    chunk order, so the result has the same bits at every thread count
    and for a batch as for each centre alone.

    The distance of a chunk's first atom from the centre and the chunk's
    reach bound the distances of all its atoms, and so the range of bins
    they can fall in.  A chunk whose range misses the window is skipped.
    A chunk whose range is one bin adds the pairwise sum
    ``np.add.reduce`` of each column to that bin without comparing a
    distance with an edge.  Any other chunk, for each window bin in its
    range, adds the pairwise sum of a zero-filled copy of each column
    that holds only the atoms of that bin (:func:`_bin_sums`).  Bins
    outside the window are never summed, so the columns may hold NaN or
    inf for atoms there.  A bin that holds every atom of a chunk gets
    the same bits from either path, and a bin that holds none gets +0.0
    or nothing, so pruning does not change a bit of the result.  Against
    exact arithmetic, a bin's sum over c chunks errs by at most about
    (35 + c) u sum |terms|, u = 2^-53 (numpy's pairwise sum takes each
    term of a chunk through at most 35 additions).
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
    kept = [(sl, [(i, first[i, j], last[i, j]) for i in np.flatnonzero(keep[:, j])])
            for j, sl in zip(range(keep.shape[1]), chunk_slices(len(mu)))
            if keep[:, j].any()]
    # a built piece swept for several centres needs rows of its own;
    # for one, the columns' rows hold it until u is formed
    held = mu.points.builds and len(batch) > 1
    by_parent = mu.points.parent_order
    # a nested table's parent rows: for one centre, a buffer of the
    # worker's own that it keeps across pieces; for a batch, the
    # displacement rows, free until the piece's first centre
    own_block = by_parent is not None and not held

    def sweeper():
        rows = min(len(mu), _piece_rows())
        u_ws = np.empty((rows, dim), order="F")
        # the columns and then d; the norm's scratch is the last column
        cols_ws = np.empty((dim + 1, rows))
        inside_ws = np.empty((2, rows), dtype=bool)
        # a batch's built piece, or the parent rows one centre keeps
        built_ws = np.empty((rows, dim), order="F") if held or own_block else None
        kept_block = ParentBlock(built_ws) if own_block else None

        def sweep_piece(piece):
            """Each of the chunk's kept centres' sums per bin over the
            piece, from the centre's first window bin on."""
            sl, centres = piece
            m = sl.stop - sl.start
            if held:
                q = mu.rows(sl, out=built_ws, block=ParentBlock(u_ws))
            out = []
            for i, lo, hi in centres:
                if not held:
                    q = mu.rows(sl, out=cols_ws[:dim, :m].T, block=kept_block)
                u = core.left_displacement(batch[i], q, out=u_ws[:m])
                d = core.koranyi_norm(u, out=cols_ws[dim - 1:, :m].T)
                cols = columns(sl, u, d, cols_ws[:dim, :m])
                if lo == hi:
                    out.append(np.array([np.add.reduce(cols, axis=1)
                                         if isinstance(cols, np.ndarray) else
                                         [np.add.reduce(col) for col in cols]]))
                    continue
                # u is spent once the columns are formed
                out.append(np.array([
                    _bin_sums(cols, d, edges[b - 1], edges[b], inside_ws[:, :m],
                              u_ws[:m].T)
                    for b in range(max(lo, 1), min(hi, top) + 1)]).reshape(-1, k))
            return out

        return sweep_piece

    pieces = [(piece, centres) for sl, centres in kept for piece in _pieces(sl)]
    # per worker, per piece row: u, the columns and d, the bin masks; a
    # batch's built piece or one centre's kept parent rows; and a view's
    # row scratch where the rows are built with no buffer of the worker's
    row = 8 * (2 * dim + 1) + 2 + (8 * dim if held or own_block else 0)
    if by_parent is None:
        row += mu.points.row_scratch
    key = None if by_parent is None else (lambda piece: by_parent(piece[0]))
    done = dict(zip((sl.start for sl, _ in pieces),
                    _map_pieces(sweeper, pieces, len(kept), _piece_rows() * row, key)))
    sums = np.zeros((len(batch), k, top))
    for sl, centres in kept:
        for at, (i, lo, hi) in enumerate(centres):
            chunk = _pairwise(sl.start, sl.stop, lambda a, b: done[a][at])
            start = lo - 1 if lo == hi else max(lo, 1) - 1
            sums[i, :, start:start + len(chunk)] += chunk.T
    return sums if c.ndim == 2 else sums[0]


def _piece_rows() -> int:
    """The most rows that a sweep, or the reach pass, forms at once: half
    a chunk, and at least the 128 values that numpy's pairwise sum adds
    in one unrolled block."""
    return max(CHUNK // 2, 128)


def _pairwise(start, stop, piece, combine=np.add):
    """``piece(a, b)`` for the pieces a .. b - 1 of rows start .. stop - 1,
    combined along the tree of numpy's pairwise sum.

    ``np.add.reduce`` of m > 128 doubles of one stride (zero included) is
    the sum of the reductions of its first h values and of the rest, with
    h = m // 2 rounded down to a multiple of 8 (numpy's ``pairwise_sum``).
    Rows are split there, recursively, while more than
    :func:`_piece_rows` remain, and the parts' values are combined left
    to right, so per-piece reductions add up to the bits of the one
    reduction over all the rows.  A tier-1 test checks the identity on
    the installed numpy.
    """
    m = stop - start
    if m <= _piece_rows():
        return piece(start, stop)
    h = m // 2 - m // 2 % 8
    return combine(_pairwise(start, start + h, piece, combine),
                   _pairwise(start + h, stop, piece, combine))


def _pieces(sl) -> list:
    """The slices of the pieces of ``sl``, in order (:func:`_pairwise`)."""
    return _pairwise(sl.start, sl.stop, lambda a, b: [slice(a, b)], list.__add__)


def _bin_sums(cols, d, lower, upper, inside, part):
    """Pairwise sums of each column over the atoms with lower < d <= upper.

    ``inside`` is (2, len(d)) boolean scratch and ``part`` (2n+1, len(d))
    float scratch with contiguous rows.  Each column is copied into a
    zero-filled row of ``part`` where the atom is inside, so a bin that
    holds every atom gets the bits of ``np.add.reduce`` of the column
    itself; columns given as the rows of one array are copied and summed
    together, by a reduction along the rows, which has the same bits.
    """
    mask = np.less(lower, d, out=inside[0])
    mask &= np.less_equal(d, upper, out=inside[1])
    if isinstance(cols, np.ndarray) and len(cols) <= len(part):
        rows = part[:len(cols)]
        rows.fill(0.0)
        np.copyto(rows, cols, where=mask)
        return np.add.reduce(rows, axis=1)
    sums = []
    for col in cols:
        part[0].fill(0.0)
        np.copyto(part[0], col, where=mask)
        sums.append(np.add.reduce(part[0]))
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
    points : AtomView, shape (N, 2n+1)
        Atom positions: a view that builds them on demand (an
        :class:`AtomTable`, or a blow-up's view of its source), kept as
        given, or an array, held as an :class:`ArrayView` of it.
    weights : ndarray, shape (N,)
        Strictly positive atom masses.
    label : str
        Free-form provenance string.
    spacing : float or None
        Metric scale of the discretisation (finest atom spacing).  Ball
        statistics are unreliable below four times this value; consumers
        use it as a resolution floor.

    ``points`` and ``weights`` are read-only, and an array given for
    either is kept as a view of it (no copy is made), so an in-place
    write through the measure raises instead of invalidating its cached
    chunk reach.  A weight vector with zero stride, such as
    ``np.broadcast_to(w, (N,))``, is kept as given: equal weights are
    then held once, in 8 bytes, not 8N, and every sweep, sum and CSV row
    reads the same bits as from the full vector.  Any other vector is
    stored C-contiguous.  Readers take atom rows through :meth:`rows`.
    """

    n: int
    points: AtomView
    weights: np.ndarray
    label: str = ""
    spacing: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"group index must be >= 1, got {self.n}")
        if not isinstance(self.points, AtomView):
            self.points = ArrayView(self.points)
        wts = np.asarray(self.weights, dtype=float)
        # a zero-stride vector (one weight held once) is kept as given
        if wts.ndim != 1 or wts.strides != (0,):
            wts = np.ascontiguousarray(wts)
        shape = self.points.shape
        if len(shape) != 2 or shape[1] != ambient_dim(self.n):
            raise ValueError(f"points must have shape (N, {ambient_dim(self.n)}), got {shape}")
        if wts.shape != (shape[0],):
            raise ValueError("weights must be a vector matching the atom count")
        # a zero-stride vector holds one weight, so its first entry is all
        held = wts[:1] if wts.strides == (0,) else wts
        if not all(np.all(np.isfinite(held[sl])) and not np.any(held[sl] <= 0.0)
                   for sl in chunk_slices(len(held))):
            raise ValueError("weights must be finite and strictly positive")
        if self.spacing is not None and not self.spacing > 0.0:
            raise ValueError("spacing must be positive when given")
        self.weights = wts.view()
        self.weights.flags.writeable = False
        self._reach = None
        self._reach_lock = threading.Lock()

    def __len__(self) -> int:
        return self.points.shape[0]

    def rows(self, sl, out=None, block=None) -> np.ndarray:
        """Coordinates of the atoms in ``sl``, a slice of step 1
        (:meth:`AtomView.rows`)."""
        return self.points.rows(sl, out, block)

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
        """Reach max d(a_k, q) of each sweep chunk k from its first atom
        a_k, as the view gives it, computed on first use and cached against
        the ``points`` view; threads that ask at once wait for the one
        computation.  A reach from parents or a source sums at most three
        computed distances, each off by about the square root of an ulp of
        the coordinates, so it may fall below the built one (by 1.0e-14 of
        itself at ratio 0.2), far inside the margin of 1e-7 n times the
        sizes that :func:`binned_sweep` adds."""
        with self._reach_lock:
            if self._reach is None or self._reach[0] is not self.points:
                reach = self.points.chunk_reach()
                if not np.all(np.isfinite(reach)):
                    raise ValueError("atom coordinates must be finite")
                self._reach = (self.points, reach)
            return self._reach[1]

    def diameter_bound(self) -> float:
        """Upper bound for the support diameter via the triangle
        inequality: twice the largest d(a_0, a_k) + rho_k over the chunks'
        first atoms a_k and reaches rho_k (:meth:`chunk_reach`)."""
        if len(self) == 0:
            return 0.0
        anchors = self.points[::CHUNK]
        return 2.0 * float(np.max(dist(anchors[0], anchors) + self.chunk_reach()))

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
