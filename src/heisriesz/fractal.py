"""Self-similar sets in H^n built from translated dilations.

A similarity S = tau_q . delta_r contracts the gauge metric by exactly r,
so a finite family of them generates Cantor-type invariant sets whose
similarity dimension solves sum_i r_i^a = 1.  The corner family on the
unit horizontal cube (2^{2n+2} maps: horizontal corner translations in
{0, 1-r}^{2n} crossed with vertical offsets {0, 1/4, 1/2, 3/4}) is the
workhorse: its pieces separate cleanly once r < 1/2, which this module
certifies through an explicitly constructed invariant region.

The region construction hinges on a tilt function phi on Q = [0,1]^{2n}
satisfying, on each corner cell Q_j = z_j + r Q,

    phi(w) = r^2 phi((w - z_j) / r) + h_j(w),
    h_j(w) = -2 sum_i (z_{j,i} w_{i+n} - z_{j,i+n} w_i),

which is the fixed point of a contraction with ratio r^2.  h_j splits
over the planes (i, n+i), so phi is a sum of planar solutions, found
here by iterating that operator on one grid of [0,1]^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core, measure
from .core import ambient_dim, dist
from .measure import (CHUNK, DEFAULT_ATOM_CAP, ArrayView, AtomCapExceeded,
                      BuiltView, DiscreteMeasure, chunk_slices)

__all__ = [
    "Similarity",
    "Ifs",
    "make_strichartz_ifs",
    "similarity_dimension",
    "word_similarity",
    "cylinder_measure",
    "cycle_atom_indices",
    "GridFunction",
    "phi_fixed_point",
    "RegionReport",
    "verify_invariant_region",
    "min_piece_separation",
]


@dataclass(frozen=True)
class Similarity:
    """A contracting similarity tau_q . delta_r of H^n."""

    n: int
    q: np.ndarray
    r: float

    def __post_init__(self) -> None:
        q = np.ascontiguousarray(np.asarray(self.q, dtype=float))
        if q.shape != (ambient_dim(self.n),):
            raise ValueError(
                f"translation must have {ambient_dim(self.n)} coordinates, "
                f"got shape {q.shape}"
            )
        if not np.all(np.isfinite(q)):
            raise ValueError("translation coordinates must be finite")
        if not (0.0 < self.r < 1.0):
            raise ValueError(f"contraction ratio must lie in (0, 1), got {self.r}")
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    def apply(self, p):
        return core.group_mul(self.q, core.dilate(self.r, p))

    def fixed_point(self) -> np.ndarray:
        """The unique point with S(p) = p, in closed form.

        Horizontally p' = q'/(1-r); the vertical twist A(q', p') then
        vanishes because p' is parallel to q', leaving
        p_v = q_v / (1 - r^2).
        """
        out = np.empty_like(self.q)
        out[:-1] = self.q[:-1] / (1.0 - self.r)
        out[-1] = self.q[-1] / (1.0 - self.r * self.r)
        return out


@dataclass(frozen=True)
class Ifs:
    """A finite system of similarities with a common group index.

    Maps are stored sorted by ascending ratio (stable, so equal-ratio
    families keep their given order).  Word indices refer to this
    sorted order and are 0-based.
    """

    n: int
    maps: tuple

    def __post_init__(self) -> None:
        maps = tuple(self.maps)
        if not maps:
            raise ValueError("an iterated function system needs at least one map")
        for s in maps:
            if s.n != self.n:
                raise ValueError(
                    f"map group index {s.n} does not match system index {self.n}"
                )
        maps = tuple(sorted(maps, key=lambda s: s.r))
        object.__setattr__(self, "maps", maps)

    @property
    def ratios(self) -> np.ndarray:
        return np.array([s.r for s in self.maps])


# the corner family's vertical offsets, one block of maps each
_STRICHARTZ_OFFSETS = (0.0, 0.25, 0.5, 0.75)


def _strichartz_corners(n: int, r: float) -> np.ndarray:
    """Corner translations {0, 1-r}^{2n}, bit i of the index driving axis i."""
    bits = (np.arange(2 ** (2 * n))[:, None] >> np.arange(2 * n)) & 1
    return bits * (1.0 - r)


def make_strichartz_ifs(n: int, r: float) -> Ifs:
    """The 2^{2n+2} corner-family similarities on the unit cube.

    Maps are ordered offset-major: the block with vertical offset 0
    comes first, inside each block the corners run in binary order, so
    map 0 is the pure dilation delta_r fixing the origin.
    """
    if not (0.0 < r < 0.5):
        raise ValueError(f"corner family requires r in (0, 1/2), got {r}")
    maps = [Similarity(n=n, q=np.append(z, t), r=r)
            for t in _STRICHARTZ_OFFSETS for z in _strichartz_corners(n, r)]
    return Ifs(n=n, maps=tuple(maps))


def similarity_dimension(ifs: Ifs) -> float:
    """The unique a >= 0 with sum_i r_i^a = 1, by bisection.

    The map a -> sum r_i^a is strictly decreasing from N at a = 0, so
    the root exists and bisection cannot stall.  A single map gives 0.
    """
    ratios = ifs.ratios

    def excess(a: float) -> float:
        return float(np.sum([math.pow(r, a) for r in ratios])) - 1.0

    if len(ratios) == 1:
        return 0.0
    hi = 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("dimension bracket failed to close")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    if abs(excess(a)) > 1e-12:
        raise RuntimeError(f"dimension residual {excess(a):.3e} above tolerance")
    return a


def word_similarity(ifs: Ifs, word) -> Similarity:
    """The composite S_{w_0} o S_{w_1} o ... o S_{w_{k-1}} as one similarity.

    Raises ValueError for an empty word or a letter outside the maps.
    """
    letters = [int(idx) for idx in word]
    if not letters:
        raise ValueError("a word must have at least one letter")
    for idx in letters:
        if not (0 <= idx < len(ifs.maps)):
            raise ValueError(f"word letter {idx} outside [0, {len(ifs.maps)})")
    q, rw = np.zeros(ambient_dim(ifs.n)), np.float64(1.0)
    for idx in letters:
        q, rw = _compose_after(q, rw, ifs.maps[idx].q, ifs.maps[idx].r)
    return Similarity(n=ifs.n, q=q, r=float(rw))


def cylinder_measure(ifs: Ifs, level: int,
                     atom_cap: int = DEFAULT_ATOM_CAP) -> DiscreteMeasure:
    """The natural measure at cylinder resolution `level`.

    One atom per word of length `level`, placed at the word applied to
    the fixed point of map 0, which lies in the invariant set and makes
    each level's atoms a subset of the next.  Equal-ratio systems get
    exact weights N^(-level), held once as a zero-stride vector (8 bytes,
    not 8 N^level); otherwise the weight of a word is the product of
    r_i^a over its letters, stored in full.

    Atom index encodes the word with the first letter most significant,
    so the children of parent index p occupy p*N .. p*N + N - 1, and the
    atoms of first letter m are S_m applied to the level - 1 atoms.  An
    equal-ratio measure of level >= 1 is held that way, as a
    :class:`~heisriesz.measure.BuiltView` (a table) of its level - 1
    atoms dilated by the common ratio and its maps' translations (1/N of
    the coordinates), whose rows a sweep builds a chunk at a time with
    the bits of the full build; any other keeps all its atoms.  When its
    level - 1 has more than ``measure.CHUNK`` atoms (read at the call),
    the dilated level - 1 atoms are the dilation of such a table of the
    level - 2 atoms, which the sweep builds a parent block at a time, so
    it holds 1/N^2 of the coordinates (1.57 MB at level 6 of the
    sixteen-map system in H^1).

    Each level is built in place: map m sends the parents, rows
    0 .. N^k - 1, to rows m*N^k .., so map 0 overwrites them and goes
    last.  Parents are dilated one chunk at a time into a CHUNK-row
    scratch, so memory is the held atoms plus O(CHUNK).
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    n, maps = ifs.n, ifs.maps
    N = len(maps)
    count = N ** level
    if count > atom_cap:
        raise AtomCapExceeded(
            f"atom cap exceeded: level {level} needs {count} atoms, over the "
            f"cap of {atom_cap}"
        )
    ratios = ifs.ratios
    equal = np.all(ratios == ratios[0])
    if equal and level:
        # every map dilates its parents by the one ratio first
        r, shifts = maps[0].r, [s.q for s in maps]
        nested = level >= 2 and N ** (level - 1) > measure.CHUNK
        parents = _cylinder_atoms(ifs, level - 2 if nested else level - 1)
        points = BuiltView(ArrayView(core.dilate(r, parents, out=parents)), shifts)
        if nested:
            points = BuiltView(BuiltView(points, ratio=r), shifts)
    else:
        points = _cylinder_atoms(ifs, level)

    if equal:
        weights = np.broadcast_to(float(N) ** (-level), (count,))
    else:
        a = similarity_dimension(ifs)
        weights = np.empty(count)
        weights[0] = 1.0
        size = 1
        factors = [math.pow(r, a) for r in ratios]
        for _ in range(level):
            for m in range(N - 1, -1, -1):
                np.multiply(factors[m], weights[:size],
                            out=weights[m * size:(m + 1) * size])
            size *= N

    spacing = float(np.max(ratios)) ** level
    return DiscreteMeasure(
        n=n,
        points=points,
        weights=weights,
        label=f"cylinder level={level} maps={N} n={n}",
        spacing=spacing,
    )


def _cylinder_atoms(ifs: Ifs, level: int) -> np.ndarray:
    """The N^level cylinder atoms, coordinate-major, built in place."""
    n, maps = ifs.n, ifs.maps
    N = len(maps)
    count = N ** level
    pts = np.empty((count, ambient_dim(n)), order="F")
    pts[0] = maps[0].fixed_point()
    scratch = np.empty((min(count, CHUNK), ambient_dim(n)), order="F")
    size = 1
    for _ in range(level):
        for m in range(N - 1, -1, -1):
            s = maps[m]
            for sl in chunk_slices(size):
                d = core.dilate(s.r, pts[sl], out=scratch[:sl.stop - sl.start])
                core.group_mul(s.q, d,
                               out=pts[m * size + sl.start:m * size + sl.stop])
        size *= N
    return pts


def cycle_atom_indices(num_maps: int, level: int, count: int,
                       seed: int = 0) -> np.ndarray:
    """Atom indices of short-cycle words: i,i,i,... and i,j,i,j,...

    At an atom whose word repeats with period one or two, successive
    distance annuli see (nearly) the same rescaled picture, so transform
    growth there is scale-periodic instead of fluctuating; these are the
    natural probe points for divergence experiments.  All single-letter
    cycles come first, then a seeded sample of two-letter cycles, up to
    `count` distinct indices.
    """
    if num_maps < 1 or level < 1:
        raise ValueError("need at least one map and level >= 1")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    place = num_maps ** np.arange(level - 1, -1, -1, dtype=np.int64)
    odd_sum = int(place[0::2].sum())
    even_sum = int(place[1::2].sum())
    singles = [i * int(place.sum()) for i in range(num_maps)]
    out = singles[:count]
    if len(out) < count and num_maps > 1:
        pairs = [(i, j) for i in range(num_maps) for j in range(num_maps)
                 if i != j]
        rng = np.random.default_rng(seed)
        take = min(count - len(out), len(pairs))
        sel = rng.choice(len(pairs), size=take, replace=False, shuffle=False)
        out += [pairs[k][0] * odd_sum + pairs[k][1] * even_sum
                for k in sorted(sel)]
    return np.array(sorted(out), dtype=np.int64)


def _tilt_term(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """h_z(w) = A(z, w), the group law's form on zero-vertical points."""

    def lift(h):
        return np.concatenate([h, np.zeros(h.shape[:-1] + (1,))], axis=-1)

    return core.symplectic_form(lift(z), lift(w))


def _stencil(pts: np.ndarray, resolution: int):
    """Bilinear interpolation stencil on the node grid of [0,1]^2.

    Yields the flat node indices and weights of the 4 cell corners
    around the points one corner at a time, bit i of a corner taking the
    upper node on axis i; points outside the square are clamped onto it.
    """
    u = np.clip(pts, 0.0, 1.0) * resolution
    i0 = np.clip(u.astype(np.int64), 0, resolution - 1)
    hi = u - i0
    lo = 1.0 - hi
    base = i0[..., 0] * (resolution + 1) + i0[..., 1]
    for up1 in (0, 1):
        for up0 in (0, 1):
            yield (base + up0 * (resolution + 1) + up1,
                   (hi if up0 else lo)[..., 0] * (hi if up1 else lo)[..., 1])


def _interpolate(corners, flat_values: np.ndarray):
    """Sum of weight * value over the corners, in order from +0 as np.sum."""
    return sum(weight * flat_values[idx] for idx, weight in corners)


# points per block of the tilt operator, its defect scan and the region
# check: each of a block's temporaries takes 64 kB, so they hold their
# inputs and outputs plus a megabyte or two at every size
_BLOCK = 8192


def _node_blocks(M: int):
    """The nodes (i/M, j/M) of the (M + 1)^2 grid, i major, in blocks of
    whole rows i, each with its slice of the flat node order."""
    rows = max(1, _BLOCK // (M + 1))
    j = np.arange(M + 1, dtype=float)
    for start in range(0, M + 1, rows):
        stop = min(start + rows, M + 1)
        nodes = np.empty((stop - start, M + 1, 2))
        nodes[..., 0] = np.arange(start, stop, dtype=float)[:, None]
        nodes[..., 1] = j
        nodes /= M
        yield slice(start * (M + 1), stop * (M + 1)), nodes.reshape(-1, 2)


def _sup_gap(a: np.ndarray, b: np.ndarray, where=None) -> float:
    """max |a - b| over the entries that `where` selects (all by
    default), a node block at a time; a NaN gap gives NaN."""
    sup = 0.0
    for start in range(0, len(a), _BLOCK):
        sl = slice(start, start + _BLOCK)
        sup = float(np.maximum(sup, np.max(
            np.abs(a[sl] - b[sl]), initial=0.0,
            where=True if where is None else where[sl])))
    return sup


@dataclass(frozen=True)
class GridFunction:
    """Tilt function phi(w) = sum_i phi_1(w_i, w_{n+i}) on Q = [0,1]^{2n}.

    phi_1 is given by values on the (resolution + 1)^2 nodes of a
    uniform grid of [0,1]^2, whatever n; between nodes it is bilinear,
    which preserves sup-norm bounds.  Instances produced by the
    fixed-point solver also carry the planar iteration's sup-update
    history and the measured self-consistency residual at cell nodes.
    """

    n: int
    r: float
    resolution: int
    values: np.ndarray
    history: tuple = ()
    residual: float | None = None

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if values.shape != (self.resolution + 1,) * 2:
            raise ValueError(
                f"values must have shape {(self.resolution + 1,) * 2}, "
                f"got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def evaluate(self, pts) -> np.ndarray:
        """phi at horizontal points (..., 2n) of Q, planes added in order.

        Points up to 1e-12 outside Q (rounding in z + r w can land an
        ulp past 1) are clamped onto it; points farther out raise.
        """
        n = self.n
        w = np.asarray(pts, dtype=float)
        if w.shape[-1] != 2 * n:
            raise ValueError(f"points must have {2 * n} coordinates")
        # a NaN makes both extremes NaN, which fails the comparisons
        if w.size and not (w.min() >= -1e-12 and w.max() <= 1.0 + 1e-12):
            raise ValueError("points must lie in Q = [0, 1]^{2n}")
        flat = self.values.ravel()
        # w[..., i::n] is the plane (w_i, w_{n+i}); for n = 1 it is w
        return sum(_interpolate(_stencil(w[..., i::n], self.resolution), flat)
                   for i in range(n))

    def contraction_ratios(self) -> np.ndarray:
        """Successive sup-update ratios of the producing iteration."""
        h = np.asarray(self.history)
        if h.size < 2:
            return np.zeros(0)
        return h[1:] / h[:-1]


class _TiltOperator:
    """Precomputed grid form of the planar tilt-function contraction.

    Every node of [0,1]^2 gets a taper factor theta, a pull-back position
    inside it (through the nearest corner-cell point when the node lies
    in the gap region), and the twist value there.  One application is
    then new = theta * (r^2 * interp(f, pullback) + twist), an affine map
    whose linear part has sup-norm at most r^2.

    The corner cells are the products of the intervals [0, r] and
    [1 - r, 1], one per axis, so the nearest cell takes on each axis
    the nearer interval (the lower one for a coordinate at 1/2) and the
    nearest point of the cell is the node clipped onto it.

    Each node holds 65 bytes: 4 int32 stencil indices ((M + 1)^2 stays
    far below 2^31 under the atom cap), 4 weights, theta, the twist and
    a cell flag.  Building and applying work one node block at a time.
    """

    def __init__(self, r: float, M: int) -> None:
        self.r = r
        size = (M + 1) ** 2
        self.theta, self.twist = np.empty(size), np.empty(size)
        self.gather_idx = np.empty((4, size), dtype=np.int32)
        self.gather_w = np.empty((4, size))
        self.in_cell = np.empty(size, dtype=bool)
        eps = 0.5 * (1.0 - 2.0 * r)
        for sl, nodes in _node_blocks(M):
            z = np.where(nodes > 0.5, 1.0 - r, 0.0)
            best_pt = np.clip(nodes, z, z + r)
            best_d = np.sqrt(np.sum((nodes - best_pt) ** 2, axis=-1))
            self.theta[sl] = np.clip((eps - best_d) / eps, 0.0, 1.0)
            self.twist[sl] = _tilt_term(z, best_pt)
            for c, (idx, w) in enumerate(_stencil((best_pt - z) / r, M)):
                self.gather_idx[c, sl], self.gather_w[c, sl] = idx, w
            self.in_cell[sl] = best_d == 0.0

    def apply(self, flat_values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """One application to the node values, written into `out`."""
        for start in range(0, len(out), _BLOCK):
            sl = slice(start, start + _BLOCK)
            interp = _interpolate(zip(self.gather_idx[:, sl],
                                      self.gather_w[:, sl]), flat_values)
            np.multiply(self.theta[sl], self.r * self.r * interp
                        + self.twist[sl], out=out[sl])
        return out


def phi_fixed_point(n: int, r: float, resolution: int,
                    atom_cap: int = DEFAULT_ATOM_CAP) -> GridFunction:
    """Solve the tilt self-consistency equation on the planar grid.

    h_z is a sum over the planes (i, n+i) and each corner cell a product
    of planar ones, so the planar solution summed over the planes solves
    it for every n.  Iterates the planar contraction from zero until the
    sup-norm update drops below 1e-10.  The update ratios must stay
    below r^2 once past the first step; anything larger signals a bug
    and raises RuntimeError.  The stencil holds (resolution + 1)^2 4
    entries for every n; more than `atom_cap` raise AtomCapExceeded
    before any is allocated.  Memory is the operator's 65 bytes a node,
    two grids of iterates and one block of 8192 nodes: 5.7 MB at
    resolution 256, 340 MB at 2048.  Beyond the taper distance from the
    corner cells the function is identically zero.  When 1/r divides the
    resolution the pull-backs land on exact grid nodes and the returned
    residual (n times the planar one) reflects pure iteration error;
    otherwise it also carries interpolation error.
    """
    if not (0.0 < r < 0.5):
        raise ValueError(f"tilt construction requires r in (0, 1/2), got {r}")
    if resolution * r < 2.0:
        raise ValueError(
            f"resolution {resolution} leaves corner cells under 2 cells wide"
        )
    entries = (resolution + 1) ** 2 * 4
    if entries > atom_cap:
        raise AtomCapExceeded(
            f"atom cap exceeded: tilt grid at resolution {resolution} needs "
            f"{entries} stencil entries, over the cap of {atom_cap}"
        )
    op = _TiltOperator(r, resolution)
    f, new = np.zeros(len(op.theta)), np.empty(len(op.theta))
    history = []
    ratio_cap = r * r + 0.01
    for _ in range(200):
        new = op.apply(f, new)
        update = _sup_gap(new, f)
        history.append(update)
        if len(history) >= 2 and history[-2] > 0.0:
            ratio = update / history[-2]
            if ratio > ratio_cap:
                raise RuntimeError(
                    f"contraction violated: update ratio {ratio:.6f} exceeds "
                    f"{ratio_cap:.6f}"
                )
        f, new = new, f
        if update < 1e-10:
            break
    else:
        raise RuntimeError("no convergence within 200 iterations")

    residual = _sup_gap(op.apply(f, new), f, where=op.in_cell)
    return GridFunction(
        n=n,
        r=r,
        resolution=resolution,
        values=f.reshape(resolution + 1, -1),
        history=tuple(history),
        residual=n * residual,
    )


def _ss2_residual_sup(phi: GridFunction) -> float:
    """Exact sup of the grid self-consistency defect over the corner cells.

    The defect is a sum of planar ones whose planes vary independently,
    so its sup is n times the planar sup over the 4 planar cells.  On
    each the defect is piecewise bilinear on the sublattice z_j + (r/M)
    Z^2 (for M divisible by 1/r that lattice refines the node grid), so
    its maximum is attained at sublattice points and a finite scan is
    exact.  For other resolutions the scan is still a dense probe;
    callers add a safety factor in that case.  The scan takes the grid a
    block of rows at a time, so its memory is one block of 8192 nodes.
    """
    M, r = phi.resolution, phi.r
    flat = phi.values.ravel()
    sup = 0.0
    for _, grid in _node_blocks(M):
        pulled = r * r * _interpolate(_stencil(grid, M), flat)
        for z in _strichartz_corners(1, r):
            w = z + r * grid
            resid = (_interpolate(_stencil(w, M), flat)
                     - (pulled + _tilt_term(z, w)))
            sup = max(sup, float(np.max(np.abs(resid))))
    return phi.n * sup


@dataclass(frozen=True)
class RegionReport:
    """Outcome of the invariant-region check.

    Containment is sampled; violations count samples whose image falls
    outside the region by more than `slack`, which is sized from the
    grid's own self-consistency defect (`discretization_sup`) so that
    discretization noise never masquerades as a genuine violation.
    Disjointness of the image slabs is arithmetic, not sampled: slabs
    over one corner share the same base curve, so consecutive vertical
    offsets separate them by exactly 1/4 - r^2, and distinct corners
    are 1 - 2r apart horizontally.
    """

    sample_count: int
    violations: int
    witness: np.ndarray | None
    min_lower_margin: float
    min_upper_margin: float
    slack: float
    discretization_sup: float
    slab_thickness: float
    offset_spacing: float
    vertical_separation: float
    horizontal_gap: float
    disjoint_certified: bool

    @property
    def certified(self) -> bool:
        return (
            self.violations == 0
            and self.disjoint_certified
            and self.slack <= self.vertical_separation / 10.0
        )


def verify_invariant_region(ifs: Ifs, phi: GridFunction,
                            sample_count: int = 100_000,
                            seed: int = 0) -> RegionReport:
    """Check S_j(R) subset R and slab disjointness for the corner family.

    R is the unit-height band over Q between phi and phi + 1.  Sampled
    points of R are pushed through every map with `Similarity.apply`, so
    through the package's group law; the image must land back between
    phi and phi + 1 over its corner cell, with margins reported; a NaN
    margin counts as a violation and is kept as the least.  phi is
    evaluated once per horizontal translation q', not once per map: every
    image has the horizontal part q' + r w' whatever the vertical offset,
    so the 4 maps over one corner share its bits exactly.  The maps must
    equal those of ``make_strichartz_ifs(phi.n, phi.r)``, the corner
    family phi was built for; any other system raises ValueError.
    Memory is the samples plus one block of 8192 of them, and the
    defect scan's one block of grid nodes: 4.9 MB for 100,000 samples
    in H^1.
    """
    n, r = phi.n, phi.r
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    family = make_strichartz_ifs(n, r).maps
    if len(ifs.maps) != len(family) or not all(
            s.r == t.r and np.array_equal(s.q, t.q)
            for s, t in zip(ifs.maps, family)):
        raise ValueError("invariant-region check needs the corner family "
                         "that the tilt grid was built for")
    rng = np.random.default_rng(seed)

    sup_resid = _ss2_residual_sup(phi)
    exact_lattice = abs(phi.resolution * r - round(phi.resolution * r)) < 1e-9
    safety = 1.000001 if exact_lattice else 2.0
    slack = safety * sup_resid + 1e-15

    # the horizontal draws, then the vertical ones; U + phi is phi + U
    horizontal = rng.random((sample_count, 2 * n))
    vertical = rng.random(sample_count)

    violations = 0
    hit = None  # (map, sample) of the first violation of the lowest map
    min_lower = math.inf
    min_upper = math.inf
    for start in range(0, sample_count, _BLOCK):
        block = slice(start, start + _BLOCK)
        vertical[block] += phi.evaluate(horizontal[block])
        samples = np.column_stack((horizontal[block], vertical[block]))
        bases = {}
        for j, s in enumerate(ifs.maps):
            image = s.apply(samples)
            if (key := s.q[:-1].tobytes()) not in bases:
                bases[key] = phi.evaluate(image[:, :-1])
            base = bases[key]
            lower = image[:, -1] - base
            upper = base + 1.0 - image[:, -1]
            min_lower = float(np.minimum(min_lower, np.min(lower)))
            min_upper = float(np.minimum(min_upper, np.min(upper)))
            ok = (lower >= -slack) & (upper >= -slack)
            count = len(ok) - int(np.count_nonzero(ok))
            if count and (hit is None or j < hit[0]):
                hit = (j, start + int(np.argmin(ok)))
            violations += count
    witness = (None if hit is None
               else np.append(horizontal[hit[1]], vertical[hit[1]]))

    thickness = r * r
    spacing = float(np.min(np.diff(_STRICHARTZ_OFFSETS)))
    vertical_sep = spacing - thickness
    horizontal_gap = 1.0 - 2.0 * r
    return RegionReport(
        sample_count=sample_count,
        violations=violations,
        witness=witness,
        min_lower_margin=min_lower,
        min_upper_margin=min_upper,
        slack=slack,
        discretization_sup=sup_resid,
        slab_thickness=thickness,
        offset_spacing=spacing,
        vertical_separation=vertical_sep,
        horizontal_gap=horizontal_gap,
        disjoint_certified=vertical_sep > 0.0 and horizontal_gap > 0.0,
    )


def _compose_after(q: np.ndarray, rw: np.ndarray, sq: np.ndarray, sr):
    """Composite of word transforms (q, rw) followed by maps (sq, sr).

    tau_q delta_rw . tau_{q_s} delta_{r_s} = tau_{q . delta_rw(q_s)}
    delta_{rw r_s}, so appending a letter at the end of a word only
    needs the parent's composite, never the whole word.  Broadcasts, so
    a batch of parents against all N letters gives every child at once.
    The translations are coordinate-major, so that each coordinate of a
    batch is one contiguous block.
    """
    shape = np.broadcast_shapes(q.shape, sq.shape)
    shifted, out = (np.moveaxis(np.empty(shape[-1:] + shape[:-1]), 0, -1)
                    for _ in range(2))
    core.dilate(rw, sq, out=shifted)
    return core.group_mul(q, shifted, out=out), rw * sr




def _offset_product(ifs: Ifs):
    """(Z, T, letter) for a system of one ratio whose maps are each
    (z, t) of horizontal translations z in Z and vertical offsets t in T,
    |T| >= 2, exactly once; else None.  Z holds the translations (z, 0),
    T is sorted, and map letter[i, j] has the translation (Z[i], T[j])."""
    maps = ifs.maps
    q = np.stack([s.q for s in maps])
    Z, zi = np.unique(q[:, :-1], axis=0, return_inverse=True)
    T, ti = np.unique(q[:, -1], return_inverse=True)
    letter = np.full((len(Z), len(T)), -1)
    letter[zi.reshape(-1), ti] = np.arange(len(maps))
    if (len(T) < 2 or letter.size != len(maps) or letter.min() < 0
            or np.any(ifs.ratios != maps[0].r)):
        return None
    return np.hstack([Z, np.zeros((len(Z), 1))]), T, letter


def _offset_weights(n: int, r: float, count: int) -> np.ndarray:
    """The weights of c_w = sum_k weights[k] t_{w_k} over a word's first
    `count` letters: a word's composite takes its first letter's
    translation as it is and the k-th dilated by r^k (the ratios' running
    product), as :func:`_compose_after` does."""
    unit = np.zeros(ambient_dim(n))
    unit[-1] = 1.0
    ratios = np.cumprod(np.full(count - 1, r))
    return np.append(1.0, core.dilate(ratios, unit)[:, -1])


def _offset_search(x, same, digits, weights, radius=None):
    """Sums c = sum_k weights[k] e_k, e_k from the sorted digits[k] and
    e_0 != 0 where `same`, against the targets x: with radius None the
    sum nearest each target, else every sum within radius[i] of x[i], as
    the arrays (i, indices of its digits into digits[k]).

    Branch and bound over the digits, most significant first: a prefix
    is dropped once the range of sums its tail can add lies farther from
    x than the nearer end of another prefix's range (each end is a sum,
    every later digit least or greatest).  Where neighbouring digits'
    ranges overlap, two or more children of a prefix may hold the answer,
    and each is kept.  A NaN target is searched as 0.
    """
    x = np.where(np.isnan(x), 0.0, x)
    ends = np.array([[w * d[0], w * d[-1]] for w, d in zip(weights, digits)]
                    + [[0.0, 0.0]])
    lo, hi = np.cumsum(ends[::-1], axis=0)[::-1].T
    at, c = np.arange(len(x)), np.zeros(len(x))
    choice = np.empty((len(x), 0), dtype=np.intp)
    for k, (w, d) in enumerate(zip(weights, digits)):
        sums = c[:, None] + w * d
        gap = x[at, None] - sums
        if k == 0:
            # a pair of words with one first letter needs t_0 != t'_0
            gap[same[:, None] & (d == 0)] = np.inf
        far = np.maximum(gap - hi[k + 1], lo[k + 1] - gap)
        if radius is None:
            near = np.minimum(np.abs(gap - lo[k + 1]), np.abs(gap - hi[k + 1]))
            first = np.flatnonzero(np.diff(at, prepend=-1))
            bound = np.minimum.reduceat(near.min(axis=1), first)[at]
        else:
            bound = radius[at]
        rows, cols = np.nonzero(far <= bound[:, None])
        at, c = at[rows], sums[rows, cols]
        if radius is not None:
            choice = np.column_stack([choice[rows], cols])
    err = np.abs(x[at] - c)
    if radius is not None:
        keep = err <= radius[at]
        return at[keep], choice[keep]
    order = np.lexsort((err, at))
    return c[order[np.flatnonzero(np.diff(at[order], prepend=-1))]]


def _word_pair_search(sq, sr, level, drift, measure, coded):
    """Branch and bound over pairs of words in the maps (sq, sr) with
    different first letters, to `level` on both sides, for
    :func:`min_piece_separation`; `measure(pairs, levels)` gives the
    distances of a chunk of pairs.  A pair is its words' columns (q, rw)
    each, followed by the word's letters as one base-N integer when
    `coded`.  Returns the least distance and, when `coded`, the last
    level's pairs within 1e-12 of it; coded words may share their first
    letter, which `measure` then handles."""
    N = len(sq)
    width = 3 if coded else 2

    def first(letter):
        return [sq[letter], sr[letter]] + [letter] * coded

    def append(words, letter):
        q, rw = _compose_after(*words[:2], sq[letter], sr[letter])
        return [q, rw] + [code * N + letter for code in words[2:]]

    def pairs_of(words, side, idx):
        """The pairs that idx names: with side None the one-letter pairs
        (idx // N, idx % N), else the pairs words[idx // N] with the
        letter idx % N appended on `side`."""
        parent, letter = np.divmod(idx, N)
        if side is None:
            return first(parent) + first(letter)
        pairs = [x[parent] for x in words]
        word = slice(width * side, width * (side + 1))
        pairs[word] = append(pairs[word], letter)
        return pairs

    def build(words, side, idx):
        """pairs_of(words, side, idx) in full, CHUNK // 4 pairs at a time."""
        out = None
        for start in range(0, len(idx), CHUNK // 4):
            part = pairs_of(words, side, idx[start:start + CHUNK // 4])
            if out is None:
                out = [np.empty((len(idx),) + x.shape[1:], x.dtype) for x in part]
            for col, x in zip(out, part):
                col[start:start + len(x)] = x
        return out

    def letter_pairs():
        """The one-letter pairs (i, j), i < j (i <= j when coded), from
        CHUNK cells of the N x N table at a time, with their cells i N + j."""
        for start in range(0, N * N, CHUNK):
            cells = np.arange(start, min(start + CHUNK, N * N))
            cells = cells[cells // N < cells % N + coded]
            if len(cells):
                yield pairs_of(None, None, cells), cells

    # CHUNK // 2 distances at a time: each child holds its own composite,
    # anchor and distance, 0.8 MB a point array at n = 1; a chunk of
    # CHUNK measured no faster, and CHUNK // 4 slower at n = 2
    def child_pairs(words, side, idx, new_side):
        """The N children on `new_side` of a chunk of the pairs
        pairs_of(words, side, idx) at once, letters on the leading axis,
        with their indices parent N + letter."""
        step = max(1, CHUNK // (2 * N))
        word = slice(width * new_side, width * (new_side + 1))
        for start in range(0, len(idx), step):
            stop = min(start + step, len(idx))
            part = [x[None] for x in pairs_of(words, side, idx[start:stop])]
            part[word] = append(part[word], np.arange(N)[:, None])
            yield part, np.arange(start, stop) * N + np.arange(N)[:, None]

    upper = math.inf

    def prune(chunks, levels):
        """Least distance over the chunks, and the indices of the pairs
        that survive it, nearest first (none at the last level unless
        coded)."""
        nonlocal upper
        slack = drift(levels[0]) + drift(levels[1]) + 1e-12
        last = levels == [level, level] and not coded
        least, kept, count = math.inf, [], 0
        for part, flat in chunks:
            d = measure(part, levels)
            if math.isnan(dmin := float(np.min(d))):
                raise RuntimeError(f"NaN distance at levels {levels}")
            least = min(least, dmin)
            upper = min(upper, least)
            if not last:
                sel = d <= upper + slack
                kept.append((d[sel], flat[sel]))
                count += len(kept[-1][0])
                if count > 2 ** 22:
                    raise AtomCapExceeded(
                        f"pair cap exceeded: over {2 ** 22} candidate pairs at "
                        f"levels {levels}; the first-letter pieces may overlap"
                    )
        if last:
            return least, None
        # the bound only tightened while collecting: keep the pairs under
        # the final one, nearest first, so that the next level's bound is
        # close to final from its first chunk
        d, flat = (np.concatenate(col) for col in zip(*kept))
        near = np.flatnonzero(d <= upper + slack)
        return least, flat[near[np.argsort(d[near], kind="stable")]]

    # a level's pairs are pairs_of(words, side, idx); its words are built
    # in full only once the next level has survivors, so the last level
    # reads the pairs it refines a chunk at a time
    levels = [1, 1]
    least, idx = prune(letter_pairs(), levels)
    words = side = None
    while levels != [level, level]:
        # refine the shallower side, the first on a tie
        new_side = int(levels[1] < levels[0])
        levels[new_side] += 1
        least, new_idx = prune(child_pairs(words, side, idx, new_side), levels)
        if new_idx is not None:
            words = build(words, side, idx)
        side, idx = new_side, new_idx
    return least, (build(words, side, idx) if coded else None)


def min_piece_separation(ifs: Ifs, level: int) -> float:
    """Exact minimal gauge distance across distinct first-letter cylinders.

    Branch and bound over word pairs with different first letters, each
    word w stood for by its anchor w(b), b the fixed point of map 0 (the
    base of :func:`cylinder_measure`).  The search starts from the
    pairs of distinct one-letter words and refines the pairs that may
    still hold the minimum one letter at a time on alternate sides, the
    children of a fixed-size chunk of parent pairs at once, until both
    words reach `level` = L.  A level-l anchor lies within

        drift(l) = r^l rho0 (1 - r^(L-l)) / (1 - r)

    of each of its level-L descendants (r the largest ratio, rho0 the
    largest one-step displacement of b), so a pair of words at levels l
    and l' and distance d is dropped once d - drift(l) - drift(l')
    exceeds an upper bound U on the answer.

    The anchor w(b) = w 0^(L-l)(b) is itself a level-L atom with the same
    first letter, so every distance computed is realized at level L and
    U is the least one seen so far.  Pruning keeps every ancestor pair of
    the minimum (with 1e-12 slack for rounding), so the result is exact.
    Every word is composed by one-letter appends, as in
    :func:`word_similarity`, and the result is the least distance so
    measured over the level-L pairs.

    Two paths serve it.  A system of one ratio whose maps are every
    (z, t) of horizontal translations z in Z and vertical offsets t in T
    (every :func:`make_strichartz_ifs` system) has central offsets: its
    words are S_w = (0, c_w) . S_v, with v the word of horizontal maps
    (z, 0) and c_w = sum_k r^(2k) t_{w_k}.  So it refines pairs of
    horizontal words, |Z| children a side, and measures each pair at the
    offset difference c_{w'} - c_w nearest to cancelling its vertical
    displacement, found exactly by :func:`_offset_search`; pairs of one
    first horizontal letter need t_0 != t'_0.  The level-L pairs within
    1e-12 of the least are then measured again for every offset word
    that comes within that slack, through the one-letter appends.  Every
    other system refines pairs of whole words, N children a side.  For
    the 16-map corner family the whole-word path measures 0.34M
    distances at level 4 and 1.7M at level 5; the horizontal path 1,950
    and 4,210, with the final re-measure.  A level's survivors are kept as indices into the
    pairs they refine, nearest first, and its words are built only when
    the next level has survivors, so memory is a chunk of 2^15
    distances, the words of two levels and one level's indices: 6.2 MB
    for a 16-map system at n = 1 level 5 on the whole-word path, 1.7 MB
    for the corner family on the horizontal one.  More than 2^22 surviving
    pairs at a level raise AtomCapExceeded, and a NaN distance
    RuntimeError.  A one-map system has no cross pairs and returns +inf.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    maps = ifs.maps
    if len(maps) == 1:
        return math.inf
    b = maps[0].fixed_point()
    r_max = float(np.max(ifs.ratios))
    rho0 = max(float(dist(b, s.apply(b))) for s in maps)

    def drift(lvl: int) -> float:
        return r_max ** lvl * rho0 * (1.0 - r_max ** (level - lvl)) / (1.0 - r_max)

    def positions(word):
        # the anchor w(b) is the translation of w followed by tau_b
        return _compose_after(word[0], word[1], b, 1.0)[0]

    sq, sr = np.stack([s.q for s in maps]), ifs.ratios
    product = _offset_product(ifs)
    if product is None or len(product[0]) ** level >= 2 ** 63:
        return _word_pair_search(
            sq, sr, level, drift,
            lambda pairs, levels: dist(positions(pairs[:2]), positions(pairs[2:])),
            coded=False)[0]

    Z, T, letter = product
    H = len(Z)
    weights = _offset_weights(ifs.n, maps[0].r, level)
    both = np.unique(np.subtract.outer(T, T))

    def digits(levels):
        # c_{w'} - c_w gains t' - t at a letter of both words, and t' or
        # -t at a letter of one
        return [both if k < min(levels) else T if k < levels[1] else -T[::-1]
                for k in range(max(levels))]

    def offset_pairs(pairs, levels):
        """The anchors P, P' of each pair of horizontal words, minus the
        vertical displacement of P^-1 P', and whether their first letters
        are one."""
        P, Q = positions(pairs[:2]), positions(pairs[3:5])
        x = P[..., -1] - Q[..., -1] + core.symplectic_form(P, Q)
        same = pairs[2] // H ** (levels[0] - 1) == pairs[5] // H ** (levels[1] - 1)
        return P, Q, x, np.broadcast_to(same, x.shape)

    def measure(pairs, levels):
        P, Q, x, same = offset_pairs(pairs, levels)
        c = _offset_search(x.ravel(), same.ravel(), digits(levels),
                           weights[:max(levels)])
        Q = np.array(np.broadcast_to(Q, x.shape + Q.shape[-1:]))
        Q[..., -1] += c.reshape(x.shape)
        return dist(P, Q)

    least, near = _word_pair_search(Z, sr[:H], level, drift, measure, coded=True)
    # every offset word of those pairs whose distance comes within the
    # slack: |x - c| <= sqrt(U^4 - h^4), h the horizontal displacement
    P, Q, x, same = offset_pairs(near, [level, level])
    flat = Q.copy()
    flat[:, -1] += x
    h = dist(P, flat)
    radius = np.sqrt(np.maximum((least + 1e-12) ** 4 - h ** 4, 0.0))
    at, choice = _offset_search(x, same, digits([level, level]), weights, radius)
    # each digit is t' - t for every pair of offsets with that difference
    jj = np.divmod(np.arange(len(T) ** 2), len(T))
    gaps = T[jj[1]] - T[jj[0]]
    offsets = [np.empty((len(at), 0), dtype=np.intp)] * 2
    for k in range(level):
        rows, cols = np.nonzero(gaps == both[choice[:, k], None])
        at, choice = at[rows], choice[rows]
        offsets = [np.column_stack([t[rows], j[cols]]) for t, j in zip(offsets, jj)]
    anchors = []
    for code, t in zip((near[2][at], near[5][at]), offsets):
        word = letter[code[:, None] // H ** np.arange(level - 1, -1, -1) % H, t]
        q, rw = sq[word[:, 0]], sr[word[:, 0]]
        for k in range(1, level):
            q, rw = _compose_after(q, rw, sq[word[:, k]], sr[word[:, k]])
        anchors.append(positions((q, rw)))
    if math.isnan(least := float(np.min(dist(*anchors)))):
        raise RuntimeError(f"NaN distance at levels {[level, level]}")
    return least
