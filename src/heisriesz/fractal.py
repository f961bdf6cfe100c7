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

from . import core
from .core import ambient_dim, dist
from .measure import (CHUNK, DEFAULT_ATOM_CAP, AtomCapExceeded,
                      DiscreteMeasure, chunk_slices)

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
    so the children of parent index p occupy p*N .. p*N + N - 1.

    Each level is built in place: map m sends the parents, rows
    0 .. N^k - 1, to rows m*N^k .., so map 0 overwrites them and goes
    last.  Parents are dilated one chunk at a time into a CHUNK-row
    scratch, so memory is the output plus O(CHUNK).
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    n, maps = ifs.n, ifs.maps
    N = len(maps)
    count = N ** level
    if count > atom_cap:
        raise AtomCapExceeded(
            f"level {level} needs {count} atoms, over the cap of {atom_cap}"
        )
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

    ratios = ifs.ratios
    if np.all(ratios == ratios[0]):
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
        points=pts,
        weights=weights,
        label=f"cylinder level={level} maps={N} n={n}",
        spacing=spacing,
    )


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
    """

    def __init__(self, r: float, M: int) -> None:
        self.r = r
        nodes = np.indices((M + 1, M + 1), dtype=float).reshape(2, -1).T / M
        z = np.where(nodes > 0.5, 1.0 - r, 0.0)
        best_pt = np.clip(nodes, z, z + r)
        best_d = np.sqrt(np.sum((nodes - best_pt) ** 2, axis=-1))

        eps = 0.5 * (1.0 - 2.0 * r)
        self.theta = np.clip((eps - best_d) / eps, 0.0, 1.0)
        self.twist = _tilt_term(z, best_pt)
        self.gather_idx, self.gather_w = map(
            np.stack, zip(*_stencil((best_pt - z) / r, M)))
        self.in_cell = best_d == 0.0

    def apply(self, flat_values: np.ndarray) -> np.ndarray:
        interp = _interpolate(zip(self.gather_idx, self.gather_w), flat_values)
        return self.theta * (self.r * self.r * interp + self.twist)


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
    before any is allocated.  Beyond the taper distance from the corner
    cells the function is identically zero.  When 1/r divides the
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
            f"tilt grid at resolution {resolution} needs {entries} stencil "
            f"entries, over the cap of {atom_cap}"
        )
    op = _TiltOperator(r, resolution)
    f = np.zeros(len(op.theta))
    history = []
    ratio_cap = r * r + 0.01
    for _ in range(200):
        new = op.apply(f)
        update = float(np.max(np.abs(new - f)))
        history.append(update)
        if len(history) >= 2 and history[-2] > 0.0:
            ratio = update / history[-2]
            if ratio > ratio_cap:
                raise RuntimeError(
                    f"contraction violated: update ratio {ratio:.6f} exceeds "
                    f"{ratio_cap:.6f}"
                )
        f = new
        if update < 1e-10:
            break
    else:
        raise RuntimeError("no convergence within 200 iterations")

    final = op.apply(f)
    residual = float(np.max(np.abs((final - f)[op.in_cell])))
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
    callers add a safety factor in that case.
    """
    M, r = phi.resolution, phi.r
    flat = phi.values.ravel()
    sup = 0.0
    grid = np.indices((M + 1, M + 1), dtype=float).reshape(2, -1).T / M
    pulled = r * r * _interpolate(_stencil(grid, M), flat)
    for z in _strichartz_corners(1, r):
        w = z + r * grid
        resid = _interpolate(_stencil(w, M), flat) - (pulled + _tilt_term(z, w))
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
    Memory is the samples plus one block of CHUNK // 2 of them.
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
    for start in range(0, sample_count, CHUNK // 2):
        block = slice(start, start + CHUNK // 2)
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


def min_piece_separation(ifs: Ifs, level: int) -> float:
    """Exact minimal gauge distance across distinct first-letter cylinders.

    Branch and bound over word pairs with different first letters, each
    word w stood for by its anchor w(b), b the fixed point of map 0 (the
    base of :func:`cylinder_measure`).  The search starts from the
    N(N-1)/2 pairs of distinct one-letter words and refines the pairs
    that may still hold the minimum one letter at a time on alternate
    sides, the N children of a fixed-size chunk of parent pairs at once,
    until both words reach `level` = L.  A level-l anchor lies within

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
    :func:`word_similarity`.  For the 16-map corner family the search
    measures 0.34M distances at level 4 and 1.7M at level 5.  Memory
    grows with the chunk (CHUNK = 2^16 distances at a time) and the
    surviving pairs, not with the pair count at `level`; more than 2^22
    surviving pairs, or a NaN distance, raise RuntimeError.  A one-map
    system has no cross pairs and returns +inf.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    maps = ifs.maps
    N = len(maps)
    if N == 1:
        return math.inf
    b = maps[0].fixed_point()
    r_max = float(np.max(ifs.ratios))
    rho0 = max(float(dist(b, s.apply(b))) for s in maps)

    def drift(lvl: int) -> float:
        return r_max ** lvl * rho0 * (1.0 - r_max ** (level - lvl)) / (1.0 - r_max)

    def positions(qc: np.ndarray, rc: np.ndarray) -> np.ndarray:
        # the anchor w(b) is the translation of w followed by tau_b
        return _compose_after(qc, rc, b, 1.0)[0]

    sq, sr = np.stack([s.q for s in maps]), ifs.ratios

    def letter_pairs():
        """The one-letter pairs (i, j), i < j, from CHUNK cells of the
        N x N table at a time."""
        for start in range(0, N * N, CHUNK):
            i, j = np.divmod(np.arange(start, min(start + CHUNK, N * N)), N)
            i, j = i[i < j], j[i < j]
            if len(i):
                yield sq[i], sr[i], sq[j], sr[j]

    # CHUNK distances at a time: each child holds its own composite,
    # anchor and distance, and a larger chunk measured no faster
    def child_pairs(pairs, side: int):
        """The N children of one side of a chunk of parent pairs at once,
        letters on the leading axis."""
        step = max(1, CHUNK // N)
        for start in range(0, len(pairs[0]), step):
            part = [x[None, start:start + step] for x in pairs]
            word = slice(2 * side, 2 * side + 2)
            part[word] = _compose_after(*part[word], sq[:, None], sr[:, None])
            yield part

    upper = math.inf

    def prune(chunks, levels):
        """Least distance over the chunks and the pairs that survive it."""
        nonlocal upper
        slack = drift(levels[0]) + drift(levels[1]) + 1e-12
        last = levels == [level, level]
        least, kept, count = math.inf, [], 0
        for part in chunks:
            d = dist(positions(*part[:2]), positions(*part[2:]))
            if math.isnan(dmin := float(np.min(d))):
                raise RuntimeError(f"NaN distance at levels {levels}")
            least = min(least, dmin)
            upper = min(upper, least)
            if not last:
                sel = d <= upper + slack
                kept.append([d[sel]] + [
                    np.broadcast_to(x, d.shape + x.shape[d.ndim:])[sel]
                    for x in part])
                count += len(kept[-1][0])
                if count > 2 ** 22:
                    raise RuntimeError(
                        f"over {2 ** 22} candidate pairs at levels {levels}; "
                        "the first-letter pieces may overlap"
                    )
        if last:
            return least, None
        cols = [np.concatenate(col) for col in zip(*kept)]
        # the bound only tightened while collecting: filter once at the end
        sel = cols[0] <= upper + slack
        return least, [c[sel] for c in cols[1:]]

    levels = [1, 1]
    least, pairs = prune(letter_pairs(), levels)
    while pairs is not None:
        # refine the shallower side, the first on a tie
        side = int(levels[1] < levels[0])
        levels[side] += 1
        least, pairs = prune(child_pairs(pairs, side), levels)
    return least
