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

which is the fixed point of a contraction with ratio r^2 and is found
here by iterating that operator on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import HPoint, _coords, ambient_dim, dilate, dist, group_mul, translate
from .measure import DEFAULT_ATOM_CAP, AtomCapExceeded, DiscreteMeasure

__all__ = [
    "Similarity",
    "StrichartzMeta",
    "Ifs",
    "make_strichartz_ifs",
    "similarity_dimension",
    "apply_word",
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
        return translate(self.q, dilate(self.r, p))

    def fixed_point(self) -> HPoint:
        """The unique point with S(p) = p, in closed form.

        Horizontally p' = q'/(1-r); the vertical twist A(q', p') then
        vanishes because p' is parallel to q', leaving
        p_v = q_v / (1 - r^2).
        """
        out = np.empty_like(self.q)
        out[:-1] = self.q[:-1] / (1.0 - self.r)
        out[-1] = self.q[-1] / (1.0 - self.r * self.r)
        return HPoint(self.n, out)


@dataclass(frozen=True)
class StrichartzMeta:
    """Corner-family parameters: ratio, corner translations, offsets."""

    n: int
    r: float
    corners: np.ndarray
    offsets: np.ndarray


@dataclass(frozen=True)
class Ifs:
    """A finite system of similarities with a common group index.

    Maps are stored sorted by ascending ratio (stable, so equal-ratio
    families keep their given order).  Word indices refer to this
    sorted order and are 0-based.
    """

    n: int
    maps: tuple
    strichartz: StrichartzMeta | None = None

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
        if self.strichartz is not None:
            if len(maps) != 2 ** (2 * self.n + 2):
                raise ValueError(
                    "corner-family metadata requires exactly "
                    f"{2 ** (2 * self.n + 2)} maps, got {len(maps)}"
                )
            if not (0.0 < self.strichartz.r < 0.5):
                raise ValueError("corner-family ratio must lie in (0, 1/2)")

    @property
    def ratios(self) -> np.ndarray:
        return np.array([s.r for s in self.maps])


def _strichartz_corners(n: int, r: float) -> np.ndarray:
    """Corner translations {0, 1-r}^{2n}, bit i of the index driving axis i."""
    count = 2 ** (2 * n)
    corners = np.zeros((count, 2 * n))
    for j in range(count):
        for axis in range(2 * n):
            if (j >> axis) & 1:
                corners[j, axis] = 1.0 - r
    return corners


def make_strichartz_ifs(n: int, r: float) -> Ifs:
    """The 2^{2n+2} corner-family similarities on the unit cube.

    Maps are ordered offset-major: the block with vertical offset 0
    comes first, inside each block the corners run in binary order, so
    map 0 is the pure dilation delta_r fixing the origin.
    """
    if not (0.0 < r < 0.5):
        raise ValueError(f"corner family requires r in (0, 1/2), got {r}")
    corners = _strichartz_corners(n, r)
    offsets = np.array([0.0, 0.25, 0.5, 0.75])
    dim = ambient_dim(n)
    maps = []
    for t in offsets:
        for z in corners:
            q = np.zeros(dim)
            q[:-1] = z
            q[-1] = t
            maps.append(Similarity(n=n, q=q, r=r))
    meta = StrichartzMeta(n=n, r=r, corners=corners, offsets=offsets)
    return Ifs(n=n, maps=tuple(maps), strichartz=meta)


def similarity_dimension(ifs: Ifs, residual_tol: float = 1e-12) -> float:
    """The unique a >= 0 with sum_i r_i^a = 1, by bisection.

    The map a -> sum r_i^a is strictly decreasing from N at a = 0, so
    the root exists and bisection cannot stall.  A single map gives 0.
    """
    ratios = ifs.ratios

    def excess(a: float) -> float:
        return float(np.sum(ratios ** a)) - 1.0

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
    if abs(excess(a)) > residual_tol:
        raise RuntimeError(f"dimension residual {excess(a):.3e} above tolerance")
    return a


def apply_word(ifs: Ifs, word, p):
    """Left-to-right composition S_{w_0}(S_{w_1}(... S_{w_{k-1}}(p)))."""
    n_maps = len(ifs.maps)
    letters = list(word)
    for idx in letters:
        if not (0 <= int(idx) < n_maps):
            raise IndexError(f"word letter {idx} outside [0, {n_maps})")
    out = p
    for idx in reversed(letters):
        out = ifs.maps[int(idx)].apply(out)
    return out


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


def cylinder_measure(ifs: Ifs, level: int, base=None,
                     atom_cap: int = DEFAULT_ATOM_CAP) -> DiscreteMeasure:
    """The natural measure at cylinder resolution `level`.

    One atom per word of length `level`, placed at the word applied to
    `base` (default: the fixed point of the first map, which lies in
    the invariant set and makes each level's atoms a subset of the
    next).  Equal-ratio systems get exact weights N^(-level); otherwise
    the weight of a word is the product of r_i^a over its letters.

    Atom index encodes the word with the first letter most significant,
    so the children of parent index p occupy p*N .. p*N + N - 1.
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
    if base is None:
        base = maps[0].fixed_point()
    b, _, _ = _coords(base, n)
    dim = ambient_dim(n)

    pts = np.empty((count, dim), order="F")
    pts[0] = b
    size = 1
    for _ in range(level):
        prev = pts[:size].copy()
        for m, s in enumerate(maps):
            pts[m * size:(m + 1) * size] = s.apply(prev)
        size *= N

    ratios = ifs.ratios
    if np.all(ratios == ratios[0]):
        weights = np.full(count, float(N) ** (-level))
    else:
        a = similarity_dimension(ifs)
        weights = np.empty(count)
        weights[0] = 1.0
        size = 1
        factors = ratios ** a
        for _ in range(level):
            prev = weights[:size].copy()
            for m in range(N):
                weights[m * size:(m + 1) * size] = factors[m] * prev
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
    """Multilinear interpolation stencil on the node grid of [0,1]^axes.

    Returns the flat node indices and weights of the 2^axes cell corners
    around each point, stacked corner-first; points outside the cube are
    clamped onto it.
    """
    axes = pts.shape[-1]
    u = np.clip(pts, 0.0, 1.0) * resolution
    i0 = np.clip(u.astype(np.int64), 0, resolution - 1)
    hi = u - i0
    lo = 1.0 - hi
    strides = (resolution + 1) ** np.arange(axes - 1, -1, -1)
    idx = np.empty((2 ** axes,) + pts.shape[:-1], dtype=np.int64)
    idx[...] = i0 @ strides
    weight = np.ones(idx.shape)
    for corner in range(2 ** axes):
        for axis in range(axes):
            if (corner >> axis) & 1:
                idx[corner] += strides[axis]
                weight[corner] *= hi[..., axis]
            else:
                weight[corner] *= lo[..., axis]
    return idx, weight


@dataclass(frozen=True)
class GridFunction:
    """Real function on Q = [0,1]^{2n} given by values on a uniform grid.

    `resolution` counts cells per axis, so values has resolution + 1
    nodes per axis.  Evaluation between nodes is multilinear, which
    preserves sup-norm bounds.  Instances produced by the fixed-point
    solver also carry the iteration's sup-update history and the
    measured self-consistency residual at cell nodes.
    """

    n: int
    r: float
    resolution: int
    values: np.ndarray
    history: tuple = ()
    residual: float | None = None

    def __post_init__(self) -> None:
        axes = 2 * self.n
        values = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if values.shape != (self.resolution + 1,) * axes:
            raise ValueError(
                f"values must have shape {(self.resolution + 1,) * axes}, "
                f"got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def evaluate(self, pts) -> np.ndarray:
        """Multilinear interpolation at horizontal points (..., 2n)."""
        axes = 2 * self.n
        w = np.asarray(pts, dtype=float)
        if w.shape[-1] != axes:
            raise ValueError(f"points must have {axes} coordinates")
        idx, weight = _stencil(w, self.resolution)
        return np.sum(weight * self.values.ravel()[idx], axis=0)

    def contraction_ratios(self) -> np.ndarray:
        """Successive sup-update ratios of the producing iteration."""
        h = np.asarray(self.history)
        if h.size < 2:
            return np.zeros(0)
        return h[1:] / h[:-1]


class _TiltOperator:
    """Precomputed grid form of the tilt-function contraction.

    Every node gets a taper factor theta, a pull-back position inside
    Q (through the nearest corner-cell point when the node lies in the
    gap region), and the twist value there.  One application is then
    new = theta * (r^2 * interp(f, pullback) + twist), an affine map
    whose linear part has sup-norm at most r^2.

    Ties in the nearest-point lookup are broken toward the
    lexicographically smallest candidate point.
    """

    def __init__(self, n: int, r: float, resolution: int) -> None:
        self.n, self.r, self.resolution = n, r, resolution
        axes = 2 * n
        M = resolution
        corners = _strichartz_corners(n, r)
        shape = (M + 1,) * axes
        nodes = np.indices(shape, dtype=float).reshape(axes, -1).T / M
        count = nodes.shape[0]

        best_d = np.full(count, np.inf)
        best_pt = np.zeros_like(nodes)
        best_corner = np.zeros(count, dtype=np.int64)
        for j, z in enumerate(corners):
            clipped = np.clip(nodes, z, z + r)
            d = np.sqrt(np.sum((nodes - clipped) ** 2, axis=-1))
            closer = d < best_d
            tie = d == best_d
            if np.any(tie):
                lex = np.zeros(count, dtype=bool)
                undecided = tie.copy()
                for axis in range(axes):
                    less = undecided & (clipped[:, axis] < best_pt[:, axis])
                    lex |= less
                    undecided &= clipped[:, axis] == best_pt[:, axis]
                closer = closer | (tie & lex)
            best_d = np.where(closer, d, best_d)
            best_pt[closer] = clipped[closer]
            best_corner = np.where(closer, j, best_corner)

        eps = 0.5 * (1.0 - 2.0 * r)
        self.theta = np.clip((eps - best_d) / eps, 0.0, 1.0)
        z = corners[best_corner]
        self.twist = _tilt_term(z, best_pt)
        self.gather_idx, self.gather_w = _stencil((best_pt - z) / r, M)
        self.in_cell = best_d == 0.0
        self.shape = shape

    def apply(self, flat_values: np.ndarray) -> np.ndarray:
        interp = np.sum(self.gather_w * flat_values[self.gather_idx], axis=0)
        return self.theta * (self.r * self.r * interp + self.twist)


def phi_fixed_point(n: int, r: float, resolution: int,
                    tol: float = 1e-10, max_iter: int = 200) -> GridFunction:
    """Solve the tilt self-consistency equation on a grid.

    Iterates the contraction from zero until the sup-norm update drops
    below tol.  The update ratios must stay below r^2 once past the
    first step; anything larger signals a bug and raises RuntimeError.
    Beyond the taper distance from the corner cells the function is
    identically zero.  When 1/r divides the resolution the pull-backs
    land on exact grid nodes and the returned residual reflects pure
    iteration error; otherwise it also carries interpolation error.
    """
    if not (0.0 < r < 0.5):
        raise ValueError(f"tilt construction requires r in (0, 1/2), got {r}")
    if resolution * r < 2.0:
        raise ValueError(
            f"resolution {resolution} leaves corner cells under 2 cells wide"
        )
    op = _TiltOperator(n, r, resolution)
    f = np.zeros(len(op.theta))
    history = []
    ratio_cap = r * r + 0.01
    for _ in range(max_iter):
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
        if update < tol:
            break
    else:
        raise RuntimeError(f"no convergence within {max_iter} iterations")

    final = op.apply(f)
    residual = float(np.max(np.abs((final - f)[op.in_cell])))
    return GridFunction(
        n=n,
        r=r,
        resolution=resolution,
        values=f.reshape(op.shape),
        history=tuple(history),
        residual=residual,
    )


def _ss2_residual_sup(phi: GridFunction, corners: np.ndarray) -> float:
    """Exact sup of the grid self-consistency defect over the corner cells.

    On each cell the defect is piecewise multilinear on the sublattice
    z_j + (r/M) Z^{2n} (for M divisible by 1/r that lattice refines the
    node grid), so its maximum is attained at sublattice points and a
    finite scan is exact.  For other resolutions the scan is still a
    dense probe; callers add a safety factor in that case.
    """
    M, r, axes = phi.resolution, phi.r, 2 * phi.n
    sup = 0.0
    grid = np.indices((M + 1,) * axes, dtype=float).reshape(axes, -1).T / M
    pulled = r * r * phi.evaluate(grid)
    for z in corners:
        w = z + r * grid
        resid = phi.evaluate(w) - (pulled + _tilt_term(z, w))
        sup = max(sup, float(np.max(np.abs(resid))))
    return sup


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
    phi and phi + 1 over its corner cell, with margins reported.
    """
    if ifs.strichartz is None:
        raise ValueError("invariant-region check requires a corner-family system")
    meta = ifs.strichartz
    if phi.n != ifs.n or phi.r != meta.r:
        raise ValueError("tilt grid was built for different parameters")
    n, r = ifs.n, meta.r
    rng = np.random.default_rng(seed)

    sup_resid = _ss2_residual_sup(phi, meta.corners)
    exact_lattice = abs(phi.resolution * r - round(phi.resolution * r)) < 1e-9
    safety = 1.000001 if exact_lattice else 2.0
    slack = safety * sup_resid + 1e-15

    samples = np.empty((sample_count, 2 * n + 1))
    samples[:, :-1] = rng.random((sample_count, 2 * n))
    samples[:, -1] = phi.evaluate(samples[:, :-1]) + rng.random(sample_count)

    violations = 0
    witness = None
    min_lower = math.inf
    min_upper = math.inf
    for s in ifs.maps:
        image = s.apply(samples)
        base = phi.evaluate(image[:, :-1])
        lower = image[:, -1] - base
        upper = base + 1.0 - image[:, -1]
        min_lower = min(min_lower, float(np.min(lower)))
        min_upper = min(min_upper, float(np.min(upper)))
        bad = (lower < -slack) | (upper < -slack)
        count = int(np.count_nonzero(bad))
        if count and witness is None:
            witness = samples[int(np.argmax(bad))].copy()
        violations += count

    thickness = r * r
    spacing = float(np.min(np.diff(np.sort(meta.offsets))))
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
    needs the parent's composite, never the whole word.  Broadcasts:
    parents of shape (P, 1) against all N letters give (P, N) children.
    """
    shifted = np.empty(np.broadcast_shapes(q.shape, sq.shape))
    shifted[..., :-1] = rw[..., None] * sq[..., :-1]
    shifted[..., -1] = rw * rw * sq[..., -1]
    return group_mul(q, shifted), rw * sr


def min_piece_separation(ifs: Ifs, level: int, base=None,
                         sample: int = 4096) -> float:
    """Exact minimal gauge distance across distinct first-letter cylinders.

    Branch and bound over word pairs with different first letters, each
    word w stood for by its anchor w(base).  A dense pass covers the
    deepest level whose word count stays within `sample`; the pairs that
    may still hold the minimum are then refined one letter per level, the
    N x N child pairs of a fixed-size chunk of parents at once, up to
    `level` = L.  A level-l anchor lies within

        drift(l) = r^l rho0 (1 - r^(L-l)) / (1 - r)

    of each of its level-L descendants (r the largest ratio, rho0 the
    largest one-step displacement of the base), so a pair at distance d
    is dropped once d - 2 drift(l) exceeds an upper bound U on the answer.

    When the base is the fixed point of some map m (the default is map 0),
    the anchor w(base) = w m^(L-l)(base) is itself a level-L atom with the
    same first letter, so every distance computed is realized at level L
    and U is the least one seen so far.  Any other base only gives
    U = d + 2 drift(l) for a level-l distance d.  Either way pruning keeps
    every ancestor pair of the minimum (with 1e-12 slack for rounding), so
    the result is exact and `sample` affects runtime only.  Memory grows
    with the chunk (about 2^20 distances at a time) and the surviving
    pairs, not with the pair count at `level`; more than 2^22 surviving
    pairs raise RuntimeError.  A one-map system has no cross pairs and
    returns +inf.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    n, maps = ifs.n, ifs.maps
    N = len(maps)
    if N == 1:
        return math.inf
    if base is None:
        base = maps[0].fixed_point()
    b, _, _ = _coords(base, n)
    realized = any(np.array_equal(b, s.fixed_point().coords) for s in maps)

    r_max = float(np.max(ifs.ratios))
    rho0 = max(float(dist(b, s.apply(b))) for s in maps)

    coarse = 1
    while coarse < level and N ** (coarse + 1) <= max(sample, N):
        coarse += 1

    def drift(lvl: int) -> float:
        return r_max ** lvl * rho0 * (1.0 - r_max ** (level - lvl)) / (1.0 - r_max)

    def positions(qc: np.ndarray, rc: np.ndarray) -> np.ndarray:
        # the anchor w(base) is the translation of w followed by tau_base
        return _compose_after(qc, rc, b, 1.0)[0]

    # composites (q, rw) for every coarse-level word, each parent followed
    # by all N letters: the first letter stays most significant, so each
    # first letter owns a block of `group` rows
    sq, sr = np.stack([s.q for s in maps]), ifs.ratios
    q, rw = sq, sr
    for _ in range(coarse - 1):
        q, rw = _compose_after(q[:, None], rw[:, None], sq, sr)
        q, rw = q.reshape(-1, q.shape[-1]), rw.ravel()
    group = len(rw) // N

    def anchor_pairs():
        """Each block's rows against the anchors of all later blocks."""
        rows = max(1, 2 ** 20 // len(rw))
        for later in range(group, len(rw), group):
            for start in range(later - group, later, rows):
                stop = min(start + rows, later)
                yield (q[start:stop, None], rw[start:stop, None],
                       q[None, later:], rw[None, later:])

    def child_pairs(pairs):
        """All N x N child pairs of a chunk of parent pairs at once."""
        qi, ri, qj, rj = pairs
        step = max(1, 2 ** 20 // (N * N))
        for start in range(0, len(ri), step):
            sl = slice(start, start + step)
            ci, cri = _compose_after(qi[sl, None], ri[sl, None], sq, sr)
            cj, crj = _compose_after(qj[sl, None], rj[sl, None], sq, sr)
            yield ci[:, :, None], cri[:, :, None], cj[:, None], crj[:, None]

    upper = math.inf

    def prune(chunks, lvl: int):
        """Least distance over the chunks and the pairs that survive it."""
        nonlocal upper
        least, kept, count = math.inf, [], 0
        for side in chunks:
            d = dist(positions(*side[:2]), positions(*side[2:]))
            least = min(least, float(np.min(d)))
            upper = min(upper, least + (0.0 if realized else 2.0 * drift(lvl)))
            if lvl < level:
                sel = d <= upper + 2.0 * drift(lvl) + 1e-12
                kept.append([d[sel]] + [
                    np.broadcast_to(x, d.shape + x.shape[d.ndim:])[sel]
                    for x in side])
                count += len(kept[-1][0])
                if count > 2 ** 22:
                    raise RuntimeError(
                        f"over {2 ** 22} candidate pairs at level {lvl}; "
                        "the first-letter pieces may overlap"
                    )
        if lvl == level:
            return least, None
        cols = [np.concatenate(col) for col in zip(*kept)]
        # the bound only tightened while collecting: filter once at the end
        sel = cols[0] <= upper + 2.0 * drift(lvl) + 1e-12
        return least, [c[sel] for c in cols[1:]]

    least, pairs = prune(anchor_pairs(), coarse)
    for lvl in range(coarse + 1, level + 1):
        least, pairs = prune(child_pairs(pairs), lvl)
    return least
