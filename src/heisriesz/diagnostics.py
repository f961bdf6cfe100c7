"""Quantitative probes: regularity ratios, cone mass, transform growth.

These functions turn the package's geometric machinery into numerical
verdicts on discrete measures: whether ball masses scale like rho^a,
how much mass escapes every cone around a subgroup, whether truncated
singular integrals blow up or stay bounded as the cutoff shrinks, and
whether zoomed-in copies of a measure reproduce its structure.  All
sampling is seeded and every report records enough of its inputs to be
reproduced exactly.

Ball and annulus statistics respect a resolution floor: radii below
4x the atom spacing are rejected (or trimmed with a warning, for the
divergence schedule), since below that scale discretization noise
dominates and verdicts become meaningless.  The one deliberate
exception is the subgroup boundedness probe, which pushes the cutoff
below the grid scale on purpose: its statistic measures cancellation,
and saturation below the atom spacing is exactly the bounded behavior
being tested.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import core
# dist, in_cone and blowup_map stay bound here: perfbench's span
# recorder wraps diagnostics.dist, diagnostics.in_cone and
# diagnostics.blowup_map, which a blow-up's rows no longer call
from .core import _coords, blowup_map, dist, koranyi_norm
from .measure import (DEFAULT_ATOM_CAP, BuiltView, DiscreteMeasure, _refuse_overflow,
                      _worker_cap, closed_ball_sums)
from .riesz import RieszParams, _radius_powers, growth_profile
from .subgroups import SubgroupSpec, cone_mask, haar_sample, in_cone

__all__ = [
    "AdRegularityReport",
    "ad_regularity_report",
    "cone_deficiency",
    "GrowthReport",
    "divergence_probe",
    "BoundednessReport",
    "subgroup_boundedness_probe",
    "HorestReport",
    "horest_check",
    "blowup_measure",
]


def _fit_slope(y: np.ndarray) -> float:
    """Least-squares slope of y against its index."""
    x = np.arange(len(y), dtype=float)
    xc = x - x.mean()
    denom = float(np.sum(xc * xc))
    if denom == 0.0:
        return 0.0
    return float(np.sum(xc * (y - y.mean())) / denom)


def _resolution_floor(mu: DiscreteMeasure) -> float:
    return 4.0 * mu.spacing if mu.spacing is not None else 0.0


def _checked_radii(mu: DiscreteMeasure, radii) -> np.ndarray:
    """The radii as an array: nonempty, positive, none below the floor."""
    rad = np.asarray(radii, dtype=float)
    if rad.size == 0 or not np.all(rad > 0.0):
        raise ValueError("radii must be a nonempty list of positive numbers")
    floor = _resolution_floor(mu)
    if np.any(rad < floor):
        raise ValueError(
            f"radius below the resolution floor {floor:g} "
            "(4x atom spacing); the ratio would be discretization noise"
        )
    return rad


def _point_rows(mu: DiscreteMeasure, points) -> np.ndarray:
    """An explicit list of points of mu's group as a (k, 2n+1) array."""
    pts, _ = _coords(points, mu.n)
    if pts.ndim != 2:
        raise ValueError(f"points must have shape (k, {pts.shape[-1]}), "
                         f"got {pts.shape}")
    return pts


def _center_coords(mu: DiscreteMeasure, centers, seed: int) -> np.ndarray:
    if isinstance(centers, (int, np.integer)):
        rng = np.random.default_rng(seed)
        take = min(int(centers), len(mu))
        idx = rng.choice(len(mu), size=take, replace=False)
        return mu.points[np.sort(idx)]
    return _point_rows(mu, centers)


@dataclass(frozen=True)
class AdRegularityReport:
    """Ball-mass scaling ratios mu(B(x, rho)) / rho^a over a sample grid."""

    a: float
    centers: np.ndarray
    radii: np.ndarray
    ratios: np.ndarray
    min_ratio: float
    max_ratio: float
    implied_c: float
    c_cap: float
    seed: int

    @property
    def regular(self) -> bool:
        return math.isfinite(self.implied_c) and self.implied_c <= self.c_cap


def ad_regularity_report(mu: DiscreteMeasure, a: float, centers=64,
                         radii=(0.25, 0.0625, 0.015625, 0.00390625),
                         seed: int = 0, c_cap: float = 50.0) -> AdRegularityReport:
    """Measure how uniformly ball masses scale like rho^a.

    `centers` is either a count (that many atoms drawn from the support
    without replacement) or an explicit list of points.  The implied
    constant is max(max_ratio, 1/min_ratio), so `regular` means every
    sampled ratio lies in [1/c_cap, c_cap].  Radii below 4x the atom
    spacing or above the support diameter are rejected outright.
    """
    rad = _checked_radii(mu, radii)
    diam = mu.diameter_bound()
    if np.any(rad > diam):
        raise ValueError(f"radius above the support diameter bound {diam:g}")

    pts = _center_coords(mu, centers, seed)
    ratios = mu.ball_mass(pts, rad) / _radius_powers(rad, a)
    min_ratio = float(np.min(ratios))
    max_ratio = float(np.max(ratios))
    implied = max(max_ratio, 1.0 / min_ratio) if min_ratio > 0.0 else math.inf
    return AdRegularityReport(
        a=a, centers=pts, radii=rad, ratios=ratios,
        min_ratio=min_ratio, max_ratio=max_ratio,
        implied_c=implied, c_cap=c_cap, seed=seed,
    )


def cone_deficiency(mu: DiscreteMeasure, a: float, k, G: SubgroupSpec,
                    delta: float, radii) -> np.ndarray:
    """Mass near k but outside the cone X(k, G, delta), scaled by r^a.

    For each radius r this returns mu(B(k, r) \\ X(k, G, delta)) / r^a.
    Shrinking delta narrows the cone, so the ratios can only grow.
    Strictly positive values across radii witness that no piece of the
    measure around k flattens onto the subgroup.  One point k gives (R,)
    for R radii; an (m, 2n+1) batch, swept once, gives (m, R).
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"cone aperture must lie in (0, 1), got {delta}")
    rad = _checked_radii(mu, radii)
    masses = closed_ball_sums(mu, k, rad, lambda sl, u, d: np.where(
        cone_mask(u, d, G, delta), 0.0, mu.weights[sl]))
    return masses / _radius_powers(rad, a)


@dataclass(frozen=True)
class GrowthReport:
    """Per-point profile of annulus-transform magnitudes over a cutoff ladder.

    `magnitudes[j, i]` is the absolute i-th coordinate of the transform
    over the annulus (eps[j], 1].  Slopes are least-squares fits of
    magnitude against the ladder index (eps decreasing, so a positive
    slope means growth as the cutoff shrinks).
    """

    point: np.ndarray
    eps: tuple
    magnitudes: np.ndarray
    slopes: np.ndarray
    verdict: str
    threshold: float

    @property
    def max_magnitudes(self) -> np.ndarray:
        """Largest coordinate magnitude per ladder level."""
        return self.magnitudes.max(axis=1)


def _growth_verdict(max_mag: np.ndarray, c: float) -> str:
    half = max_mag[len(max_mag) - max(2, (len(max_mag) + 1) // 2):]
    steps = np.diff(half)
    if np.all(steps > 0.0) and float(np.mean(steps)) >= c:
        return "diverging"
    if abs(_fit_slope(max_mag)) < c:
        return "bounded"
    return "inconclusive"


def divergence_probe(mu: DiscreteMeasure, params: RieszParams, points,
                     eps_schedule, c: float = 0.05,
                     threads: int | None = None) -> list:
    """Growth profiles of the annulus transform at several support points.

    The schedule is trimmed at the measure's resolution floor (with a
    warning) because annuli thinner than the atom spacing sample noise.
    A point is judged "diverging" when the max-coordinate magnitude
    rises by at least `c` per level, strictly, over the last half of
    the ladder; "bounded" when the overall fitted slope stays within
    `c`; anything else is "inconclusive".

    Every point is profiled by one batched :func:`growth_profile`
    sweep, which builds each chunk once, with the bits of a profile per
    point.  ``threads`` caps the threads that the sweep spreads its
    chunks over (None: as many as the process has CPUs); the reports
    have the same bits at every value.
    """
    eps = [float(e) for e in eps_schedule]
    floor = _resolution_floor(mu)
    kept = [e for e in eps if e >= floor]
    if len(kept) < len(eps):
        warnings.warn(
            f"dropped {len(eps) - len(kept)} cutoff(s) below the resolution "
            f"floor {floor:g}",
            stacklevel=2,
        )
    if len(kept) < 2:
        raise ValueError("need at least two usable cutoffs above the floor")

    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    pts = _point_rows(mu, points)

    with _worker_cap(threads):
        profiles = growth_profile(mu, params, pts, kept)

    def probe(arr, profile):
        # rows are the ladder levels, columns the coordinates
        mags = np.abs(profile).T
        slopes = np.array([_fit_slope(mags[:, i]) for i in range(mags.shape[1])])
        return GrowthReport(
            point=arr,
            eps=tuple(kept),
            magnitudes=mags,
            slopes=slopes,
            verdict=_growth_verdict(mags.max(axis=1), c),
            threshold=c,
        )

    return [probe(arr, profile) for arr, profile in zip(pts, profiles)]


@dataclass(frozen=True)
class BoundednessReport:
    """Cutoff-ladder statistics of the transform on a subgroup Haar sample."""

    kind: str
    s: float
    window: float
    resolution: int
    eps: tuple
    points: np.ndarray
    per_point_max: np.ndarray
    per_eps_max: np.ndarray
    bound: float
    slope: float
    verdict: str
    seed: int


def subgroup_boundedness_probe(V: SubgroupSpec, s: float, eps_grid,
                               window: float = 2.0, resolution: int = 2048,
                               points: int = 8, seed: int = 0,
                               slope_tol: float = 0.01,
                               atom_cap: int = DEFAULT_ATOM_CAP) -> BoundednessReport:
    """Check that truncations of the transform stay bounded on a subgroup.

    Builds the Haar sample of V, picks `points` atoms well inside the
    window, and tabulates the max-coordinate magnitude of the annulus
    transform (eps, 1] down the cutoff ladder.  The kernel is odd and
    the sample symmetric, so the sums cancel instead of growing; the
    verdict is "bounded" when the fitted slope of the per-cutoff max
    stays within slope_tol.  Cutoffs below the grid spacing are kept on
    purpose: past that scale the annulus content freezes, which is the
    flat tail the statistic is meant to show.
    """
    if abs(s - V.hausdorff_dimension) > 1e-12:
        raise ValueError(
            f"kernel degree {s} must match the subgroup dimension "
            f"{V.hausdorff_dimension}"
        )
    haar = haar_sample(V, window, resolution, atom_cap=atom_cap)
    params = RieszParams(s=s, n=V.n)
    rng = np.random.default_rng(seed)
    norms = koranyi_norm(haar.points)
    eligible = np.nonzero(norms <= window / 2.0)[0]
    if eligible.size == 0:
        raise ValueError("no Haar atoms inside half the window")
    take = min(points, eligible.size)
    chosen = np.sort(rng.choice(eligible, size=take, replace=False))
    sample_pts = haar.points[chosen]

    eps = [float(e) for e in eps_grid]
    # one sweep for every point; rows are points, columns cutoffs
    per_point = np.abs(growth_profile(haar, params, sample_pts, eps)).max(axis=1)
    per_eps = per_point.max(axis=0)
    slope = _fit_slope(per_eps)
    return BoundednessReport(
        kind=V.kind,
        s=s,
        window=window,
        resolution=resolution,
        eps=tuple(eps),
        points=sample_pts,
        per_point_max=per_point,
        per_eps_max=per_eps,
        bound=float(np.max(per_eps)),
        slope=slope,
        verdict="bounded" if abs(slope) < slope_tol else "inconclusive",
        seed=seed,
    )


@dataclass(frozen=True)
class HorestReport:
    """Outcome of the vertical-coordinate lower-bound trials."""

    n: int
    delta: float
    trials: int
    violations: int
    hypothesis_rejections: int
    min_margin: float
    seed: int

    @property
    def passed(self) -> bool:
        return self.violations == 0

    @property
    def proved_margin(self) -> float:
        """Closed-form lower bound on (y_v - bound) / (delta ||x||)^2.

        With rho = delta^2 ||x|| / (100 n), |A(x, u)| <= 2 |x'| |u'| <=
        2 ||x|| rho and |u_v| <= rho^2, so the hypothesis x_v >
        (delta ||x||)^2 gives y_v >= (delta ||x||)^2 (1 - 2/(100 n) -
        delta^2/(10^4 n^2)); the bound takes half of that.
        """
        return 0.5 - 2.0 / (100.0 * self.n) - self.delta ** 2 / (1e4 * self.n ** 2)


# rows of one horest_check block: its draws and temporaries take 1.3 MB
# at n = 2, while a batch keeps its accepted rows
_HOREST_BLOCK = 16384


def _stream_at(seed: int, offset: int) -> np.random.Generator:
    """``default_rng(seed)`` advanced to double `offset` of its stream:
    ``random`` takes one 64-bit word per double."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(offset)
    return rng


def _sphere_scale(rho, norm, out):
    """rho / norm where norm > rho, else 1, written into ``out``.

    Taken as fmin(rho / norm, 1), which takes 1 for a quotient of at
    least 1 (an infinite one too) and for the NaN of 0/0, inf/inf or a
    NaN input, as the masked divide ``np.divide(rho, norm, where=norm >
    rho)`` over ones did, with the same bits; it runs about eight times
    faster.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.fmin(np.divide(rho, norm, out=out), 1.0, out=out)


def horest_check(n: int, delta: float, trials: int = 1_000_000,
                 seed: int = 0) -> HorestReport:
    """Test the lower bound y_{2n+1} >= delta^2 ||x||^2 / 2 by sampling.

    Draws x with positive vertical part satisfying sqrt(x_v) >
    delta ||x||, then perturbs it by gauge-ball elements of radius
    delta^2 ||x|| / (100 n) and checks the image's vertical coordinate.
    Draws failing the hypothesis are discarded and counted separately.
    The margin reported is the worst observed y_v minus the bound; a
    NaN margin counts as a violation and is kept as the worst.

    The draws are those of one ``default_rng(seed)`` stream, batch by
    batch: B candidate rows of x, their 2n horizontals in C order and
    then their verticals, then the same for the m accepted rows' u.
    Each block of rows reads its own segment of that stream, so memory
    is the accepted rows of x and their norms, at most 131072 of each,
    plus one block of 16384 rows: 8 MB at n = 2.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if trials < 1:
        raise ValueError("trials must be positive")
    dim = 2 * n + 1
    # the points are coordinate-major, so that every coordinate the
    # norm, the form and the gathers read is one contiguous column
    rows = min(131072, trials)
    x, norms = np.empty((rows, dim), order="F"), np.empty(rows)
    block = min(_HOREST_BLOCK, 2 * trials + 64)
    pool, scratch = (np.empty((block, dim), order="F") for _ in range(2))
    margin_ws = np.empty(block)

    def uniform(offset, count):
        """`count` rows from double `offset` on, a block at a time.

        rng.uniform(a, b) is a + (b - a) U for the same U: these are the
        bits of (-1, 1) horizontals, drawn in C order into scratch, and
        of (0, 2) verticals, where +0.0 moves no bit.
        """
        horizontal = _stream_at(seed, offset)
        vertical = _stream_at(seed, offset + 2 * n * count)
        for start in range(0, count, block):
            out = pool[:min(block, count - start)]
            draws = scratch.reshape(-1, order="F")[: 2 * n * len(out)]
            out[:, :-1] = horizontal.random(out=draws).reshape(-1, 2 * n)
            out[:, :-1] *= 2.0
            out[:, :-1] -= 1.0
            np.multiply(vertical.random(out=out[:, -1]), 2.0, out=out[:, -1])
            yield start, out

    done = 0
    rejected = 0
    violations = 0
    min_margin = math.inf
    offset = 0
    while done < trials:
        batch = min(131072, 2 * (trials - done) + 64)
        m = 0
        for _, pts in uniform(offset, batch):
            norm = koranyi_norm(pts, out=scratch[:len(pts)])
            bound = np.multiply(norm, delta, out=scratch[:len(pts), 0])
            bound *= bound
            # bound >= 0, so the hypothesis also gives a positive vertical part
            ok = pts[:, -1] > bound
            rejected += int(len(pts) - np.count_nonzero(ok))
            keep = np.flatnonzero(ok)[: trials - done - m]
            # the indices are valid, and mode="clip" lets take write into
            # its contiguous out directly instead of through a temporary
            for i in range(dim):
                np.take(pts[:, i], keep, out=x[m:m + len(keep), i], mode="clip")
            np.take(norm, keep, out=norms[m:m + len(keep)], mode="clip")
            m += len(keep)
        offset += dim * batch

        # u: a draw from the box (-1, 1)^{2n+1} per accepted x, dilated by
        # rho in scratch column 1, which the norm does not use
        for start, u in uniform(offset, m):
            k = len(u)
            xs, norm = x[start:start + k], norms[start:start + k]
            rho = np.multiply(norm, delta * delta, out=scratch[:k, 1])
            rho /= 100.0 * n
            u[:, -1] -= 1.0
            core.dilate(rho, u, out=u)
            # pull draws outside the gauge ball of radius rho onto its sphere
            unorm = koranyi_norm(u, out=scratch[:k])
            core.dilate(_sphere_scale(rho, unorm, scratch[:k, 0]), u, out=u)

            # y = x . u; only the vertical coordinate matters
            margin = np.add(xs[:, -1], u[:, -1], out=margin_ws[:k])
            margin += core.symplectic_form(xs, u, out=scratch[:k])
            bound = np.multiply(norm, delta, out=scratch[:k, 0])
            bound *= bound
            bound *= 0.5
            margin -= bound
            violations += k - int(np.count_nonzero(margin >= 0.0))
            min_margin = float(np.minimum(min_margin, np.min(margin)))
        offset += dim * m
        done += m

    return HorestReport(
        n=n, delta=delta, trials=trials, violations=violations,
        hypothesis_rejections=rejected, min_margin=min_margin, seed=seed,
    )


def blowup_measure(mu: DiscreteMeasure, a, r: float, s: float | None = None,
                   normalization: str = "power") -> DiscreteMeasure:
    """Zoom of scale r at the point a, with renormalized weights.

    Atoms move through the blow-up map delta_{1/r}(a^{-1} . q): ``points``
    is the :class:`~heisriesz.measure.BuiltView` of ``mu.points``, a^{-1}
    and 1/r, whose extent is refused here if it could overflow.
    With "power" normalization the weights gain a factor r^(-s); with
    "ball-mass" they are divided by mu(B(a, r)), which must be positive.
    Atom spacing scales by 1/r along with all distances.  An r or r^(-s)
    that is not finite and positive raises ``ValueError``.
    """
    c, _ = _coords(a, mu.n)
    if not 0.0 < float(r) < math.inf:
        raise ValueError(f"the blow-up ratio r must be finite and positive, got {r!r}")
    if normalization == "power":
        if s is None:
            raise ValueError("power normalization needs the exponent s")
        try:
            factor = float(r) ** (-s)
        except OverflowError:
            factor = math.inf
        if not 0.0 < factor < math.inf:
            raise ValueError(f"the weight factor r^(-s) at r = {r!r}, s = {s!r} "
                             "is not a finite positive double")
    elif normalization == "ball-mass":
        mass = mu.ball_mass(c, r)
        if mass <= 0.0:
            raise ValueError(f"ball of radius {r:g} at the center carries no mass")
        factor = 1.0 / mass
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    spacing = mu.spacing / r if mu.spacing is not None else None
    w = mu.weights
    # equal weights held once stay held once, with the same bits
    weights = (np.broadcast_to(w[:1] * factor, w.shape) if w.strides == (0,)
               else w * factor)
    # a copy of a^{-1}: a later write to the caller's point cannot move it
    points = BuiltView(mu.points, [core.group_inv(c)], 1.0 / float(r))
    _refuse_overflow(points.extent)
    return DiscreteMeasure(
        n=mu.n,
        points=points,
        weights=weights,
        label=f"blowup r={r:g} norm={normalization} of [{mu.label}]",
        spacing=spacing,
    )
