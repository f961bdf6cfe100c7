"""Riesz-type kernels on H^n and their truncated singular integrals.

For homogeneity degree s in (0, 2n+2] the kernel takes a displacement u
to the vector with horizontal entries u_i / ||u||^(s+1) and vertical entry
u_{2n+1} / ||u||^(s+2).  Every component is then s-homogeneous: dilating
the argument by r scales the whole vector by r^(-s).  The kernel is odd
under the group inverse.

The transforms form the terms without a power when s is an integer:
d^(s+1) is a product of d's, and the vertical entry is the horizontal
factor w/d^(s+1) divided once more by d.  Their bits are then the same
at every numpy SIMD level.  For any other s they keep one ``np.power``,
whose last bits depend on the CPU features numpy dispatches to.
:func:`riesz_kernel`, the self-test's independent reference, takes
d^(s+1) and d^(s+2) by ``_radius_powers``, with the same bits at every level.

Truncated transforms sum w(q) f(q) K(p^{-1} q) over atoms with
d(p, q) > eps (closed balls are excluded, so ties at eps drop out).
Every transform is one :func:`~heisriesz.measure.binned_sweep`: the
kernel terms are summed per distance bin (edges at the cutoffs, with an
open end at +inf where the transform reaches infinity), pairwise within
each chunk and in fixed chunk order across chunks, and truncations are
suffix sums of those per-bin sums, so no per-atom term array is kept or
sorted.  :func:`truncations` and :func:`growth_profile` return one
(2n+1, K) array, column j for the j-th cutoff, and for a (k, 2n+1)
batch of points a (k, 2n+1, K) array from one sweep.  The sweep skips
every chunk that lies wholly inside the innermost cutoff or, for the
growth profile, wholly beyond radius 1, and sums a chunk that lies in
one bin without comparing its distances with the cutoffs; the values
are the same bits as a full sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _coords, koranyi_norm
from .measure import DiscreteMeasure, binned_sweep

__all__ = [
    "RieszParams",
    "TransformResult",
    "riesz_kernel",
    "truncated_transform",
    "truncations",
    "maximal_transform",
    "growth_profile",
]


@dataclass(frozen=True)
class RieszParams:
    """Kernel parameters: homogeneity degree s and group index n."""

    s: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"group index must be >= 1, got {self.n}")
        if not (0.0 < self.s <= 2 * self.n + 2):
            raise ValueError(
                f"homogeneity s must lie in (0, {2 * self.n + 2}], got {self.s}"
            )


@dataclass
class TransformResult:
    """Value of a truncated transform at one point."""

    value: np.ndarray


def _radius_powers(rad, a: float) -> np.ndarray:
    """r^a per entry, at any shape: a left-to-right product of r's at an
    integer a (``math.pow`` misses r * r for about one r in 1,000), else
    ``math.pow``.  numpy's SIMD level moves neither."""
    rad = np.asarray(rad)
    if float(a).is_integer() and a >= 1:
        power = rad.copy()
        for _ in range(int(a) - 1):
            power *= rad
        return power
    return np.array([math.pow(r, a) for r in rad.ravel()]).reshape(rad.shape)


def riesz_kernel(params: RieszParams, p):
    """Kernel vector at a displacement; undefined at the identity."""
    x, _ = _coords(p, params.n)
    nrm = koranyi_norm(x)
    if np.any(nrm == 0.0):
        raise ValueError("kernel is undefined at the group identity")
    out = np.empty_like(x)
    horizontal = _radius_powers(nrm, params.s + 1.0)
    out[..., :-1] = x[..., :-1] / horizontal[..., None]
    out[..., -1] = x[..., -1] / _radius_powers(nrm, params.s + 2.0)
    return out


def _kernel_columns(params: RieszParams, mu: DiscreteMeasure, f):
    """Per-chunk columns of weighted kernel terms for :func:`binned_sweep`.

    The 2n+1 columns are written into the rows the sweep hands over, and
    nothing else is allocated.  The horizontal factor w/d^(s+1) is formed
    once; d^(s+1) is a product of d's when s is an integer and one
    ``np.power`` otherwise.  Horizontal column i is u_i times the factor,
    and the vertical column is u_v times the factor, divided by d.  Every
    window a transform sweeps starts at a cutoff eps > 0, so an atom at
    zero displacement always falls in the sweep's bin below the window,
    which is never summed; its terms are left as the NaN of 0 * inf, and
    the arithmetic runs without warnings.
    """
    if params.n != mu.n:
        raise ValueError(f"kernel on H^{params.n} applied to a measure on H^{mu.n}")
    degree = params.s + 1.0
    factors = int(degree) if degree.is_integer() else 0

    def columns(sl, u, d, out):
        # with a density, out[-1] holds the scaled weights until the
        # vertical column overwrites them; out[-2] holds the horizontal
        # factor until the last horizontal column does
        scale, horiz = mu.weights[sl], out[-2]
        if f is not None:
            scale = np.multiply(scale, f(mu.rows(sl)), out=out[-1])
        if factors:
            # s > 0, so an integer s + 1 is at least 2
            np.multiply(d, d, out=horiz)
            for _ in range(factors - 2):
                horiz *= d
        else:
            np.power(d, degree, out=horiz)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(scale, horiz, out=horiz)
            np.multiply(u[:, -1], horiz, out=out[-1])
            np.divide(out[-1], d, out=out[-1])
            for i in range(2 * params.n):
                np.multiply(u[:, i], horiz, out=out[i])
        return out

    return columns


def _running_sums(mu: DiscreteMeasure, params: RieszParams, f, p, eps_list,
                  top: float) -> np.ndarray:
    """Column j is the sum over eps_list[j] < d <= top, from one sweep;
    for a batch of points, one such (2n+1, K) array per point.

    The cutoffs must be nonempty, strictly decreasing and in (0, top).
    """
    eps = np.asarray(eps_list, dtype=float)
    if (eps.size == 0 or not np.all(eps > 0.0) or not np.all(eps < top)
            or np.any(np.diff(eps) >= 0.0)):
        raise ValueError("cutoffs must be a nonempty, strictly decreasing list "
                         f"in (0, {top:g}), got {eps.tolist()}")
    edges = np.concatenate([eps[::-1], [top]])
    sums = binned_sweep(mu, p, edges, _kernel_columns(params, mu, f))
    # running sums of the bins from the outside in
    return np.cumsum(sums[..., ::-1], axis=-1)


def truncated_transform(mu: DiscreteMeasure, params: RieszParams, f, p,
                        eps: float) -> TransformResult:
    """Sum of weighted kernel terms over atoms with d(p, q) > eps."""
    return TransformResult(value=truncations(mu, params, f, p, [eps])[:, 0])


def truncations(mu: DiscreteMeasure, params: RieszParams, f, p,
                eps_grid) -> np.ndarray:
    """Truncated transforms at every cutoff of a grid, from one sweep.

    The grid must be strictly decreasing and positive; column j of the
    (2n+1, len(eps_grid)) result is the truncation d > eps_grid[j], and
    a (k, 2n+1) batch ``p`` gives (k, 2n+1, len(eps_grid)).  It agrees
    with :func:`truncated_transform` up to summation order.
    """
    return _running_sums(mu, params, f, p, eps_grid, np.inf)


def maximal_transform(mu: DiscreteMeasure, params: RieszParams, f, p,
                      eps_grid) -> np.ndarray:
    """Componentwise sup of |truncated transform| over a grid of cutoffs.

    The grid must be strictly decreasing and positive; refining the grid
    can only increase the result.
    """
    return np.abs(truncations(mu, params, f, p, eps_grid)).max(axis=-1)


def growth_profile(mu: DiscreteMeasure, params: RieszParams, p,
                   eps_list) -> np.ndarray:
    """Transforms of the constant density over the annuli (eps_j, 1].

    The list must be strictly decreasing and in (0, 1); column j of the
    (2n+1, len(eps_list)) result sums the atoms with
    eps_list[j] < d(p, q) <= 1, in the layout of :func:`truncations`.
    One sweep serves every cutoff, and column j agrees with the
    difference of the truncations at eps_list[j] and 1 up to summation
    order.  ``p`` may be a (k, 2n+1) batch of points: one sweep then
    serves them all, building each chunk once, and result i, of shape
    (k, 2n+1, len(eps_list)), has the bits of the call at p[i] alone.
    """
    return _running_sums(mu, params, None, p, eps_list, 1.0)
