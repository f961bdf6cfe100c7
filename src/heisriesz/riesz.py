"""Riesz-type kernels on H^n and their truncated singular integrals.

For homogeneity degree s in (0, 2n+2] the kernel takes a displacement u
to the vector with horizontal entries u_i / ||u||^(s+1) and vertical entry
u_{2n+1} / ||u||^(s+2).  Every component is then s-homogeneous: dilating
the argument by r scales the whole vector by r^(-s).  The kernel is odd
under the group inverse.

Truncated transforms sum w(q) f(q) K(p^{-1} q) over atoms with
d(p, q) > eps (closed balls are excluded, so ties at eps drop out).
Every transform is one :func:`~heisriesz.measure.binned_sweep`: the
kernel terms are summed per distance bin (edges at the cutoffs, with an
open end at +inf where the transform reaches infinity), pairwise within
each chunk and in fixed chunk order across chunks, and truncations are
suffix sums of those per-bin sums, so no per-atom term array is kept or
sorted.  :func:`truncations` and :func:`growth_profile` return one
(2n+1, K) array, column j for the j-th cutoff.  The sweep skips every
chunk that lies wholly inside the innermost cutoff or, for the growth
profile, wholly beyond radius 1, and sums a chunk that lies in one bin
without comparing its distances with the cutoffs; the values are the
same bits as a full sweep.  They differ from releases that summed each
chunk sequentially in the last bits, within the bound that
:func:`~heisriesz.measure.binned_sweep` states.  The annular transform
r < d <= R is defined as truncated(r) - truncated(R), so that identity
holds exactly in floating point, not just up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _coords, koranyi_norm
from .measure import CHUNK, DiscreteMeasure, binned_sweep

__all__ = [
    "RieszParams",
    "TransformResult",
    "riesz_kernel",
    "truncated_transform",
    "truncations",
    "annulus_transform",
    "maximal_transform",
    "growth_profile",
    "coordinate_function",
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
    epsilon: float
    atom_count_used: int


def riesz_kernel(params: RieszParams, p):
    """Kernel vector at a displacement; undefined at the identity."""
    x, _, _ = _coords(p, params.n)
    nrm = koranyi_norm(x)
    if np.any(nrm == 0.0):
        raise ValueError("kernel is undefined at the group identity")
    out = np.empty_like(x)
    out[..., :-1] = x[..., :-1] / nrm[..., None] ** (params.s + 1.0)
    out[..., -1] = x[..., -1] / nrm ** (params.s + 2.0)
    return out


def coordinate_function(index: int):
    """Density picking one coordinate of the atom position."""

    def f(pts: np.ndarray) -> np.ndarray:
        return pts[..., index]

    return f


def _kernel_columns(params: RieszParams, mu: DiscreteMeasure, f):
    """Per-chunk columns of weighted kernel terms for :func:`binned_sweep`.

    The 2n+1 columns are written into the rows the sweep hands over; one
    scratch row of CHUNK entries for d^(s+2) is allocated here, once per
    transform.  Every window a transform sweeps starts at a cutoff
    eps > 0, so an atom at zero displacement always falls in the sweep's
    bin below the window, which is never summed; its terms are left as
    the NaN of 0/0, and the divisions run without warnings.
    """
    if params.n != mu.n:
        raise ValueError(f"kernel on H^{params.n} applied to a measure on H^{mu.n}")
    power_ws = np.empty(min(len(mu), CHUNK))

    def columns(sl, u, d, out):
        # with a density, out[-1] holds the scaled weights until the
        # vertical column overwrites them; out[-2] holds the horizontal
        # factor until the last horizontal column does
        scale, horiz = mu.weights[sl], out[-2]
        if f is not None:
            scale = np.multiply(scale, f(mu.points[sl]), out=out[-1])
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(scale, np.power(d, params.s + 1.0, out=horiz), out=horiz)
            for i in range(2 * params.n):
                np.multiply(u[:, i], horiz, out=out[i])
            np.multiply(u[:, -1], scale, out=out[-1])
            np.divide(out[-1], np.power(d, params.s + 2.0, out=power_ws[:len(d)]),
                      out=out[-1])
        return out

    return columns


def _running_sums(mu: DiscreteMeasure, params: RieszParams, f, p, eps_list,
                  top: float) -> np.ndarray:
    """Column j is the sum over eps_list[j] < d <= top, from one sweep.

    The cutoffs must be nonempty, strictly decreasing and in (0, top).
    """
    eps = np.asarray(eps_list, dtype=float)
    if (eps.size == 0 or np.any(eps <= 0.0) or np.any(eps >= top)
            or np.any(np.diff(eps) >= 0.0)):
        raise ValueError("cutoffs must be a nonempty, strictly decreasing list "
                         f"in (0, {top:g}), got {eps.tolist()}")
    edges = np.concatenate([eps[::-1], [top]])
    sums, _ = binned_sweep(mu, p, edges, _kernel_columns(params, mu, f))
    # running sums of the bins from the outside in
    return np.cumsum(sums[:, ::-1], axis=1)


def truncated_transform(mu: DiscreteMeasure, params: RieszParams, f, p,
                        eps: float) -> TransformResult:
    """Sum of weighted kernel terms over atoms with d(p, q) > eps."""
    if not eps > 0.0:
        raise ValueError(f"truncation radius must be positive, got {eps}")
    sums, counts = binned_sweep(mu, p, [eps, np.inf],
                                _kernel_columns(params, mu, f))
    return TransformResult(value=sums[:, 0], epsilon=float(eps),
                           atom_count_used=int(counts[0]))


def annulus_transform(mu: DiscreteMeasure, params: RieszParams, p,
                      inner: float, outer: float) -> np.ndarray:
    """Transform of the constant density over the annulus inner < d <= outer."""
    if not (0.0 < inner < outer):
        raise ValueError(f"need 0 < inner < outer, got ({inner}, {outer})")
    return (truncated_transform(mu, params, None, p, inner).value
            - truncated_transform(mu, params, None, p, outer).value)


def truncations(mu: DiscreteMeasure, params: RieszParams, f, p,
                eps_grid) -> np.ndarray:
    """Truncated transforms at every cutoff of a grid, from one sweep.

    The grid must be strictly decreasing and positive; column j of the
    (2n+1, len(eps_grid)) result is the truncation d > eps_grid[j].  It
    agrees with :func:`truncated_transform` up to summation order.
    """
    return _running_sums(mu, params, f, p, eps_grid, np.inf)


def maximal_transform(mu: DiscreteMeasure, params: RieszParams, f, p,
                      eps_grid) -> np.ndarray:
    """Componentwise sup of |truncated transform| over a grid of cutoffs.

    The grid must be strictly decreasing and positive; refining the grid
    can only increase the result.
    """
    return np.abs(truncations(mu, params, f, p, eps_grid)).max(axis=1)


def growth_profile(mu: DiscreteMeasure, params: RieszParams, p,
                   eps_list) -> np.ndarray:
    """Annulus transforms of the constant density over (eps_j, 1].

    The list must be strictly decreasing and in (0, 1); column j of the
    (2n+1, len(eps_list)) result is the annulus (eps_list[j], 1], the
    layout of :func:`truncations`.  One sweep serves every cutoff, and
    the values agree with :func:`annulus_transform` up to summation
    order.
    """
    return _running_sums(mu, params, None, p, eps_list, 1.0)
