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
open end at +inf where the transform reaches infinity) in fixed chunk
order, and truncations are suffix sums of those per-bin sums, so no
per-atom term array is kept or sorted.  The sweep skips every chunk that
lies wholly inside the innermost cutoff or, for the growth profile,
wholly beyond radius 1; those chunks add nothing, so the values are the
same bits as a full sweep.  The annular transform
r < d <= R is defined as truncated(r) - truncated(R), so that identity
holds exactly in floating point, not just up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _coords
from .measure import DiscreteMeasure, binned_sweep

__all__ = [
    "RieszParams",
    "TransformResult",
    "riesz_kernel",
    "truncated_transform",
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
    sq = np.sum(x[..., :-1] ** 2, axis=-1)
    nrm = (sq * sq + x[..., -1] ** 2) ** 0.25
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

    Rows at zero displacement are zeroed; they are excluded from every
    truncation anyway and must not poison sums with NaN.
    """
    if params.n != mu.n:
        raise ValueError(f"kernel on H^{params.n} applied to a measure on H^{mu.n}")

    def columns(sl, u, d):
        safe = np.where(d > 0.0, d, 1.0)
        scale = mu.weights[sl] if f is None else mu.weights[sl] * f(mu.points[sl])
        scale = np.where(d > 0.0, scale, 0.0)
        horiz = scale / safe ** (params.s + 1.0)
        return [u[:, i] * horiz for i in range(2 * params.n)] + [
            u[:, -1] * scale / safe ** (params.s + 2.0)]

    return columns


def _cutoffs(eps_list, top: float) -> np.ndarray:
    """The cutoffs as an array: nonempty, strictly decreasing, in (0, top)."""
    eps = np.asarray(eps_list, dtype=float)
    if (eps.size == 0 or np.any(eps <= 0.0) or np.any(eps >= top)
            or np.any(np.diff(eps) >= 0.0)):
        raise ValueError("cutoffs must be a nonempty, strictly decreasing list "
                         f"in (0, {top:g}), got {eps.tolist()}")
    return eps


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


def maximal_transform(mu: DiscreteMeasure, params: RieszParams, f, p,
                      eps_grid) -> np.ndarray:
    """Componentwise sup of |truncated transform| over a grid of cutoffs.

    The grid must be strictly decreasing and positive; refining the grid
    can only increase the result.
    """
    eps = _cutoffs(eps_grid, np.inf)
    edges = np.concatenate([eps[::-1], [np.inf]])
    sums, _ = binned_sweep(mu, p, edges, _kernel_columns(params, mu, f))
    # running sums of the bins from the outside in: every truncation
    return np.abs(np.cumsum(sums[:, ::-1], axis=1)).max(axis=1)


def growth_profile(mu: DiscreteMeasure, params: RieszParams, p, eps_list):
    """Annulus transform values (eps_j, 1] for a decreasing list of eps.

    One sweep bins every atom by distance, with the cutoffs and 1 as the
    edges, so the cost is a single pass regardless of the number of
    cutoffs.  Values agree with :func:`annulus_transform` up to
    summation order.
    """
    eps = _cutoffs(eps_list, 1.0)
    edges = np.concatenate([eps[::-1], [1.0]])
    sums, _ = binned_sweep(mu, p, edges, _kernel_columns(params, mu, None))
    # running sums from the bin below 1 inwards: column j is the
    # annulus (eps[j], 1]
    annuli = np.cumsum(sums[:, ::-1], axis=1)
    return [(float(e), annuli[:, j].copy()) for j, e in enumerate(eps)]
