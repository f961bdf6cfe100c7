"""Riesz-type kernels on H^n and their truncated singular integrals.

For homogeneity degree s in (0, 2n+2] the kernel takes a displacement u
to the vector with horizontal entries u_i / ||u||^(s+1) and vertical entry
u_{2n+1} / ||u||^(s+2).  Every component is then s-homogeneous: dilating
the argument by r scales the whole vector by r^(-s).  The kernel is odd
under the group inverse.

Truncated transforms sum w(q) f(q) K(p^{-1} q) over atoms with
d(p, q) > eps (closed balls are excluded, so ties at eps drop out);
annular transforms keep r < d <= R and are computed as a difference of
two suffix sums of the same distance-sorted term array, which makes the
identity truncated(r) - truncated(R) = annulus(r, R) exact in floating
point, not just up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import ambient_dim, _coords
from .measure import DiscreteMeasure, chunk_slices

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


def _term_chunk(params: RieszParams, mu: DiscreteMeasure, center, f, sl):
    """Distances and weighted kernel rows for one atom slice.

    Rows at zero displacement are zeroed; they are excluded from every
    truncation anyway and must not poison sums with NaN.
    """
    pts = mu.points[sl]
    dh = pts[:, :-1] - center[:-1]
    dv = pts[:, -1] - center[-1] - core.symplectic_form(center, pts)
    sq = np.sum(dh * dh, axis=-1)
    d = (sq * sq + dv * dv) ** 0.25
    safe = np.where(d > 0.0, d, 1.0)
    scale = mu.weights[sl] if f is None else mu.weights[sl] * f(pts)
    terms = np.empty_like(pts)
    terms[:, :-1] = dh * (scale / safe ** (params.s + 1.0))[:, None]
    terms[:, -1] = dv * scale / safe ** (params.s + 2.0)
    terms[d == 0.0] = 0.0
    return d, terms


def _sorted_terms(mu: DiscreteMeasure, params: RieszParams, f, p):
    """All kernel terms sorted by distance from p (stable order)."""
    c, _, _ = _coords(p, params.n)
    parts_d, parts_t = [], []
    for sl in chunk_slices(len(mu)):
        d, t = _term_chunk(params, mu, c, f, sl)
        parts_d.append(d)
        parts_t.append(t)
    d = np.concatenate(parts_d) if parts_d else np.zeros(0)
    t = np.concatenate(parts_t) if parts_t else np.zeros((0, ambient_dim(params.n)))
    order = np.argsort(d, kind="stable")
    return d[order], t[order]


def _suffix_sum(d_sorted, terms_sorted, cutoff: float):
    start = int(np.searchsorted(d_sorted, cutoff, side="right"))
    return terms_sorted[start:].sum(axis=0), d_sorted.size - start


def truncated_transform(mu: DiscreteMeasure, params: RieszParams, f, p,
                        eps: float) -> TransformResult:
    """Sum of weighted kernel terms over atoms with d(p, q) > eps."""
    if not eps > 0.0:
        raise ValueError(f"truncation radius must be positive, got {eps}")
    d, t = _sorted_terms(mu, params, f, p)
    value, used = _suffix_sum(d, t, eps)
    return TransformResult(value=value, epsilon=float(eps), atom_count_used=used)


def annulus_transform(mu: DiscreteMeasure, params: RieszParams, p,
                      inner: float, outer: float) -> np.ndarray:
    """Transform of the constant density over the annulus inner < d <= outer."""
    if not (0.0 < inner < outer):
        raise ValueError(f"need 0 < inner < outer, got ({inner}, {outer})")
    d, t = _sorted_terms(mu, params, None, p)
    lo, _ = _suffix_sum(d, t, inner)
    hi, _ = _suffix_sum(d, t, outer)
    return lo - hi


def maximal_transform(mu: DiscreteMeasure, params: RieszParams, f, p,
                      eps_grid) -> np.ndarray:
    """Componentwise sup of |truncated transform| over a grid of cutoffs.

    The grid must be strictly decreasing and positive; refining the grid
    can only increase the result.
    """
    eps = np.asarray(eps_grid, dtype=float)
    if eps.size == 0:
        raise ValueError("the cutoff grid must be nonempty")
    if np.any(eps <= 0.0) or np.any(np.diff(eps) >= 0.0):
        raise ValueError("cutoffs must be positive and strictly decreasing")
    d, t = _sorted_terms(mu, params, f, p)
    best = np.zeros(ambient_dim(params.n))
    for e in eps:
        value, _ = _suffix_sum(d, t, e)
        best = np.maximum(best, np.abs(value))
    return best


def growth_profile(mu: DiscreteMeasure, params: RieszParams, p, eps_list):
    """Annulus transform values (eps_j, 1] for a decreasing list of eps.

    One streaming pass bins every atom by distance and accumulates the
    kernel terms per bin in fixed chunk order, so the result is
    deterministic and costs a single sweep regardless of the number of
    cutoffs.  Values agree with :func:`annulus_transform` up to summation
    order.
    """
    eps = np.asarray(eps_list, dtype=float)
    if eps.size == 0:
        raise ValueError("eps list must be nonempty")
    if np.any(eps <= 0.0) or np.any(eps >= 1.0):
        raise ValueError("eps values must lie in (0, 1)")
    if np.any(np.diff(eps) >= 0.0):
        raise ValueError("eps values must be strictly decreasing")
    edges = np.concatenate([np.sort(eps), [1.0]])
    nbins = edges.size + 1
    dim = ambient_dim(params.n)
    sums = np.zeros((nbins, dim))
    c, _, _ = _coords(p, params.n)
    for sl in chunk_slices(len(mu)):
        d, t = _term_chunk(params, mu, c, None, sl)
        bins = np.digitize(d, edges, right=True)
        for col in range(dim):
            sums[:, col] += np.bincount(bins, weights=t[:, col], minlength=nbins)
    # bin i covers (edges[i-1], edges[i]]; the last bin (d > 1) never
    # contributes.  suffix[k] accumulates the bins inside (edges[k], 1].
    last = edges.size - 1
    suffix = np.zeros((edges.size, dim))
    for i in range(last - 1, -1, -1):
        suffix[i] = suffix[i + 1] + sums[i + 1]
    out = []
    for e in eps:
        idx = int(np.searchsorted(edges, e))
        out.append((float(e), suffix[idx].copy()))
    return out
