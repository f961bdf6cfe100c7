"""Homogeneous subgroups of H^n: the vertical and the horizontal kind.

A vertical subgroup is L x T for a linear subspace L of the horizontal
layer; it always contains the center T and has metric dimension
dim(L) + 2 because the vertical direction counts twice.  A horizontal
subgroup is an isotropic subspace of the horizontal layer embedded at
vertical coordinate zero; isotropy (the bilinear form A vanishing on all
pairs) is exactly the condition that makes it closed under the product,
and caps its dimension at n.  The center T alone is the vertical
subgroup with L = {0}, of metric dimension 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import ambient_dim, koranyi_norm, left_displacement, _coords
from .measure import AtomCapExceeded, DEFAULT_ATOM_CAP, DiscreteMeasure

__all__ = [
    "VERTICAL",
    "HORIZONTAL",
    "SubgroupSpec",
    "make_vertical",
    "make_horizontal",
    "dist_to_subgroup",
    "in_cone",
    "haar_sample",
]

VERTICAL = "vertical"
HORIZONTAL = "horizontal"


def _check_horizontal_dimension(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(
            f"a horizontal subgroup of H^{n} has dimension 1 to {n}, "
            f"got {k} vectors"
        )


@dataclass(frozen=True)
class SubgroupSpec:
    """A homogeneous subgroup described by an orthonormal horizontal basis.

    ``basis`` has shape (k, 2n); it spans L for the vertical kind and the
    subgroup itself for the horizontal kind.  The center line is the
    vertical kind with an empty basis.
    """

    n: int
    kind: str
    basis: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in (VERTICAL, HORIZONTAL):
            raise ValueError(f"unknown subgroup kind: {self.kind!r}")
        b = np.asarray(self.basis, dtype=float).reshape(-1, 2 * self.n)
        if self.kind == HORIZONTAL:
            _check_horizontal_dimension(self.n, len(b))
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @property
    def dim_basis(self) -> int:
        return self.basis.shape[0]

    @property
    def hausdorff_dimension(self) -> int:
        # The vertical direction has homogeneity 2, each horizontal
        # direction homogeneity 1.
        return self.dim_basis + (2 if self.kind == VERTICAL else 0)


def _orthonormal_rows(vectors: np.ndarray, what: str) -> np.ndarray:
    """Orthonormal basis of a nonempty row span; rejects dependent inputs."""
    scale = np.max(np.abs(vectors))
    if scale == 0.0:
        raise ValueError(f"{what}: zero vectors are not a basis")
    u, s, vt = np.linalg.svd(vectors, full_matrices=False)
    if np.any(s <= 1e-10 * scale * max(vectors.shape)):
        raise ValueError(f"{what}: basis vectors are linearly dependent")
    return vt[: vectors.shape[0]]


def _as_basis(n: int, basis) -> np.ndarray:
    b = np.asarray(basis, dtype=float)
    if b.size == 0:
        return np.zeros((0, 2 * n))
    b = np.atleast_2d(b)
    if b.shape[1] != 2 * n:
        raise ValueError(f"basis vectors must have length {2 * n}, got {b.shape[1]}")
    if not np.all(np.isfinite(b)):
        raise ValueError("basis vectors must be finite")
    return b


def make_vertical(n: int, basis) -> SubgroupSpec:
    """Vertical subgroup L x T from spanning vectors of L.

    An empty basis gives the center line.  The returned basis is
    orthonormalised; dependent inputs are rejected.
    """
    b = _as_basis(n, basis)
    if b.shape[0] > 2 * n:
        raise ValueError("more basis vectors than horizontal dimensions")
    if b.shape[0]:
        b = _orthonormal_rows(b, "make_vertical")
    return SubgroupSpec(n, VERTICAL, b)


def make_horizontal(n: int, basis) -> SubgroupSpec:
    """Horizontal subgroup from spanning vectors; requires isotropy.

    Rejects any pair of basis vectors with |A(u, v)| > 1e-12, reporting
    the offending pair, since such a span is not closed under the product.
    """
    b = _as_basis(n, basis)
    _check_horizontal_dimension(n, b.shape[0])
    rows = _orthonormal_rows(b, "make_horizontal")
    # A(b_i, b_j) for every pair, taken at the zero-vertical points b_i
    pts = np.pad(rows, ((0, 0), (0, 1)))
    form = core.symplectic_form(pts[:, None], pts[None, :])
    worst = np.unravel_index(np.argmax(np.abs(form)), form.shape)
    if abs(form[worst]) > 1e-12:
        i, j = worst
        raise ValueError(
            "basis is not isotropic: A(b_%d, b_%d) = %.6g" % (i, j, form[worst])
        )
    return SubgroupSpec(n, HORIZONTAL, rows)


def _monotone_cubic_root(b, c):
    """Root of 4 t^3 + b t + c, b >= 0 (an increasing cubic), by bisection."""
    top = np.cbrt(np.abs(c) / 4.0) + 1e-30
    lo, hi = -top, top
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        g = 4.0 * mid * mid * mid + b * mid + c
        neg = g < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    return 0.5 * (lo + hi)


def _row_sum(terms):
    """Sum over the last axis, left to right from +0.0 as np.sum does for
    fewer than 8 terms, so the bits do not depend on the memory layout."""
    total = np.zeros(terms.shape[:-1])
    for i in range(terms.shape[-1]):
        total += terms[..., i]
    return total


def _coefficients(xh, basis):
    """xh @ basis.T, each entry a left-to-right :func:`_row_sum`."""
    return _row_sum(xh[..., None, :] * basis)


def _projection(coeff, basis):
    """coeff @ basis, summed left to right over the basis vectors."""
    return _row_sum(coeff[..., None, :] * basis.T)


def _horizontal_distance(spec: SubgroupSpec, x):
    """Gauge distance to a horizontal subgroup, solved in closed form.

    Minimising ||x^{-1} (g, 0)||^4 over g in G reduces, after splitting g
    around the Euclidean projection of the horizontal part, to a scalar
    quartic (t^2 + D^2)^2 + (beta0 + Lam t)^2 whose derivative is a
    strictly increasing cubic; its unique root is the global minimiser.
    """
    xh, xv = x[..., :-1], x[..., -1]
    bas = spec.basis
    coeff = _coefficients(xh, bas)
    d2 = _row_sum((xh - _projection(coeff, bas)) ** 2)
    # <m, b_j> = -A(x, b_j) for the twist's gradient m in the horizontal
    # part, each b_j taken at vertical coordinate zero
    rows = np.pad(bas, ((0, 0), (0, 1)))
    mc = np.stack([-core.symplectic_form(x, b) for b in rows], axis=-1)
    lam = np.sqrt(_row_sum(mc * mc))
    beta0 = -xv + _row_sum(mc * coeff)
    t = _monotone_cubic_root(4.0 * d2 + 2.0 * lam * lam, 2.0 * lam * beta0)
    # the minimum is the gauge norm of a point with squared horizontal
    # length t^2 + D^2 and vertical part beta0 + Lam t
    sq, v = np.asarray(t * t + d2), np.asarray(beta0 + lam * t)
    return core._gauge(sq, v, v)


def dist_to_subgroup(p, spec: SubgroupSpec):
    """Gauge distance from a point (or batch) to the subgroup set.

    The vertical kind has the closed form: the free vertical coordinate
    absorbs the twist, leaving the Euclidean distance of the horizontal
    part to L (its length, for the center line).  The horizontal kind
    uses the exact quartic reduction.
    """
    x, _ = _coords(p, spec.n)
    if spec.kind == VERTICAL:
        xh = x[..., :-1]
        proj = _projection(_coefficients(xh, spec.basis), spec.basis)
        out = np.sqrt(_row_sum((xh - proj) ** 2))
    else:
        out = _horizontal_distance(spec, x)
    return float(out) if out.ndim == 0 else out


def in_cone(p, q, spec: SubgroupSpec, delta: float):
    """Membership of q in the cone at p of aperture delta around the subgroup.

    q lies in the cone when dist(p^{-1} q, V) < delta * d(p, q); the apex
    itself is inside by convention.  Accepts batches of q.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"cone aperture must lie in (0, 1), got {delta}")
    u, _ = _coords(left_displacement(p, q), spec.n)
    inside = cone_mask(u, koranyi_norm(u), spec, delta)
    return bool(inside) if inside.ndim == 0 else inside


def cone_mask(u, radius, spec: SubgroupSpec, delta: float) -> np.ndarray:
    """The cone test on displacements u = p^{-1} q with gauge norms ``radius``.

    This is the one definition behind :func:`in_cone`; a sweep that has
    the displacements and distances already calls it directly.
    """
    gap = dist_to_subgroup(u, spec)
    return np.asarray(gap < delta * radius) | np.asarray(radius == 0.0)


def haar_sample(
    spec: SubgroupSpec,
    window_radius: float,
    resolution: int,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> DiscreteMeasure:
    """Uniform-grid discretisation of the Haar measure on V within B(0, w).

    Cell weights are products of the cell side lengths, with the vertical
    cell counted linearly, so the sample is Lebesgue measure in the graded
    coordinates of V; its ball masses scale like rho^(metric dimension).
    Cells whose center leaves the gauge ball are dropped.  The grid is
    deterministic.
    """
    w = float(window_radius)
    if not (np.isfinite(w) and w > 0.0):
        raise ValueError(f"window radius must be positive, got {window_radius}")
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    k = spec.dim_basis
    has_vertical = spec.kind == VERTICAL
    n_axes = k + has_vertical
    if resolution ** n_axes > atom_cap:
        raise AtomCapExceeded(
            f"atom cap exceeded: haar grid would hold {resolution ** n_axes} "
            f"atoms, cap is {atom_cap}"
        )

    def centers(extent: float) -> np.ndarray:
        step = 2.0 * extent / resolution
        return -extent + step * (np.arange(resolution) + 0.5)

    axes = [centers(w) for _ in range(k)]
    if has_vertical:
        axes.append(centers(w * w))
    grids = np.meshgrid(*axes, indexing="ij")
    cols = [g.ravel() for g in grids]

    dim = ambient_dim(spec.n)
    count = cols[0].size
    pts = np.zeros((count, dim))
    if k:
        coeff = np.column_stack(cols[:k])
        pts[:, :-1] = coeff @ spec.basis
    if has_vertical:
        pts[:, -1] = cols[-1]

    keep = koranyi_norm(pts) <= w
    pts = pts[keep]

    dh = 2.0 * w / resolution
    dv = 2.0 * w * w / resolution
    cell = (dh ** k) * (dv if has_vertical else 1.0)
    spacing = max([dh] * k + ([np.sqrt(dv)] if has_vertical else []))
    label = (
        f"haar({spec.kind}, n={spec.n}, dim={spec.hausdorff_dimension}, "
        f"window={w:g}, resolution={resolution})"
    )
    return DiscreteMeasure(spec.n, pts, np.full(len(pts), cell),
                           label=label, spacing=spacing)
