"""Core arithmetic of the Heisenberg group H^n realised on R^(2n+1).

A point is a coordinate vector (x_1, ..., x_2n, t).  The first 2n entries
form the horizontal part, the final entry is the vertical part and scales
quadratically under dilations.  Every operation below accepts either an
:class:`HPoint` or a plain float array whose last axis has length 2n+1;
batches broadcast over the leading axes.  Wrapped points are validated on
construction, raw arrays are assumed finite (measure constructors check).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HPoint",
    "ambient_dim",
    "group_index",
    "origin",
    "symplectic_form",
    "group_mul",
    "group_inv",
    "koranyi_norm",
    "dist",
    "dilate",
    "blowup_map",
]


def ambient_dim(n: int) -> int:
    """Coordinate dimension 2n+1 of H^n."""
    return 2 * n + 1


def group_index(dim: int) -> int:
    """Recover n from a coordinate dimension 2n+1."""
    if dim < 3 or dim % 2 == 0:
        raise ValueError(f"coordinate dimension must be odd and >= 3, got {dim}")
    return (dim - 1) // 2


@dataclass(frozen=True, eq=False)
class HPoint:
    """A validated point of H^n: 2n+1 finite coordinates."""

    n: int
    coords: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"group index must be a positive integer, got {self.n!r}")
        c = np.array(self.coords, dtype=float)
        if c.shape != (ambient_dim(self.n),):
            raise ValueError(
                f"expected {ambient_dim(self.n)} coordinates for H^{self.n}, "
                f"got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coordinates must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    def __repr__(self) -> str:
        body = np.array2string(self.coords, separator=", ")
        return f"HPoint(n={self.n}, coords={body})"


def origin(n: int) -> HPoint:
    """The group identity of H^n."""
    return HPoint(n, np.zeros(ambient_dim(n)))


def _coords(p, n: int | None = None):
    """Coerce a point argument to (array, n, was_wrapped)."""
    if isinstance(p, HPoint):
        if n is not None and p.n != n:
            raise ValueError(f"group index mismatch: expected n={n}, got n={p.n}")
        return p.coords, p.n, True
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 0:
        raise ValueError("a point must have at least one axis")
    m = group_index(arr.shape[-1])
    if n is not None and m != n:
        raise ValueError(f"group index mismatch: expected n={n}, got n={m}")
    return arr, m, False


def _wrap(out: np.ndarray, n: int, wrapped: bool):
    if wrapped and out.ndim == 1:
        return HPoint(n, out)
    return out


def symplectic_form(p, q):
    """A(p, q) = -2 sum_i (p_i q_{i+n} - p_{i+n} q_i).

    Bilinear and antisymmetric in the horizontal parts; the vertical
    coordinates are ignored.  This is the correction term that makes the
    coordinate-wise sum a group law.
    """
    a, n, _ = _coords(p)
    b, _, _ = _coords(q, n)
    x1, y1 = a[..., :n], a[..., n : 2 * n]
    x2, y2 = b[..., :n], b[..., n : 2 * n]
    return -2.0 * np.sum(x1 * y2 - y1 * x2, axis=-1)


def group_mul(p, q):
    """Group product p . q."""
    a, n, wa = _coords(p)
    b, _, wb = _coords(q, n)
    horiz = a[..., :-1] + b[..., :-1]
    vert = a[..., -1] + b[..., -1] + symplectic_form(a, b)
    out = np.concatenate([horiz, vert[..., None]], axis=-1)
    return _wrap(out, n, wa and wb)


def group_inv(p):
    """Group inverse, which is coordinate-wise negation."""
    a, n, wrapped = _coords(p)
    return _wrap(-a, n, wrapped)


def left_displacement(p, q):
    """p^{-1} . q, computed directly to avoid an intermediate product."""
    a, n, wa = _coords(p)
    b, _, wb = _coords(q, n)
    horiz = b[..., :-1] - a[..., :-1]
    vert = b[..., -1] - a[..., -1] - symplectic_form(a, b)
    out = np.concatenate([horiz, vert[..., None]], axis=-1)
    return _wrap(out, n, wa and wb)


def koranyi_norm(p):
    """Gauge norm (|horizontal|^4 + vertical^2)^(1/4)."""
    a, _, _ = _coords(p)
    sq = np.sum(a[..., :-1] ** 2, axis=-1)
    return (sq * sq + a[..., -1] ** 2) ** 0.25


def dist(p, q):
    """Left-invariant gauge distance d(p, q) = ||p^{-1} . q||."""
    a, n, _ = _coords(p)
    b, _, _ = _coords(q, n)
    dh = b[..., :-1] - a[..., :-1]
    dv = b[..., -1] - a[..., -1] - symplectic_form(a, b)
    sq = np.sum(dh * dh, axis=-1)
    return (sq * sq + dv * dv) ** 0.25


def _check_ratio(r) -> float:
    r = float(r)
    if not np.isfinite(r) or r <= 0.0:
        raise ValueError(f"dilation factor must be a finite positive number, got {r}")
    return r


def dilate(r, p):
    """Anisotropic dilation: horizontal part times r, vertical part times r^2."""
    r = _check_ratio(r)
    a, n, wrapped = _coords(p)
    out = a.copy()
    out[..., :-1] *= r
    out[..., -1] *= r * r
    return _wrap(out, n, wrapped)


def blowup_map(a, r, p):
    """Zoom of scale r at the point a: dilate the displacement a^{-1} . p by 1/r."""
    r = _check_ratio(r)
    return dilate(1.0 / r, left_displacement(a, p))
