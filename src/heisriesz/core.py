"""Core arithmetic of the Heisenberg group H^n realised on R^(2n+1).

A point is a coordinate vector (x_1, ..., x_2n, t).  The first 2n entries
form the horizontal part, the final entry is the vertical part and scales
quadratically under dilations.  Every operation below takes a float
array whose last axis has length 2n+1; batches broadcast over the
leading axes.  Arrays are assumed finite: measure constructors check
their atoms, and every sweep checks its centre.

Batch operations take ``out=``, a point-shaped (..., 2n+1) float array
that they fill and return instead of allocating; the scalar-valued
:func:`symplectic_form` and :func:`koranyi_norm` use its first
coordinates as scratch and return its last coordinate.  Only
:func:`dilate` may overlap ``out`` with its input.  Sums over the
coordinates run left to right and horizontal blocks are written one
coordinate view ``a[..., i]`` at a time (a 2-D ufunc over a C-order
batch runs one 2n-element loop per point), with or without ``out`` and
in any memory order, so every layout gives the same bits.  Callers use
the returned array, and every module calls :func:`symplectic_form`,
:func:`group_mul` and :func:`dilate` through this module, not through a
name bound at import, so a replaced one reaches every caller.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ambient_dim",
    "group_index",
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


def _coords(p, n: int | None = None):
    """Coerce a point argument to (array, n)."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 0:
        raise ValueError("a point must have at least one axis")
    m = group_index(arr.shape[-1])
    if n is not None and m != n:
        raise ValueError(f"group index mismatch: expected n={n}, got n={m}")
    return arr, m


def _scalars(shape, out, count: int):
    """``count`` scalar-per-point arrays: the last coordinate of ``out``
    followed by its first ones, or fresh arrays of ``shape``."""
    if out is None:
        return [np.empty(shape) for _ in range(count)]
    return [out[..., -1]] + [out[..., i] for i in range(count - 1)]


def symplectic_form(p, q, out=None):
    """A(p, q) = -2 sum_i (p_i q_{i+n} - p_{i+n} q_i).

    Bilinear and antisymmetric in the horizontal parts; the vertical
    coordinates are ignored.  This is the correction term that makes the
    coordinate-wise sum a group law.
    """
    a, n = _coords(p)
    b, _ = _coords(q, n)
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    form, term, cross = _scalars(shape, out, 3)
    for i in range(n):
        t = np.multiply(a[..., i], b[..., n + i], out=term if i else form)
        t -= np.multiply(a[..., n + i], b[..., i], out=cross)
        if i:
            form += t
    # np.sum starts from +0.0; adding it last turns an all-zero sum's
    # -0.0 into +0.0 and leaves every other value as it is
    form += 0.0
    form *= -2.0
    return form[()]


def group_mul(p, q, out=None):
    """Group product p . q."""
    a, n = _coords(p)
    b, _ = _coords(q, n)
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    # the vertical first, while the horizontal part of out is free for
    # the form's terms and the partial sum
    form = symplectic_form(a, b, out=out)
    vert = np.add(a[..., -1], b[..., -1], out=out[..., 0])
    np.add(vert, form, out=out[..., -1])
    for i in range(2 * n):
        np.add(a[..., i], b[..., i], out=out[..., i])
    return out


def group_inv(p):
    """Group inverse, which is coordinate-wise negation."""
    a, _ = _coords(p)
    return -a


def left_displacement(p, q, out=None):
    """p^{-1} . q, computed directly to avoid an intermediate product."""
    a, n = _coords(p)
    b, _ = _coords(q, n)
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    # as in group_mul: the vertical first
    form = symplectic_form(a, b, out=out)
    vert = np.subtract(b[..., -1], a[..., -1], out=out[..., 0])
    np.subtract(vert, form, out=out[..., -1])
    for i in range(2 * n):
        np.subtract(b[..., i], a[..., i], out=out[..., i])
    return out


def _gauge(sq, v, tmp):
    """(sq^2 + v^2)^(1/4), written into sq; tmp is scratch shaped like sq
    and may be v itself.  The one gauge step behind every norm.

    The root is two square roots.  IEEE 754 rounds each ``sqrt``
    correctly, so the result is within 1 ulp of the exact fourth root
    of the computed sum, and it has the same bits at every numpy SIMD
    level (numpy's ``np.power`` loops differ by CPU feature).
    """
    sq *= sq
    sq += np.square(v, out=tmp)
    np.sqrt(sq, out=sq)
    return np.sqrt(sq, out=sq)


def koranyi_norm(p, out=None):
    """Gauge norm (|horizontal|^4 + vertical^2)^(1/4)."""
    a, n = _coords(p)
    sq, tmp = _scalars(a.shape[:-1], out, 2)
    np.square(a[..., 0], out=sq)
    for i in range(1, 2 * n):
        sq += np.square(a[..., i], out=tmp)
    return _gauge(sq, a[..., -1], tmp)[()]


def dist(p, q):
    """Left-invariant gauge distance d(p, q) = ||p^{-1} . q||."""
    a, n = _coords(p)
    b, _ = _coords(q, n)
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    dv = np.subtract(b[..., -1], a[..., -1], out=np.empty(shape))
    dv -= symplectic_form(a, b)
    sq, dh = np.empty(shape), np.empty(shape)
    np.subtract(b[..., 0], a[..., 0], out=sq)
    sq *= sq
    for i in range(1, 2 * n):
        sq += np.square(np.subtract(b[..., i], a[..., i], out=dh), out=dh)
    return _gauge(sq, dv, dv)[()]


def _check_ratio(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    # a NaN anywhere makes the minimum NaN, which fails the comparison
    if r.size and not (r.min() > 0.0 and r.max() < np.inf):
        raise ValueError(f"dilation factor must be a finite positive number, got {r}")
    return r


def dilate(r, p, out=None):
    """Anisotropic dilation: horizontal part times r, vertical part times r^2.

    ``r`` is one ratio or one per point, broadcast over the leading axes.
    """
    r = _check_ratio(r)
    a, n = _coords(p)
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, r.shape + (1,)))
    np.multiply(a[..., -1], r * r, out=out[..., -1])
    for i in range(2 * n):
        np.multiply(a[..., i], r, out=out[..., i])
    return out


def blowup_map(a, r, p, out=None):
    """Zoom of scale r at the point a: dilate the displacement a^{-1} . p by 1/r."""
    r = _check_ratio(r)
    return dilate(1.0 / r, left_displacement(a, p, out=out), out=out)
