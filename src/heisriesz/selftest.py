"""Randomized verification of the package's exact algebraic identities.

Every check draws seeded random inputs, evaluates both sides of an
identity through the public API, and records the worst scaled deviation
|lhs - rhs| / (1 + |rhs|); the truncation check scales by the sum of
the absolute terms instead.  The checks are intentionally routed through
the live module globals (group_mul calls symplectic_form by name, the
transforms call the kernel helpers by name) so that corrupting any one
building block makes the corresponding named check fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core, riesz
from .measure import DiscreteMeasure

__all__ = ["CheckResult", "run_selftest"]

KERNEL_DEGREES = (1.0, 2.0, 2.5, 3.0)
GROUP_INDICES = (1, 2)

# derived in _check_truncation_consistency
TRUNCATION_TOL = 64 * 2.0 ** -53


@dataclass(frozen=True)
class CheckResult:
    name: str
    samples: int
    worst: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol


def _scaled(diff: np.ndarray, reference: np.ndarray) -> float:
    """Worst |diff| scaled by 1 + |reference|, both reduced over coords."""
    d = np.abs(diff)
    r = np.abs(reference)
    while d.ndim > 1:
        d = d.max(axis=-1)
        r = r.max(axis=-1)
    return float(np.max(d / (1.0 + r))) if d.size else 0.0


def _points(rng, count: int, n: int) -> np.ndarray:
    return rng.uniform(-10.0, 10.0, size=(count, 2 * n + 1))


def _check_reference_values(rng, samples, tol):
    # pinned worked values; a wrong twist sign or norm exponent cannot
    # slip past these even when it leaves the group axioms intact
    del rng
    prod = core.group_mul([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    worst = float(np.max(np.abs(prod - np.array([1.0, 1.0, -2.0]))))
    nrm = core.koranyi_norm([1.0, 0.0, 1.0])
    worst = max(worst, abs(nrm - 2.0 ** 0.25))
    inv = core.group_inv([0.5, -1.5, 2.0])
    worst = max(worst, float(np.max(np.abs(inv + np.array([0.5, -1.5, 2.0])))))
    form = core.symplectic_form([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    worst = max(worst, abs(form + 2.0))
    return CheckResult("reference_values", 4, worst, tol)


def _check_associativity(rng, samples, tol):
    worst = 0.0
    for n in GROUP_INDICES:
        p, q, w = (_points(rng, samples, n) for _ in range(3))
        lhs = core.group_mul(core.group_mul(p, q), w)
        rhs = core.group_mul(p, core.group_mul(q, w))
        worst = max(worst, _scaled(lhs - rhs, rhs))
    return CheckResult("associativity", samples, worst, tol)


def _check_inverse(rng, samples, tol):
    worst = 0.0
    for n in GROUP_INDICES:
        p = _points(rng, samples, n)
        out = core.group_mul(p, core.group_inv(p))
        worst = max(worst, _scaled(out, np.zeros_like(out)))
    return CheckResult("inverse_identity", samples, worst, tol)


def _check_left_invariance(rng, samples, tol):
    worst = 0.0
    for n in GROUP_INDICES:
        a, p, q = (_points(rng, samples, n) for _ in range(3))
        moved = core.dist(core.group_mul(a, p), core.group_mul(a, q))
        base = core.dist(p, q)
        worst = max(worst, _scaled(moved - base, base))
    return CheckResult("metric_left_invariance", samples, worst, tol)


def _check_dilation_scaling(rng, samples, tol):
    # deviation is measured against the dilated scale r*(1 + d)
    worst = 0.0
    for n in GROUP_INDICES:
        p, q = _points(rng, samples, n), _points(rng, samples, n)
        base = core.dist(p, q)
        for r in map(math.exp, rng.uniform(-2.0, 2.0, size=4)):
            moved = core.dist(core.dilate(r, p), core.dilate(r, q))
            err = np.abs(moved - r * base) / (r * (1.0 + base))
            worst = max(worst, float(np.max(err)))
    return CheckResult("metric_dilation_scaling", samples, worst, tol)


def _check_norm_homogeneity(rng, samples, tol):
    worst = 0.0
    for n in GROUP_INDICES:
        p = _points(rng, samples, n)
        base = core.koranyi_norm(p)
        for r in map(math.exp, rng.uniform(-2.0, 2.0, size=4)):
            moved = core.koranyi_norm(core.dilate(r, p))
            err = np.abs(moved - r * base) / (r * (1.0 + base))
            worst = max(worst, float(np.max(err)))
    return CheckResult("norm_homogeneity", samples, worst, tol)


def _check_triangle(rng, samples, tol):
    worst = 0.0
    for n in GROUP_INDICES:
        p, q, w = (_points(rng, samples, n) for _ in range(3))
        direct = core.dist(p, w)
        through = core.dist(p, q) + core.dist(q, w)
        worst = max(worst, _scaled(np.maximum(direct - through, 0.0), through))
    return CheckResult("triangle_inequality", samples, worst, tol)


def _check_kernel_antisymmetry(rng, samples, tol):
    worst = 0.0
    for n in GROUP_INDICES:
        for s in KERNEL_DEGREES:
            params = riesz.RieszParams(s=s, n=n)
            p = _points(rng, samples, n)
            lhs = riesz.riesz_kernel(params, core.group_inv(p))
            rhs = riesz.riesz_kernel(params, p)
            worst = max(worst, _scaled(lhs + rhs, rhs))
    return CheckResult("kernel_antisymmetry", samples, worst, tol)


def _check_kernel_homogeneity(rng, samples, tol):
    # every component scales by r^(-s): the kernel degree matches the
    # gauge scaling of both the horizontal and the vertical entry
    worst = 0.0
    for n in GROUP_INDICES:
        for s in KERNEL_DEGREES:
            params = riesz.RieszParams(s=s, n=n)
            p = _points(rng, samples, n)
            base = riesz.riesz_kernel(params, p)
            for r in map(math.exp, rng.uniform(-1.5, 1.5, size=2)):
                moved = riesz.riesz_kernel(params, core.dilate(r, p))
                target = r ** (-s) * base
                worst = max(worst, _scaled(moved - target, target))
    return CheckResult("kernel_homogeneity", samples, worst, tol)


def _random_measure(rng, n: int, atoms: int) -> DiscreteMeasure:
    return DiscreteMeasure(
        n=n,
        points=rng.uniform(-3.0, 3.0, size=(atoms, 2 * n + 1)),
        weights=rng.uniform(0.1, 1.0, size=atoms),
        label="selftest",
    )


def _check_truncation_consistency(rng, samples, tol):
    """Swept truncations against exact sums of reference kernel terms.

    ``riesz.truncations`` (one sweep) and ``riesz.truncated_transform``
    (one sweep per cutoff) at three quantile cutoffs are compared with
    ``math.fsum`` of w ``riesz_kernel``(u) over the atoms with d > eps,
    u and d as the sweep takes them, scaled by the sum of |terms|.  With
    u = 2^-53 that deviation is at most (38 + 21 + 1) u to first order:
    256 atoms are one chunk, so the sweep adds each term at most 35 + 1
    times and the running sum over three bins twice more; the reference
    forms a term with a power (within 4 ulps, 8 u), a division and a
    product, and the sweep with a power or at most three products, a
    division, a product and, for the vertical column, one more division,
    so the two differ by at most 21 u; ``math.fsum`` rounds once.
    TRUNCATION_TOL = 64 u is the next power of two.
    """
    trials = max(4, samples // 512)
    worst = 0.0
    for n in GROUP_INDICES:
        params = riesz.RieszParams(s=2.0, n=n)
        for _ in range(trials):
            mu = _random_measure(rng, n, 256)
            p = rng.uniform(-3.0, 3.0, size=2 * n + 1)
            u = core.left_displacement(p, mu.points)
            d = core.koranyi_norm(u)
            eps = np.quantile(d, [0.75, 0.5, 0.25])
            table = riesz.truncations(mu, params, None, p, eps)
            for j, e in enumerate(eps):
                keep = d > e
                terms = mu.weights[keep, None] * riesz.riesz_kernel(params, u[keep])
                exact = np.array([math.fsum(col) for col in terms.T])
                scale = np.array([math.fsum(col) for col in np.abs(terms).T])
                single = riesz.truncated_transform(mu, params, None, p, e).value
                err = np.abs(np.stack([table[:, j], single]) - exact) / scale
                # np.maximum keeps a NaN, so a NaN sum fails the check
                worst = np.maximum(worst, err.max())
    return CheckResult("truncation_consistency", trials, float(worst), tol)


def _check_translation_covariance(rng, samples, tol):
    trials = max(4, samples // 512)
    worst = 0.0
    for n in GROUP_INDICES:
        params = riesz.RieszParams(s=2.0, n=n)
        for _ in range(trials):
            mu = _random_measure(rng, n, 256)
            a = rng.uniform(-3.0, 3.0, size=2 * n + 1)
            p = rng.uniform(-3.0, 3.0, size=2 * n + 1)
            eps = 0.7 * float(np.median(core.dist(p, mu.points)))
            moved = DiscreteMeasure(
                n=n, points=core.group_mul(a, mu.points),
                weights=mu.weights, label="moved",
            )
            lhs = riesz.truncated_transform(
                moved, params, None, core.group_mul(a, p), eps
            ).value
            rhs = riesz.truncated_transform(mu, params, None, p, eps).value
            worst = max(worst, _scaled(lhs - rhs, rhs))
    return CheckResult("translation_covariance", trials, worst, tol)


def _check_dilation_covariance(rng, samples, tol):
    # nu = r^s (delta_r)# mu makes the transform exactly invariant:
    # cutoff r*eps at the dilated point reproduces the original vector
    trials = max(4, samples // 512)
    worst = 0.0
    for n in GROUP_INDICES:
        params = riesz.RieszParams(s=2.0, n=n)
        for _ in range(trials):
            mu = _random_measure(rng, n, 256)
            p = rng.uniform(-3.0, 3.0, size=2 * n + 1)
            eps = 0.7 * float(np.median(core.dist(p, mu.points)))
            r = math.exp(rng.uniform(-1.5, 1.5))
            nu = DiscreteMeasure(
                n=n, points=core.dilate(r, mu.points),
                weights=mu.weights * r ** params.s, label="dilated",
            )
            lhs = riesz.truncated_transform(
                nu, params, None, core.dilate(r, p), r * eps
            ).value
            rhs = riesz.truncated_transform(mu, params, None, p, eps).value
            worst = max(worst, _scaled(lhs - rhs, rhs))
    return CheckResult("dilation_covariance", trials, worst, tol)


def run_selftest(samples: int = 10_000, seed: int = 0,
                 quick: bool = False) -> list:
    """Run every named identity check and return their results.

    The exact-arithmetic identities (group algebra, metric scaling,
    kernel symmetries) are held to 1e-12.  The transform covariance
    checks push sums through products of coordinates around 10^2, so
    they carry the looser 1e-10, and the truncation check the summation
    bound :data:`TRUNCATION_TOL`.
    """
    if quick:
        samples = min(samples, 1000)
    rng = np.random.default_rng(seed)
    eq_tol, cov_tol = 1e-12, 1e-10
    return [
        _check_reference_values(rng, samples, eq_tol),
        _check_associativity(rng, samples, eq_tol),
        _check_inverse(rng, samples, eq_tol),
        _check_left_invariance(rng, samples, eq_tol),
        _check_dilation_scaling(rng, samples, eq_tol),
        _check_norm_homogeneity(rng, samples, eq_tol),
        _check_triangle(rng, samples, eq_tol),
        _check_kernel_antisymmetry(rng, samples, eq_tol),
        _check_kernel_homogeneity(rng, samples, eq_tol),
        _check_truncation_consistency(rng, samples, TRUNCATION_TOL),
        _check_translation_covariance(rng, samples, cov_tol),
        _check_dilation_covariance(rng, samples, cov_tol),
    ]
