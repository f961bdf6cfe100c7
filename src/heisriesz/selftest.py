"""Randomized verification of the package's exact algebraic identities.

Every check draws seeded random inputs, evaluates both sides of an
identity through the public API, and yields scaled deviations
|lhs - rhs| / (1 + |rhs|); the truncation check scales by the sum of
the absolute terms instead.  :func:`run_selftest` is the one place that
reduces them, through ``np.maximum``, which keeps a NaN: a NaN
deviation fails its check.  The checks are intentionally routed through
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

# derived in _truncation_consistency
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


def _scaled(diff: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """|diff| scaled by 1 + |reference|, both reduced over coords."""
    d = np.abs(diff)
    r = np.abs(reference)
    while d.ndim > 1:
        d = d.max(axis=-1)
        r = r.max(axis=-1)
    return d / (1.0 + r)


def _points(rng, count: int, n: int) -> np.ndarray:
    return rng.uniform(-10.0, 10.0, size=(count, 2 * n + 1))


def _point_batches(rng, samples: int, count: int):
    """``count`` batches of ``samples`` points for each group index."""
    for n in GROUP_INDICES:
        yield [_points(rng, samples, n) for _ in range(count)]


def _kernel_batches(rng, samples: int):
    """Kernel parameters and a point batch per group index and degree."""
    for n in GROUP_INDICES:
        for s in KERNEL_DEGREES:
            yield riesz.RieszParams(s=s, n=n), _points(rng, samples, n)


def _trials(rng, trials: int):
    """(n, degree-2 parameters, random 256-atom measure) per trial."""
    for n in GROUP_INDICES:
        params = riesz.RieszParams(s=2.0, n=n)
        for _ in range(trials):
            yield n, params, DiscreteMeasure(
                n=n,
                points=rng.uniform(-3.0, 3.0, size=(256, 2 * n + 1)),
                weights=rng.uniform(0.1, 1.0, size=256),
                label="selftest",
            )


def _transform(mu, params, p, eps) -> np.ndarray:
    return riesz.truncated_transform(mu, params, None, p, eps).value


def _reference_values():
    # pinned worked values; a wrong twist sign or norm exponent cannot
    # slip past these even when it leaves the group axioms intact
    yield np.abs(core.group_mul([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
                 - np.array([1.0, 1.0, -2.0]))
    yield np.abs(core.koranyi_norm([1.0, 0.0, 1.0]) - 2.0 ** 0.25)
    yield np.abs(core.group_inv([0.5, -1.5, 2.0]) + np.array([0.5, -1.5, 2.0]))
    yield np.abs(core.symplectic_form([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) + 2.0)


def _associativity(rng, samples):
    for p, q, w in _point_batches(rng, samples, 3):
        rhs = core.group_mul(p, core.group_mul(q, w))
        yield _scaled(core.group_mul(core.group_mul(p, q), w) - rhs, rhs)


def _inverse(rng, samples):
    for p, in _point_batches(rng, samples, 1):
        yield np.abs(core.group_mul(p, core.group_inv(p)))


def _left_invariance(rng, samples):
    for a, p, q in _point_batches(rng, samples, 3):
        base = core.dist(p, q)
        moved = core.dist(core.group_mul(a, p), core.group_mul(a, q))
        yield _scaled(moved - base, base)


def _scaling(rng, samples, f, count: int):
    """f(delta_r x, ...) = r f(x, ...) for f of ``count`` points; the
    deviation is measured against the dilated scale r (1 + f)."""
    for pts in _point_batches(rng, samples, count):
        base = f(*pts)
        for r in map(math.exp, rng.uniform(-2.0, 2.0, size=4)):
            moved = f(*(core.dilate(r, x) for x in pts))
            yield np.abs(moved - r * base) / (r * (1.0 + base))


def _triangle(rng, samples):
    for p, q, w in _point_batches(rng, samples, 3):
        through = core.dist(p, q) + core.dist(q, w)
        yield _scaled(np.maximum(core.dist(p, w) - through, 0.0), through)


def _kernel_antisymmetry(rng, samples):
    for params, p in _kernel_batches(rng, samples):
        rhs = riesz.riesz_kernel(params, p)
        yield _scaled(riesz.riesz_kernel(params, core.group_inv(p)) + rhs, rhs)


def _kernel_homogeneity(rng, samples):
    # every component scales by r^(-s): the kernel degree matches the
    # gauge scaling of both the horizontal and the vertical entry
    for params, p in _kernel_batches(rng, samples):
        base = riesz.riesz_kernel(params, p)
        for r in map(math.exp, rng.uniform(-1.5, 1.5, size=2)):
            target = r ** (-params.s) * base
            moved = riesz.riesz_kernel(params, core.dilate(r, p))
            yield _scaled(moved - target, target)


def _truncation_consistency(rng, trials):
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
    for n, params, mu in _trials(rng, trials):
        p = rng.uniform(-3.0, 3.0, size=2 * n + 1)
        u = core.left_displacement(p, mu.rows(slice(None)))
        d = core.koranyi_norm(u)
        eps = np.quantile(d, [0.75, 0.5, 0.25])
        table = riesz.truncations(mu, params, None, p, eps)
        for j, e in enumerate(eps):
            keep = d > e
            terms = mu.weights[keep, None] * riesz.riesz_kernel(params, u[keep])
            exact = np.array([math.fsum(col) for col in terms.T])
            scale = np.array([math.fsum(col) for col in np.abs(terms).T])
            single = _transform(mu, params, p, e)
            yield np.abs(np.stack([table[:, j], single]) - exact) / scale


def _translation_covariance(rng, trials):
    for n, params, mu in _trials(rng, trials):
        a = rng.uniform(-3.0, 3.0, size=2 * n + 1)
        p = rng.uniform(-3.0, 3.0, size=2 * n + 1)
        atoms = mu.rows(slice(None))
        eps = 0.7 * float(np.median(core.dist(p, atoms)))
        moved = DiscreteMeasure(
            n=n, points=core.group_mul(a, atoms),
            weights=mu.weights, label="moved",
        )
        rhs = _transform(mu, params, p, eps)
        yield _scaled(_transform(moved, params, core.group_mul(a, p), eps) - rhs,
                      rhs)


def _dilation_covariance(rng, trials):
    # nu = r^s (delta_r)# mu makes the transform exactly invariant:
    # cutoff r*eps at the dilated point reproduces the original vector
    for n, params, mu in _trials(rng, trials):
        p = rng.uniform(-3.0, 3.0, size=2 * n + 1)
        atoms = mu.rows(slice(None))
        eps = 0.7 * float(np.median(core.dist(p, atoms)))
        r = math.exp(rng.uniform(-1.5, 1.5))
        nu = DiscreteMeasure(
            n=n, points=core.dilate(r, atoms),
            weights=mu.weights * r ** params.s, label="dilated",
        )
        rhs = _transform(mu, params, p, eps)
        yield _scaled(_transform(nu, params, core.dilate(r, p), r * eps) - rhs,
                      rhs)


def run_selftest(samples: int = 10_000, seed: int = 0,
                 quick: bool = False) -> list:
    """Run every named identity check and return their results.

    The exact-arithmetic identities (group algebra, metric scaling,
    kernel symmetries) are held to 1e-12.  The transform covariance
    checks push sums through products of coordinates around 10^2, so
    they carry the looser 1e-10, and the truncation check the summation
    bound :data:`TRUNCATION_TOL`.  The checks draw from one random
    stream in the order of the table.
    """
    if quick:
        samples = min(samples, 1000)
    rng = np.random.default_rng(seed)
    trials = max(4, samples // 512)
    eq_tol, cov_tol = 1e-12, 1e-10
    # (name, tolerance, sample count, deviations); the generators are
    # lazy, so each one draws only when its row is reduced
    table = (
        ("reference_values", eq_tol, 4, _reference_values()),
        ("associativity", eq_tol, samples, _associativity(rng, samples)),
        ("inverse_identity", eq_tol, samples, _inverse(rng, samples)),
        ("metric_left_invariance", eq_tol, samples,
         _left_invariance(rng, samples)),
        ("metric_dilation_scaling", eq_tol, samples,
         _scaling(rng, samples, core.dist, 2)),
        ("norm_homogeneity", eq_tol, samples,
         _scaling(rng, samples, core.koranyi_norm, 1)),
        ("triangle_inequality", eq_tol, samples, _triangle(rng, samples)),
        ("kernel_antisymmetry", eq_tol, samples,
         _kernel_antisymmetry(rng, samples)),
        ("kernel_homogeneity", eq_tol, samples,
         _kernel_homogeneity(rng, samples)),
        ("truncation_consistency", TRUNCATION_TOL, trials,
         _truncation_consistency(rng, trials)),
        ("translation_covariance", cov_tol, trials,
         _translation_covariance(rng, trials)),
        ("dilation_covariance", cov_tol, trials,
         _dilation_covariance(rng, trials)),
    )
    results = []
    for name, tol, count, deviations in table:
        worst = 0.0
        for dev in deviations:
            # np.maximum keeps a NaN, where max(worst, x) would drop it
            worst = np.maximum(worst, np.max(dev))
        results.append(CheckResult(name, count, float(worst), tol))
    return results
