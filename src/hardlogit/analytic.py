"""Closed-form quantities for the hard instances.

For sigma > zeta > 0 there is a unique c > 0 with

    sigma*tanh(sigma*c) + zeta*tanh(zeta*c) = sigma - zeta,

and the four-block instance is minimized at x* = c*(1, 2, ..., k) with
optimal value

    f* = 8k*log2 + 4k*[logcosh(sigma*c) + logcosh(zeta*c) - (sigma-zeta)*c].

h is even, so the four-block loss is exactly twice the two-block loss: the
two-block instance has the same x* and half the optimal value.

This module solves for c (bisection on a proven bracket in z = zeta*c,
whose root depends on sigma/zeta alone, so it is solved once per ratio in
a process and shared by every dimension k), assembles the analytic profile
of an instance, and evaluates the iteration-count lower bounds that the
benchmark races methods against.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .datasets import Variant, WorstCaseInstance
from .logloss import LOG2


def logcosh(z: float) -> float:
    """log(cosh(z)), overflow-safe: |z| + log1p(exp(-2|z|)) - log 2."""
    a = abs(float(z))
    return a + np.log1p(np.exp(-2.0 * a)) - LOG2


def _root_residual(c: float, sigma: float, zeta: float) -> float:
    return sigma * np.tanh(sigma * c) + zeta * np.tanh(zeta * c) - sigma + zeta


def c_bracket(sigma: float, zeta: float) -> tuple[float, float]:
    """Proven bracket [c_lb, c_ub] for the root; needs sigma < 2*zeta."""
    if not (2.0 * zeta > sigma > zeta > 0.0):
        raise ValueError(
            f"bracket needs 2*zeta > sigma > zeta > 0, got sigma={sigma}, zeta={zeta}"
        )
    c_lb = np.arctanh(0.5 - zeta / (2.0 * sigma)) / sigma
    c_ub = np.arctanh(sigma / (2.0 * zeta) - 0.5) / zeta
    return float(c_lb), float(c_ub)


def solve_c(sigma: float, zeta: float) -> float:
    """The unique positive root of the scaling equation, by bisection.

    Bisection runs in the scale-free z = zeta*c with r = sigma/zeta, on
    r*tanh(r*z) + tanh(z) = r - 1, until the bracket's ends are adjacent
    floats (its midpoint equals one of them), and returns the end with the
    smaller residual magnitude, divided by zeta.  The bracket is
    ``c_bracket(r, 1)`` when r < 2, otherwise [0, B] with B doubled until
    the residual turns positive.  The root z depends on r alone, so it is
    solved once per r in a process and kept; the division by zeta is not.
    A non-finite sigma, zeta or r raises ValueError.
    """
    sigma = float(sigma)
    zeta = float(zeta)
    if not (sigma > zeta > 0.0 and math.isfinite(sigma / zeta)):
        raise ValueError(
            "invalid parameters: need sigma > zeta > 0 with sigma/zeta finite, "
            f"got sigma={sigma}, zeta={zeta}"
        )
    return _scaled_root(sigma / zeta) / zeta


@functools.lru_cache(maxsize=1024)
def _scaled_root(r: float) -> float:
    """The root z of r*tanh(r*z) + tanh(z) = r - 1 for a finite r > 1."""
    if 1.0 < r < 2.0:
        lo, hi = c_bracket(r, 1.0)
    else:
        lo, hi = 0.0, 1.0
        while _root_residual(hi, r, 1.0) <= 0.0:
            hi *= 2.0
    # residual is increasing in z: keep lo on the <0 side, hi on the >=0 side
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if _root_residual(mid, r, 1.0) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    if abs(_root_residual(lo, r, 1.0)) <= abs(_root_residual(hi, r, 1.0)):
        return lo
    return hi


def _curvature_gap(z: float) -> float:
    # z*tanh(z) - logcosh(z), increasing for z > 0
    return z * np.tanh(z) - logcosh(z)


def constant_c_ratio(sigma: float, zeta: float, conservative: bool = False) -> float:
    """The ratio constant C(sigma/zeta) in the per-coordinate gap bound

        (sigma-zeta)*c - logcosh(sigma*c) - logcosh(zeta*c) >= C * c^2 * sigma^2.

    Defined for 2*zeta > sigma > zeta > 0; scale-invariant (depends only on
    sigma/zeta).  The default is the sharp constant, evaluated at the solved
    root c.  ``conservative=True`` instead evaluates the bracket-endpoint
    certificate [g(sigma*c_lb)+g(zeta*c_lb)]/(c_ub^2*sigma^2), which is a
    valid but much looser lower bound (about 0.28 at ratio 1.3, versus the
    sharp 0.79).
    """
    sigma = float(sigma)
    zeta = float(zeta)
    if not (sigma > zeta > 0.0):
        raise ValueError(
            f"invalid parameters: need sigma > zeta > 0, got sigma={sigma}, zeta={zeta}"
        )
    if sigma >= 2.0 * zeta:
        raise ValueError(
            f"undefined constant: needs sigma < 2*zeta, got sigma={sigma}, zeta={zeta}"
        )
    if conservative:
        c_lb, c_ub = c_bracket(sigma, zeta)
    else:
        c_lb = c_ub = solve_c(sigma, zeta)
    num = _curvature_gap(sigma * c_lb) + _curvature_gap(zeta * c_lb)
    return float(num / (c_ub**2 * sigma**2))


@dataclass(frozen=True)
class AnalyticProfile:
    """Closed-form optimum data for one instance."""

    c: float
    x_star: np.ndarray
    f_star: float
    xstar_norm_sq: float


def per_coordinate_gap(sigma: float, zeta: float) -> float:
    """(sigma-zeta)*c - logcosh(sigma*c) - logcosh(zeta*c) at the root c."""
    c = solve_c(sigma, zeta)
    return float((sigma - zeta) * c - logcosh(sigma * c) - logcosh(zeta * c))


def profile(inst: WorstCaseInstance) -> AnalyticProfile:
    """Assemble c, x*, f* and ||x*||^2 for an instance.

    Both variants share x* and c; the two-block f* is half the four-block one.
    """
    sigma, zeta, k = inst.sigma, inst.zeta, inst.k
    c = solve_c(sigma, zeta)
    x_star = c * np.arange(1, k + 1, dtype=float)
    f_star = 8.0 * k * LOG2 + 4.0 * k * (
        logcosh(sigma * c) + logcosh(zeta * c) - (sigma - zeta) * c
    )
    if inst.variant is Variant.TWO_BLOCK:
        f_star /= 2.0
    norm_sq = c * c * k * (k + 1) * (2 * k + 1) / 6.0
    return AnalyticProfile(c=c, x_star=x_star, f_star=float(f_star),
                           xstar_norm_sq=float(norm_sq))


def profile_metadata(p: AnalyticProfile) -> dict:
    """The analytic entries of the dataset metadata sidecar."""
    return {"c": p.c, "f_star": p.f_star, "xstar_norm_sq": p.xstar_norm_sq}


def subspace_gap(k: int, t: int, sigma: float, zeta: float) -> float:
    """min over the last-t-coordinates subspace of the loss, minus f*.

    Equals 4*(k-t)*[(sigma-zeta)*c - logcosh(sigma*c) - logcosh(zeta*c)]:
    freezing the leading k-t coordinates at zero leaves each of their rows
    at the symmetric value 2*log2 while the trailing block reproduces the
    t-dimensional problem.
    """
    if not 1 <= t <= k:
        raise ValueError(f"need 1 <= t <= k, got t={t}, k={k}")
    return 4.0 * (k - t) * per_coordinate_gap(sigma, zeta)


class LowerBound(NamedTuple):
    gap: float
    dist_factor: float


def bound_linear_span(T: int, a_norm: float, dist0_sq: float) -> LowerBound:
    """Iteration-T lower bound for gradient-span methods (dimension 2T).

    gap(x_T) > 3*||A||^2*||x0-x*||^2 / (32*(2T+1)*(4T+1)) and
    ||x_T - x*||^2 > ||x0-x*||^2 / 8.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    gap = 3.0 * a_norm**2 * dist0_sq / (32.0 * (2 * T + 1) * (4 * T + 1))
    return LowerBound(gap=float(gap), dist_factor=0.125)


def bound_general(T: int, a_norm: float, dist0_sq: float) -> LowerBound:
    """Iteration-T lower bound for arbitrary deterministic first-order
    methods (dimension 4T+2, adaptively rotated instance): the span bound
    at 2T+1 iterations, whose dimension 2(2T+1) is the same.

    gap(x_T) > 3*||A||^2*||x0-z*||^2 / (32*(4T+3)*(8T+5)) and
    ||x_T - z*||^2 > ||x0-z*||^2 / 8.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    return bound_linear_span(2 * T + 1, a_norm, dist0_sq)


def sandwich_ratio(T: int) -> float:
    """Analytic (upper bound)/(lower bound) ratio for the accelerated method:
    [2L*d^2/(T+1)^2] / [3*||A||^2*d^2/(32(2T+1)(4T+1))] with L = ||A||^2/2,
    which is 32*(2T+1)*(4T+1)/(3*(T+1)^2), capped by 256/3 for all T.
    """
    return 32.0 * (2 * T + 1) * (4 * T + 1) / (3.0 * (T + 1) ** 2)


def agd_upper_bound(T: int, lipschitz_const: float, dist0_sq: float) -> float:
    """Guaranteed accelerated-method gap after T steps: 2L*d0^2/(T+1)^2."""
    return 2.0 * lipschitz_const * dist0_sq / (T + 1) ** 2

