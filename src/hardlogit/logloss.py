"""Numerically stable binary logistic loss and the first-order oracle.

The loss of an instance (A, b) at x is h(Ax) - b'Ax with
h(u) = sum_i 2*log(2*cosh(u_i/2)), evaluated through the overflow-safe
rewrite |u| + 2*log1p(exp(-|u|)) (the naive cosh form overflows near
|u| ~ 1420 in 64-bit).  The gradient is A'(tanh(Ax/2) - b).

Optimizers never see A or b: they receive an opaque oracle handle that
returns (value, gradient) pairs only, optionally recording every query.
"""

from dataclasses import dataclass, field

import numpy as np

from .datasets import Instance, Variant, matvec_a, matvec_at

LOG2 = float(np.log(2.0))


def _require_finite(u: np.ndarray, what: str) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError(f"{what} must be finite")
    return u


def h_value(u: np.ndarray) -> float:
    """sum_i [ |u_i| + 2*log1p(exp(-|u_i|)) ]; even in u, minimized at 0."""
    u = _require_finite(u, "h_value input")
    a = np.abs(u)
    return float(np.sum(a + 2.0 * np.log1p(np.exp(-a))))


def h_grad(u: np.ndarray) -> np.ndarray:
    """Componentwise tanh(u_i/2); odd, every component in (-1, 1)."""
    u = _require_finite(u, "h_grad input")
    return np.tanh(0.5 * u)


@dataclass(frozen=True)
class OracleResponse:
    value: float
    gradient: np.ndarray


class QueryLog:
    """Append-only record of (query point, response) pairs."""

    def __init__(self):
        self._records: list[tuple[np.ndarray, OracleResponse]] = []

    def append(self, x: np.ndarray, response: OracleResponse) -> None:
        self._records.append((np.array(x, copy=True), response))

    @property
    def records(self):
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)


def loss(inst: Instance, x: np.ndarray) -> OracleResponse:
    """Loss value and gradient at x.

    value = h(Ax) - b'Ax, gradient = A'(tanh(Ax/2) - b); for a rotated
    instance A is replaced by A@U throughout.
    """
    u = matvec_a(inst, np.asarray(x, dtype=float))
    b = inst.labels
    value = h_value(u) - float(b @ u)
    gradient = matvec_at(inst, h_grad(u) - b)
    return OracleResponse(value=value, gradient=gradient)


def phi(inst: Instance, x: np.ndarray, y: float):
    """Full model with intercept: value, x-gradient and y-derivative.

    Only defined for the four-block variant, whose label blocks are mirror
    images so the optimal intercept is zero.
    """
    if inst.variant is not Variant.FOUR_BLOCK:
        raise ValueError("unsupported variant: the intercept model needs four_block")
    u = matvec_a(inst, np.asarray(x, dtype=float)) + float(y)
    b = inst.labels
    t = h_grad(u)
    value = h_value(u) - float(b @ u)
    grad_x = matvec_at(inst, t - b)
    grad_y = float(np.sum(t) - np.sum(b))
    return value, grad_x, grad_y


def lipschitz(inst: Instance) -> float:
    """Smoothness constant L = ||A||^2 / 2 from the exact spectral norm.

    Each component of h has second derivative sech^2(u/2)/2 <= 1/2, so the
    Hessian of the loss is dominated by A'A/2.
    """
    return 0.5 * inst.a_norm() ** 2


class FirstOrderOracle:
    """Black-box (value, gradient) access to one instance's loss.

    This is the only channel optimizers may use; the wrapped instance is
    deliberately not exposed on the public surface.
    """

    def __init__(self, inst: Instance, log: QueryLog | None = None):
        self._inst = inst
        self.k = inst.k
        self.log = log

    def __call__(self, x: np.ndarray) -> OracleResponse:
        response = loss(self._inst, x)
        if self.log is not None:
            self.log.append(x, response)
        return response
