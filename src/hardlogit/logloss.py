"""Numerically stable binary logistic loss and the first-order oracle.

The loss of an instance (A, b) at x is h(Ax) - b'Ax with
h(u) = sum_i 2*log(2*cosh(u_i/2)), evaluated through the overflow-safe
rewrite |u| + 2*log1p(exp(-|u|)) (the naive cosh form overflows near
|u| ~ 1420 in 64-bit).  The gradient is A'(tanh(Ax/2) - b).

Every instance stacks blocks s_i * W with labels l_i, and h is even and
tanh odd, so with w = Wx and drift = sum_i s_i*l_i

    value    = sum over distinct |s| of mult * h(|s| w)  -  drift * sum(w)
    gradient = W (sum over distinct |s| of mult*|s|*tanh(|s| w / 2) - drift)

where mult counts the blocks of magnitude |s|.  ``loss`` evaluates this on
one (distinct |s|) x k array and never forms the N-vector Ax: the
four-block variant costs 2k transcendentals, not 4k.  A rotated instance
has the same blocks and labels with matrix A U, so it runs the same kernel
at U x and pulls the gradient back by U'; ``loss`` and ``datasets``'
``matvec_a``/``matvec_at`` are the only places that apply U.

Optimizers never see A or b: they receive an opaque oracle handle that
returns (value, gradient) pairs only.
"""

from dataclasses import dataclass

import numpy as np

from .datasets import RotatedInstance, Variant, WorstCaseInstance, matvec_a, matvec_at

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


def _block_loss(inst: WorstCaseInstance, x: np.ndarray) -> tuple[float, np.ndarray]:
    """(value, gradient) of the unrotated blocks of ``inst`` at x, one row
    per distinct |s|."""
    w = inst.w.apply(x)
    groups = {}  # |s| -> number of blocks with that magnitude
    for s in inst.block_scales:
        groups[abs(s)] = groups.get(abs(s), 0) + 1
    mags = np.array(list(groups))
    mult = np.array(list(groups.values()), dtype=float)
    drift = sum(s * lab for s, lab in zip(inst.block_scales, inst.block_labels))
    z = np.multiply.outer(mags, w)  # |s| * Wx, one row per magnitude
    a = np.abs(z)
    value = float(mult @ np.sum(a + 2.0 * np.log1p(np.exp(-a)), axis=1))
    value -= drift * float(np.sum(w))
    if not np.isfinite(value):  # a non-finite |s|*w makes the h sum non-finite
        raise ValueError("block margins |s|*Wx must be finite")
    # einsum, not a BLAS gemv: a gemv here raised the race benchmark's peak
    # memory by 1.9 MB in six of ten runs
    combined = np.einsum("i,ij->j", mult * mags, np.tanh(0.5 * z))
    gradient = inst.w.apply(combined - drift)
    return value, gradient


def loss(inst: WorstCaseInstance, x: np.ndarray) -> OracleResponse:
    """Loss value and gradient at x.

    value = h(Ax) - b'Ax, gradient = A'(tanh(Ax/2) - b), evaluated once
    per distinct block magnitude |s| on w = Wx (see the module notes), in
    O(k) per magnitude.  For a rotated instance, whose matrix is A U, the
    base kernel runs at U x and the gradient is pulled back by U'.  A
    non-finite |s|*w raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.k,):
        raise ValueError(f"dimension mismatch: expected ({inst.k},), got {x.shape}")
    if isinstance(inst, RotatedInstance):
        value, gradient = _block_loss(inst, inst.U @ x)
        return OracleResponse(value=value, gradient=inst.U.T @ gradient)
    value, gradient = _block_loss(inst, x)
    return OracleResponse(value=value, gradient=gradient)


def phi(inst: WorstCaseInstance, x: np.ndarray, y: float):
    """Full model with intercept: value, x-gradient and y-derivative.

    Only defined for the four-block variant, whose label blocks are mirror
    images so the optimal intercept is zero.  It keeps the N-row form: the
    intercept breaks the evenness the block kernel of ``loss`` relies on.
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


def lipschitz(inst: WorstCaseInstance) -> float:
    """Smoothness constant L = ||A||^2 / 2 from the exact spectral norm.

    Each component of h has second derivative sech^2(u/2)/2 <= 1/2, so the
    Hessian of the loss is dominated by A'A/2.
    """
    return 0.5 * inst.a_norm() ** 2


class FirstOrderOracle:
    """Black-box (value, gradient) access to one instance's loss.

    This is the only channel optimizers may use; the wrapped instance is
    deliberately not exposed on the public surface, only its dimension
    ``k`` and smoothness constant ``lipschitz``.
    """

    def __init__(self, inst: WorstCaseInstance):
        self._inst = inst
        self.k = inst.k
        self.lipschitz = lipschitz(inst)

    def __call__(self, x: np.ndarray) -> OracleResponse:
        return loss(self._inst, x)
