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
four-block variant costs 2k transcendentals, not 4k.  It takes a point or
a stack of m points as an (m, k) array of rows, as ``Rotation.apply``
does, and evaluates the stack in one pass of the same kernel, so m points
cost one call's numpy dispatch.  A rotated instance
has the same blocks and labels with matrix A U, so it runs the same kernel
at U x and pulls the gradient back by U', both through its ``Rotation`` in
O(jk) for j reflectors.  ``loss`` is the package's one evaluation of the
model; ``invariants.optimum`` alone adds the intercept derivative at x*.

Optimizers never see A or b: they receive an opaque oracle handle that
returns (value, gradient) pairs only.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .datasets import RotatedInstance, WorstCaseInstance

LOG2 = float(np.log(2.0))


@dataclass(frozen=True)
class OracleResponse:
    value: float | np.ndarray  # an (m,) array for a stack of m points
    gradient: np.ndarray


@functools.lru_cache(maxsize=16)
def _magnitudes(scales: tuple, labels: tuple) -> tuple[np.ndarray, np.ndarray, float]:
    """The distinct |s| of the blocks, how many blocks share each (both
    read-only) and the drift sum_i s_i*l_i; cached, since every loss call
    of an instance asks for the same."""
    groups = {}  # |s| -> number of blocks with that magnitude
    for s in scales:
        groups[abs(s)] = groups.get(abs(s), 0) + 1
    mags = np.array(list(groups))
    mult = np.array(list(groups.values()), dtype=float)
    mags.flags.writeable = mult.flags.writeable = False
    return mags, mult, sum(s * lab for s, lab in zip(scales, labels))


def _block_loss(inst: WorstCaseInstance, x: np.ndarray):
    """(value, gradient) of the unrotated blocks of ``inst`` at x, a point or
    a stack of rows, one row of z per distinct |s| and point.  Every sum runs
    along the contiguous last axis, so a row of a stack gets the bits of the
    single-point call."""
    # W is symmetric, so W x for each row x is W applied along the last axis
    w = np.ascontiguousarray(inst.w.apply(x.T).T)
    mags, mult, drift = _magnitudes(inst.block_scales, inst.block_labels)
    z = mags[:, None] * w[..., None, :]  # |s| * Wx, one row per magnitude
    a = np.abs(z)
    value = np.sum(a + 2.0 * np.log1p(np.exp(-a)), axis=-1) @ mult
    value = value - drift * np.sum(w, axis=-1)
    if not np.isfinite(value).all():  # a non-finite |s|*w makes the h sum non-finite
        raise ValueError("block margins |s|*Wx must be finite")
    # einsum, not a BLAS gemv: a gemv here raised the race benchmark's peak
    # memory by 1.9 MB in six of ten runs
    combined = np.einsum("i,...ij->...j", mult * mags, np.tanh(0.5 * z))
    gradient = inst.w.apply((combined - drift).T).T
    return value, gradient


def loss(inst: WorstCaseInstance, x: np.ndarray) -> OracleResponse:
    """Loss value and gradient at x, or at each row of a stack x of shape (m, k).

    value = h(Ax) - b'Ax, gradient = A'(tanh(Ax/2) - b), evaluated once
    per distinct block magnitude |s| on w = Wx (see the module notes), in
    O(k) per magnitude and point.  A stack gets m values and an (m, k)
    gradient; on a base instance each row is bit for bit the single-point
    call's on that row.  For a rotated instance, whose matrix is A U, the
    base kernel runs at U x and the gradient is pulled back by U' (for a
    stack by GEMMs, so its rows match single calls to the rounding of the
    WY update).  A non-finite |s|*w raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (inst.k,) or x.ndim > 2:
        raise ValueError(
            f"dimension mismatch: expected ({inst.k},) or (m, {inst.k}), got {x.shape}")
    if isinstance(inst, RotatedInstance):
        value, gradient = _block_loss(inst, inst.U.apply(x))
        gradient = inst.U.apply_t(gradient)
    else:
        value, gradient = _block_loss(inst, x)
    return OracleResponse(value=float(value) if x.ndim == 1 else value, gradient=gradient)


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
