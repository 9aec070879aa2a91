"""Numerically stable binary logistic loss and the first-order oracle.

The loss of an instance (A, b) at x is h(Ax) - b'Ax with
h(u) = sum_i 2*log(2*cosh(u_i/2)), evaluated through the overflow-safe
rewrite |u| + 2*log1p(exp(-|u|)) (the naive cosh form overflows near
|u| ~ 1420 in 64-bit).  The gradient is A'(tanh(Ax/2) - b).

Every instance stacks blocks s_i * W with labels l_i, and h is even and
tanh odd, so with w = Wx and drift = sum_i s_i*l_i

    value    = sum over distinct |s| of mult * h(|s| w)  -  drift * sum(w)
    gradient = W (sum over distinct |s| of mult*|s|*tanh(|s| w / 2) - drift)

where mult counts the blocks of magnitude |s| (1 or 2, so the weights
mult and mult*|s| are exact).  ``loss`` evaluates this on one (distinct
|s|) x k array z, in place, and never forms the N-vector Ax: the
four-block variant costs 2k transcendentals, not 4k, plus a fixed count
of numpy calls.  It takes a point or a stack of m points as an (m, k)
array of rows, as ``Rotation.apply`` does, and evaluates the stack in one
pass of the same kernel.  A rotated instance has the same blocks and
labels with matrix A U, so it runs the same kernel at U x and pulls the
gradient back by U', both through its ``Rotation`` in
O(jk) for j reflectors.  ``loss`` is the package's one evaluation of the
model; ``invariants.optimum`` alone adds the intercept derivative at x*.

Optimizers never see A or b: they receive an opaque oracle handle that
returns (value, gradient) pairs only.
"""

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from .datasets import RotatedInstance, WorstCaseInstance

LOG2 = float(np.log(2.0))


@dataclass(frozen=True)
class OracleResponse:
    value: float | np.ndarray  # an (m,) array for a stack of m points
    gradient: np.ndarray


@functools.lru_cache(maxsize=16)
def _magnitudes(scales: tuple, labels: tuple) -> tuple[np.ndarray, list, list, float]:
    """The distinct |s| of the blocks as a read-only column, the number mult
    of blocks sharing each, mult*|s| and the drift sum_i s_i*l_i; cached,
    since every loss call of an instance asks for the same."""
    groups = collections.Counter(abs(s) for s in scales)  # |s| -> blocks with that |s|
    mags = np.array(list(groups))[:, None]
    mags.flags.writeable = False
    mult = [float(n) for n in groups.values()]
    drift = sum(s * lab for s, lab in zip(scales, labels))
    return mags, mult, [n * mag for mag, n in zip(groups, mult)], drift


def _weighted(rows, weights):
    """sum_i weights[i] * rows[i], added in order of i (not a BLAS gemv, which
    here raised the race benchmark's peak memory by 1.9 MB in six of ten runs)."""
    total = rows[0] * weights[0]
    for i in range(1, len(weights)):
        total += rows[i] * weights[i]
    return total


def _block_loss(inst: WorstCaseInstance, x: np.ndarray):
    """(value, gradient) of the unrotated blocks of ``inst`` at x, a point or
    a stack of rows, from z[i] = |s_i| * Wx.  Every sum over coordinates runs
    along the contiguous last axis: a stack's row gets the single point's bits."""
    one = x.ndim == 1
    mags, mult, weights, drift = _magnitudes(inst.block_scales, inst.block_labels)
    # W is symmetric, so W x for each row x of a stack is W along the last axis
    w = inst.w.apply(x) if one else np.ascontiguousarray(inst.w.apply(x.T).T)
    z = mags * w if one else mags[:, None] * w
    a = np.abs(z)
    h = np.log1p(np.exp(np.negative(a)))
    h *= 2.0
    h += a  # h(z) = |z| + 2*log1p(exp(-|z|))
    sums = np.add.reduce(h, axis=-1)
    if one:
        value = _weighted(sums.tolist(), mult) - drift * np.add.reduce(w).item()
    else:
        value = _weighted(sums, mult) - drift * np.add.reduce(w, axis=-1)
    # a non-finite |s|*w makes the h sum, so the value, non-finite
    if not (math.isfinite(value) if one else np.isfinite(value).all()):
        raise ValueError("block margins |s|*Wx must be finite")
    z *= 0.5
    combined = _weighted(np.tanh(z, out=z), weights)
    combined -= drift
    return value, inst.w.apply(combined) if one else inst.w.apply(combined.T).T


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
    if not isinstance(inst, RotatedInstance):
        return OracleResponse(*_block_loss(inst, x))
    value, gradient = _block_loss(inst, inst.U.apply(x))
    return OracleResponse(value, inst.U.apply_t(gradient))


def lipschitz(inst: WorstCaseInstance) -> float:
    """Smoothness constant L = ||A||^2 / 2 from the exact spectral norm.

    Each component of h has second derivative sech^2(u/2)/2 <= 1/2, so the
    Hessian of the loss is dominated by A'A/2.  Past the range of a double
    it is 0 or inf.
    """
    try:
        return 0.5 * inst.a_norm() ** 2
    except OverflowError:
        return math.inf


class FirstOrderOracle:
    """Black-box (value, gradient) access to one instance's loss.

    This is the only channel optimizers may use; the wrapped instance is
    deliberately not exposed on the public surface, only its dimension
    ``k`` and smoothness constant ``lipschitz``, which must be a positive
    finite double (a method steps by 1/L), else ValueError.
    """

    def __init__(self, inst: WorstCaseInstance):
        self._inst = inst
        self.k = inst.k
        self.lipschitz = lipschitz(inst)
        if not 0.0 < self.lipschitz < math.inf:
            raise ValueError(
                f"smoothness constant L = ||A||^2/2 = {self.lipschitz} is not a positive "
                f"finite double at sigma={inst.sigma}, zeta={inst.zeta}")

    def __call__(self, x: np.ndarray) -> OracleResponse:
        return loss(self._inst, x)
