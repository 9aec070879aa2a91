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
mult and mult*|s| are exact).  The one kernel takes the margins w and
z = |s| w, a (distinct |s|) x k array, in place, and never forms the
N-vector Ax: the four-block variant costs 2k transcendentals, not 4k,
plus a fixed count of numpy calls.  ``loss`` runs its value half (the h
sums) and its gradient half (tanh, then W); ``loss_value`` and
``loss_gradient`` run one half alone, with ``loss``'s bits.  Each takes a
point or an (m, k) stack of rows, as ``Rotation.apply`` does, in one pass.
A rotated instance has matrix A U, so the kernel runs at U x and pulls
the gradient back by U', through its ``Rotation`` in O(jk) for j
reflectors.  ``invariants.optimum`` alone adds the intercept derivative.

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


def _margins(inst: WorstCaseInstance, x):
    """w = Wx and z = |s| w at x, or at U x if rotated; then mult, mult*|s|, drift."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (inst.k,) or x.ndim > 2:
        raise ValueError(
            f"dimension mismatch: expected ({inst.k},) or (m, {inst.k}), got {x.shape}")
    if isinstance(inst, RotatedInstance):
        x = inst.U.apply(x)
    mags, mult, weights, drift = _magnitudes(inst.block_scales, inst.block_labels)
    # W is symmetric, so W x for each row x of a stack is W along the last axis
    w = inst.w.apply(x) if x.ndim == 1 else np.ascontiguousarray(inst.w.apply(x.T).T)
    return w, (mags if x.ndim == 1 else mags[:, None]) * w, mult, weights, drift


def _value(w, z, mult, drift):
    """The value half; each sum runs along the last axis, as for one point."""
    a = np.abs(z)
    h = np.log1p(np.exp(np.negative(a)))
    h *= 2.0
    h += a  # h(z) = |z| + 2*log1p(exp(-|z|))
    sums, total = np.add.reduce(h, axis=-1), np.add.reduce(w, axis=-1)
    if w.ndim == 1:  # Python floats, and a float value
        sums, total = sums.tolist(), total.item()
    value = _weighted(sums, mult) - drift * total
    # a non-finite |s|*w makes the h sum, so the value, non-finite
    if not (math.isfinite(value) if w.ndim == 1 else np.isfinite(value).all()):
        raise ValueError("block margins |s|*Wx must be finite")
    return value


def _gradient(inst: WorstCaseInstance, z, weights, drift):
    """The gradient half, in place on z (so after any value half); U' pulls it back if rotated."""
    z *= 0.5
    combined = _weighted(np.tanh(z, out=z), weights)
    combined -= drift
    g = inst.w.apply(combined) if z.ndim == 2 else inst.w.apply(combined.T).T
    return inst.U.apply_t(g) if isinstance(inst, RotatedInstance) else g


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
    w, z, mult, weights, drift = _margins(inst, x)
    return OracleResponse(_value(w, z, mult, drift), _gradient(inst, z, weights, drift))


def loss_value(inst: WorstCaseInstance, x: np.ndarray) -> float | np.ndarray:
    """``loss(inst, x).value`` bit for bit, from the value half alone."""
    w, z, mult, _, drift = _margins(inst, x)
    return _value(w, z, mult, drift)


def loss_gradient(inst: WorstCaseInstance, x: np.ndarray) -> np.ndarray:
    """``loss(inst, x).gradient`` bit for bit, from the gradient half alone."""
    _, z, _, weights, drift = _margins(inst, x)
    if not np.isfinite(z).all():
        raise ValueError("block margins |s|*Wx must be finite")
    return _gradient(inst, z, weights, drift)


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
