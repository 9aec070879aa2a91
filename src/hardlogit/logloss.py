"""Numerically stable binary logistic loss and the first-order oracle.

The loss of an instance (A, b) at x is h(Ax) - b'Ax with
h(u) = sum_i 2*log(2*cosh(u_i/2)), evaluated through the overflow-safe
rewrite |u| + 2*log1p(exp(-|u|)) (the naive cosh form overflows near
|u| ~ 1420 in 64-bit).  The gradient is A'(tanh(Ax/2) - b).

An instance of the one family stacks four blocks s_i * W with labels
l_i, and a copy may keep fewer of them; h is even and tanh odd, so with
w = Wx and drift = sum_i s_i*l_i

    value    = sum over distinct |s| of mult * h(|s| w)  -  drift * sum(w)
    gradient = W (sum over distinct |s| of mult*|s|*tanh(|s| w / 2) - drift)

where mult counts the blocks of magnitude |s| (1 or 2, so the weights
mult and mult*|s| are exact).  The one kernel takes the margins w and
z = |s| w, a (distinct |s|) x k array, in place, and never forms the
N-vector Ax: the family's four blocks cost 2k transcendentals, not 4k,
plus a fixed count of numpy calls.  ``loss`` runs its value half (the h
sums) and its gradient half (tanh, then W); ``loss_value`` and
``loss_gradient`` run one half alone, with ``loss``'s bits.  Each takes a
point or an (m, k) stack of rows, as ``Rotation.apply`` does, in one pass.
A rotated instance has matrix A U, so the kernel runs at U x and pulls
the gradient back by U', through its ``Rotation`` in O(jk) for j
reflectors, and skips both products while U holds none.
``invariants.optimum`` alone adds the intercept derivative.

An instance is resolved for the kernel once, on its first loss call (W,
U, the distinct |s|, their weights and the drift, and temporaries for one
point, held in its ``__dict__``).  Every one-point answer writes w, z, |z|
and h(z) into those temporaries and allocates only the gradient it
returns (and, if U holds a reflector, U's products), so above k ~ 10,000
a call no longer faults fresh pages in; two threads must not make
one-point calls on one instance at once.  Every stack runs the same
arithmetic on fresh arrays.

On an instance of k >= WINDOW_FROM the one-point answers are windowed: a
span method's iterate lies on the trailing coordinates, so w = Wx (at
U x if rotated) is zero past a leading window, and exp, log1p and tanh
run only on the window, read from w as one past its last nonzero.  Past
it z is +-0, which tanh(z/2) keeps, and h(z) is h(0), which the kept h
rows already hold: their tail is tracked as the column from which it
holds h(0), and written by the same h when a window shrinks.  Every
answer keeps the bits of the full pass.

Optimizers never see A or b: they receive an opaque oracle handle that
returns (value, gradient) pairs only.
"""

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from .datasets import RotatedInstance, WorstCaseInstance, _w_into

LOG2 = float(np.log(2.0))
# k from which one-point answers on a base instance are windowed: in two
# sets of 15 alternated runs of agd's race, windows changed its median time
# by +12 % at k = 500, +2.5 % at 1,000, +2.7 and +3.3 % at 1,200, -3.8 and
# -4.1 % at 1,500, and -10 and -19 % at 1,800
WINDOW_FROM = 1536


@dataclass(frozen=True)
class OracleResponse:
    value: float | np.ndarray  # an (m,) array for a stack of m points
    gradient: np.ndarray


@functools.lru_cache(maxsize=16)
def _magnitudes(scales: tuple, labels: tuple) -> tuple[np.ndarray, list, list, float]:
    """The distinct |s| of the blocks as a read-only column, the number mult
    of blocks sharing each, mult*|s| and the drift sum_i s_i*l_i; cached,
    since instances of one (sigma, zeta) share them."""
    groups = collections.Counter(abs(s) for s in scales)  # |s| -> blocks with that |s|
    mags = np.array(list(groups))[:, None]
    mags.flags.writeable = False
    mult = [float(n) for n in groups.values()]
    drift = sum(s * lab for s, lab in zip(scales, labels))
    return mags, mult, [n * mag for mag, n in zip(groups, mult)], drift


def _weighted(rows, weights):
    """sum_i weights[i] * rows[i], added in order of i (not a BLAS gemv, which
    here raised the race benchmark's peak memory by 1.9 MB in six of ten
    runs), in place on the rows if they are arrays."""
    total = rows[0]
    total *= weights[0]
    for i in range(1, len(weights)):
        row = rows[i]
        row *= weights[i]
        total += row
    return total


class _Kernel:
    """An instance resolved for the kernel: k, W, U (None unless rotated),
    the distinct |s| as a column, mult, mult*|s| and the drift; the
    temporaries every one-point answer writes into, ``kept``: hw, whose
    rows are h(z) and then w, so that one reduction sums them all,
    z = |s| w and |z|; and ``h_from``, None unless the answers are windowed
    (k >= WINDOW_FROM), else the column from which the h(z) rows hold
    h(0): k until an answer writes them."""

    __slots__ = ("k", "W", "U", "mags", "mult", "weights", "drift", "kept", "h_from")

    def __init__(self, inst: WorstCaseInstance):
        self.k, self.W = inst.k, inst.w
        self.U = inst.U if isinstance(inst, RotatedInstance) else None
        self.mags, self.mult, self.weights, self.drift = _magnitudes(
            inst.block_scales, inst.block_labels)
        d = len(self.mult)
        self.kept = (np.empty((d + 1, self.k)), *np.empty((2, d, self.k)))
        self.h_from = self.k if self.k >= WINDOW_FROM else None


def _kernel(inst: WorstCaseInstance) -> _Kernel:
    """The instance's kernel, made on its first loss call and held in its
    ``__dict__`` beside the (frozen) fields, which it does not change."""
    kern = vars(inst).get("_kernel")
    if kern is None:
        kern = vars(inst)["_kernel"] = _Kernel(inst)
    return kern


def _margins(inst: WorstCaseInstance, x):
    """(kernel, hw, z, a, m): w = Wx in hw's last row and z = |s| w, at x
    or, if U holds a reflector, at U x; a is where |z| goes.  A point of
    shape (k,) uses the instance's temporaries; a stack of shape (m, k)
    gets a fresh hw, and z and a are None, so their ufuncs allocate.  m is
    None, or on a windowed answer one past w's last nonzero (0 if none),
    read from w itself: a subnormal w may underflow to 0 in one row of z
    and not in another."""
    x = np.asarray(x, dtype=float)
    kern = _kernel(inst)
    if x.shape == (kern.k,):
        hw, z, a = kern.kept
    elif x.shape[-1:] != (kern.k,) or x.ndim > 2:
        raise ValueError(
            f"dimension mismatch: expected ({kern.k},) or (m, {kern.k}), got {x.shape}")
    else:
        hw, z, a = np.empty((len(kern.mult) + 1, *x.shape)), None, None
    if kern.U is not None and len(kern.U):  # read per call: a Rotation can grow
        x = kern.U.apply(x)
    w = hw[-1]
    _w_into(x.T, w.T)  # W is symmetric, so W x for each row x of a stack is W along x.T
    z = np.multiply(kern.mags if x.ndim == 1 else kern.mags[:, None], w, z)
    m = None
    if a is not None and kern.h_from is not None:
        nonzero = w != 0.0
        last = int(nonzero[::-1].argmax())
        m = kern.k - last if nonzero[kern.k - 1 - last] else 0
    return kern, hw, z, a, m


def _h(z, a, h):
    """h(z) = |z| + 2*log1p(exp(-|z|)) into h, |z| into a (fresh if None)."""
    a = np.abs(z, a)
    np.negative(a, h)
    np.exp(h, h)
    np.log1p(h, h)
    np.multiply(h, 2.0, h)
    np.add(h, a, h)


def _value(kern: _Kernel, hw, z, a, m):
    """The value half, on ``_margins``' temporaries; each sum runs along
    the last axis, as for one point.  A windowed answer runs h only on the
    columns before m, and before ``h_from`` where a wider window wrote:
    past them z is +-0, whose h(0) the rows already hold.  It takes each
    row's leading columns alone, 1-d and contiguous, since numpy 2.4.6's
    np.negative misreads some (d, m) column views."""
    if m is None:
        _h(z, a, hw[:-1])
    else:
        end = max(m, kern.h_from)
        for i in range(len(z)):
            _h(z[i, :end], a[i, :end], hw[i, :end])
        kern.h_from = m
    sums = np.add.reduce(hw, -1)  # the h sums, then sum(w)
    if z.ndim == 2:  # Python floats, and a float value
        sums = sums.tolist()
    value = _weighted(sums, kern.mult) - kern.drift * sums[-1]
    # a non-finite |s|*w makes the h sum, so the value, non-finite
    if not (math.isfinite(value) if z.ndim == 2 else np.isfinite(value).all()):
        raise ValueError("block margins |s|*Wx must be finite")
    return value


def _gradient(kern: _Kernel, z, m):
    """The gradient half, in place on z (so after any value half), then W
    into a fresh array; U' pulls it back if U holds a reflector.  A
    windowed answer runs tanh(z/2) only before column m: past it z is +-0,
    which both keep."""
    for piece in (z,) if m is None else [row[:m] for row in z]:
        piece *= 0.5
        np.tanh(piece, out=piece)
    combined = _weighted(z, kern.weights)
    combined -= kern.drift
    g = kern.W.apply(combined) if z.ndim == 2 else kern.W.apply(combined.T).T
    return g if kern.U is None or not len(kern.U) else kern.U.apply_t(g)


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
    kern, hw, z, a, m = _margins(inst, x)
    return OracleResponse(_value(kern, hw, z, a, m), _gradient(kern, z, m))


def loss_value(inst: WorstCaseInstance, x: np.ndarray) -> float | np.ndarray:
    """``loss(inst, x).value`` bit for bit, from the value half alone."""
    return _value(*_margins(inst, x))


def loss_gradient(inst: WorstCaseInstance, x: np.ndarray) -> np.ndarray:
    """``loss(inst, x).gradient`` bit for bit, from the gradient half alone."""
    kern, _, z, _, m = _margins(inst, x)
    if not np.isfinite(z).all():
        raise ValueError("block margins |s|*Wx must be finite")
    return _gradient(kern, z, m)


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
    finite double (a method steps by 1/L), else ValueError.  Each answer
    is ``loss(inst, x)``: at a point it runs on the instance's one-point
    temporaries (see the module notes) and allocates only its gradient, a
    fresh array no later answer writes into.
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

    def _stacks_exactly(self) -> bool:
        """Whether this oracle answers each row of an (m, k) stack with the
        bits of a one-point answer: on a base instance (see ``loss``)."""
        return _kernel(self._inst).U is None
