"""Shared independent oracles for the test suite.

Everything here recomputes expected values from first principles (literal
index rules, naive formulas, finite differences, dense linear algebra) so
the package code under test never checks itself, plus ``adversarial``,
the shorthand for an adversarial run that several test modules share,
``adaptive_iterates``, the iterates that run's method is answered along,
and ``orthogonality_reference``, the dense U'U that the factor measurement
of ``invariants.rotation_orthogonal`` is held to.

It also imports hypothesis's patch writer up front, with its import-time
DeprecationWarning (from ``libcst``'s use of ``mypy_extensions.TypedDict``)
silenced: hypothesis imports it from its report hook when a ``@given`` test
fails, where ``filterwarnings = ["error"]`` would turn that warning into an
INTERNALERROR that ends the session.

Before numpy loads it pins one BLAS thread, as ``perfbench/run.py`` does,
unless the environment sets a count: with every OpenBLAS thread, the dense
SVDs of the norm checks ran about 5x slower beside one busy core.
"""

import os
import sys
import warnings

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
assert "numpy" not in sys.modules, "numpy loaded before the BLAS thread count was set"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from hardlogit import ResistingOracle, Rotation, adversarial_run, build_instance, drive, profile


def dense_w(k: int) -> np.ndarray:
    """W from the literal row rule: row i (1-based, i<k) has -1 at column
    k-i and +1 at column k-i+1; row k has +1 at column 1."""
    W = np.zeros((k, k))
    for i in range(1, k):
        W[i - 1, (k - i) - 1] = -1.0
        W[i - 1, (k - i + 1) - 1] = 1.0
    W[k - 1, 0] = 1.0
    return W


def dense_ab(k: int, sigma: float, zeta: float, variant: str = "fourblock"):
    """Dense (A, b) straight from the stacked-block definition."""
    W = dense_w(k)
    if variant == "fourblock":
        A = np.vstack([2 * sigma * W, -2 * zeta * W, -2 * sigma * W, 2 * zeta * W])
        b = np.concatenate([np.ones(k), np.ones(k), -np.ones(k), -np.ones(k)])
    elif variant == "twoblock":
        A = np.vstack([2 * sigma * W, 2 * zeta * W])
        b = np.concatenate([np.ones(k), -np.ones(k)])
    else:
        raise ValueError(variant)
    return A, b


def w_rows_times(M: np.ndarray) -> np.ndarray:
    """W @ M from the literal row rule, one subtraction per entry: row i
    (1-based, i<k) is M[k-i+1] - M[k-i], row k is M[1].  A dense W @ M
    product would leave rounding residues where the exact entry is 0."""
    k = M.shape[0]
    out = np.empty(M.shape)
    for i in range(1, k):
        out[i - 1] = M[(k - i + 1) - 1] - M[(k - i) - 1]
    out[k - 1] = M[0]
    return out


def rotated_ab(U: np.ndarray, sigma: float, zeta: float):
    """Dense four-block (A U, b): each block's scale times the literal W U."""
    WU = w_rows_times(U)
    A = np.vstack([2 * sigma * WU, -2 * zeta * WU, -2 * sigma * WU, 2 * zeta * WU])
    b = np.repeat([1.0, 1.0, -1.0, -1.0], U.shape[0])
    return A, b


def logistic_form(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """The log1p(exp(.)) form of the loss, from the dense data."""
    margins = b * (A @ x)
    return float(np.sum(2.0 * np.log1p(np.exp(-margins))))


def central_diff_grad(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


def random_orthogonal(k: int, seed: int) -> Rotation:
    """A generic orthogonal operator: k random Householder reflectors,
    reflector i acting on the leading k-i coordinates."""
    rng = np.random.default_rng(seed)
    U = Rotation(k)
    for m in range(k, 0, -1):
        U.append(rng.standard_normal(m))
    return U


def reflector_product(U: Rotation) -> np.ndarray:
    """H_{j-1} ... H_1 H_0 as a dense matrix, one reflector at a time, with
    H_i = I - 2 v_i v_i' / (v_i'v_i) from the rows of ``U.V`` alone (the
    triangular factor is not read)."""
    out = np.eye(U.k)
    for v in U.V:
        out -= np.outer((2.0 / (v @ v)) * v, v @ out)
    return out


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff."""
    u = np.finfo(float).eps / 2.0
    return n * u / (1.0 - n * u)


def orthogonality_reference(U: Rotation) -> tuple[float, float]:
    """||U'U - I||_F on the materialized ``U.dense()``, and how far a
    measurement of it from the factors may lie from that reference.

    The bound is first order in the unit roundoff (Higham, Accuracy and
    Stability of Numerical Algorithms, 3.5) and adds up, with j reflectors:
    ``dense()`` building I - (T V)'V, entrywise within gamma_{2j+1} |V'||T'||V|;
    the Gram matrix of that U, within gamma_k |U'||U|, whose Frobenius norm is
    at most ||U||_F^2; and the factor side's M = T G T' - T - T' with
    G = V V', entrywise within gamma_{k+2j+2} S for S = |T||V||V'||T'| + |T| + |T'|,
    seen through V'MV.  The QR of V' perturbs each row of V relatively, and
    M is itself of rounding size, so that term is second order.
    """
    k, j = U.k, len(U)
    dense = U.dense()
    residual = float(np.linalg.norm(dense.T @ dense - np.eye(k)))
    aV, aT = np.abs(U.V), np.abs(U.triangular)
    build = _gamma(2 * j + 1) * np.linalg.norm(aV.T @ aT.T @ aV)
    gram = _gamma(k) * np.linalg.norm(dense) ** 2
    S = aT @ (aV @ aV.T) @ aT.T + aT + aT.T
    factors = _gamma(k + 2 * j + 2) * np.linalg.norm(aV.T @ S @ aV)
    return residual, float(gram + build * (2.0 * np.linalg.norm(dense) + build) + factors)


def scale_first_beta(U: Rotation) -> None:
    """Plant a fault in ``U``: its first beta off by a relative 1e-9, which
    puts ||U'U - I||_F near 4e-9 for one reflector."""
    U.triangular[0, 0] *= 1.0 + 1e-9


def nan_in_v(U: Rotation) -> None:
    """Plant a fault in ``U``: a NaN in its first reflector."""
    U.V[0, 0] = np.nan


def adversarial(name: str, T: int, sigma: float = 1.3, zeta: float = 1.0):
    """``adversarial_run`` of method ``name`` for T iterations on the
    dimension-(4T+2) instance: (trace, replay deviation, final instance,
    oracle)."""
    inst = build_instance(4 * T + 2, sigma, zeta)
    return adversarial_run(name, inst, T, profile(inst).x_star)


def adaptive_iterates(name: str, T: int, sigma: float = 1.3, zeta: float = 1.0):
    """The (T+1, k) iterates of ``adversarial(name, T, sigma, zeta)``'s
    adaptive run: ``drive``'s, stacked, against a fresh resisting oracle
    (the method and the adversary are deterministic)."""
    oracle = ResistingOracle(build_instance(4 * T + 2, sigma, zeta))
    return np.array([x for x, _, _ in drive(name, oracle, T)])


@pytest.fixture
def rng():
    return np.random.default_rng(202401234)
