"""Adaptive rotation adversary for deterministic first-order methods.

Any deterministic method that starts at zero can be trapped without the
gradient-span assumption.  The first query is the zero start; before
answering query number j after it (j >= 1, repeats of an earlier point
included), the adversary applies an orthogonal update U <- R @ U where R
is a reflection that

- acts only on the leading k-2j coordinates (so everything previously
  revealed, which lives in the span of the trailing 2j coordinates after
  rotation, is untouched and all past answers stay valid), and
- sends the query's leading block to a single coordinate direction, so the
  rotated query lands in the span of the trailing 2j+1 coordinates.

The oracle answers with the loss of the rotated dataset A @ U at the query
point.  Because each update fixes everything the method has seen, the
adversary could have committed to the final U from the start: re-running
the method against the fixed final instance reproduces the same iterates
(``replay_check``).  The last basis direction carries the label signal
(A'b) and is never touched, so the rotated dataset stays in the family.
"""

import numpy as np

from .datasets import (
    ORTHOGONALITY_TOL,
    RotatedInstance,
    Variant,
    WorstCaseInstance,
    build_instance,
)
from .logloss import FirstOrderOracle, OracleResponse, lipschitz, loss
from .optimizers import Trace, drive

TIE_BREAK = 1e-12


def _reflect_leading_block(U: np.ndarray, y: np.ndarray, m: int) -> None:
    """Replace U by R @ U in place, where R maps y[:m] to ||y[:m]|| * e_m
    inside the leading m coordinates and is the identity elsewhere."""
    z = y[:m]
    z_norm = np.linalg.norm(z)
    if z_norm <= TIE_BREAK * (1.0 + np.linalg.norm(y)):
        return  # already inside the target subspace
    sign = 1.0 if z[m - 1] >= 0.0 else -1.0
    tau = -sign * z_norm  # choose the far root so v has no cancellation
    v = z.copy()
    v[m - 1] -= tau
    lead = U[:m, :]
    lead -= np.outer(v, (2.0 / (v @ v)) * (v @ lead))
    if tau < 0.0:
        U[m - 1, :] *= -1.0  # flip so the image lands on +||z|| * e_m


class ResistingOracle:
    """Adaptive first-order oracle: rotate for each new query, then answer.

    ``U`` is the current rotation and ``points`` the queries placed so far,
    the zero start first: the first query must be the zero vector (every
    method here starts there), and each later query is step
    j = len(points), a reflection of the leading k-2j coordinates, which
    requires j <= (k-3)/2.  After every step, point i lies in U.T times the
    span of the trailing 2i+1 coordinates.  ``finalize`` places the
    method's reported solution and freezes the rotation.  Rotation leaves
    ||A|| unchanged, so ``lipschitz`` is that of the base instance.
    """

    def __init__(self, inst: WorstCaseInstance):
        self.base = inst
        self.k = inst.k
        self.lipschitz = lipschitz(inst)
        self.U = np.eye(inst.k)
        self.points = []
        self._frozen = False

    def _place(self, x: np.ndarray) -> np.ndarray:
        """Take the step for query ``x`` and return the rotated query U @ x.

        U is orthogonal, so ||U x|| = ||x||; a rotation that breaks this
        raises instead of answering.
        """
        if self._frozen:
            raise ValueError("oracle already finalized")
        x = np.asarray(x, dtype=float)
        k, j = self.k, len(self.points)
        if x.shape != (k,):
            raise ValueError(f"dimension mismatch: expected ({k},), got {x.shape}")
        if j == 0:
            if np.any(x != 0.0):
                raise ValueError("first oracle query must be the zero start")
        elif 2 * j > k - 3:
            raise ValueError(
                f"step budget exceeded: step {j} needs dimension >= {2 * j + 3}, have {k}"
            )
        else:
            _reflect_leading_block(self.U, self.U @ x, k - 2 * j)
        y = self.U @ x
        x_norm, y_norm = np.linalg.norm(x), np.linalg.norm(y)
        if abs(y_norm - x_norm) > ORTHOGONALITY_TOL * (1.0 + x_norm):
            raise ValueError(
                f"rotation is not orthogonal: ||U x|| = {y_norm:.17g}, ||x|| = {x_norm:.17g}"
            )
        self.points.append(x.copy())
        return y

    def __call__(self, x: np.ndarray) -> OracleResponse:
        y = self._place(x)
        # loss of the rotated dataset: value at U x, gradient pulled back by U.T
        base_resp = loss(self.base, y)
        return OracleResponse(value=base_resp.value, gradient=self.U.T @ base_resp.gradient)

    def finalize(self, x_final: np.ndarray) -> RotatedInstance:
        self._place(x_final)
        self._frozen = True
        return RotatedInstance(self.base, self.U)


def data_direction_residual(inst: RotatedInstance) -> float:
    """max |U'(A'b) - A'b| for the unrotated A and b: the label-signal
    direction must stay fixed.  A'b = (sum_i s_i l_i) e_k because W 1 = e_k,
    so U'(A'b) is that sum times the last row of U."""
    atb = sum(s * lab for s, lab in zip(inst.block_scales, inst.block_labels))
    drift = atb * inst.U[-1]
    drift[-1] -= atb
    return float(np.max(np.abs(drift)))


def containment_residuals(oracle: ResistingOracle) -> np.ndarray:
    """Leakage of each placed point outside its trap subspace.

    Entry i is the norm of the leading k-(2i+1) components of U @ point_i:
    point i must lie in the span of the trailing 2i+1 coordinates.
    """
    out = np.zeros(len(oracle.points))
    for i, p in enumerate(oracle.points):
        lead = oracle.k - (2 * i + 1)
        if lead > 0:
            out[i] = np.linalg.norm((oracle.U @ p)[:lead])
    return out


def adversarial_run(name: str, T: int, sigma: float,
                    zeta: float) -> tuple[Trace, RotatedInstance]:
    """Race method ``name`` for T iterations against the adaptive adversary.

    Builds the four-block instance in dimension k = 4T+2, answers every
    oracle query through the rotating oracle, and finally places the
    reported iterate x_T.  Per-iterate trace values are computed against
    the returned final instance (whose loss agrees with every answer the
    method received); ``oracle_calls`` counts the adaptive answers.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    inst = build_instance(4 * T + 2, sigma, zeta, Variant.FOUR_BLOCK)
    oracle = ResistingOracle(inst)
    iterates, _, calls = drive(name, oracle, T)
    final = oracle.finalize(iterates[-1])
    # loss(final, x) for every iterate, batched: the base loss at each row of
    # X U', whose row is then overwritten by its base gradient, and one
    # pull-back of all the gradients by U
    grads = iterates @ final.U.T
    values = np.empty(len(grads))
    for t, row in enumerate(grads):
        resp = loss(inst, row)
        values[t] = resp.value
        row[:] = resp.gradient
    grads = grads @ final.U
    grad_norms = np.max(np.abs(grads, out=grads), axis=1)
    trace = Trace(iterates=iterates, values=values, grad_norms=grad_norms,
                  oracle_calls=calls)
    return trace, final


def replay_check(name: str, final_inst: RotatedInstance, trace: Trace) -> float:
    """Re-run method ``name`` against the frozen final instance and compare.

    Returns the largest sup-norm distance between a replayed iterate and
    the adaptive run's; 0 (or rounding) means the adversary could have
    committed to its final rotation from the start.
    """
    if trace.iterates.shape[1] != final_inst.k:
        raise ValueError(
            f"length mismatch: trace dimension {trace.iterates.shape[1]} "
            f"vs instance dimension {final_inst.k}"
        )
    iterates, _, _ = drive(name, FirstOrderOracle(final_inst), len(trace) - 1)
    return float(np.max(np.abs(iterates - trace.iterates)))


def save_matrix_csv(matrix: np.ndarray, path) -> None:
    """Write a dense matrix (e.g. the final rotation) as plain CSV."""
    np.savetxt(path, np.asarray(matrix, dtype=float), delimiter=",", fmt="%.17g")
