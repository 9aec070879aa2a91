"""Adaptive rotation adversary for deterministic first-order methods.

Any deterministic method that starts at zero can be trapped without the
gradient-span assumption: before answering the j-th distinct oracle query
(j >= 1), the adversary applies an orthogonal update U <- R @ U where R is
a reflection that

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

from dataclasses import dataclass, replace

import numpy as np

from .datasets import (
    RotatedInstance,
    Variant,
    WorstCaseInstance,
    build_instance,
    matvec_at,
)
from .logloss import OracleResponse, lipschitz, loss
from .optimizers import MethodSpec, Trace, iterate_steps

TIE_BREAK = 1e-12
DRIFT_TOL = 1e-12


@dataclass(frozen=True)
class AdversaryState:
    """Current rotation U, step counter s, and the points placed so far.

    ``s`` counts processed query points including the mandatory zero start,
    so s-1 reflections have been applied.  After every update, placed point
    number i lies in U.T times the span of the trailing 2i+1 coordinates.
    """

    base: WorstCaseInstance
    U: np.ndarray
    s: int
    points: tuple

    @property
    def k(self) -> int:
        return self.base.k


def new_adversary(inst: WorstCaseInstance) -> AdversaryState:
    """Fresh state: identity rotation, the zero start already accounted for."""
    k = inst.k
    return AdversaryState(
        base=inst, U=np.eye(k), s=1, points=(np.zeros(k),),
    )


def _reflect_leading_block(U: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """Return R @ U where R maps y[:m] to ||y[:m]|| * e_m inside the leading
    m coordinates and is the identity elsewhere.  U is modified in place."""
    z = y[:m]
    z_norm = np.linalg.norm(z)
    if z_norm <= TIE_BREAK * (1.0 + np.linalg.norm(y)):
        return U  # already inside the target subspace
    sign = 1.0 if z[m - 1] >= 0.0 else -1.0
    tau = -sign * z_norm  # choose the far root so v has no cancellation
    v = z.copy()
    v[m - 1] -= tau
    lead = U[:m, :]
    lead -= np.outer(v, (2.0 / (v @ v)) * (v @ lead))
    if tau < 0.0:
        U[m - 1, :] *= -1.0  # flip so the image lands on +||z|| * e_m
    return U


def _reorthogonalize_rows(U: np.ndarray) -> np.ndarray:
    # one modified Gram-Schmidt pass over the rows, deterministic
    for i in range(U.shape[0]):
        for j in range(i):
            U[i] -= (U[j] @ U[i]) * U[j]
        U[i] /= np.linalg.norm(U[i])
    return U


def fix_and_map(state: AdversaryState, x_new: np.ndarray) -> AdversaryState:
    """Process the next query point: rotate so it lands in the trap subspace.

    Step j = state.s applies a reflection on the leading k-2j coordinates,
    which requires j <= (k-3)/2; beyond that the step budget is exhausted.
    Returns a new state (the old one stays valid).
    """
    x_new = np.asarray(x_new, dtype=float)
    k = state.k
    if x_new.shape != (k,):
        raise ValueError(f"dimension mismatch: expected ({k},), got {x_new.shape}")
    j = state.s
    if 2 * j > k - 3:
        raise ValueError(
            f"step budget exceeded: step {j} needs dimension >= {2 * j + 3}, have {k}"
        )
    U = state.U.copy()
    y = U @ x_new
    U = _reflect_leading_block(U, y, k - 2 * j)
    drift = np.max(np.abs(U.T @ U - np.eye(k)))
    if drift > DRIFT_TOL:
        U = _reorthogonalize_rows(U)
    return replace(
        state, U=U, s=j + 1, points=state.points + (x_new.copy(),)
    )


def orthogonality_residual(state: AdversaryState | RotatedInstance) -> float:
    """max |U'U - I| of an adversary state's or a rotated instance's U."""
    return float(np.max(np.abs(state.U.T @ state.U - np.eye(state.k))))


def data_direction_residual(state: AdversaryState | RotatedInstance) -> float:
    """max |U.T (A'b) - A'b| for the base instance's A and b: the
    label-signal direction must stay fixed.  Accepts an adversary state or
    a rotated instance."""
    atb = matvec_at(state.base, state.base.labels)
    return float(np.max(np.abs(state.U.T @ atb - atb)))


def containment_residuals(state: AdversaryState, index_shift: int = 1) -> np.ndarray:
    """Leakage of each placed point outside its trap subspace.

    Entry i is the norm of the leading k-(2i+shift) components of
    U @ point_i; with the default shift of 1 this checks membership of the
    span of the trailing 2i+1 coordinates.
    """
    out = np.zeros(len(state.points))
    for i, p in enumerate(state.points):
        lead = state.k - (2 * i + index_shift)
        if lead > 0:
            out[i] = np.linalg.norm((state.U @ p)[:lead])
    return out


class ResistingOracle:
    """Adaptive first-order oracle: rotate for each new query, then answer.

    The first query must be the zero vector (every method here starts
    there); each later query consumes one adversary step.  ``finalize``
    performs the placement of the method's reported solution and freezes
    the rotation.
    """

    def __init__(self, inst: WorstCaseInstance):
        self.state = new_adversary(inst)
        self.k = inst.k
        self.calls = 0
        self._frozen = False

    def __call__(self, x: np.ndarray) -> OracleResponse:
        if self._frozen:
            raise ValueError("oracle already finalized")
        x = np.asarray(x, dtype=float)
        if self.calls == 0:
            if np.any(x != 0.0):
                raise ValueError("first oracle query must be the zero start")
        else:
            self.state = fix_and_map(self.state, x)
        self.calls += 1
        # loss of the rotated dataset: value at U x, gradient pulled back by U.T
        base_resp = loss(self.state.base, self.state.U @ x)
        return OracleResponse(
            value=base_resp.value, gradient=self.state.U.T @ base_resp.gradient
        )

    def finalize(self, x_final: np.ndarray) -> RotatedInstance:
        self.state = fix_and_map(self.state, x_final)
        self._frozen = True
        return RotatedInstance(self.state.base, self.state.U)


def adversarial_run(
    method: MethodSpec, T: int, sigma: float, zeta: float
) -> tuple[Trace, RotatedInstance]:
    """Race a method for T iterations against the adaptive adversary.

    Builds the four-block instance in dimension k = 4T+2, answers every
    oracle query through the rotating oracle, and finally places the
    reported iterate x_T.  Per-iterate trace values are computed against
    the returned final instance (whose loss agrees with every answer the
    method received); ``oracle_calls`` counts the adaptive answers.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    k = 4 * T + 2
    inst = build_instance(k, sigma, zeta, Variant.FOUR_BLOCK)
    if method.step_size is None:
        method = method.with_step(1.0 / lipschitz(inst))
    oracle = ResistingOracle(inst)
    iterates = [np.zeros(k)]
    stepper = iterate_steps(method, oracle, k)
    for _ in range(T):
        iterates.append(next(stepper))
    final = oracle.finalize(iterates[-1])

    values = np.empty(T + 1)
    grad_norms = np.empty(T + 1)
    for i, x in enumerate(iterates):
        resp = loss(final, x)
        values[i] = resp.value
        grad_norms[i] = np.max(np.abs(resp.gradient))
    trace = Trace(
        iterates=np.array(iterates), values=values,
        grad_norms=grad_norms, oracle_calls=oracle.calls,
    )
    return trace, final


def replay_check(
    method: MethodSpec, final_inst: RotatedInstance, trace: Trace, tol: float = 1e-8
) -> bool:
    """Re-run the method against the frozen final instance and compare.

    True iff every iterate matches the adaptive-run trace within ``tol``
    in sup-norm: the adversary could have committed to its final rotation
    from the start.
    """
    if trace.iterates.shape[1] != final_inst.k:
        raise ValueError(
            f"length mismatch: trace dimension {trace.iterates.shape[1]} "
            f"vs instance dimension {final_inst.k}"
        )
    if method.step_size is None:
        method = method.with_step(1.0 / lipschitz(final_inst.base))
    T = len(trace) - 1

    def fixed_oracle(x):
        return loss(final_inst, x)

    iterates = [np.zeros(final_inst.k)]
    stepper = iterate_steps(method, fixed_oracle, final_inst.k)
    for _ in range(T):
        iterates.append(next(stepper))
    drift = np.max(np.abs(np.array(iterates) - trace.iterates))
    return bool(drift <= tol)


def save_matrix_csv(matrix: np.ndarray, path) -> None:
    """Write a dense matrix (e.g. the final rotation) as plain CSV."""
    np.savetxt(path, np.asarray(matrix, dtype=float), delimiter=",", fmt="%.17g")
