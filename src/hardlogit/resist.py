"""Adaptive rotation adversary for deterministic first-order methods.

Any deterministic method that starts at zero can be trapped without the
gradient-span assumption.  The first query is the zero start; before
answering query number j after it (j >= 1, repeats of an earlier point
included), the adversary applies an orthogonal update U <- H @ U where H
is a Householder reflection that

- acts only on the leading m = k-2j coordinates (so everything previously
  revealed, which lives in the span of the trailing 2j coordinates after
  rotation, is untouched and all past answers stay valid), and
- sends the query's leading block z to +||z|| e_m, with Parlett's
  sign-stable vector (Golub & Van Loan, Matrix Computations, 5.1.6), so
  the rotated query lands in the span of the trailing 2j+1 coordinates.

U is a ``datasets.Rotation``: the reflectors taken so far in compact WY
form, never a dense k x k matrix while the run lasts.  A query costs
O(jk) after j reflections, and only copies when none was taken.

The oracle answers with the loss of the rotated dataset A @ U at the query
point.  Because each update fixes everything the method has seen, the
adversary could have committed to the final U from the start: re-running
the method against the fixed final instance asks the oracle at the very
points it placed, and ends at the placed x_T (``replay_check``).  The
placed points are the one record of the adaptive run, and the replay,
folded as ``optimizers.run`` folds a run, is its trace.  The last basis
direction carries the label signal (A'b) and is never touched, so the
rotated dataset stays in the family.
"""

import math
import sys

import numpy as np

from .datasets import RotatedInstance, Rotation, WorstCaseInstance, _row_bounds
from .logloss import FirstOrderOracle, OracleResponse, loss
from .optimizers import Trace, _fold, drive

TIE_BREAK = 1e-12  # a leading block below this fraction of ||y|| is taken as zero
ORTHOGONALITY_TOL = 1e-10
CONTAINMENT_ROWS = 64  # placed points rotated at once by containment_residuals


def _exponent(x: np.ndarray) -> int:
    """The e with max|x| in [2**(e-1), 2**e), 0 for a zero x: x * 2**-e is
    exact for normal numbers and holds no entry above 1."""
    return math.frexp(float(np.abs(x).max(initial=0.0)))[1]


def _norm(x: np.ndarray) -> float:
    """||x|| at any scale: sqrt(x'x) when that sum is finite and at least
    len(x) times the smallest normal number (so the squares lost below it
    cost at most an ulp of the sum), else the norm of x * 2**-e, scaled
    back by 2**e, so no square over- or underflows; NaN if x holds a NaN,
    inf if an inf or if ||x|| is past the largest double.  The sum is ``np.vdot``'s, the BLAS dot that ``x @ x``
    takes, which raises no floating-point warning when it overflows."""
    sq = float(np.vdot(x, x))
    if x.size * sys.float_info.min <= sq < math.inf:
        return math.sqrt(sq)
    top = float(np.abs(x).max(initial=0.0))
    if not top < math.inf:
        return top
    e = math.frexp(top)[1]
    scaled = np.ldexp(x, -e)
    try:
        return math.ldexp(math.sqrt(scaled @ scaled), e)
    except OverflowError:
        return math.inf


class ResistingOracle(FirstOrderOracle):
    """Adaptive first-order oracle: rotate for each new query, then answer.

    ``U`` is the current ``Rotation`` and ``points`` the queries placed so
    far, the zero start first: the first query must be the zero vector
    (every method here starts there), and each later query is step
    j = len(points), a reflection of the leading k-2j coordinates, which
    requires j <= (k-3)/2.  After every step, point i lies in U.T times the
    span of the trailing 2i+1 coordinates.  ``skipped`` counts the steps
    that took no reflection because the query already lay in its trap
    subspace, so len(U) + skipped = len(points) - 1.  ``finalize`` places
    the method's reported solution and freezes the rotation.  Rotation
    leaves ||A|| unchanged, so ``lipschitz`` is that of the base instance.
    """

    def __init__(self, inst: WorstCaseInstance):
        super().__init__(inst)
        self.U = Rotation(inst.k)
        self.points, self.skipped, self._frozen = [], 0, False

    def _place(self, x: np.ndarray) -> np.ndarray:
        """Take the step for query ``x`` and return the rotated query U @ x:
        the product with the rotation before the step, then its reflection.

        A query without a finite norm raises before it is rotated, leaving U
        and the points as they were.  U is orthogonal, so ||U x|| = ||x||; a
        rotation that breaks this relative to ||x||, or a NaN in ||U x||,
        raises instead of answering.
        """
        if self._frozen:
            raise ValueError("oracle already finalized")
        x = np.asarray(x, dtype=float)
        k, j = self.k, len(self.points)
        if x.shape != (k,):
            raise ValueError(f"dimension mismatch: expected ({k},), got {x.shape}")
        x_norm = _norm(x)
        if not x_norm < math.inf:  # a NaN or an inf
            raise ValueError(f"query {j} has no finite norm: ||x|| = {x_norm}")
        y = self.U.apply(x)
        if j == 0:
            if np.any(x != 0.0):
                raise ValueError("first oracle query must be the zero start")
        elif 2 * j > k - 3:
            raise ValueError(
                f"step budget exceeded: step {j} needs dimension >= {2 * j + 3}, have {k}"
            )
        else:
            y = self._reflect(y, k - 2 * j, x_norm)
        y_norm = _norm(y)
        if not abs(y_norm - x_norm) <= ORTHOGONALITY_TOL * x_norm:  # NaN fails
            raise ValueError(
                f"rotation is not orthogonal: ||U x|| = {y_norm:.17g}, ||x|| = {x_norm:.17g}"
            )
        self.points.append(x.copy())
        return y

    def _reflect(self, y: np.ndarray, m: int, x_norm: float) -> np.ndarray:
        """H y, for the reflector H that sends the leading block z = y[:m] to
        +||z|| e_m, appended to U; y itself when z is already there, or is
        negligible next to the query x, of norm ``x_norm`` (= ||y||, as U is
        orthogonal; a relative test, so it holds at any scale).

        A z with no nonzero, as a span method's queries give, is skipped
        first.  Otherwise z is scaled by 2**-e, e = ``_exponent(z)``:
        exact for normal numbers, and H does not depend on the scale of its
        vector, so no norm, head or v'v over- or underflows at any scale of
        the query.  A threshold ||x|| 2**-e past the largest double means z
        is far below TIE_BREAK ||x||, so that step is skipped too."""
        if not y[:m].any():
            self.skipped += 1
            return y
        e = _exponent(y[:m])
        z = np.ldexp(y[:m], -e)
        z_norm = np.linalg.norm(z)
        head = float(z[:-1] @ z[:-1])
        try:
            negligible = z_norm <= TIE_BREAK * math.ldexp(x_norm, -e)
        except OverflowError:
            negligible = True
        if negligible or (head == 0.0 and z[-1] > 0.0):
            self.skipped += 1
            return y
        v = z  # z - ||z|| e_m, its last entry without cancellation (Parlett)
        v[-1] = -head / (z[-1] + z_norm) if z[-1] > 0.0 else z[-1] - z_norm
        self.U.append(v)
        return self.U.apply_newest(y)

    def _stacks_exactly(self) -> bool:
        return False  # every query it answers is a step that places the point

    def __call__(self, x: np.ndarray) -> OracleResponse:
        # loss of the rotated dataset: value at U x, gradient pulled back by U.T
        resp = loss(self._inst, self._place(x))
        return OracleResponse(value=resp.value, gradient=self.U.apply_t(resp.gradient))

    def finalize(self, x_final: np.ndarray) -> RotatedInstance:
        self._place(x_final)
        self._frozen = True
        return RotatedInstance(self._inst, self.U)


def data_direction_residual(inst: RotatedInstance) -> float:
    """max |U'(A'b) - A'b| for the unrotated A and b: the label-signal
    direction must stay fixed.  A'b = (sum_i s_i l_i) e_k because W 1 = e_k,
    so U'(A'b) is that sum times U' e_k, the last row of U."""
    atb = sum(s * lab for s, lab in zip(inst.block_scales, inst.block_labels))
    drift = atb * inst.U.apply_t(np.eye(1, inst.k, inst.k - 1)[0])  # U' e_k
    drift[-1] -= atb
    return float(np.max(np.abs(drift)))


def containment_residuals(oracle: ResistingOracle) -> np.ndarray:
    """Leakage of each placed point outside its trap subspace.

    Entry i is the norm of the leading k-(2i+1) components of U @ point_i,
    at any scale of the point (``_norm``): point i must lie in the span of
    the trailing 2i+1 coordinates.  The points are rotated
    ``CONTAINMENT_ROWS`` at a time, never all at once.
    """
    k, points, residuals = oracle.k, oracle.points, []
    for start in range(0, len(points), CONTAINMENT_ROWS):
        rotated = oracle.U.apply(np.array(points[start : start + CONTAINMENT_ROWS]))
        residuals += [_norm(row[: max(k - (2 * i + 1), 0)])  # row is U @ point_i
                      for i, row in enumerate(rotated, start)]
    return np.array(residuals)


def adversarial_run(name: str, inst: WorstCaseInstance, T: int, x_star: np.ndarray
                    ) -> tuple[Trace, float, RotatedInstance, ResistingOracle]:
    """Race method ``name`` for T iterations against the adversary rotating
    ``inst``, whose optimum is ``x_star``.

    Answers every query through the rotating oracle, keeping only the
    newest iterate, places the reported x_T, and replays the method once
    against the placed points.  Returns its trace (distances to U'x*) and
    deviation (``replay_check``), the final instance and the frozen oracle.
    """
    oracle = ResistingOracle(inst)
    for x, _, _ in drive(name, oracle, T):
        pass
    final = oracle.finalize(x)
    trace, deviation = replay_check(name, final, T, oracle.points, final.U.apply_t(x_star))
    return trace, deviation, final, oracle


class _Comparing(FirstOrderOracle):
    """An instance's oracle that appends the sup-norm distance of each query
    from the next of ``placed`` to ``deviations``: inf past the last."""

    def __init__(self, inst: WorstCaseInstance, placed):
        super().__init__(inst)
        self.placed, self.deviations = iter(placed), []

    def __call__(self, x: np.ndarray) -> OracleResponse:
        self.deviations.append(np.max(np.abs(x - next(self.placed, np.inf))))
        return super().__call__(x)


def replay_check(name: str, final_inst: RotatedInstance, T: int, points,
                 z_star: np.ndarray) -> tuple[Trace, float]:
    """Re-run method ``name`` for T iterations against the frozen final
    instance, comparing its i-th oracle query with ``points[i]`` and its
    x_T with the last point, as a ``ResistingOracle`` placed them (the
    fold's evaluations at iterates never queried are not compared).

    Returns the replay's trace, distances to ``z_star``, and the largest
    sup-norm deviation: 0 (or rounding) means the adversary could have
    committed to its final rotation from the start; NaN if any entry is,
    inf if the replay asked more or fewer queries than were placed, or
    no point was placed.
    """
    if any(np.shape(p) != (final_inst.k,) for p in points):
        raise ValueError(f"dimension mismatch: placed points must be ({final_inst.k},)")
    comparing = _Comparing(final_inst, points[:-1])
    trace = _fold(drive(name, comparing, T), FirstOrderOracle(final_inst), z_star)
    if not len(points) or next(comparing.placed, None) is not None:
        return trace, np.inf  # no point placed, or a placed query never asked
    return trace, float(np.max([*comparing.deviations, np.max(np.abs(trace.final - points[-1]))]))


def _write_rows(fh, blocks, end: str) -> None:
    """Write the rows of the 2-D ``blocks`` to ``fh`` as ``np.savetxt(fmt=
    "%.17g", delimiter=",")`` writes them, but ends each with ``end``.  A row
    formats only the cells whose bits differ from the row above (-0 differs
    from +0, equal NaN bits do not) and joins them with the cells it keeps,
    so it costs what changes in it; a row new in every cell is one
    template, split into cells only when a later row keeps some."""
    cells, above, line = None, None, ""
    for chunk in blocks:
        chunk = np.ascontiguousarray(chunk, dtype=float)
        k = chunk.shape[1]
        whole = ",".join(["%.17g"] * k) + end
        for row, bits in zip(chunk, chunk.view(np.int64)):
            changed = None if above is None else np.flatnonzero(bits != above)
            if changed is None or len(changed) == k:
                line, cells = whole % tuple(row.tolist()), None
            elif len(changed):
                if cells is None:
                    cells = line[: len(line) - len(end)].split(",")
                texts = (",".join(["%.17g"] * len(changed)) % tuple(row[changed].tolist())
                         ).split(",")
                for col, text in zip(changed.tolist(), texts):
                    cells[col] = text
                line = ",".join(cells) + end
            fh.write(line)
            above = bits


def save_matrix_csv(U: Rotation, path) -> None:
    """Write the rotation U as the CSV text ``np.savetxt(path, U.dense(),
    delimiter=",", fmt="%.17g")`` writes, building no k x k U: the one CSV
    of a rotated run (its dataset A U is written as libsvm by
    ``datasets.export``).

    U is the identity outside its leading m x m block, m one past the last
    column where V has a nonzero: rows m.. are identity rows, one template
    each with no GEMM, and rows ..m-1 their leading m cells from
    ``row_blocks``, written by the row-delta writer ``_write_rows``, each
    followed by one tail of k-m zeros.  ``dense()`` computes the same
    bytes: 0 - (+-0) = +0 outside the block and 1.0 on its diagonal, as
    ``Rotation.append`` keeps every factor finite."""
    k, support = U.k, np.flatnonzero(U.V.any(axis=0))
    m = int(support[-1]) + 1 if len(support) else 0
    with open(path, "w") as fh:
        if m:
            blocks = (block[:, :m] for block in U.row_blocks(_row_bounds(m, k)))
            _write_rows(fh, blocks, ",0" * (k - m) + "\n")
        fh.writelines("0," * i + "1" + ",0" * (k - 1 - i) + "\n" for i in range(m, k))
