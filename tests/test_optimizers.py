import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import adversarial
from hardlogit import (
    FirstOrderOracle,
    OracleResponse,
    ResistingOracle,
    RotatedInstance,
    Rotation,
    build_instance,
    drive,
    invariants,
    lipschitz,
    logloss,
    loss,
    optimizers,
    profile,
    run,
    trace_to_csv,
)

ALL_METHODS = ["gd", "agd", "heavyball", "denseprobe"]


def _assert_same_response(got, want):
    assert got.value == want.value
    assert np.array_equal(got.gradient, want.gradient)


def _assert_same_trace(got, want):
    for field in ("values", "grad_norms", "dist_sq", "final"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.support_frontier == want.support_frontier
    assert got.oracle_calls == want.oracle_calls


def _exact_run(name, inst, T):
    """``run`` on the exact oracle of ``inst``, distances to its optimum."""
    return run(name, FirstOrderOracle(inst), T, profile(inst).x_star)


def _stacked(name, oracle, T):
    """The (T+1, k) iterates ``drive`` streams, stacked."""
    return np.array([x for x, _, _ in drive(name, oracle, T)])


def _frontier_of(iterates):
    """max over t of supp(x_t) - t on stacked iterates, vectorized: the
    reference for the trace's online ``support_frontier``."""
    nonzero = iterates != 0.0
    supp = np.where(nonzero.any(axis=1), iterates.shape[1] - nonzero.argmax(axis=1), 0)
    return int(np.max(supp - np.arange(len(iterates))))


class _ZeroOracle:
    """A flat loss: value 0 and a zero gradient everywhere, NaN included."""

    lipschitz = 4.0

    def __init__(self, k):
        self.k = k

    def __call__(self, x):
        return OracleResponse(value=0.0, gradient=np.zeros(self.k))


def _install_fixed_iterates(monkeypatch, iterates):
    """Make every method step through ``iterates`` (x_0 first), asking the
    oracle at x_t before it yields x_{t+1}."""
    def steps(name, ask, k, step):
        for x, x_next in zip(iterates, iterates[1:]):
            ask(x)
            yield x_next

    monkeypatch.setattr(optimizers, "iterate_steps", steps)


def _rows(queries):
    """The points answered at ``queries``: one per point, m per (m, k) stack."""
    return sum(1 if q.ndim == 1 else len(q) for q in queries)


class _RecordingOracle(FirstOrderOracle):
    """The exact oracle, keeping every query point (or stack) and received
    gradient."""

    def __init__(self, inst):
        super().__init__(inst)
        self.queries = []
        self.gradients = []

    def __call__(self, x):
        resp = super().__call__(x)
        self.queries.append(np.array(x))
        self.gradients.append(resp.gradient)
        return resp


class _PointOracle:
    """The exact oracle of an instance behind a plain object, which declares
    no stacks, so the fold answers it one point at a time."""

    def __init__(self, inst):
        self._oracle = FirstOrderOracle(inst)
        self.k, self.lipschitz = inst.k, self._oracle.lipschitz

    def __call__(self, x):
        return self._oracle(x)


class TestRun:
    def test_gd_converges_in_one_dimension(self):
        inst = build_instance(1, 1.3, 1.0)
        trace = _exact_run("gd", inst, 200)
        assert trace.grad_norms[-1] <= 1e-6
        assert trace.dist_sq[-1] <= 1e-12

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_stationary_start_stays_put(self, name):
        assert np.array_equal(_stacked(name, _ZeroOracle(4), 10), np.zeros((11, 4)))
        trace = run(name, _ZeroOracle(4), 10, np.ones(4))
        assert np.array_equal(trace.final, np.zeros(4))
        assert np.array_equal(trace.dist_sq, np.full(11, 4.0))
        assert trace.support_frontier == 0

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_bit_identical_reruns(self, name):
        inst = build_instance(8, 1.3, 1.0)
        x1 = _stacked(name, FirstOrderOracle(inst), 12)
        x2 = _stacked(name, FirstOrderOracle(inst), 12)
        assert np.array_equal(x1, x2)
        _assert_same_trace(_exact_run(name, inst, 12), _exact_run(name, inst, 12))

    def test_gd_monotone_descent(self):
        inst = build_instance(12, 1.3, 1.0)
        trace = _exact_run("gd", inst, 60)
        assert np.all(np.diff(trace.values) <= 1e-12)

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_trace_contract(self, name):
        inst = build_instance(6, 1.3, 1.0)
        x_star = profile(inst).x_star
        iterates = _stacked(name, FirstOrderOracle(inst), 7)
        trace = run(name, FirstOrderOracle(inst), 7, x_star)
        assert np.array_equal(iterates[0], np.zeros(6))
        assert len(trace) == len(iterates) == 8
        assert np.array_equal(trace.final, iterates[-1])
        for i in range(8):
            resp = loss(inst, iterates[i])
            assert trace.values[i] == resp.value
            assert trace.grad_norms[i] == np.max(np.abs(resp.gradient))
            d = iterates[i] - x_star
            assert trace.dist_sq[i] == d @ d

    def test_errors(self):
        inst = build_instance(3, 1.3, 1.0)
        with pytest.raises(ValueError, match="unknown method"):
            _exact_run("newton", inst, 3)
        # a method is one of METHOD_NAMES as an exact string: no case
        # folding, no stripping, no '_' or '-' dropped
        assert optimizers.METHOD_NAMES == tuple(ALL_METHODS)
        for name in ALL_METHODS:
            assert len(_exact_run(name, inst, 3)) == 4
        for alias in ("heavy ball", "AGD", "heavy_ball", " Dense-Probe ", "gd "):
            with pytest.raises(ValueError, match=f"unknown method '{alias}'; expected one of"):
                _exact_run(alias, inst, 3)
            with pytest.raises(ValueError, match="unknown method"):
                _stacked(alias, FirstOrderOracle(inst), 3)
        with pytest.raises(ValueError, match="T must be"):
            _exact_run("gd", inst, 0)

    def test_step_is_one_over_the_oracle_lipschitz(self):
        # the step comes from the oracle's L, derived from the instance, and
        # the adaptive run reports drive's count, T calls for every method
        inst = build_instance(6, 1.3, 1.0)
        L = lipschitz(inst)
        assert FirstOrderOracle(inst).lipschitz == ResistingOracle(inst).lipschitz == L
        x1 = _exact_run("gd", inst, 1).final
        assert np.array_equal(x1, np.zeros(6) - (1.0 / L) * loss(inst, np.zeros(6)).gradient)
        T = 4
        for name in ALL_METHODS:
            assert adversarial(name, T)[0].oracle_calls == T

    def test_trace_records_received_gradients(self):
        inst = build_instance(6, 1.3, 1.0)
        T = 7
        iterates = _stacked("gd", FirstOrderOracle(inst), T)
        # gd queries at x_0 .. x_{T-1}, one call each, and the fold evaluates
        # x_T with one more, which oracle_calls leaves out; the trace reads its
        # metrics from the gradients the method received
        oracle = _RecordingOracle(inst)
        trace = run("gd", oracle, T, profile(inst).x_star)
        assert trace.oracle_calls == T
        assert len(oracle.gradients) == T + 1
        for t in range(T + 1):
            assert np.array_equal(oracle.queries[t], iterates[t])
            assert trace.grad_norms[t] == np.max(np.abs(oracle.gradients[t]))
        # x_t arrives once the method has computed x_{t+1}, with the calls so far
        stream = list(drive("gd", FirstOrderOracle(inst), T))
        assert [calls for _, _, calls in stream] == [1, 2, 3, 4, 5, 6, 7, 7]
        for t, (x, answer, _) in enumerate(stream[:T]):
            assert np.array_equal(x, iterates[t])
            _assert_same_response(answer, loss(inst, x))
        assert stream[T][1] is None
        # agd makes T inquiries too, at y_0 .. y_{T-1}; the fold's answers at
        # x_2 .. x_T, which it never queried, are not the method's: on a
        # base instance they come from one stack of those T - 1 rows
        oracle = _RecordingOracle(inst)
        assert run("agd", oracle, T, profile(inst).x_star).oracle_calls == T
        assert _rows(oracle.queries) == 2 * T - 1
        assert len(oracle.queries) == T + 1
        assert np.array_equal(oracle.queries[-1], _stacked("agd", FirstOrderOracle(inst), T)[2:])

    def test_drive_takes_the_answer_at_an_equal_query(self, monkeypatch):
        # a method that asks at x_t with its last entry moved, then at a copy
        # of x_t whose zeros are -0.0 (the last entry too, at t = 0): the
        # copy is equal to x_t, so its answer is x_t's, and the moved
        # point's is not
        def probes(name, ask, k, step):
            x = np.zeros(k)
            while True:
                moved, same = x.copy(), x.copy()
                moved[-1] += 1.0
                same[same == 0.0] = -0.0
                ask(moved)
                x = x - step * ask(same).gradient
                yield x

        monkeypatch.setattr(optimizers, "iterate_steps", probes)
        inst = build_instance(5, 1.3, 1.0)
        stream = list(drive("gd", FirstOrderOracle(inst), 3))
        assert stream[0][0][-1] == 0.0 and not np.signbit(stream[0][0][-1])
        for x, answer, _ in stream[:3]:
            _assert_same_response(answer, loss(inst, x))
        assert stream[3][1] is None

    def test_drive_records_every_call_of_a_two_call_method(self, monkeypatch):
        # a method that probes a side point before querying its iterate
        def two_calls(name, ask, k, step):
            x = np.zeros(k)
            while True:
                ask(x + 1.0)
                x = x - step * ask(x).gradient
                yield x

        monkeypatch.setattr(optimizers, "iterate_steps", two_calls)
        inst = build_instance(5, 1.3, 1.0)
        T = 6
        oracle = _RecordingOracle(inst)
        stream = list(drive("gd", oracle, T))
        assert [calls for _, _, calls in stream] == [2, 4, 6, 8, 10, 12, 12]
        assert len(oracle.queries) == 2 * T
        for t, (x, answer, _) in enumerate(stream[:T]):
            assert np.array_equal(oracle.queries[2 * t], x + 1.0)
            assert np.array_equal(oracle.queries[2 * t + 1], x)
            _assert_same_response(answer, loss(inst, x))
        assert stream[T][1] is None
        # run counts both inquiries per step, not the fold's call at x_T
        assert _exact_run("gd", inst, T).oracle_calls == 2 * T


class TestFold:
    """``run`` folds the streamed iterates into scalars; the reference
    stacks drive's iterates and recomputes every metric from them."""

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(ALL_METHODS),
        k=st.integers(1, 200),
        T=st.integers(1, 300),
        ratio=st.floats(1.0, 1e4, exclude_min=True),
        log_zeta=st.floats(-8.0, 8.0),
    )
    def test_fold_matches_stack_and_recompute(self, name, k, T, ratio, log_zeta):
        zeta = 10.0**log_zeta
        assume(ratio * zeta > zeta)
        inst = build_instance(k, ratio * zeta, zeta)
        x_star = profile(inst).x_star
        oracle = _RecordingOracle(inst)
        trace = run(name, oracle, T, x_star)
        stream = list(drive(name, FirstOrderOracle(inst), T))
        iterates = np.array([x for x, _, _ in stream])
        assert len(trace) == T + 1
        assert np.array_equal(trace.final, iterates[-1])
        for t, x in enumerate(iterates):
            resp = loss(inst, x)
            assert trace.values[t] == resp.value
            assert trace.grad_norms[t] == np.max(np.abs(resp.gradient))
            d = x - x_star
            assert trace.dist_sq[t] == d @ d
        assert trace.support_frontier == _frontier_of(iterates)
        # the trace counts the method's calls; the oracle also answered one
        # row per unanswered iterate, from the fold, each stack of them of at
        # least two rows and at most STACK_CELLS cells
        unanswered = sum(answer is None for _, answer, _ in stream)
        assert trace.oracle_calls == stream[-1][2]
        assert _rows(oracle.queries) == stream[-1][2] + unanswered
        for q in oracle.queries:
            assert q.ndim == 1 or 2 <= len(q) and q.size <= optimizers.STACK_CELLS

    @pytest.mark.parametrize("budget_rows", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_fold_keeps_the_one_point_bits_at_any_budget(self, monkeypatch, name, budget_rows):
        # a budget of r rows answers agd's x_2 .. x_T in stacks of r, the
        # last one shorter, and one point at a time where a stack would hold
        # one row; every trace keeps the bits of the one-point fold
        k, T = 12, 11
        inst = build_instance(k, 1.3, 1.0)
        x_star = profile(inst).x_star
        want = run(name, _PointOracle(inst), T, x_star)
        monkeypatch.setattr(optimizers, "STACK_CELLS", budget_rows * k + k - 1)
        oracle = _RecordingOracle(inst)
        _assert_same_trace(run(name, oracle, T, x_star), want)
        stacks = [len(q) for q in oracle.queries if q.ndim == 2]
        held = T - 1 if name == "agd" else 1  # x_2 .. x_T, or x_T alone
        full, rest = divmod(held, budget_rows) if budget_rows > 1 else (0, 0)
        assert stacks == [budget_rows] * full + [rest] * (rest > 1)
        assert _rows(oracle.queries) == T + held

    @pytest.mark.parametrize("reflectors", [0, 3])
    def test_fold_answers_a_rotated_instance_one_point_at_a_time(self, reflectors):
        # a stack on a rotated instance goes through the GEMMs of the WY
        # update, whose rows need not be one-point bits, so the fold answers
        # its iterates one at a time, each with a one-point call's bits
        k, T = 30, 12
        rng = np.random.default_rng(5)
        U = Rotation(k)
        for _ in range(reflectors):
            U.append(rng.standard_normal(int(rng.integers(1, k + 1))))
        inst = RotatedInstance(build_instance(k, 1.3, 1.0), U)
        oracle = _RecordingOracle(inst)
        trace = run("agd", oracle, T, U.apply_t(profile(inst).x_star))
        assert [q.shape for q in oracle.queries] == [(k,)] * (2 * T - 1)
        for t, x in enumerate(_stacked("agd", FirstOrderOracle(inst), T)):
            resp = loss(inst, x)
            assert trace.values[t].hex() == resp.value.hex()
            assert trace.grad_norms[t] == np.max(np.abs(resp.gradient))

    def test_run_never_hands_a_resisting_oracle_a_stack(self):
        # each call of a resisting oracle places its point, so the fold's
        # answers at agd's unqueried x_2 .. x_T are steps of the adversary,
        # one point each, after the method's T
        T = 5
        inst = build_instance(4 * T, 1.3, 1.0)

        class Recording(ResistingOracle):
            def __call__(self, x):
                self.shapes.append(np.shape(x))
                return super().__call__(x)

        oracle = Recording(inst)
        oracle.shapes = []
        assert run("agd", oracle, T, profile(inst).x_star).oracle_calls == T
        assert oracle.shapes == [(inst.k,)] * (2 * T - 1)
        assert len(oracle.points) == 2 * T - 1

    def test_run_holds_o_of_k_memory(self):
        k, T = 4000, 2000
        inst = build_instance(k, 1.3, 1.0)
        oracle = FirstOrderOracle(inst)
        x_star = profile(inst).x_star
        run("agd", oracle, 2, x_star)  # first-call allocations are not the run's
        tracemalloc.start()
        try:
            run("agd", oracle, T, x_star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an oracle answer allocates one k-vector, its gradient, on the
        # temporaries the oracle keeps (on fresh ones the kernel peaked near
        # 9); the run peaks near 16 k-vectors, 22 on fresh temporaries; a
        # (T+1) x k buffer would be 2001 of them
        assert peak < 8 * (24 * k + 3 * (T + 1))


class TestSubspaceTrapping:
    @pytest.mark.parametrize("name", ["gd", "agd", "heavyball"])
    def test_iterates_stay_in_trailing_subspaces(self, name):
        # iterate t may only touch the trailing t coordinates
        inst = build_instance(30, 1.3, 1.0)
        iterates = _stacked(name, FirstOrderOracle(inst), 29)
        assert len(iterates) == 30
        for t, x in enumerate(iterates):
            lead = 30 - t
            assert not np.any(x[:lead]), f"x_{t} leaks"
        assert _exact_run(name, inst, 29).support_frontier == 0

    def test_gradients_map_subspace_one_step_out(self, rng):
        points = ((inst, np.concatenate([np.zeros(inst.k - t), rng.standard_normal(t)]))
                  for inst in (build_instance(k, 1.3, 1.0) for k in (5, 17, 30))
                  for t in range(1, inst.k) for _ in range(10))
        check = invariants.gradient_trap(points)
        assert check.passed, check

    def test_a_leak_in_one_row_of_one_stack_fails(self, monkeypatch, rng):
        # the cases on one instance are one stack; a leak planted in row 4 of
        # the k = 17 stack (t = 5), on the last coordinate it must not reach,
        # k-t-2, is the maximum the check reports, and a value on the next
        # one, k-t-1, is no leak
        leak = 3e-9
        original = logloss.loss_gradient

        def leaky(inst, x):
            gradient = original(inst, x)
            if inst.k == 17:
                assert x.shape == (16, 17)  # one call per instance
                gradient[4, 17 - 5 - 2] += leak
                gradient[4, 17 - 5 - 1] += 1.0
            return gradient

        monkeypatch.setattr(logloss, "loss_gradient", leaky)
        points = ((inst, np.concatenate([np.zeros(inst.k - t), rng.standard_normal(t)]))
                  for inst in (build_instance(k, 1.3, 1.0) for k in (5, 17, 30))
                  for t in range(1, inst.k))
        check = invariants.gradient_trap(points)
        assert not check.passed
        assert check.margin == invariants.LEAK_TOL - leak
        assert check.detail == "max=3.00e-09"


class TestSupportFrontier:
    @pytest.mark.parametrize("name,expected", [
        ("gd", True), ("agd", True), ("heavyball", True), ("denseprobe", False),
    ])
    def test_span_methods_detected(self, name, expected):
        inst = build_instance(10, 1.3, 1.0)
        frontier = _exact_run(name, inst, 8).support_frontier
        assert (frontier <= 0) is expected
        if not expected:
            assert frontier == 10 - 1  # x_1 is already dense

    def test_denseprobe_detected_at_small_k(self):
        inst = build_instance(3, 1.3, 1.0)
        assert _exact_run("denseprobe", inst, 2).support_frontier == 3 - 1

    def test_frontier_of_hand_built_iterates(self, monkeypatch):
        x = np.zeros((4, 5))
        x[1, 4] = 1.0  # supp 1 at t = 1
        x[2, 2] = -0.0  # a signed zero counts as zero
        x[3, 1:] = 1.0  # supp 4 at t = 3
        _install_fixed_iterates(monkeypatch, x)

        def frontier():
            return run("gd", _ZeroOracle(5), 3, np.zeros(5)).support_frontier

        assert frontier() == _frontier_of(x) == 1
        x[3, 1] = 0.0
        assert frontier() == _frontier_of(x) == 0
        x[2, 0] = np.nan  # NaN is not zero: supp 5 at t = 2
        assert frontier() == _frontier_of(x) == 3

    def test_empty_trace_rejected(self):
        # a trace always holds x_0 .. x_T with T >= 1
        inst = build_instance(3, 1.3, 1.0)
        with pytest.raises(ValueError, match="T must be"):
            _exact_run("gd", inst, 0)
        with pytest.raises(ValueError, match="T must be"):
            next(drive("gd", FirstOrderOracle(inst), 0))

    @pytest.mark.parametrize("k", [3, 10, 30])
    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_agrees_with_dense_span_reference(self, name, k):
        # reference: x_t lies in the span of the first t received gradients
        inst = build_instance(k, 1.3, 1.0)
        oracle = _RecordingOracle(inst)
        iterates = _stacked(name, oracle, k - 1)
        in_span = True
        for t in range(1, len(iterates)):
            x = iterates[t]
            g = np.array(oracle.gradients[:t]).T  # (k, t)
            coef = np.linalg.lstsq(g, x, rcond=None)[0]
            resid = np.linalg.norm(x - g @ coef)
            in_span = in_span and bool(resid <= 1e-8 * (1.0 + np.linalg.norm(x)))
        assert (_exact_run(name, inst, k - 1).support_frontier <= 0) is in_span
        assert in_span is (name != "denseprobe")


def test_agd_gap_exceeds_span_lower_bound():
    T = 25
    inst = build_instance(2 * T, 1.3, 1.0)
    prof = profile(inst)
    trace = run("agd", FirstOrderOracle(inst), T, prof.x_star)
    for check in invariants.lower_bound(inst, trace, prof, span=True).checks:
        assert check.passed, check


class TestSerialization:
    def test_csv_columns_and_values(self, tmp_path):
        inst = build_instance(5, 1.3, 1.0)
        prof = profile(inst)
        trace = run("gd", FirstOrderOracle(inst), 4, prof.x_star)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path, prof.f_star)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["t", "value", "gap", "dist_sq", "grad_norm"]
        assert len(rows) == 5
        assert float(rows[0]["value"]) == trace.values[0]
        assert float(rows[2]["gap"]) == trace.values[2] - prof.f_star
        d = _stacked("gd", FirstOrderOracle(inst), 4)[3] - prof.x_star
        assert float(rows[3]["dist_sq"]) == trace.dist_sq[3] == float(d @ d)
        assert float(rows[4]["grad_norm"]) == trace.grad_norms[4]

    @pytest.mark.parametrize("f_star", [0.0, 1.5, np.float64(-2.25)])
    def test_csv_bytes_match_the_csv_writer(self, tmp_path, f_star):
        # every row as csv.writer writes the "%.17g" texts, \r\n line ends
        # included, on -0.0, the smallest subnormal, 1e308, inf and nan
        specials = np.array([-0.0, 5e-324, 1e308, np.inf, -np.inf, np.nan, 0.1, -1e-300])
        trace = optimizers.Trace(values=specials, grad_norms=np.roll(specials, 3),
                                 dist_sq=specials[::-1].copy(), final=np.zeros(3),
                                 support_frontier=0, oracle_calls=len(specials))
        path, reference = tmp_path / "trace.csv", tmp_path / "reference.csv"
        trace_to_csv(trace, path, f_star)
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "value", "gap", "dist_sq", "grad_norm"])
            for t, (value, dist_sq, grad_norm) in enumerate(
                    zip(trace.values, trace.dist_sq, trace.grad_norms)):
                writer.writerow([t, f"{value:.17g}", f"{value - f_star:.17g}",
                                 f"{dist_sq:.17g}", f"{grad_norm:.17g}"])
        assert path.read_bytes() == reference.read_bytes()
        assert path.read_bytes().count(b"\r\n") == len(specials) + 1
