import csv

import numpy as np
import pytest

from hardlogit import (
    FirstOrderOracle,
    OracleResponse,
    ResistingOracle,
    adversarial_run,
    build_instance,
    invariants,
    lipschitz,
    loss,
    optimizers,
    profile,
    run,
    support_frontier,
    trace_to_csv,
)

ALL_METHODS = ["gd", "agd", "heavyball", "denseprobe"]


def _assert_same_response(got, want):
    assert got.value == want.value
    assert np.array_equal(got.gradient, want.gradient)


class _RecordingOracle(FirstOrderOracle):
    """The exact oracle, keeping every query point and received gradient."""

    def __init__(self, inst):
        super().__init__(inst)
        self.queries = []
        self.gradients = []

    def __call__(self, x):
        resp = super().__call__(x)
        self.queries.append(np.array(x))
        self.gradients.append(resp.gradient)
        return resp


class TestRun:
    def test_gd_converges_in_one_dimension(self):
        inst = build_instance(1, 1.3, 1.0)
        trace = run("gd", FirstOrderOracle(inst), 200)
        assert trace.grad_norms[-1] <= 1e-6

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_stationary_start_stays_put(self, name):
        class ZeroOracle:
            k = 4
            lipschitz = 4.0

            def __call__(self, x):
                return OracleResponse(value=0.0, gradient=np.zeros(4))

        trace = run(name, ZeroOracle(), 10)
        assert np.array_equal(trace.iterates, np.zeros((11, 4)))

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_bit_identical_reruns(self, name):
        inst = build_instance(8, 1.3, 1.0)
        t1 = run(name, FirstOrderOracle(inst), 12)
        t2 = run(name, FirstOrderOracle(inst), 12)
        assert np.array_equal(t1.iterates, t2.iterates)
        assert np.array_equal(t1.values, t2.values)
        assert t1.oracle_calls == t2.oracle_calls

    def test_gd_monotone_descent(self):
        inst = build_instance(12, 1.3, 1.0)
        trace = run("gd", FirstOrderOracle(inst), 60)
        assert np.all(np.diff(trace.values) <= 1e-12)

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_trace_contract(self, name):
        inst = build_instance(6, 1.3, 1.0)
        trace = run(name, FirstOrderOracle(inst), 7)
        assert np.array_equal(trace.iterates[0], np.zeros(6))
        assert len(trace) == 8
        for i in range(8):
            resp = loss(inst, trace.iterates[i])
            assert trace.values[i] == resp.value
            assert trace.grad_norms[i] == np.max(np.abs(resp.gradient))

    def test_errors(self):
        inst = build_instance(3, 1.3, 1.0)
        with pytest.raises(ValueError, match="unknown method"):
            run("newton", FirstOrderOracle(inst), 3)
        with pytest.raises(ValueError, match="unknown method"):
            run("heavy ball", FirstOrderOracle(inst), 3)
        # case, '_' and '-' do not matter in a method name
        for alias, name in (("AGD", "agd"), ("heavy_ball", "heavyball"),
                            (" Dense-Probe ", "denseprobe")):
            got = run(alias, FirstOrderOracle(inst), 3)
            want = run(name, FirstOrderOracle(inst), 3)
            assert np.array_equal(got.iterates, want.iterates)
        with pytest.raises(ValueError, match="T must be"):
            run("gd", FirstOrderOracle(inst), 0)

    def test_step_is_one_over_the_oracle_lipschitz(self):
        # the step comes from the oracle's L, derived from the instance, and
        # the adaptive run reports drive's count, T calls for every method
        inst = build_instance(6, 1.3, 1.0)
        L = lipschitz(inst)
        assert FirstOrderOracle(inst).lipschitz == ResistingOracle(inst).lipschitz == L
        x1 = run("gd", FirstOrderOracle(inst), 1).iterates[1]
        assert np.array_equal(x1, np.zeros(6) - (1.0 / L) * loss(inst, np.zeros(6)).gradient)
        T = 4
        for name in ALL_METHODS:
            assert adversarial_run(name, T, 1.3, 1.0)[0].oracle_calls == T

    def test_trace_records_received_gradients(self):
        inst = build_instance(6, 1.3, 1.0)
        T = 7
        # gd queries at x_0 .. x_{T-1}, one call each, and x_T costs one more;
        # the trace reads its metrics from the gradients the method received
        oracle = _RecordingOracle(inst)
        trace = run("gd", oracle, T)
        assert trace.oracle_calls == len(oracle.gradients) == T + 1
        for t in range(T + 1):
            assert np.array_equal(oracle.queries[t], trace.iterates[t])
            assert trace.grad_norms[t] == np.max(np.abs(oracle.gradients[t]))
        iterates, answers, calls = optimizers.drive("gd", FirstOrderOracle(inst), T)
        assert calls == T
        for t in range(T):
            _assert_same_response(answers[t], loss(inst, iterates[t]))
        assert answers[T] is None
        agd = run("agd", FirstOrderOracle(inst), T)
        # agd's queries y_0 = x_0 and y_1 = x_1 coincide with iterates, so
        # only x_2 .. x_T need an extra call
        assert agd.oracle_calls == 2 * T - 1

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
        iterates, answers, calls = optimizers.drive("gd", oracle, T)
        assert calls == len(oracle.queries) == 2 * T
        for t in range(T):
            assert np.array_equal(oracle.queries[2 * t], iterates[t] + 1.0)
            assert np.array_equal(oracle.queries[2 * t + 1], iterates[t])
            _assert_same_response(answers[t], loss(inst, iterates[t]))
        assert answers[T] is None


class TestSubspaceTrapping:
    @pytest.mark.parametrize("name", ["gd", "agd", "heavyball"])
    def test_iterates_stay_in_trailing_subspaces(self, name):
        # iterate t may only touch the trailing t coordinates
        inst = build_instance(30, 1.3, 1.0)
        trace = run(name, FirstOrderOracle(inst), 29)
        for t in range(len(trace)):
            lead = 30 - t
            assert not np.any(trace.iterates[t][:lead]), f"x_{t} leaks"

    def test_gradients_map_subspace_one_step_out(self, rng):
        points = ((inst, np.concatenate([np.zeros(inst.k - t), rng.standard_normal(t)]))
                  for inst in (build_instance(k, 1.3, 1.0) for k in (5, 17, 30))
                  for t in range(1, inst.k) for _ in range(10))
        check = invariants.gradient_trap(points)
        assert check.passed, check


class TestSupportFrontier:
    @pytest.mark.parametrize("name,expected", [
        ("gd", True), ("agd", True), ("heavyball", True), ("denseprobe", False),
    ])
    def test_span_methods_detected(self, name, expected):
        inst = build_instance(10, 1.3, 1.0)
        trace = run(name, FirstOrderOracle(inst), 8)
        frontier = support_frontier(trace)
        assert (frontier <= 0) is expected
        if not expected:
            assert frontier == 10 - 1  # x_1 is already dense

    def test_denseprobe_detected_at_small_k(self):
        inst = build_instance(3, 1.3, 1.0)
        trace = run("denseprobe", FirstOrderOracle(inst), 2)
        assert support_frontier(trace) == 3 - 1

    def test_frontier_of_hand_built_iterates(self):
        x = np.zeros((4, 5))
        x[1, 4] = 1.0  # supp 1 at t = 1
        x[2, 2] = -0.0  # a signed zero counts as zero
        x[3, 1:] = 1.0  # supp 4 at t = 3
        trace = optimizers.Trace(iterates=x, values=np.zeros(4),
                                 grad_norms=np.zeros(4), oracle_calls=0)
        assert support_frontier(trace) == 1
        x[3, 1] = 0.0
        assert support_frontier(trace) == 0

    def test_empty_trace_rejected(self):
        inst = build_instance(3, 1.3, 1.0)
        trace = run("gd", FirstOrderOracle(inst), 2)
        hollow = type(trace)(
            iterates=trace.iterates[:0], values=trace.values[:0],
            grad_norms=trace.grad_norms[:0], oracle_calls=0,
        )
        with pytest.raises(ValueError, match="empty"):
            support_frontier(hollow)

    @pytest.mark.parametrize("k", [3, 10, 30])
    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_agrees_with_dense_span_reference(self, name, k):
        # reference: x_t lies in the span of the first t received gradients
        inst = build_instance(k, 1.3, 1.0)
        oracle = _RecordingOracle(inst)
        trace = run(name, oracle, k - 1)
        in_span = True
        for t in range(1, len(trace)):
            x = trace.iterates[t]
            g = np.array(oracle.gradients[:t]).T  # (k, t)
            coef = np.linalg.lstsq(g, x, rcond=None)[0]
            resid = np.linalg.norm(x - g @ coef)
            in_span = in_span and bool(resid <= 1e-8 * (1.0 + np.linalg.norm(x)))
        assert (support_frontier(trace) <= 0) is in_span
        assert in_span is (name != "denseprobe")


def test_agd_gap_exceeds_span_lower_bound():
    T = 25
    inst = build_instance(2 * T, 1.3, 1.0)
    prof = profile(inst)
    trace = run("agd", FirstOrderOracle(inst), T)
    for check in invariants.lower_bound(inst, trace, prof, prof.x_star, span=True):
        assert check.passed, check


class TestSerialization:
    def test_csv_columns_and_values(self, tmp_path):
        inst = build_instance(5, 1.3, 1.0)
        prof = profile(inst)
        trace = run("gd", FirstOrderOracle(inst), 4)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path, prof.f_star, prof.x_star)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["t", "value", "gap", "dist_sq", "grad_norm"]
        assert len(rows) == 5
        assert float(rows[0]["value"]) == trace.values[0]
        assert float(rows[2]["gap"]) == trace.values[2] - prof.f_star
        d = trace.iterates[3] - prof.x_star
        assert float(rows[3]["dist_sq"]) == float(d @ d)
