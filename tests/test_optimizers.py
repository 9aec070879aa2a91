import csv

import numpy as np
import pytest

from hardlogit import (
    FirstOrderOracle,
    MethodSpec,
    OracleResponse,
    bound_linear_span,
    build_instance,
    check_linear_span,
    lipschitz,
    loss,
    optimizers,
    profile,
    run,
    trace_to_csv,
)

ALL_METHODS = ["gd", "agd", "heavyball", "denseprobe"]


def _method(name, inst):
    return MethodSpec(name=name, step_size=1.0 / lipschitz(inst))


class TestRun:
    def test_gd_converges_in_one_dimension(self):
        inst = build_instance(1, 1.3, 1.0)
        trace = run(_method("gd", inst), FirstOrderOracle(inst), 200)
        assert trace.grad_norms[-1] <= 1e-6

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_stationary_start_stays_put(self, name):
        class ZeroOracle:
            k = 4

            def __call__(self, x):
                return OracleResponse(value=0.0, gradient=np.zeros(4))

        spec = MethodSpec(name=name, step_size=0.25)
        trace = run(spec, ZeroOracle(), 10)
        assert np.array_equal(trace.iterates, np.zeros((11, 4)))

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_bit_identical_reruns(self, name):
        inst = build_instance(8, 1.3, 1.0)
        spec = _method(name, inst)
        t1 = run(spec, FirstOrderOracle(inst), 12)
        t2 = run(spec, FirstOrderOracle(inst), 12)
        assert np.array_equal(t1.iterates, t2.iterates)
        assert np.array_equal(t1.values, t2.values)
        assert t1.oracle_calls == t2.oracle_calls

    def test_gd_monotone_descent(self):
        inst = build_instance(12, 1.3, 1.0)
        trace = run(_method("gd", inst), FirstOrderOracle(inst), 60)
        assert np.all(np.diff(trace.values) <= 1e-12)

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_trace_contract(self, name):
        inst = build_instance(6, 1.3, 1.0)
        trace = run(_method(name, inst), FirstOrderOracle(inst), 7)
        assert np.array_equal(trace.iterates[0], np.zeros(6))
        assert len(trace) == 8
        for i in range(8):
            resp = loss(inst, trace.iterates[i])
            assert trace.values[i] == resp.value
            assert trace.grad_norms[i] == np.max(np.abs(resp.gradient))

    def test_errors(self):
        inst = build_instance(3, 1.3, 1.0)
        with pytest.raises(ValueError, match="unknown method"):
            run(MethodSpec(name="newton", step_size=0.1), FirstOrderOracle(inst), 3)
        with pytest.raises(ValueError, match="unknown method"):
            run(MethodSpec(name="heavy ball", step_size=0.1), FirstOrderOracle(inst), 3)
        # case, '_' and '-' do not matter in a method name
        for alias, name in (("AGD", "agd"), ("heavy_ball", "heavyball"),
                            (" Dense-Probe ", "denseprobe")):
            got = run(_method(alias, inst), FirstOrderOracle(inst), 3)
            want = run(_method(name, inst), FirstOrderOracle(inst), 3)
            assert np.array_equal(got.iterates, want.iterates)
        with pytest.raises(ValueError, match="T must be"):
            run(_method("gd", inst), FirstOrderOracle(inst), 0)
        with pytest.raises(ValueError, match="step_size"):
            run(MethodSpec(name="gd"), FirstOrderOracle(inst), 3)


    def test_trace_records_received_gradients(self):
        inst = build_instance(6, 1.3, 1.0)
        T = 7
        trace = run(_method("gd", inst), FirstOrderOracle(inst), T)
        # gd queries at x_0 .. x_{T-1}, one call each
        assert trace.gradients.shape == (T, 6)
        for t in range(T):
            assert np.array_equal(trace.gradients[t], loss(inst, trace.iterates[t]).gradient)
        agd = run(_method("agd", inst), FirstOrderOracle(inst), T)
        assert agd.gradients.shape == (T, 6)
        # agd's queries y_0 = x_0 and y_1 = x_1 coincide with iterates, so
        # only x_2 .. x_T need an extra call
        assert agd.oracle_calls == 2 * T - 1


    def test_drive_records_every_call_of_a_two_call_method(self, monkeypatch):
        # a method that probes a side point before querying its iterate
        def two_calls(method, ask, k):
            x = np.zeros(k)
            while True:
                ask(x + 1.0)
                x = x - method.step_size * ask(x).gradient
                yield x

        monkeypatch.setattr(optimizers, "iterate_steps", two_calls)
        inst = build_instance(5, 1.3, 1.0)
        T = 6
        iterates, gradients, answers = optimizers.drive(
            _method("gd", inst), FirstOrderOracle(inst), T)
        assert gradients.shape == (2 * T, 5)
        for t in range(T):
            side = loss(inst, iterates[t] + 1.0).gradient
            at_x = loss(inst, iterates[t]).gradient
            assert np.array_equal(gradients[2 * t], side)
            assert np.array_equal(gradients[2 * t + 1], at_x)
            assert np.array_equal(answers[t].gradient, at_x)
        assert answers[T] is None


class TestSubspaceTrapping:
    @pytest.mark.parametrize("name", ["gd", "agd", "heavyball"])
    def test_iterates_stay_in_trailing_subspaces(self, name):
        # iterate t may only touch the trailing t coordinates
        inst = build_instance(30, 1.3, 1.0)
        trace = run(_method(name, inst), FirstOrderOracle(inst), 29)
        worst = 0.0
        for t in range(len(trace)):
            lead = 30 - t
            if lead > 0:
                worst = max(worst, np.max(np.abs(trace.iterates[t][:lead])))
        assert worst <= 1e-10

    def test_gradients_map_subspace_one_step_out(self, rng):
        for k in (5, 17, 30):
            inst = build_instance(k, 1.3, 1.0)
            for t in range(1, k):
                for _ in range(10):
                    x = np.zeros(k)
                    x[k - t:] = rng.standard_normal(t)
                    g = loss(inst, x).gradient
                    lead = k - (t + 1)
                    if lead > 0:
                        assert np.max(np.abs(g[:lead])) <= 1e-10


class TestCheckLinearSpan:
    @pytest.mark.parametrize("name,expected", [
        ("gd", True), ("agd", True), ("heavyball", True), ("denseprobe", False),
    ])
    def test_span_methods_detected(self, name, expected):
        inst = build_instance(10, 1.3, 1.0)
        trace = run(_method(name, inst), FirstOrderOracle(inst), 8)
        assert check_linear_span(trace) is expected

    def test_denseprobe_detected_at_small_k(self):
        inst = build_instance(3, 1.3, 1.0)
        trace = run(_method("denseprobe", inst), FirstOrderOracle(inst), 2)
        assert check_linear_span(trace) is False

    def test_empty_trace_rejected(self):
        inst = build_instance(3, 1.3, 1.0)
        trace = run(_method("gd", inst), FirstOrderOracle(inst), 2)
        hollow = type(trace)(
            iterates=trace.iterates[:0], values=trace.values[:0],
            grad_norms=trace.grad_norms[:0], oracle_calls=0,
            gradients=trace.gradients[:0],
        )
        with pytest.raises(ValueError, match="empty"):
            check_linear_span(hollow)


def test_agd_gap_exceeds_span_lower_bound():
    T = 25
    inst = build_instance(2 * T, 1.3, 1.0)
    prof = profile(inst)
    trace = run(_method("agd", inst), FirstOrderOracle(inst), T)
    gap = trace.values[-1] - prof.f_star
    assert gap > bound_linear_span(T, inst.a_norm(), prof.xstar_norm_sq).gap


class TestSerialization:
    def test_csv_columns_and_values(self, tmp_path):
        inst = build_instance(5, 1.3, 1.0)
        prof = profile(inst)
        trace = run(_method("gd", inst), FirstOrderOracle(inst), 4)
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
