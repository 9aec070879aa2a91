import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardlogit import (
    FirstOrderOracle,
    ResistingOracle,
    RotatedInstance,
    Rotation,
    adversarial_run,
    build_instance,
    containment_residuals,
    data_direction_residual,
    drive,
    invariants,
    logloss,
    loss,
    profile,
    replay_check,
    resist,
    run,
    save_matrix_csv,
)
from hardlogit.cli import main
from conftest import (
    adaptive_iterates,
    adversarial,
    nan_in_v,
    orthogonality_reference,
    random_orthogonal,
    reflector_product,
    scale_first_beta,
)

ADVERSARY_METHODS = ["gd", "agd", "denseprobe"]
ALL_METHODS = ["gd", "agd", "heavyball", "denseprobe"]


def _oracle_after(inst, *queries):
    """A resisting oracle that has answered the zero start and then ``queries``."""
    oracle = ResistingOracle(inst)
    oracle(np.zeros(inst.k))
    for x in queries:
        oracle(x)
    return oracle


class TestFixAndMap:
    def test_degenerate_point_leaves_rotation_alone(self):
        inst = build_instance(9, 1.3, 1.0)
        x = np.zeros(9)
        x[-3:] = [0.4, -1.0, 2.0]  # already inside the step-1 trap subspace
        oracle = _oracle_after(inst, x)
        assert len(oracle.U) == 0 and oracle.skipped == 1
        assert np.array_equal(oracle.U.dense(), np.eye(9))
        assert len(oracle.points) == 2

    def test_places_new_point(self, rng):
        inst = build_instance(11, 1.3, 1.0)
        oracle = _oracle_after(inst, rng.standard_normal(11))
        assert len(oracle.U) == 1 and oracle.skipped == 0
        y = oracle.U.apply(oracle.points[-1])
        assert np.linalg.norm(y[: 11 - 3]) <= 1e-10
        U = oracle.U.dense()
        assert np.max(np.abs(U.T @ U - np.eye(11))) <= 1e-10

    def test_fixes_already_trapped_vectors(self, rng):
        inst = build_instance(10, 1.3, 1.0)
        oracle = _oracle_after(inst, rng.standard_normal(10))
        prev_u = oracle.U.dense()
        oracle(rng.standard_normal(10))
        # vectors already inside the fixed subspace must be untouched:
        # U_s (U_{s-1}' v) = v whenever v has support on the trailing 2s coords
        for _ in range(20):
            v = np.zeros(10)
            v[-4:] = rng.standard_normal(4)
            image = oracle.U.apply(prev_u.T @ v)
            assert np.max(np.abs(image - v)) <= 1e-12 * max(1.0, np.max(np.abs(v)))

    def test_k7_first_step_structure(self):
        inst = build_instance(7, 1.3, 1.0)
        rotation = _oracle_after(inst, np.arange(1.0, 8.0)).U
        U = rotation.dense()
        assert np.array_equal(U[5:, :], np.eye(7)[5:, :])
        assert np.array_equal(U[:, 5:], np.eye(7)[:, 5:])
        e7 = np.eye(7)[:, 6]
        assert np.array_equal(U @ e7, e7)
        assert np.array_equal(U.T @ e7, e7)
        assert np.array_equal(rotation.apply(e7), e7)
        assert np.array_equal(rotation.apply_t(e7), e7)
        # the leading block (1, ..., 5) lands on +||(1, ..., 5)|| e_5, no sign flip
        y = rotation.apply(np.arange(1.0, 8.0))
        assert np.linalg.norm(y[:4]) <= 1e-10
        assert abs(y[4] - np.sqrt(55.0)) <= 1e-14 * np.sqrt(55.0)
        assert np.array_equal(y[5:], [6.0, 7.0])

    def test_step_budget(self):
        inst = build_instance(7, 1.3, 1.0)
        oracle = _oracle_after(inst, np.ones(7), np.ones(7))  # steps 1 and 2 (block size 3)
        with pytest.raises(ValueError, match="step budget exceeded"):
            oracle(np.ones(7))
        with pytest.raises(ValueError, match="step budget exceeded"):
            oracle.finalize(np.ones(7))

    def test_dimension_mismatch(self):
        inst = build_instance(7, 1.3, 1.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            ResistingOracle(inst)(np.zeros(6))  # a wrong-shaped zero start
        oracle = _oracle_after(inst)
        with pytest.raises(ValueError, match="dimension mismatch"):
            oracle(np.ones(6))
        with pytest.raises(ValueError, match="dimension mismatch"):
            oracle.finalize(np.ones(6))

    def test_data_direction_always_fixed(self, rng):
        inst = build_instance(13, 1.3, 1.0)
        oracle = _oracle_after(inst)
        for _ in range(5):
            oracle(rng.standard_normal(13))
            assert data_direction_residual(RotatedInstance(inst, oracle.U)) <= 1e-10
            U = oracle.U.dense()
            assert np.max(np.abs(U.T @ U - np.eye(13))) <= 1e-10

    def test_optimal_value_invariant_after_every_step(self, rng):
        # rotating the dataset never changes the optimal value: the rotated
        # minimizer U'x* must evaluate to f* at each intermediate rotation
        inst = build_instance(13, 1.3, 1.0)
        prof = profile(inst)
        oracle = _oracle_after(inst)
        for _ in range(5):
            oracle(rng.standard_normal(13))
            rotated = RotatedInstance(inst, oracle.U)
            resp = loss(rotated, oracle.U.apply_t(prof.x_star))
            assert abs(resp.value - prof.f_star) <= 1e-10 * (1 + abs(prof.f_star))

    def test_corrupted_rotation_raises(self, rng):
        # a reflector whose beta is off by 1e-6 is no longer orthogonal: the
        # per-query norm probe raises, and the verdict on it fails
        inst = build_instance(10, 1.3, 1.0)
        oracle = _oracle_after(inst, rng.standard_normal(10))
        assert len(oracle.U) == 1
        oracle.U.triangular[0, 0] *= 1.0 + 1e-6
        (check,) = invariants.rotation_orthogonal(RotatedInstance(inst, oracle.U)).checks
        assert not check.passed and check.margin < 0.0
        with pytest.raises(ValueError, match="not orthogonal"):
            oracle(rng.standard_normal(10))


class TestResistingOracle:
    def test_first_query_must_be_zero(self):
        inst = build_instance(6, 1.3, 1.0)
        oracle = ResistingOracle(inst)
        with pytest.raises(ValueError, match="zero start"):
            oracle(np.ones(6))

    def test_answers_match_rotated_loss(self, rng):
        inst = build_instance(10, 1.3, 1.0)
        oracle = ResistingOracle(inst)
        r0 = oracle(np.zeros(10))
        assert r0.value == loss(inst, np.zeros(10)).value
        x1 = rng.standard_normal(10)
        r1 = oracle(x1)
        assert len(oracle.U) == 1
        # the answer is the loss of the currently rotated dataset at x1,
        # bit for bit as the rotation itself applies U and U'
        base = loss(inst, oracle.U.apply(x1))
        assert r1.value == base.value
        assert np.array_equal(r1.gradient, oracle.U.apply_t(base.gradient))

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_skip_test_is_relative_to_the_query(self, scale, rng):
        # a query in general position takes its reflection at any scale, and
        # one whose leading 7-block is 1e-13 of its norm is skipped at any scale
        inst = build_instance(9, 1.3, 1.0)
        x = scale * rng.standard_normal(9)
        oracle = _oracle_after(inst, x)
        assert (len(oracle.U), oracle.skipped) == (1, 0)
        assert containment_residuals(oracle)[1] <= invariants.ROTATION_TOL * np.linalg.norm(x)
        tail = np.zeros(9)
        tail[-2:] = scale
        tail[0] = 1e-13 * np.linalg.norm(tail)
        oracle = _oracle_after(inst, tail)
        assert (len(oracle.U), oracle.skipped) == (0, 1)

    def test_frozen_after_finalize(self, rng):
        inst = build_instance(10, 1.3, 1.0)
        oracle = ResistingOracle(inst)
        oracle(np.zeros(10))
        oracle.finalize(rng.standard_normal(10))
        with pytest.raises(ValueError, match="finalized"):
            oracle(np.zeros(10))
        with pytest.raises(ValueError, match="finalized"):
            oracle.finalize(rng.standard_normal(10))


class TestAdversarialRun:
    @pytest.mark.parametrize("name", ADVERSARY_METHODS)
    def test_bounds_and_rotation_invariants(self, name):
        T = 4
        trace, _, final, oracle = adversarial(name, T)
        iterates = adaptive_iterates(name, T)
        assert final.k == 4 * T + 2
        assert final.U is oracle.U
        base = build_instance(final.k, 1.3, 1.0)
        prof = profile(final)
        z_star = final.U.apply_t(prof.x_star)
        # the distance is to the optimum in the rotated coordinates, U'x*
        d = iterates[-1] - z_star
        assert trace.dist_sq[-1] == d @ d
        for check in invariants.lower_bound(final, trace, prof, span=False).checks:
            assert check.passed, check

        U = final.U.dense()
        ortho = np.max(np.abs(U.T @ U - np.eye(base.k)))
        assert ortho <= 1e-10
        atb = base.dense().T @ base.labels
        # no reflector touches the last coordinate, so A'b stays exactly put
        assert np.array_equal(U.T @ atb, atb)
        assert np.allclose(final.dense().T @ final.labels, U.T @ atb, rtol=0, atol=1e-12)
        assert data_direction_residual(final) == 0.0
        # the verdict measures ||U'U - I||_F on the factors: 0 for the
        # identity, else within rounding of the dense reference, which bounds
        # every entry, and it fails on a beta off by a relative 1e-9 or a NaN
        found = invariants.rotation_orthogonal(final)
        residual = found.measured["orthogonality_residual"]
        assert found.checks[0].passed and residual <= invariants.ROTATION_TOL
        if len(oracle.U) == 0:
            assert name != "denseprobe" and residual == 0.0
            return
        dense, bound = orthogonality_reference(final.U)
        assert abs(residual - dense) <= bound and ortho <= dense
        for plant in (scale_first_beta, nan_in_v):
            faulty = copy.deepcopy(final.U)
            plant(faulty)
            (check,) = invariants.rotation_orthogonal(RotatedInstance(final, faulty)).checks
            assert not check.passed

    def test_rotated_optimum_value_is_invariant(self):
        _, _, final, _ = adversarial("denseprobe", 3)
        prof = profile(final)
        unrotated = profile(build_instance(final.k, 1.3, 1.0))
        assert np.array_equal(prof.x_star, unrotated.x_star)
        assert prof.f_star == unrotated.f_star
        z_star = final.U.apply_t(prof.x_star)
        resp = loss(final, z_star)
        assert abs(resp.value - prof.f_star) <= 1e-10 * (1 + abs(prof.f_star))
        assert np.max(np.abs(resp.gradient)) <= 1e-8

    def test_query_points_land_in_trap_subspaces(self):
        # for an iterate-querying method the placed points are the iterates;
        # point i must sit in U' times the span of the trailing 2i+1 coords
        T = 4
        trace, _, final, _ = adversarial("denseprobe", T)
        iterates = adaptive_iterates("denseprobe", T)
        assert np.array_equal(trace.final, iterates[-1])
        oracle = _oracle_after(build_instance(final.k, 1.3, 1.0), *iterates[1:-1])
        replayed = oracle.finalize(iterates[-1])
        assert np.array_equal(oracle.U.V, final.U.V)
        assert np.array_equal(oracle.U.triangular, final.U.triangular)
        assert np.array_equal(replayed.U.dense(), final.U.dense())
        assert len(oracle.points) == T + 1
        assert np.max(containment_residuals(oracle)) <= 1e-8

    def test_trace_values_recomputable_against_final(self):
        trace, _, final, _ = adversarial("gd", 3)
        iterates = adaptive_iterates("gd", 3)
        assert len(trace) == len(iterates) == 4
        for i in range(len(trace)):
            assert trace.values[i] == loss(final, iterates[i]).value

    @pytest.mark.parametrize("name", ADVERSARY_METHODS)
    def test_trace_matches_per_iterate_loss(self, name):
        # the trace is the replay's: the final instance's loss at each
        # adaptive iterate, which the replay reproduces bit for bit
        trace, deviation, final, _ = adversarial(name, 40)
        iterates = adaptive_iterates(name, 40)
        assert deviation == 0.0
        assert len(trace) == len(iterates) == 41
        z_star = final.U.apply_t(profile(final).x_star)
        for t, x in enumerate(iterates):
            resp = loss(final, x)
            assert trace.values[t] == resp.value
            assert trace.grad_norms[t] == np.max(np.abs(resp.gradient))
            d = x - z_star
            assert trace.dist_sq[t] == d @ d
        nonzero = iterates != 0.0
        supp = np.where(nonzero.any(axis=1), final.k - nonzero.argmax(axis=1), 0)
        assert trace.support_frontier == int(np.max(supp - np.arange(41)))

    def test_no_drift_at_benchmark_size(self):
        # 1e-12 is where a re-orthogonalization would have to start; the
        # reflections alone stay below it at T = 130 (k = 522)
        _, _, final, _ = adversarial("denseprobe", 130)
        U = final.U.dense()
        assert np.max(np.abs(U.T @ U - np.eye(final.k))) <= 1e-12

    def test_t_zero_rejected(self):
        inst = build_instance(2, 1.3, 1.0)
        with pytest.raises(ValueError, match="T must be"):
            adversarial_run("gd", inst, 0, profile(inst).x_star)


class _Recording:
    """An oracle wrapper that keeps every (query, answer) pair."""

    def __init__(self, oracle):
        self.oracle, self.k, self.lipschitz = oracle, oracle.k, oracle.lipschitz
        self.log = []

    def __call__(self, x):
        resp = self.oracle(x)
        self.log.append((x.copy(), resp))
        return resp


class TestReflectorNative:
    """The rotation stays a short list of reflectors, never a k x k matrix."""

    def test_agd_takes_no_reflection_and_answers_the_base_loss(self):
        T = 30
        _, _, _, oracle = adversarial("agd", T)
        assert len(oracle.U) == 0 and oracle.skipped == T
        inst = build_instance(4 * T + 2, 1.3, 1.0)
        recording = _Recording(ResistingOracle(inst))
        for _ in drive("agd", recording, T):
            pass
        assert len(recording.oracle.U) == 0
        for x, resp in recording.log:
            base = loss(inst, x)
            assert resp.value == base.value
            assert np.array_equal(resp.gradient, base.gradient)

    def test_denseprobe_holds_no_k_squared_array(self):
        trace, _, final, oracle = adversarial("denseprobe", 40)
        k = final.k
        assert len(oracle.U) >= 1
        assert len(oracle.U) + oracle.skipped == len(oracle.points) - 1 == trace.oracle_calls
        for owner in (oracle, final, oracle.U, final.U):
            for name, value in vars(owner).items():
                arrays = value if isinstance(value, list) else [value]
                for a in arrays:
                    if isinstance(a, np.ndarray):
                        assert a.size < k * k, name

    def test_a_reflection_at_every_step(self, rng):
        # queries in general position take a reflection at every step, up to
        # the budget; the operator matches the reflectors multiplied out one
        # by one, stays orthogonal and keeps every point in its trap subspace
        k = 41
        steps = (k - 3) // 2
        inst = build_instance(k, 1.3, 1.0)
        oracle = _oracle_after(inst, *rng.standard_normal((steps, k)))
        assert len(oracle.U) == steps and oracle.skipped == 0
        U = oracle.U.dense()
        assert np.max(np.abs(U - reflector_product(oracle.U))) <= 1e-14
        assert np.max(np.abs(U.T @ U - np.eye(k))) <= 1e-14
        assert np.max(containment_residuals(oracle)) <= 1e-13
        for j, p in enumerate(oracle.points[1:], start=1):
            # step j sent the leading k-2j block to +its norm times e_{k-2j}
            y = oracle.U.apply(p)
            assert y[k - 2 * j - 1] > 0.0
        with pytest.raises(ValueError, match="step budget exceeded"):
            oracle(rng.standard_normal(k))

    def test_containment_across_row_blocks(self, rng):
        # 151 placed points, each after a reflection, span three blocks of
        # rows: entry i is point i's own leakage, the row-by-row formula's
        k = 303
        inst = build_instance(k, 1.3, 1.0)
        oracle = _oracle_after(inst, *rng.standard_normal(((k - 3) // 2, k)))
        assert len(oracle.points) > 2 * resist.CONTAINMENT_ROWS and oracle.skipped == 0
        residuals = containment_residuals(oracle)
        for i, p in enumerate(oracle.points):
            lead = np.linalg.norm(oracle.U.apply(p)[: k - (2 * i + 1)])
            assert abs(residuals[i] - lead) <= 1e-13 * np.linalg.norm(p)
            assert residuals[i] <= 1e-13 * np.linalg.norm(p)

    @pytest.mark.parametrize("name", ["denseprobe", "agd"])
    def test_containment_holds_no_copy_of_the_points(self, name):
        # the residuals rotate the placed points a block of rows at a time,
        # so the check peaks below the points' own bytes (a stacked copy and
        # its rotation peaked at 3.0x and 2.0x them)
        T = 400
        inst = build_instance(4 * T + 2, 1.3, 1.0)
        _, _, _, oracle = adversarial_run(name, inst, T, profile(inst).x_star)
        tracemalloc.start()
        try:
            residuals = containment_residuals(oracle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        points_bytes = sum(p.nbytes for p in oracle.points)
        assert points_bytes == (T + 1) * inst.k * 8
        assert peak < points_bytes
        assert residuals.shape == (T + 1,) and np.max(residuals) <= 1e-13

    def test_resist_builds_the_dense_rotation_twice(self, tmp_path, monkeypatch):
        # once for the libsvm export of A U and once for the rotation CSV;
        # the orthogonality verdict measures the factors (a third build before)
        calls = []
        dense = Rotation.dense
        monkeypatch.setattr(Rotation, "dense", lambda U: calls.append(U.k) or dense(U))
        argv = ["resist", "--method", "denseprobe", "--T", "20", "--out", str(tmp_path),
                "--no-timestamp", "--strict"]
        assert main(argv) == 0
        assert calls == [82, 82]

    def test_orthogonality_measures_the_factors(self, rng, monkeypatch):
        # no Rotation.dense call and no k x k array: at k = 1000 with 20
        # reflectors the measurement peaks far below one 8 MB k x k array
        k = 1000
        U = Rotation(k)
        for j in range(20):
            U.append(rng.standard_normal(k - 2 * j - 2))
        inst = RotatedInstance(build_instance(k, 1.3, 1.0), U)

        def no_dense(_):
            raise AssertionError("rotation_orthogonal built U")

        monkeypatch.setattr(Rotation, "dense", no_dense)
        tracemalloc.start()
        try:
            found = invariants.rotation_orthogonal(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found.checks[0].passed
        assert peak < k * k * 8 / 16


@st.composite
def _queries(draw):
    """k, then up to (k-3)/2 queries in general position, each scaled by
    10^e for its own e in [lo, hi], -8 <= lo <= hi <= 8."""
    k = draw(st.integers(7, 400))
    steps = draw(st.integers(0, (k - 3) // 2))
    lo = draw(st.floats(-8.0, 8.0))
    hi = draw(st.floats(lo, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.uniform(lo, hi, size=(steps, 1))
    return k, rng.standard_normal((steps, k)) * scales


class TestReflectionSweep:
    """The reflection invariants over dimensions, step counts and query
    scales: orthogonality from the factors against the dense reference,
    containment and the fixed label direction."""

    @settings(max_examples=40, deadline=None)
    @given(case=_queries())
    def test_invariants_hold(self, case):
        k, queries = case
        inst = build_instance(k, 1.3, 1.0)
        oracle = _oracle_after(inst, *queries)
        assert len(oracle.U) + oracle.skipped == len(queries)
        rotated = RotatedInstance(inst, oracle.U)
        residual = invariants.rotation_orthogonal(rotated).measured["orthogonality_residual"]
        dense, bound = orthogonality_reference(oracle.U)
        assert residual <= invariants.ROTATION_TOL
        assert abs(residual - dense) <= bound
        # point i lies in its trap subspace to within ROTATION_TOL of its norm
        norms = np.linalg.norm(oracle.points, axis=1)
        assert np.all(containment_residuals(oracle) <= invariants.ROTATION_TOL * norms)
        assert data_direction_residual(rotated) == 0.0


class TestReplaySweep:
    """Adaptive runs of every method over sigma/zeta in (1, 1e4], zeta from
    1e-8 to 1e8 and T from 1 to 12: the replay reproduces the run, each step
    reflects or is skipped, and every placed point stays in its trap
    subspace within the bound of ``TestReflectionSweep``."""

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(ALL_METHODS),
           ratio=st.floats(1.0, 1e4, exclude_min=True),
           log_zeta=st.floats(-8.0, 8.0), T=st.integers(1, 12))
    def test_replay_reproduces_the_run(self, name, ratio, log_zeta, T):
        zeta = 10.0 ** log_zeta
        inst = build_instance(4 * T + 2, ratio * zeta, zeta)
        _, deviation, _, oracle = adversarial_run(name, inst, T, profile(inst).x_star)
        assert invariants.replay_matches(deviation).passed
        assert len(oracle.U) + oracle.skipped == T
        norms = np.linalg.norm(oracle.points, axis=1)
        assert np.all(containment_residuals(oracle) <= invariants.ROTATION_TOL * norms)


class _CountingLoss:
    """``loss`` wrapped to count its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, inst, x):
        self.calls += 1
        return loss(inst, x)


class TestReplay:
    @pytest.mark.parametrize("name", ADVERSARY_METHODS)
    def test_replay_matches(self, name):
        # the replay's queries are the placed points, and its x_T the last one
        _, deviation, final, oracle = adversarial(name, 5)
        assert deviation == 0.0 and invariants.replay_matches(deviation).passed
        assert len(oracle.points) == 5 + 1
        z_star = final.U.apply_t(profile(final).x_star)
        assert replay_check(name, final, 5, oracle.points, z_star)[1] == deviation
        assert np.array_equal(oracle.points, adaptive_iterates(name, 5)) == (name != "agd")

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_one_pass_replay(self, name, monkeypatch):
        # the adaptive run answers its T inquiries; the replay answers T more
        # and evaluates the final instance only where the method never asked
        # (x_T, and agd's x_2 .. x_T): no other loss of the final instance
        T = 6
        inst = build_instance(4 * T + 2, 1.3, 1.0)
        x_star = profile(inst).x_star
        counting = _CountingLoss()
        monkeypatch.setattr(logloss, "loss", counting)
        monkeypatch.setattr(resist, "loss", counting)
        trace, deviation, final, _ = adversarial_run(name, inst, T, x_star)
        monkeypatch.undo()
        assert counting.calls == (3 * T - 1 if name == "agd" else 2 * T + 1)
        assert deviation == 0.0
        # the trace is the method's run on the frozen instance, field for field
        want = run(name, FirstOrderOracle(final), T, final.U.apply_t(x_star))
        for field in ("values", "grad_norms", "dist_sq", "final"):
            assert np.array_equal(getattr(trace, field), getattr(want, field)), field
        assert trace.support_frontier == want.support_frontier
        assert trace.oracle_calls == want.oracle_calls == T

    def test_length_mismatch(self):
        # points of another dimension are not a record of a run on this instance
        _, _, _, oracle = adversarial("gd", 3)
        _, _, other, _ = adversarial("gd", 4)
        with pytest.raises(ValueError, match="dimension mismatch"):
            replay_check("gd", other, 3, oracle.points, np.zeros(other.k))

    @pytest.mark.parametrize("T, extra", [(5, 0), (3, 0), (4, 1)],
                             ids=["more-queries", "fewer-queries", "extra-placed-point"])
    def test_query_count_mismatch_fails(self, T, extra):
        # a replay that asks more or fewer queries than were placed before
        # x_T reads inf, without an IndexError, and fails its verdict
        _, _, final, oracle = adversarial("gd", 4)
        points = oracle.points[:-1] + oracle.points[-2:-1] * extra + oracle.points[-1:]
        trace, deviation = replay_check("gd", final, T, points, np.zeros(final.k))
        assert len(trace) == T + 1
        assert deviation == np.inf
        assert not invariants.replay_matches(deviation).passed

    def test_replay_detects_wrong_rotation(self):
        # against a different rotation the method walks a different path
        _, _, final, oracle = adversarial("denseprobe", 3)
        wrong = RotatedInstance(final, random_orthogonal(final.k, seed=5))
        _, deviation = replay_check("denseprobe", wrong, 3, oracle.points, np.zeros(final.k))
        assert not invariants.replay_matches(deviation).passed

    def test_nan_deviation_fails(self):
        # a NaN in a placed query or in x_T must not read as a zero deviation
        _, _, final, oracle = adversarial("gd", 3)
        for i in (2, -1):
            points = [p.copy() for p in oracle.points]
            points[i][0] = np.nan
            _, deviation = replay_check("gd", final, 3, points, np.zeros(final.k))
            assert np.isnan(deviation)
            assert not invariants.replay_matches(deviation).passed

    def test_run_keeps_one_copy_of_its_points(self):
        # the placed points are the run's one record: no (T+1) x k array of
        # iterates besides them (the previous design peaked above twice that)
        T = 150
        inst = build_instance(4 * T + 2, 1.3, 1.0)
        x_star = profile(inst).x_star
        tracemalloc.start()
        try:
            _, _, _, oracle = adversarial_run("agd", inst, T, x_star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        points_bytes = sum(p.nbytes for p in oracle.points)
        assert points_bytes == (T + 1) * inst.k * 8
        assert peak < 1.5 * points_bytes


def test_save_matrix_csv_roundtrip(tmp_path):
    _, _, final, _ = adversarial("denseprobe", 2)
    path = tmp_path / "rotation.csv"
    U = final.U.dense()
    save_matrix_csv(U, path)
    loaded = np.loadtxt(path, delimiter=",")
    assert np.array_equal(loaded, U)


def _reflected(k, lengths, seed):
    rotation = Rotation(k)
    rng = np.random.default_rng(seed)
    for m in lengths:
        rotation.append(rng.standard_normal(m))
    return rotation.dense()


@pytest.mark.parametrize("matrix", [
    _reflected(9, (), 0),  # the identity, as the agd cell's U
    _reflected(12, (10,), 1),  # dense leading block, zero tail
    _reflected(12, (10, 8, 3), 2),
    np.array([[0.0, -0.0, 1.5], [np.nan, 0.0, -np.inf]]),
], ids=["0-reflectors", "1-reflector", "3-reflectors", "signed-zero-nan-inf"])
def test_save_matrix_csv_is_savetxt(matrix, tmp_path):
    ours, reference = tmp_path / "ours.csv", tmp_path / "savetxt.csv"
    save_matrix_csv(matrix, ours)
    np.savetxt(reference, matrix, fmt="%.17g", delimiter=",")
    assert ours.read_bytes() == reference.read_bytes()
