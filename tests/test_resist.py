import numpy as np
import pytest

from hardlogit import (
    MethodSpec,
    ResistingOracle,
    RotatedInstance,
    adversarial_run,
    bound_general,
    build_instance,
    containment_residuals,
    data_direction_residual,
    fix_and_map,
    loss,
    matvec_at,
    new_adversary,
    orthogonality_residual,
    profile,
    replay_check,
    save_matrix_csv,
)
from conftest import random_orthogonal

ADVERSARY_METHODS = ["gd", "agd", "denseprobe"]


class TestFixAndMap:
    def test_degenerate_point_leaves_rotation_alone(self):
        inst = build_instance(9, 1.3, 1.0)
        state = new_adversary(inst)
        x = np.zeros(9)
        x[-3:] = [0.4, -1.0, 2.0]  # already inside the step-1 trap subspace
        new_state = fix_and_map(state, x)
        assert np.array_equal(new_state.U, np.eye(9))
        assert new_state.s == 2

    def test_places_new_point(self, rng):
        inst = build_instance(11, 1.3, 1.0)
        state = fix_and_map(new_adversary(inst), rng.standard_normal(11))
        y = state.U @ state.points[-1]
        assert np.linalg.norm(y[: 11 - 3]) <= 1e-10
        assert orthogonality_residual(state) <= 1e-10

    def test_fixes_already_trapped_vectors(self, rng):
        inst = build_instance(10, 1.3, 1.0)
        state = fix_and_map(new_adversary(inst), rng.standard_normal(10))
        prev_u = state.U.copy()
        next_state = fix_and_map(state, rng.standard_normal(10))
        # vectors already inside the fixed subspace must be untouched:
        # U_s (U_{s-1}' v) = v whenever v has support on the trailing 2s coords
        for _ in range(20):
            v = np.zeros(10)
            v[-4:] = rng.standard_normal(4)
            image = next_state.U @ (prev_u.T @ v)
            assert np.max(np.abs(image - v)) <= 1e-12 * max(1.0, np.max(np.abs(v)))

    def test_k7_first_step_structure(self):
        inst = build_instance(7, 1.3, 1.0)
        state = fix_and_map(new_adversary(inst), np.arange(1.0, 8.0))
        U = state.U
        assert np.array_equal(U[5:, :], np.eye(7)[5:, :])
        assert np.array_equal(U[:, 5:], np.eye(7)[:, 5:])
        e7 = np.eye(7)[:, 6]
        assert np.array_equal(U @ e7, e7)
        assert np.array_equal(U.T @ e7, e7)
        assert np.linalg.norm((U @ np.arange(1.0, 8.0))[:4]) <= 1e-10

    def test_step_budget(self):
        inst = build_instance(7, 1.3, 1.0)
        state = new_adversary(inst)
        state = fix_and_map(state, np.ones(7))  # step 1
        state = fix_and_map(state, np.ones(7))  # step 2, block size 3
        with pytest.raises(ValueError, match="step budget exceeded"):
            fix_and_map(state, np.ones(7))

    def test_dimension_mismatch(self):
        inst = build_instance(7, 1.3, 1.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            fix_and_map(new_adversary(inst), np.ones(6))

    def test_data_direction_always_fixed(self, rng):
        inst = build_instance(13, 1.3, 1.0)
        state = new_adversary(inst)
        for _ in range(5):
            state = fix_and_map(state, rng.standard_normal(13))
            assert data_direction_residual(state) <= 1e-10
            assert orthogonality_residual(state) <= 1e-10

    def test_optimal_value_invariant_after_every_step(self, rng):
        # rotating the dataset never changes the optimal value: the rotated
        # minimizer U'x* must evaluate to f* at each intermediate rotation
        inst = build_instance(13, 1.3, 1.0)
        prof = profile(inst)
        state = new_adversary(inst)
        for _ in range(5):
            state = fix_and_map(state, rng.standard_normal(13))
            rotated = RotatedInstance(inst, state.U)
            resp = loss(rotated, state.U.T @ prof.x_star)
            assert abs(resp.value - prof.f_star) <= 1e-10 * (1 + abs(prof.f_star))


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
        # the answer is the loss of the currently rotated dataset at x1
        U = oracle.state.U
        base = loss(inst, U @ x1)
        assert r1.value == base.value
        assert np.array_equal(r1.gradient, U.T @ base.gradient)

    def test_frozen_after_finalize(self, rng):
        inst = build_instance(10, 1.3, 1.0)
        oracle = ResistingOracle(inst)
        oracle(np.zeros(10))
        oracle.finalize(rng.standard_normal(10))
        with pytest.raises(ValueError, match="finalized"):
            oracle(np.zeros(10))


class TestAdversarialRun:
    @pytest.mark.parametrize("name", ADVERSARY_METHODS)
    def test_bounds_and_rotation_invariants(self, name):
        T = 4
        trace, final = adversarial_run(MethodSpec(name=name), T, 1.3, 1.0)
        base = final.base
        assert base.k == 4 * T + 2
        prof = profile(base)
        z_star = final.U.T @ prof.x_star

        gap = trace.values[-1] - prof.f_star
        d = trace.iterates[-1] - z_star
        lb = bound_general(T, final.a_norm(), prof.xstar_norm_sq)
        assert gap > lb.gap
        assert d @ d > 0.125 * prof.xstar_norm_sq

        eye = np.eye(base.k)
        ortho = np.max(np.abs(final.U.T @ final.U - eye))
        assert ortho <= 1e-10
        atb = matvec_at(base, base.labels)
        fixed = np.max(np.abs(final.U.T @ atb - atb))
        assert fixed <= 1e-10
        # the residual helpers take the final rotated instance as well
        assert orthogonality_residual(final) == ortho
        assert data_direction_residual(final) == fixed

    def test_rotated_optimum_value_is_invariant(self):
        trace, final = adversarial_run(MethodSpec(name="denseprobe"), 3, 1.3, 1.0)
        prof = profile(final.base)
        z_star = final.U.T @ prof.x_star
        resp = loss(final, z_star)
        assert abs(resp.value - prof.f_star) <= 1e-10 * (1 + abs(prof.f_star))
        assert np.max(np.abs(resp.gradient)) <= 1e-8

    def test_query_points_land_in_trap_subspaces(self):
        # for an iterate-querying method the placed points are the iterates;
        # point i must sit in U' times the span of the trailing 2i+1 coords
        T = 4
        trace, final = adversarial_run(MethodSpec(name="denseprobe"), T, 1.3, 1.0)
        state = new_adversary(final.base)
        for x in trace.iterates[1:]:
            state = fix_and_map(state, x)
        assert np.array_equal(state.U, final.U)
        res = containment_residuals(state)
        assert np.max(res) <= 1e-8
        # the looser two-steps-out containment holds a fortiori
        assert np.max(containment_residuals(state, index_shift=3)) <= np.max(res) + 1e-15

    def test_trace_values_recomputable_against_final(self):
        trace, final = adversarial_run(MethodSpec(name="gd"), 3, 1.3, 1.0)
        for i in range(len(trace)):
            assert trace.values[i] == loss(final, trace.iterates[i]).value

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError, match="T must be"):
            adversarial_run(MethodSpec(name="gd"), 0, 1.3, 1.0)


class TestReplay:
    @pytest.mark.parametrize("name", ADVERSARY_METHODS)
    def test_replay_matches(self, name):
        trace, final = adversarial_run(MethodSpec(name=name), 5, 1.3, 1.0)
        assert replay_check(MethodSpec(name=name), final, trace) is True

    def test_length_mismatch(self):
        trace, final = adversarial_run(MethodSpec(name="gd"), 3, 1.3, 1.0)
        _, other = adversarial_run(MethodSpec(name="gd"), 4, 1.3, 1.0)
        with pytest.raises(ValueError, match="length mismatch"):
            replay_check(MethodSpec(name="gd"), other, trace)

    def test_replay_detects_wrong_rotation(self):
        # against a different rotation the method walks a different path
        trace, final = adversarial_run(MethodSpec(name="denseprobe"), 3, 1.3, 1.0)
        wrong = RotatedInstance(final.base, random_orthogonal(final.base.k, seed=5))
        assert replay_check(MethodSpec(name="denseprobe"), wrong, trace) is False


def test_save_matrix_csv_roundtrip(tmp_path):
    trace, final = adversarial_run(MethodSpec(name="denseprobe"), 2, 1.3, 1.0)
    path = tmp_path / "rotation.csv"
    save_matrix_csv(final.U, path)
    loaded = np.loadtxt(path, delimiter=",")
    assert np.array_equal(loaded, final.U)
