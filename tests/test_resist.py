import numpy as np
import pytest

from hardlogit import (
    ResistingOracle,
    RotatedInstance,
    adversarial_run,
    build_instance,
    containment_residuals,
    data_direction_residual,
    invariants,
    loss,
    matvec_at,
    profile,
    replay_check,
    save_matrix_csv,
)
from conftest import random_orthogonal

ADVERSARY_METHODS = ["gd", "agd", "denseprobe"]


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
        assert np.array_equal(oracle.U, np.eye(9))
        assert len(oracle.points) == 2

    def test_places_new_point(self, rng):
        inst = build_instance(11, 1.3, 1.0)
        oracle = _oracle_after(inst, rng.standard_normal(11))
        y = oracle.U @ oracle.points[-1]
        assert np.linalg.norm(y[: 11 - 3]) <= 1e-10
        assert np.max(np.abs(oracle.U.T @ oracle.U - np.eye(11))) <= 1e-10

    def test_fixes_already_trapped_vectors(self, rng):
        inst = build_instance(10, 1.3, 1.0)
        oracle = _oracle_after(inst, rng.standard_normal(10))
        prev_u = oracle.U.copy()
        oracle(rng.standard_normal(10))
        # vectors already inside the fixed subspace must be untouched:
        # U_s (U_{s-1}' v) = v whenever v has support on the trailing 2s coords
        for _ in range(20):
            v = np.zeros(10)
            v[-4:] = rng.standard_normal(4)
            image = oracle.U @ (prev_u.T @ v)
            assert np.max(np.abs(image - v)) <= 1e-12 * max(1.0, np.max(np.abs(v)))

    def test_k7_first_step_structure(self):
        inst = build_instance(7, 1.3, 1.0)
        U = _oracle_after(inst, np.arange(1.0, 8.0)).U
        assert np.array_equal(U[5:, :], np.eye(7)[5:, :])
        assert np.array_equal(U[:, 5:], np.eye(7)[:, 5:])
        e7 = np.eye(7)[:, 6]
        assert np.array_equal(U @ e7, e7)
        assert np.array_equal(U.T @ e7, e7)
        assert np.linalg.norm((U @ np.arange(1.0, 8.0))[:4]) <= 1e-10

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
            assert np.max(np.abs(oracle.U.T @ oracle.U - np.eye(13))) <= 1e-10

    def test_optimal_value_invariant_after_every_step(self, rng):
        # rotating the dataset never changes the optimal value: the rotated
        # minimizer U'x* must evaluate to f* at each intermediate rotation
        inst = build_instance(13, 1.3, 1.0)
        prof = profile(inst)
        oracle = _oracle_after(inst)
        for _ in range(5):
            oracle(rng.standard_normal(13))
            rotated = RotatedInstance(inst, oracle.U)
            resp = loss(rotated, oracle.U.T @ prof.x_star)
            assert abs(resp.value - prof.f_star) <= 1e-10 * (1 + abs(prof.f_star))

    def test_corrupted_rotation_raises(self, rng):
        # the per-query norm probe catches a U that is no longer orthogonal
        inst = build_instance(10, 1.3, 1.0)
        oracle = _oracle_after(inst, rng.standard_normal(10))
        oracle.U[0, 0] += 1e-6
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
        # the answer is the loss of the currently rotated dataset at x1
        U = oracle.U
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
        with pytest.raises(ValueError, match="finalized"):
            oracle.finalize(rng.standard_normal(10))


class TestAdversarialRun:
    @pytest.mark.parametrize("name", ADVERSARY_METHODS)
    def test_bounds_and_rotation_invariants(self, name):
        T = 4
        trace, final = adversarial_run(name, T, 1.3, 1.0)
        assert final.k == 4 * T + 2
        base = build_instance(final.k, 1.3, 1.0)
        prof = profile(final)
        z_star = final.U.T @ prof.x_star
        for check in invariants.lower_bound(final, trace, prof, z_star, span=False):
            assert check.passed, check

        eye = np.eye(base.k)
        ortho = np.max(np.abs(final.U.T @ final.U - eye))
        assert ortho <= 1e-10
        atb = matvec_at(base, base.labels)
        fixed = np.max(np.abs(final.U.T @ atb - atb))
        assert fixed <= 1e-10
        assert np.array_equal(matvec_at(final, final.labels), final.U.T @ atb)
        # the instance keeps the max |U'U - I| of its construction check
        assert final.orthogonality_residual == ortho
        assert data_direction_residual(final) == fixed

    def test_rotated_optimum_value_is_invariant(self):
        trace, final = adversarial_run("denseprobe", 3, 1.3, 1.0)
        prof = profile(final)
        unrotated = profile(build_instance(final.k, 1.3, 1.0))
        assert np.array_equal(prof.x_star, unrotated.x_star)
        assert prof.f_star == unrotated.f_star
        z_star = final.U.T @ prof.x_star
        resp = loss(final, z_star)
        assert abs(resp.value - prof.f_star) <= 1e-10 * (1 + abs(prof.f_star))
        assert np.max(np.abs(resp.gradient)) <= 1e-8

    def test_query_points_land_in_trap_subspaces(self):
        # for an iterate-querying method the placed points are the iterates;
        # point i must sit in U' times the span of the trailing 2i+1 coords
        T = 4
        trace, final = adversarial_run("denseprobe", T, 1.3, 1.0)
        oracle = _oracle_after(build_instance(final.k, 1.3, 1.0), *trace.iterates[1:-1])
        replayed = oracle.finalize(trace.iterates[-1])
        assert np.array_equal(oracle.U, final.U)
        assert np.array_equal(replayed.U, final.U)
        assert len(oracle.points) == T + 1
        assert np.max(containment_residuals(oracle)) <= 1e-8

    def test_trace_values_recomputable_against_final(self):
        trace, final = adversarial_run("gd", 3, 1.3, 1.0)
        for i in range(len(trace)):
            assert trace.values[i] == loss(final, trace.iterates[i]).value

    @pytest.mark.parametrize("name", ADVERSARY_METHODS)
    def test_batched_trace_matches_per_iterate_loss(self, name):
        # the trace is computed in one batch: base loss at the rows of X U',
        # one product of the stacked gradients with U
        trace, final = adversarial_run(name, 40, 1.3, 1.0)
        assert len(trace) == 41
        for t, x in enumerate(trace.iterates):
            resp = loss(final, x)
            assert abs(trace.values[t] - resp.value) <= 1e-13 * abs(resp.value)
            norm = np.max(np.abs(resp.gradient))
            assert abs(trace.grad_norms[t] - norm) <= 1e-13 * norm

    def test_no_drift_at_benchmark_size(self):
        # 1e-12 is where a re-orthogonalization would have to start; the
        # reflections alone stay below it at T = 130 (k = 522)
        _, final = adversarial_run("denseprobe", 130, 1.3, 1.0)
        assert np.max(np.abs(final.U.T @ final.U - np.eye(final.k))) <= 1e-12

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError, match="T must be"):
            adversarial_run("gd", 0, 1.3, 1.0)


class TestReplay:
    @pytest.mark.parametrize("name", ADVERSARY_METHODS)
    def test_replay_matches(self, name):
        trace, final = adversarial_run(name, 5, 1.3, 1.0)
        assert invariants.replay_matches(name, final, trace).passed

    def test_length_mismatch(self):
        trace, final = adversarial_run("gd", 3, 1.3, 1.0)
        _, other = adversarial_run("gd", 4, 1.3, 1.0)
        with pytest.raises(ValueError, match="length mismatch"):
            replay_check("gd", other, trace)

    def test_replay_detects_wrong_rotation(self):
        # against a different rotation the method walks a different path
        trace, final = adversarial_run("denseprobe", 3, 1.3, 1.0)
        wrong = RotatedInstance(final, random_orthogonal(final.k, seed=5))
        assert not invariants.replay_matches("denseprobe", wrong, trace).passed


def test_save_matrix_csv_roundtrip(tmp_path):
    trace, final = adversarial_run("denseprobe", 2, 1.3, 1.0)
    path = tmp_path / "rotation.csv"
    save_matrix_csv(final.U, path)
    loaded = np.loadtxt(path, delimiter=",")
    assert np.array_equal(loaded, final.U)
