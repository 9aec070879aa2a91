import copy
import math
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
    datasets,
    data_direction_residual,
    drive,
    invariants,
    logloss,
    loss,
    optimizers,
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
    libsvm_text,
    nan_in_v,
    orthogonality_reference,
    random_orthogonal,
    reflector_product,
    scale_first_beta,
)

ADVERSARY_METHODS = ["gd", "agd", "denseprobe"]
ALL_METHODS = ["gd", "agd", "heavyball", "denseprobe"]


def _oracle_after(inst, *queries, oracle=ResistingOracle):
    """A resisting oracle (of class ``oracle``) that has answered the zero
    start and then ``queries``."""
    oracle = oracle(inst)
    oracle(np.zeros(inst.k))
    for x in queries:
        oracle(x)
    return oracle


class _ScaledTest(ResistingOracle):
    """The adversary with the reflection it took before a leading block with
    no nonzero was skipped first: the scaled test decides every step, and an
    overflowing threshold raises.  The reference for that shortcut."""

    def _reflect(self, y, m, x_norm):
        e = resist._exponent(y[:m])
        z = np.ldexp(y[:m], -e)
        z_norm = np.linalg.norm(z)
        head = float(z[:-1] @ z[:-1])
        if z_norm <= resist.TIE_BREAK * math.ldexp(x_norm, -e) or (head == 0.0 and z[-1] > 0.0):
            self.skipped += 1
            return y
        v = z
        v[-1] = -head / (z[-1] + z_norm) if z[-1] > 0.0 else z[-1] - z_norm
        self.U.append(v)
        return self.U.apply_newest(y)


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

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-20, 1.0, 1e20, 1e160, 1e300])
    def test_skip_test_is_relative_to_the_query(self, scale, rng):
        # a query in general position takes its reflection at any scale, and
        # one whose leading 7-block is 1e-13 of its norm is skipped at any
        # scale; before the block was scaled by a power of two, 1e-200 was
        # skipped, 1e-160 raised and 1e160 overflowed
        inst = build_instance(9, 1.3, 1.0)
        x = scale * rng.standard_normal(9)
        oracle = _oracle_after(inst, x)
        assert (len(oracle.U), oracle.skipped) == (1, 0)
        assert containment_residuals(oracle)[1] <= invariants.ROTATION_TOL * _norms([x])[0]
        tail = np.zeros(9)
        tail[-2:] = scale
        tail[0] = 1e-13 * np.sqrt(2.0) * scale
        oracle = _oracle_after(inst, tail)
        assert (len(oracle.U), oracle.skipped) == (0, 1)

    def test_a_threshold_past_the_largest_double_skips(self):
        # a leading block of 1e-10 beside 1e300: ||x|| 2**-e is past the
        # largest double (an OverflowError that the CLI did not catch), so the
        # block is negligible and the step skipped, answering the base loss
        inst = build_instance(12, 1.3, 1.0)
        x = np.zeros(12)
        x[0], x[-1] = 1e-10, 1e300
        oracle = ResistingOracle(inst)
        oracle(np.zeros(12))
        resp = oracle(x)
        assert (len(oracle.U), oracle.skipped) == (0, 1)
        assert resp.value == loss(inst, x).value
        assert np.array_equal(resp.gradient, loss(inst, x).gradient)

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_a_zero_leading_block_skips_before_scaling(self, name, monkeypatch):
        # a leading block with no nonzero is skipped before it is scaled, as
        # the scaled test decided (e = 0, ||z|| = 0): U, the skips, the
        # points and every answer keep their bits, and the span methods never
        # scale a block
        T = 20
        inst = build_instance(4 * T + 2, 1.3, 1.0)
        runs = []
        for oracle in (ResistingOracle(inst), _ScaledTest(inst)):
            recording = _Recording(oracle)
            for _ in drive(name, recording, T):
                pass
            runs.append(recording)
        ours, ref = (r.oracle for r in runs)
        assert ours.skipped == ref.skipped and len(ours.U) == len(ref.U)
        assert np.array_equal(ours.U.V.view(np.int64), ref.U.V.view(np.int64))
        assert np.array_equal(ours.U.triangular.view(np.int64),
                              ref.U.triangular.view(np.int64))
        for (x, a), (y, b) in zip(*(r.log for r in runs)):
            assert np.array_equal(x, y) and a.value == b.value
            assert np.array_equal(a.gradient.view(np.int64), b.gradient.view(np.int64))
        scaled = []
        monkeypatch.setattr(resist, "_exponent", lambda z: scaled.append(z) or 0)
        _oracle_after(inst, *(x for x, _ in runs[0].log[1:]))
        assert (len(scaled) == 0) == (name != "denseprobe")

    def test_signed_zero_blocks_skip_as_the_scaled_test(self, rng):
        # a block of -0 and +0 entries has no nonzero: skipped by both tests
        inst = build_instance(11, 1.3, 1.0)
        x = np.zeros(11)
        x[:9:2] = -0.0
        x[-2:] = rng.standard_normal(2)
        for oracle in (_oracle_after(inst, x, x), _oracle_after(inst, x, x, oracle=_ScaledTest)):
            assert (len(oracle.U), oracle.skipped) == (0, 2)

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_norm_probe_is_relative_and_fails_closed(self, scale, rng):
        # a beta off by 1e-6 breaks ||U x|| = ||x|| by about 1e-6 of ||x||,
        # which the probe catches at every scale (an absolute floor hid it at
        # 1e-300), and a NaN in U raises there instead of answering
        inst = build_instance(10, 1.3, 1.0)
        oracle = _oracle_after(inst, scale * rng.standard_normal(10))
        oracle.U.triangular[0, 0] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="not orthogonal"):
            oracle(scale * rng.standard_normal(10))
        oracle = _oracle_after(inst, scale * rng.standard_normal(10))
        nan_in_v(oracle.U)
        # a reflecting step takes its vector from the NaN in U: ``append``
        # refuses it before U or the points change
        reflectors, placed = len(oracle.U), len(oracle.points)
        with pytest.raises(ValueError, match="invalid reflector"):
            oracle(scale * rng.standard_normal(10))
        assert (len(oracle.U), len(oracle.points)) == (reflectors, placed)
        # at the zero start no step reflects, and the probe raises
        oracle = ResistingOracle(inst)
        oracle.U.append(np.ones(10))
        nan_in_v(oracle.U)
        with pytest.raises(ValueError, match="not orthogonal"):
            oracle(np.zeros(10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
    def test_a_query_without_a_finite_norm_changes_nothing(self, bad, rng):
        # a NaN, an inf or a norm past the largest double raises, naming the
        # query, before the rotation sees it: U and the points stay as they
        # were, and a clean query is answered after it (a NaN query used to
        # leave a NaN reflector in U that failed every later query)
        inst = build_instance(9, 1.3, 1.0)
        for oracle in (_oracle_after(inst), _oracle_after(inst, rng.standard_normal(9))):
            reflectors, placed = len(oracle.U), len(oracle.points)
            query = np.ones(9)
            query[:1 if bad != 1e308 else 9] = bad
            with pytest.raises(ValueError, match=f"query {placed} has no finite norm"):
                oracle(query)
            assert (len(oracle.U), len(oracle.points)) == (reflectors, placed)
            resp = oracle(np.ones(9))
            assert np.isfinite(resp.value) and np.all(np.isfinite(resp.gradient))
            assert len(oracle.U) + oracle.skipped == len(oracle.points) - 1 == placed

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-155, 1e-20, 1.0, 1e20, 1e160, 1e300])
    def test_norm_at_any_scale(self, scale, rng):
        # bit for bit the norm of x scaled by a power of two, at every scale:
        # the unscaled sum is taken only where it is finite and at least
        # len(x) times the smallest normal number, so x is scaled near 1e-155,
        # where the squares are subnormal and their sum normal (and the
        # unscaled sum 4e-16 off)
        x = scale * rng.standard_normal(602)
        e = resist._exponent(x)
        scaled = np.ldexp(x, -e)
        ref = math.ldexp(math.sqrt(scaled @ scaled), e)
        assert resist._norm(x) == ref
        assert np.isnan(resist._norm(np.append(x, np.nan)))

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

    def test_resist_builds_no_dense_rotation(self, tmp_path, monkeypatch):
        # the libsvm export of A U and the rotation CSV read U a chunk of
        # rows at a time, and the orthogonality verdict measures the factors
        # (U was built three times, then twice)
        calls = []
        dense = Rotation.dense
        monkeypatch.setattr(Rotation, "dense", lambda U: calls.append(U.k) or dense(U))
        argv = ["resist", "--method", "denseprobe", "--T", "20", "--out", str(tmp_path),
                "--no-timestamp", "--strict"]
        assert main(argv) == 0
        assert calls == []

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


def _norms(points):
    """The norm of each point, each divided by its largest |entry| first, so
    that no square over- or underflows at scales up to 1e300."""
    points = np.asarray(points)
    top = np.max(np.abs(points), axis=1, keepdims=True)
    top[top == 0.0] = 1.0
    return top[:, 0] * np.linalg.norm(points / top, axis=1)


@st.composite
def _queries(draw):
    """k, then up to (k-3)/2 queries in general position, each scaled by
    10^e for its own e in [lo, hi], -300 <= lo <= hi <= 300."""
    k = draw(st.integers(7, 400))
    steps = draw(st.integers(0, (k - 3) // 2))
    lo = draw(st.floats(-300.0, 300.0))
    hi = draw(st.floats(lo, 300.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.uniform(lo, hi, size=(steps, 1))
    return k, rng.standard_normal((steps, k)) * scales


@st.composite
def _tiny_lead_queries(draw):
    """k, up to (k-3)/2 queries and which of them are tiny-led: a leading
    k-2 block of normal entries times 2^-p, p in [40, 700], beside a
    trailing pair of normal entries times 10^e, e in [-300, 300], the rest
    in general position as in ``_queries``."""
    k = draw(st.integers(7, 200))
    steps = draw(st.integers(0, (k - 3) // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tiny = draw(st.lists(st.booleans(), min_size=steps, max_size=steps))
    queries = rng.standard_normal((steps, k)) * 10.0 ** rng.uniform(-300, 300, (steps, 1))
    for x, small in zip(queries, tiny):
        if small:
            x[: k - 2] = np.ldexp(rng.standard_normal(k - 2), -int(rng.integers(40, 701)))
            x[k - 2 :] = rng.standard_normal(2) * 10.0 ** rng.uniform(-300, 300)
    return k, queries, tiny


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
        # a query in general position is never negligible next to itself, so
        # the relative skip test lets every step reflect, at every scale
        assert (len(oracle.U), oracle.skipped) == (len(queries), 0)
        rotated = RotatedInstance(inst, oracle.U)
        residual = invariants.rotation_orthogonal(rotated).measured["orthogonality_residual"]
        dense, bound = orthogonality_reference(oracle.U)
        assert residual <= invariants.ROTATION_TOL
        assert abs(residual - dense) <= bound
        # point i lies in its trap subspace to within ROTATION_TOL of its norm
        assert np.all(containment_residuals(oracle)
                      <= invariants.ROTATION_TOL * _norms(oracle.points))
        assert data_direction_residual(rotated) == 0.0


    @settings(max_examples=40, deadline=None)
    @given(case=_tiny_lead_queries())
    def test_tiny_leading_blocks(self, case):
        # a query whose leading k-2 coordinates are 2^-700 to 2^-40 beside a
        # trailing pair of norm 1e-300 to 1e300, amid queries in general
        # position: each step reflects or is skipped, without overflow (the
        # threshold ||x|| 2**-e passes the largest double below about
        # 2^-1024 of ||x||), a block under half of TIE_BREAK of ||x|| is
        # always skipped, a query in general position always reflects, and
        # the invariants hold as in test_invariants_hold
        k, queries, tiny = case
        inst = build_instance(k, 1.3, 1.0)
        oracle = _oracle_after(inst)
        lead = _norms([np.append(x[: k - 2], 0.0) for x in queries]) if len(queries) else []
        for x, small, block, norm in zip(queries, tiny, lead, _norms(queries)):
            reflections = len(oracle.U)
            oracle(x)
            if not small:
                assert len(oracle.U) == reflections + 1
            elif block <= 0.5 * resist.TIE_BREAK * norm:
                assert len(oracle.U) == reflections
        assert len(oracle.U) + oracle.skipped == len(queries)
        rotated = RotatedInstance(inst, oracle.U)
        residual = invariants.rotation_orthogonal(rotated).measured["orthogonality_residual"]
        assert residual <= invariants.ROTATION_TOL
        assert np.all(containment_residuals(oracle)
                      <= invariants.ROTATION_TOL * _norms(oracle.points))
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


    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(ALL_METHODS),
           ratio=st.floats(1.0, 1e4, exclude_min=True),
           log_zeta=st.floats(-8.0, 8.0), T=st.integers(1, 12), p=st.integers(40, 700))
    def test_replay_with_tiny_leading_blocks(self, name, ratio, log_zeta, T, p):
        # each method queries x + 2^-p max|x| e_1: a leading block below
        # TIE_BREAK of ||x||, the only leading entry of a span method's
        # query, so those skip every step; the replay still reproduces the run
        zeta = 10.0 ** log_zeta
        inst = build_instance(4 * T + 2, ratio * zeta, zeta)
        steps = optimizers.iterate_steps

        def tiny_led(method, ask, k, step):
            def led(x):
                y = np.array(x, dtype=float)
                y[0] += math.ldexp(float(np.max(np.abs(y), initial=0.0)), -p)
                return ask(y)
            return steps(method, led, k, step)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimizers, "iterate_steps", tiny_led)
            _, deviation, _, oracle = adversarial_run(name, inst, T, profile(inst).x_star)
        assert invariants.replay_matches(deviation).passed
        assert len(oracle.U) + oracle.skipped == T
        if name != "denseprobe":
            assert len(oracle.U) == 0
        assert all(x[0] != 0.0 for x in oracle.points[1:-1])
        norms = np.linalg.norm(oracle.points, axis=1)
        assert np.all(containment_residuals(oracle) <= invariants.ROTATION_TOL * norms)


@st.composite
def _programs(draw):
    """A deterministic first-order method that no test names, as (program,
    directions): iterations of 1 to 3 queries, then the point it reports.
    Each query, with indices and coefficients in [-1/2, 1/2] drawn once, is
    an exact repeat of an earlier query q_i, or a q_i + b g_j / L from
    before its iteration (g_j the answer at q_j), alone or plus one of n
    unit directions d fixed in advance (n queries), which leave every span
    until asked: c d, or 2^-p max|x| d with p in [20, 80], a leading block
    on either side of TIE_BREAK of ||x||."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 1 + sum(sizes)
    directions = rng.standard_normal((n, 2 * n + 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    program, seen = [], 1
    for size in sizes + [1]:
        kinds = draw(st.lists(st.sampled_from(["repeat", "span", "open", "tiny"]),
                              min_size=size, max_size=size))
        program.append([(kind, *rng.integers(seen, size=2).tolist(), int(rng.integers(n)),
                         *rng.uniform(-0.5, 0.5, 3).tolist(), draw(st.integers(20, 80)))
                        for kind in kinds])
        seen += size
    return program, directions


def _run_program(program, directions, oracle):
    """The queries ``program`` asks ``oracle``, the zero start first, and
    the point it reports."""
    queries = [np.zeros(oracle.k)]
    grads, step = [oracle(queries[0]).gradient], 1.0 / oracle.lipschitz
    for specs in program:
        points = []
        for kind, i, j, r, a, b, c, p in specs:
            x = queries[i] if kind == "repeat" else a * queries[i] + b * step * grads[j]
            if kind in ("open", "tiny"):
                scale = c if kind == "open" else math.ldexp(np.max(np.abs(x)), -p)
                x = x + scale * directions[r]
            points.append(x)
        if specs is program[-1]:
            return queries, points[0]
        queries += points
        grads += [oracle(x).gradient for x in points]


class TestUnseenMethods:
    """Any deterministic first-order method is trapped, not only the named
    ones: on k = 2 (queries) + 3 the frozen U is orthogonal and fixes the
    label direction, every placed point lies in its trap subspace, and the
    program replayed on the frozen instance asks at the placed points and
    reports the placed x_T."""

    @settings(max_examples=60, deadline=None)
    @given(case=_programs())
    def test_programs_are_trapped(self, case):
        program, directions = case
        oracle = ResistingOracle(build_instance(directions.shape[1], 1.3, 1.0))
        queries, x = _run_program(program, directions, oracle)
        final = oracle.finalize(x)
        assert len(oracle.points) == len(queries) + 1 == (final.k - 1) // 2
        assert len(oracle.U) + oracle.skipped == len(queries)
        for check in (invariants.rotation_orthogonal, invariants.data_direction_fixed):
            assert all(c.passed for c in check(final).checks)
        assert np.all(containment_residuals(oracle)
                      <= resist.ORTHOGONALITY_TOL * _norms(oracle.points))
        replayed, x_replayed = _run_program(program, directions, FirstOrderOracle(final))
        deviation = float(np.max(np.abs(np.array([*replayed, x_replayed]) - oracle.points)))
        assert invariants.replay_matches(deviation).passed


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

    @pytest.mark.parametrize("T", [2, 5, 130])
    def test_replay_is_exact_at_the_extreme_corner(self, T):
        # sigma/zeta = 3901, zeta = 1e3: the replay asks each placed point
        # bit for bit.  A replay that answered the placed points by stacked
        # GEMMs read 1.2e-8, 9.7e-8 and 1.7e-2 here, past REPLAY_TOL
        inst = build_instance(4 * T + 2, 3.901e6, 1e3)
        _, deviation, _, oracle = adversarial_run("denseprobe", inst, T, profile(inst).x_star)
        assert deviation == 0.0
        assert len(oracle.U) + oracle.skipped == T

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

    def test_no_placed_points_reads_inf(self):
        # with no point placed there is no x_T to compare: inf, not an IndexError
        _, _, final, _ = adversarial("gd", 3)
        trace, deviation = replay_check("gd", final, 3, [], np.zeros(final.k))
        assert len(trace) == 3 + 1
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
    save_matrix_csv(final.U, path)
    loaded = np.loadtxt(path, delimiter=",")
    assert np.array_equal(loaded, final.U.dense())


def _write_rows(blocks, path):
    """``resist._write_rows`` of the 2-D row ``blocks`` into the file at
    ``path``, each row ended by a newline, as ``np.savetxt`` ends it."""
    with open(path, "w") as fh:
        resist._write_rows(fh, blocks, "\n")


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
    # the row writer takes any rows, a dense U's among them
    ours, reference = tmp_path / "ours.csv", tmp_path / "savetxt.csv"
    _write_rows([matrix], ours)
    np.savetxt(reference, matrix, fmt="%.17g", delimiter=",")
    assert ours.read_bytes() == reference.read_bytes()


_NAN_A, _NAN_B = np.array([0x7FF8000000000001, 0x7FF8000000000002], dtype=np.uint64).view(float)


@pytest.mark.parametrize("rows", [
    # identity rows, a "0" and a "1" swapping at the first and last cells
    [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]],
    # same-length changes: digits, NaN payloads, inf to nan, -0 to -1
    [[1.0, _NAN_A, -0.0, np.inf], [2.0, _NAN_B, -1.0, np.nan], [3.0, _NAN_A, -2.0, -np.inf]],
    # cells that keep their lengths, cells that change them (-0 after +0,
    # 0.5 after 1), then cells that keep them on the line that changed
    [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [-0.0, 0.5, 0.0], [-1.0, 0.5, 2.0], [-1.0, 0.25, 3.0]],
    # one changed cell keeps its length and one does not
    [[1.0, 2.0, 3.0], [4.0, 2.0, 3.5], [4.0, 7.0, 3.25]],
    # rows new in every cell between partly changed ones, and repeated rows
    [[0.0, 0.0], [0.0, 0.0], [1.0, 2.0], [1.0, 3.0], [5e-324, 1.7976931348623157e308],
     [1.7976931348623157e308, 5e-324]],
], ids=["identity", "same-length", "splice-join-splice", "mixed-lengths", "templates"])
def test_save_matrix_csv_splices_same_length_cells(rows, tmp_path):
    # rows whose changed cells keep their text lengths, rows whose cells
    # change length, and mixes: each line is the one np.savetxt writes,
    # from one block or from one-row blocks
    matrix = np.array(rows)
    reference = tmp_path / "savetxt.csv"
    np.savetxt(reference, matrix, fmt="%.17g", delimiter=",")
    for blocks in ([matrix], [row[None] for row in matrix]):
        _write_rows(blocks, tmp_path / "ours.csv")
        assert (tmp_path / "ours.csv").read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("name", ALL_METHODS)
@pytest.mark.parametrize("T", [1, 2, 10, 130, 150])
def test_resist_writes_the_dense_rotation_and_dataset(name, T, tmp_path):
    # resist's two artifacts, byte for byte: the libsvm text of the dense
    # rows of A U and np.savetxt's text of the dense U, whether the run
    # reflected (denseprobe) or not (U = I for the span methods)
    assert main(["resist", "--method", name, "--T", str(T), "--out", str(tmp_path),
                 "--no-timestamp"]) == 0
    _, _, final, oracle = adversarial(name, T)
    assert (len(oracle.U) > 0) == (name == "denseprobe")
    stem = f"resist_{name}_T{T}"
    U = final.U.dense()
    reference = tmp_path / "savetxt.csv"
    np.savetxt(reference, U, fmt="%.17g", delimiter=",")
    assert (tmp_path / f"rotation_{stem}.csv").read_bytes() == reference.read_bytes()
    assert (tmp_path / f"dataset_{stem}.libsvm").read_text() == libsvm_text(final)


# +-0, two NaN payloads (one negative), +-inf, the smallest subnormal and the
# largest double: cells whose bits differ although some print alike
_SPECIAL = np.concatenate((
    [0.0, -0.0, np.inf, -np.inf, 5e-324, 1.7976931348623157e308],
    np.array([0x7FF8000000000001, 0xFFF8000000000002], dtype=np.uint64).view(float),
))


@st.composite
def _csv_matrices(draw):
    """A 1x1 to 40x40 matrix whose rows repeat cells from a small pool, are
    random over 10^[-300, 300], equal the row above or change part of it;
    or the dense U of a ``Rotation`` after 0 to 4 random reflectors."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 40))
    if draw(st.booleans()):
        U = Rotation(k)
        for _ in range(draw(st.integers(0, 4))):
            U.append(rng.standard_normal(draw(st.integers(1, k))))
        return U.dense()
    pool = np.concatenate((_SPECIAL, rng.standard_normal(3)))
    rows = [rng.choice(pool, k)]
    for kind in draw(st.lists(st.sampled_from(["pool", "random", "same", "part"]),
                              max_size=39)):
        row = rows[-1].copy()
        if kind == "pool":
            row = rng.choice(pool, k)
        elif kind == "random":
            row = rng.standard_normal(k) * 10.0 ** rng.uniform(-300, 300, k)
        elif kind == "part":
            cols = rng.random(k) < rng.random()
            row[cols] = rng.choice(pool, np.count_nonzero(cols))
        rows.append(row)
    return np.array(rows)


@settings(max_examples=150, deadline=None)
@given(matrix=_csv_matrices())
def test_save_matrix_csv_is_savetxt_on_any_rows(matrix, tmp_path_factory):
    # cells are formatted only where their bits change from the row above
    # (so -0 after +0 and a new NaN payload are new cells), and every line
    # is still the one np.savetxt writes
    out = tmp_path_factory.mktemp("csv")
    ours, reference = out / "ours.csv", out / "savetxt.csv"
    _write_rows([matrix], ours)
    np.savetxt(reference, matrix, fmt="%.17g", delimiter=",")
    assert ours.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("lengths", [(), (13,), (10, 8, 3), (13, 12, 1)])
def test_save_matrix_csv_reads_a_rotation_by_row_blocks(lengths, tmp_path, monkeypatch):
    # a Rotation is written from its row blocks, three rows at a time and a
    # last block of one row, as np.savetxt writes its U, which is not built
    k = 13
    U = Rotation(k)
    rng = np.random.default_rng(len(lengths))
    for m in lengths:
        U.append(rng.standard_normal(m))
    reference = tmp_path / "savetxt.csv"
    np.savetxt(reference, U.dense(), fmt="%.17g", delimiter=",")

    def no_dense(_):
        raise AssertionError("save_matrix_csv built U")

    monkeypatch.setattr(Rotation, "dense", no_dense)
    monkeypatch.setattr(datasets, "CHUNK_CELLS", 3 * k)
    save_matrix_csv(U, tmp_path / "ours.csv")
    assert (tmp_path / "ours.csv").read_bytes() == reference.read_bytes()


@st.composite
def _rotations(draw):
    """A ``Rotation`` of dimension 1 to 40 after 0 to 4 reflectors of any
    length 1 to k (k leaves no zero tail): random, random with trailing
    zeros (U's support ends before the reflector does), or equal in every
    coefficient but the last, as denseprobe's are."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 40))
    U = Rotation(k)
    for _ in range(draw(st.integers(0, 4))):
        m = draw(st.integers(1, k))
        v = rng.standard_normal(m)
        kind = draw(st.sampled_from(["random", "zero-tail", "equal"]))
        if kind == "zero-tail":
            v[draw(st.integers(1, m)):] = 0.0
        elif kind == "equal":
            v[:-1] = v[0]
        U.append(v)
    return U


@settings(max_examples=150, deadline=None)
@given(U=_rotations())
def test_save_matrix_csv_is_savetxt_on_any_rotation(U, tmp_path_factory):
    # the leading block from row_blocks, its zero tail and the identity rows
    # past U's support are the bytes np.savetxt writes of the dense U
    out = tmp_path_factory.mktemp("rotation")
    ours, reference = out / "ours.csv", out / "savetxt.csv"
    save_matrix_csv(U, ours)
    np.savetxt(reference, U.dense(), fmt="%.17g", delimiter=",")
    assert ours.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("k", [1, 2, 602])
def test_save_matrix_csv_writes_the_identity_without_row_blocks(k, tmp_path, monkeypatch):
    # a U with no reflector is the identity, every row one template: no
    # row of U is computed
    reference = tmp_path / "savetxt.csv"
    np.savetxt(reference, np.eye(k), fmt="%.17g", delimiter=",")

    def no_rows(*_):
        raise AssertionError("save_matrix_csv computed rows of U")

    monkeypatch.setattr(Rotation, "row_blocks", no_rows)
    save_matrix_csv(Rotation(k), tmp_path / "ours.csv")
    assert (tmp_path / "ours.csv").read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("kind", ["dense", "identity"])
def test_save_matrix_csv_holds_one_row_at_a_time(kind, tmp_path):
    # the writers keep one row's cells and lines, never a mask of all rows
    # or the list of all lines: at k = 1602 each peaks below k * 256 bytes,
    # save_matrix_csv on the identity and the row writer on 320 all-distinct
    # rows, whose bool mask alone would be 1.25 times that (all 1602 rows
    # take 14 s under tracemalloc)
    k = 1602
    rng = np.random.default_rng(4)
    matrix = None if kind == "identity" else rng.standard_normal((320, k))
    tracemalloc.start()
    try:
        if matrix is None:
            save_matrix_csv(Rotation(k), tmp_path / "matrix.csv")
        else:
            _write_rows([matrix], tmp_path / "matrix.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k * 256
    with open(tmp_path / "matrix.csv") as fh:
        assert sum(1 for _ in fh) == (k if matrix is None else len(matrix))
