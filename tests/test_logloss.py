import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardlogit import (
    FirstOrderOracle,
    RotatedInstance,
    build_instance,
    h_grad,
    h_value,
    lipschitz,
    loss,
    phi,
    profile,
    run,
)
from conftest import (
    central_diff_grad,
    dense_ab,
    logistic_form,
    naive_h,
    random_orthogonal,
    rotated_ab,
)

LOG2 = np.log(2.0)


class TestHValue:
    def test_zero(self):
        assert abs(h_value(np.array([0.0])) - 2 * LOG2) <= 1e-15

    def test_huge_argument_no_overflow(self):
        assert h_value(np.array([1e6])) == 1e6

    def test_matches_naive_formula(self, rng):
        assert np.isclose(
            h_value(np.array([1.0, -1.0])),
            2 * (2 * np.log(2 * np.cosh(0.5))),
            rtol=1e-14,
        )
        for _ in range(50):
            u = rng.uniform(-5, 5, size=rng.integers(1, 12))
            assert np.isclose(h_value(u), naive_h(u), rtol=1e-12)

    def test_even_and_minimized_at_zero(self, rng):
        for _ in range(20):
            u = rng.standard_normal(6)
            assert h_value(u) == h_value(-u)
            assert h_value(u) >= 6 * 2 * LOG2
        assert h_value(np.zeros(6)) == pytest.approx(12 * LOG2, rel=1e-15)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            h_value(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="finite"):
            h_grad(np.array([np.inf]))


class TestHGrad:
    def test_zero(self):
        assert np.array_equal(h_grad(np.zeros(4)), np.zeros(4))

    def test_atanh_identity(self):
        u = np.array([2.0 * np.arctanh(0.5)])
        assert np.allclose(h_grad(u), [0.5], rtol=1e-14)

    def test_odd_and_bounded(self, rng):
        u = rng.standard_normal(30) * 3
        g = h_grad(u)
        assert np.array_equal(h_grad(-u), -g)
        assert np.all(np.abs(g) < 1.0)

    def test_matches_finite_differences(self, rng):
        u = rng.standard_normal(9)
        fd = central_diff_grad(lambda v: h_value(v), u, step=1e-6)
        assert np.max(np.abs(fd - h_grad(u))) <= 1e-7


class TestLoss:
    def test_at_zero(self):
        sigma, zeta, k = 1.3, 1.0, 5
        inst = build_instance(k, sigma, zeta)
        resp = loss(inst, np.zeros(k))
        assert resp.value == pytest.approx(2 * inst.n_rows * LOG2, rel=1e-14)
        expected = np.zeros(k)
        expected[-1] = -4.0 * (sigma - zeta)
        assert np.max(np.abs(resp.gradient - expected)) <= 1e-14

    def test_gradient_vanishes_at_optimum(self):
        inst = build_instance(5, 1.3, 1.0)
        prof = profile(inst)
        assert np.max(np.abs(loss(inst, prof.x_star).gradient)) <= 1e-9

    def test_matches_logistic_form(self, rng):
        # the h-based form and the log1p margin form agree on ~1000 points
        for k in range(1, 33):
            inst = build_instance(k, 1.3, 1.0)
            A, b = dense_ab(k, 1.3, 1.0)
            for _ in range(32):
                x = rng.standard_normal(k) * rng.uniform(0.1, 3.0)
                ref = logistic_form(A, b, x)
                assert np.isclose(loss(inst, x).value, ref, rtol=1e-10)

    def test_gradient_matches_finite_differences(self, rng):
        for k in (1, 6, 11):
            inst = build_instance(k, 1.3, 1.0)
            for _ in range(5):
                x = rng.standard_normal(k)
                fd = central_diff_grad(lambda v: loss(inst, v).value, x)
                assert np.max(np.abs(fd - loss(inst, x).gradient)) <= 1e-6

    def test_two_block_gradient_matches_dense(self, rng):
        inst = build_instance(5, 1.4, 1.0, "twoblock")
        A, b = dense_ab(5, 1.4, 1.0, "twoblock")
        x = rng.standard_normal(5)
        ref = A.T @ (np.tanh(A @ x / 2.0) - b)
        assert np.allclose(loss(inst, x).gradient, ref, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        inst = build_instance(3, 1.3, 1.0)
        rotated = RotatedInstance(inst, random_orthogonal(3, seed=1))
        for x in (np.ones(4), np.ones((3, 2)), np.float64(1.0)):
            for target in (inst, rotated):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    loss(target, x)

    def test_stable_for_huge_iterates(self, rng):
        for sigma, zeta in ((1.3, 1.0), (10.0, 9.0)):
            inst = build_instance(8, sigma, zeta)
            x = rng.standard_normal(8)
            x *= 1e8 / np.linalg.norm(x)
            resp = loss(inst, x)
            assert np.isfinite(resp.value)
            assert np.all(np.isfinite(resp.gradient))

    def test_convexity_probe(self, rng):
        inst = build_instance(7, 1.3, 1.0)
        for _ in range(40):
            x = rng.standard_normal(7)
            y = rng.standard_normal(7)
            lam = rng.uniform()
            mix = loss(inst, lam * x + (1 - lam) * y).value
            chord = lam * loss(inst, x).value + (1 - lam) * loss(inst, y).value
            assert mix <= chord + 1e-10


def _dense_loss(A, b, x):
    """The N-row form: value h(Ax) - b'Ax and gradient A'(tanh(Ax/2) - b),
    plus the magnitude of their terms (the scale of their rounding)."""
    u = A @ x
    a = np.abs(u)
    h_terms = a + 2.0 * np.log1p(np.exp(-a))
    t = np.tanh(0.5 * u)
    value = float(np.sum(h_terms) - b @ u)
    gradient = A.T @ (t - b)
    value_scale = float(np.sum(h_terms) + np.abs(b) @ a)
    grad_scale = float(np.max(np.abs(A).T @ (np.abs(t) + np.abs(b))))
    return value, gradient, value_scale, grad_scale


VARIANTS = ("fourblock", "twoblock")
SCALES = (1e-8, 1.0, 1e8)


class TestBlockKernel:
    """``loss`` evaluates once per distinct |s| on w = Wx; every check here
    compares with the straightforward form over all N stacked rows."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("scale", SCALES)
    def test_matches_dense_rows(self, variant, scale, rng):
        sigma, zeta = 1.3 * scale, scale
        for k in (1, 2, 7, 50, 200):
            inst = build_instance(k, sigma, zeta, variant)
            A, b = dense_ab(k, sigma, zeta, variant)
            for _ in range(4):
                x = rng.standard_normal(k) * rng.uniform(0.1, 3.0)
                value, gradient, _, _ = _dense_loss(A, b, x)
                resp = loss(inst, x)
                assert abs(resp.value - value) <= 1e-12 * abs(value)
                assert np.max(np.abs(resp.gradient - gradient)) <= (
                    1e-12 * np.max(np.abs(gradient))
                )

    @pytest.mark.parametrize("scale", SCALES)
    def test_rotated_matches_dense_rows(self, scale, rng):
        sigma, zeta = 1.3 * scale, scale
        for k in (1, 2, 7, 50):
            U = random_orthogonal(k, seed=k)
            inst = RotatedInstance(build_instance(k, sigma, zeta), U)
            A, b = rotated_ab(U, sigma, zeta)
            for _ in range(4):
                x = rng.standard_normal(k) * rng.uniform(0.1, 3.0)
                value, gradient, _, _ = _dense_loss(A, b, x)
                resp = loss(inst, x)
                assert abs(resp.value - value) <= 1e-12 * abs(value)
                assert np.max(np.abs(resp.gradient - gradient)) <= (
                    1e-12 * np.max(np.abs(gradient))
                )

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("scale", SCALES)
    def test_exact_zero_chain(self, variant, scale, rng):
        # x on the trailing t coordinates: w = Wx vanishes below row t, so
        # the gradient is exactly 0 on the leading k-t-1 coordinates
        for k in (2, 3, 9, 40):
            inst = build_instance(k, 1.3 * scale, scale, variant)
            for t in range(1, k):
                x = np.zeros(k)
                x[k - t:] = rng.standard_normal(t) * rng.uniform(0.1, 1e3)
                g = loss(inst, x).gradient
                assert np.all(g[: k - t - 1] == 0.0)
                if t < k - 1:
                    assert g[k - t - 1] != 0.0  # the chain advances one step

    def test_non_finite_input_rejected(self):
        inst = build_instance(5, 1.3, 1.0)
        rotated = RotatedInstance(inst, random_orthogonal(5, seed=3))
        nan = np.array([0.0, 1.0, np.nan, 0.0, 0.0])
        overflow = np.zeros(5)
        overflow[0] = 1e308  # w = Wx is finite, 2*sigma*w is not
        with np.errstate(over="ignore", invalid="ignore"):
            for target in (inst, rotated):
                with pytest.raises(ValueError, match="finite"):
                    loss(target, nan)
            with pytest.raises(ValueError, match="finite"):
                loss(inst, overflow)
            with pytest.raises(ValueError, match="finite"):
                loss(inst, np.full(5, np.inf))


@settings(max_examples=60, deadline=None)
@given(
    ratio=st.floats(1.0, 1e4, exclude_min=True),
    log_scale=st.floats(-8.0, 8.0),
    k=st.integers(1, 300),
    variant=st.sampled_from(VARIANTS),
    rotated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@pytest.mark.filterwarnings("ignore:sigma=.*bracket is undefined:UserWarning")
def test_kernel_property_sweep(ratio, log_scale, k, variant, rotated, seed):
    """Value and gradient within 1e-12 of the N-row form, relative to the
    magnitude of their terms: at sigma/zeta near 1e4 the value h(Ax) - b'Ax
    cancels up to 1e4-fold, whatever the evaluation order."""
    zeta = 10.0**log_scale
    sigma = ratio * zeta
    rng = np.random.default_rng(seed)
    inst = build_instance(k, sigma, zeta, variant)
    A, b = dense_ab(k, sigma, zeta, variant)
    if rotated:
        U = random_orthogonal(k, seed=seed)
        inst = RotatedInstance(inst, U)
        A = A @ U
    x = rng.standard_normal(k) * 10.0 ** rng.uniform(-3, 3)
    value, gradient, value_scale, grad_scale = _dense_loss(A, b, x)
    resp = loss(inst, x)
    assert abs(resp.value - value) <= 1e-12 * value_scale
    assert np.max(np.abs(resp.gradient - gradient)) <= 1e-12 * grad_scale


class TestPhi:
    def test_zero_point(self):
        inst = build_instance(4, 1.3, 1.0)
        value, grad_x, grad_y = phi(inst, np.zeros(4), 0.0)
        assert value == pytest.approx(2 * inst.n_rows * LOG2, rel=1e-14)

    def test_intercept_derivative_vanishes_at_optimum(self):
        inst = build_instance(6, 1.3, 1.0)
        prof = profile(inst)
        _, grad_x, grad_y = phi(inst, prof.x_star, 0.0)
        assert abs(grad_y) <= 1e-9
        assert np.max(np.abs(grad_x)) <= 1e-9

    def test_matches_finite_differences(self, rng):
        inst = build_instance(4, 1.3, 1.0)
        x = rng.standard_normal(4)
        y = rng.standard_normal()
        fd_x = central_diff_grad(lambda v: phi(inst, v, y)[0], x)
        _, grad_x, grad_y = phi(inst, x, y)
        assert np.max(np.abs(fd_x - grad_x)) <= 1e-7
        step = 1e-6
        fd_y = (phi(inst, x, y + step)[0] - phi(inst, x, y - step)[0]) / (2 * step)
        assert abs(fd_y - grad_y) <= 1e-7

    def test_two_block_unsupported(self):
        inst = build_instance(3, 1.3, 1.0, "twoblock")
        with pytest.raises(ValueError, match="unsupported variant"):
            phi(inst, np.zeros(3), 0.0)


class TestLipschitz:
    def test_k1_closed_form(self):
        sigma, zeta = 1.3, 1.0
        inst = build_instance(1, sigma, zeta)
        assert lipschitz(inst) == pytest.approx(4 * (sigma**2 + zeta**2), rel=1e-12)

    def test_bounded_by_norm_bound(self):
        for k in (2, 9, 40):
            sigma, zeta = 1.3, 1.0
            inst = build_instance(k, sigma, zeta)
            assert lipschitz(inst) <= 16 * (sigma**2 + zeta**2) + 1e-8

    def test_gd_step_descends(self):
        inst = build_instance(10, 1.3, 1.0)
        trace = run("gd", FirstOrderOracle(inst), 200)
        assert np.all(np.diff(trace.values) <= 1e-12)


class TestOracle:
    def test_purity_bit_identical(self, rng):
        inst = build_instance(6, 1.3, 1.0)
        oracle = FirstOrderOracle(inst)
        x = rng.standard_normal(6)
        r1 = oracle(x)
        r2 = oracle(x)
        assert r1.value == r2.value
        assert np.array_equal(r1.gradient, r2.gradient)

    def test_oracle_exposes_dimension_only(self):
        inst = build_instance(4, 1.3, 1.0)
        oracle = FirstOrderOracle(inst)
        assert oracle.k == 4
