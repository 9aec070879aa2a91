import dataclasses
import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardlogit import (
    FirstOrderOracle,
    RotatedInstance,
    Rotation,
    build_instance,
    invariants,
    lipschitz,
    logloss,
    loss,
    profile,
    run,
)
from hardlogit.logloss import loss_gradient, loss_value
from conftest import (
    central_diff_grad,
    dense_ab,
    logistic_form,
    random_orthogonal,
    rotated_ab,
)

LOG2 = np.log(2.0)


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
            A, b = rotated_ab(U.dense(), sigma, zeta)
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
        A = A @ U.dense()
    x = rng.standard_normal(k) * 10.0 ** rng.uniform(-3, 3)
    value, gradient, value_scale, grad_scale = _dense_loss(A, b, x)
    resp = loss(inst, x)
    assert abs(resp.value - value) <= 1e-12 * value_scale
    assert np.max(np.abs(resp.gradient - gradient)) <= 1e-12 * grad_scale


@st.composite
def _stacks(draw):
    """(instance, stack of m points): k up to 300, m up to 20, each row its
    own scale between 1e-8 and 1e8."""
    k = draw(st.integers(1, 300))
    m = draw(st.integers(1, 20))
    variant = draw(st.sampled_from(VARIANTS))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    inst = build_instance(k, 1.3, 1.0, variant)
    X = rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-8, 8, size=(m, 1))
    return inst, X, seed


class TestStackedLoss:
    """``loss`` on an (m, k) stack answers each row as the single-point call."""

    @settings(max_examples=60, deadline=None)
    @given(case=_stacks())
    def test_base_rows_are_the_single_point_calls(self, case):
        inst, X, _ = case
        resp = loss(inst, X)
        assert resp.value.shape == (len(X),) and resp.gradient.shape == X.shape
        for row, value, gradient in zip(X, resp.value, resp.gradient):
            single = loss(inst, row)
            assert value == single.value  # bit for bit
            assert np.array_equal(gradient, single.gradient)

    @settings(max_examples=40, deadline=None)
    @given(case=_stacks())
    def test_rotated_rows_match_the_single_point_calls(self, case):
        # U x and U'g of a stack go through GEMMs, a single point's through
        # GEMVs: the same WY formulas summed in another order.  Each sum has at
        # most k + 2j terms (x V' over k, then T and V over j), so the computed
        # U x is off by at most (k + 2j) u (|x| + |V'||T||V| |x|) entrywise in
        # either evaluation; the kernel turns that into the same multiple of
        # the magnitude of its terms (``_dense_loss``'s scales)
        base, X, seed = case
        k = base.k
        U = random_orthogonal(k, seed=seed)
        inst = RotatedInstance(base, U)
        wy = np.abs(U.V.T) @ np.abs(U.triangular) @ np.abs(U.V)
        tol = (k + 2 * len(U)) * np.finfo(float).eps / 2 * (1.0 + np.max(wy.sum(axis=1)))
        A, b = dense_ab(k, base.sigma, base.zeta, base.variant)
        A = A @ U.dense()
        resp = loss(inst, X)
        for row, value, gradient in zip(X, resp.value, resp.gradient):
            single = loss(inst, row)
            _, _, value_scale, grad_scale = _dense_loss(A, b, row)
            assert abs(value - single.value) <= tol * value_scale
            assert np.max(np.abs(gradient - single.gradient)) <= tol * grad_scale

    def test_one_non_finite_row_raises(self):
        inst = build_instance(6, 1.3, 1.0)
        rotated = RotatedInstance(inst, random_orthogonal(6, seed=4))
        X = np.ones((5, 6))
        overflow = X.copy()
        overflow[3, 0] = 1e308  # finite row, 2*sigma*Wx is not
        X[2, 4] = np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            for target in (inst, rotated):
                with pytest.raises(ValueError, match="finite"):
                    loss(target, X)
            with pytest.raises(ValueError, match="finite"):
                loss(inst, overflow)

    def test_wrong_trailing_dimension_raises(self):
        inst = build_instance(4, 1.3, 1.0)
        rotated = RotatedInstance(inst, random_orthogonal(4, seed=1))
        for X in (np.ones((3, 5)), np.ones((4, 3)), np.ones((2, 3, 4))):
            for target in (inst, rotated):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    loss(target, X)


@functools.lru_cache(maxsize=16)
def _reference_magnitudes(scales: tuple, labels: tuple) -> tuple[np.ndarray, np.ndarray, float]:
    """The distinct |s| of the blocks, how many blocks share each (both
    read-only) and the drift sum_i s_i*l_i; cached, since every loss call
    of an instance asks for the same."""
    groups = {}  # |s| -> number of blocks with that magnitude
    for s in scales:
        groups[abs(s)] = groups.get(abs(s), 0) + 1
    mags = np.array(list(groups))
    mult = np.array(list(groups.values()), dtype=float)
    mags.flags.writeable = mult.flags.writeable = False
    return mags, mult, sum(s * lab for s, lab in zip(scales, labels))


def _reference_block_loss(inst, x: np.ndarray):
    """The kernel as first written, with ``@``, ``np.sum`` and ``einsum`` over
    one (distinct |s|) x k array per point: the bits ``loss`` must keep."""
    # W is symmetric, so W x for each row x is W applied along the last axis
    w = np.ascontiguousarray(inst.w.apply(x.T).T)
    mags, mult, drift = _reference_magnitudes(inst.block_scales, inst.block_labels)
    z = mags[:, None] * w[..., None, :]  # |s| * Wx, one row per magnitude
    a = np.abs(z)
    value = np.sum(a + 2.0 * np.log1p(np.exp(-a)), axis=-1) @ mult
    value = value - drift * np.sum(w, axis=-1)
    if not np.isfinite(value).all():  # a non-finite |s|*w makes the h sum non-finite
        raise ValueError("block margins |s|*Wx must be finite")
    # einsum, not a BLAS gemv: a gemv here raised the race benchmark's peak
    # memory by 1.9 MB in six of ten runs
    combined = np.einsum("i,...ij->...j", mult * mags, np.tanh(0.5 * z))
    gradient = inst.w.apply((combined - drift).T).T
    return value, gradient


def _reference_loss(inst, x: np.ndarray):
    if isinstance(inst, RotatedInstance):
        value, gradient = _reference_block_loss(inst, inst.U.apply(x))
        return value, inst.U.apply_t(gradient)
    return _reference_block_loss(inst, x)


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def _kernel_case(k, ratio, log_zeta, variant, reflectors, m, seed):
    """(instance, point or stack): zeta = 10^log_zeta and sigma = ratio*zeta,
    rotated by ``reflectors`` reflectors on leading blocks of random length,
    and a point (m = 0) or a stack of m rows, each row scaled by its own
    10^e for e in [-8, 8]."""
    zeta = 10.0**log_zeta
    inst = build_instance(k, ratio * zeta, zeta, variant)
    rng = np.random.default_rng(seed)
    if reflectors:
        U = Rotation(k)
        for _ in range(reflectors):
            U.append(rng.standard_normal(int(rng.integers(1, k + 1))))
        inst = RotatedInstance(inst, U)
    shape = (k,) if m == 0 else (m, k)
    return inst, rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, size=shape[:-1] + (1,))


def _assert_reference_bits(inst, x):
    # loss, and each of loss_value and loss_gradient alone, keep the bits
    resp = loss(inst, x)
    value, gradient = _reference_loss(inst, x)
    for got in (resp.value, loss_value(inst, x)):
        if x.ndim == 1:
            assert type(got) is float
            assert got.hex() == float(value).hex()
        else:
            assert got.shape == (len(x),)
            assert np.array_equal(_bits(got), _bits(value))
    for got in (resp.gradient, loss_gradient(inst, x)):
        assert got.shape == gradient.shape == x.shape
        assert np.array_equal(_bits(got), _bits(gradient))


class TestKernelBits:
    """``loss``, ``loss_value`` and ``loss_gradient`` keep the bits of the
    kernel as first written (kept above as ``_reference_block_loss``): every
    ufunc sees the same operands in the same order, whatever the numpy calls
    that carry them.  Cases span k from 1 to 1200, both variants, sigma/zeta
    in (1, 1e4], base instances and ones rotated by 1 and 3 reflectors,
    points and stacks of 1 to 20."""

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(1, 1200),
        ratio=st.floats(1.0, 1e4, exclude_min=True),
        log_zeta=st.floats(-3.0, 3.0),
        variant=st.sampled_from(VARIANTS),
        reflectors=st.sampled_from((0, 1, 3)),
        m=st.one_of(st.just(0), st.integers(1, 20)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_values_and_gradients_bit_for_bit(self, k, ratio, log_zeta, variant, reflectors, m,
                                              seed):
        _assert_reference_bits(*_kernel_case(k, ratio, log_zeta, variant, reflectors, m, seed))

    def test_seeded_sweep_bit_for_bit(self):
        # uniform draws over the same space: a last-bit change in the value
        # shows on a few percent of points, mostly at large k
        rng = np.random.default_rng(18)
        for seed in range(400):
            m = 0 if seed % 2 else int(rng.integers(1, 21))
            _assert_reference_bits(*_kernel_case(
                int(rng.integers(1, 1201)), 10.0 ** rng.uniform(1e-9, 4.0), rng.uniform(-3, 3),
                VARIANTS[seed % 4 // 2], (0, 1, 3)[seed % 3], m, seed))

    @pytest.mark.parametrize("stacked", [False, True], ids=["point", "stack"])
    @pytest.mark.parametrize("rotated", [False, True], ids=["base", "rotated"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "overflow"])
    def test_non_finite_raises(self, stacked, rotated, bad):
        # each entry point raises, the gradient half alone included: tanh of
        # an infinite margin is finite, so it checks the margins themselves
        k = 9
        inst = build_instance(k, 1.3, 1.0, "twoblock")
        if rotated:
            inst = RotatedInstance(inst, random_orthogonal(k, seed=2))
        x = np.linspace(-1.0, 1.0, k)
        # 1e308 in x_0 leaves w = Wx finite (w_{k-1} = x_0), not 2*sigma*w
        x[0] = {"nan": np.nan, "inf": np.inf, "overflow": 1e308}[bad]
        with np.errstate(over="ignore", invalid="ignore"):
            if rotated and bad == "overflow":
                x = inst.U.apply_t(x)  # U x is the point above, up to rounding
            if stacked:
                x = np.vstack([np.ones(k), x, np.zeros(k)])
            with pytest.raises(ValueError, match="finite"):
                _reference_loss(inst, x)
            for entry in (loss, loss_value, loss_gradient):
                with pytest.raises(ValueError, match="finite"):
                    entry(inst, x)


@st.composite
def _one_point_cases(draw):
    """(base instance, a rotation of it, m = 4 points): k from 1 to 2,100,
    both variants, sigma/zeta in (1, 1e4], zeta from 1e-8 to 1e8, 1 to 3
    reflectors on leading blocks of random length.  Each point has its own
    scale, one of them subnormal, and a leading block of +0.0 or -0.0."""
    k = draw(st.integers(1, 2100))
    ratio = draw(st.floats(1.0, 1e4, exclude_min=True))
    zeta = 10.0 ** draw(st.floats(-8.0, 8.0))
    variant = draw(st.sampled_from(VARIANTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = build_instance(k, ratio * zeta, zeta, variant)
    U = Rotation(k)
    for _ in range(int(rng.integers(1, 4))):
        U.append(rng.standard_normal(int(rng.integers(1, k + 1))))
    X = rng.standard_normal((4, k)) * 10.0 ** rng.uniform(-8, 8, size=(4, 1))
    X[-1] = rng.standard_normal(k) * 2.0**-1060  # subnormal entries
    for x, sign in zip(X, (1.0, -1.0, 1.0, -1.0)):
        x[: int(rng.integers(0, k + 1))] = sign * 0.0
    return base, RotatedInstance(base, U), X


class TestKeptTemporaries:
    """A one-point answer on an instance with an oracle runs the kernel on
    temporaries the oracle keeps; its answers keep the bits of the stacked
    rows, which run on fresh ones, and none of them aliases those
    temporaries."""

    @settings(max_examples=200, deadline=None)
    @given(case=_one_point_cases())
    def test_one_point_answers_are_the_stacked_rows(self, case):
        base, rotated, X = case
        U = rotated.U
        # the base kernel's stacked rows; the rotated answer is the base one
        # at U x, pulled back by U'
        Y = np.array([U.apply(x) for x in X])
        stacked = loss(base, X), loss(base, Y)
        for inst, ref in zip((base, rotated), stacked):
            expected = [(value.hex(), _bits(g if inst is base else U.apply_t(g)))
                        for value, g in zip(ref.value.tolist(), ref.gradient)]
            for kept in (False, True):
                if kept:
                    FirstOrderOracle(inst)
                for x, (value, gradient) in zip(X, expected):
                    resp = loss(inst, x)
                    assert resp.value.hex() == loss_value(inst, x).hex() == value
                    assert np.array_equal(_bits(resp.gradient), gradient)
                    assert np.array_equal(_bits(loss_gradient(inst, x)), gradient)

    @settings(max_examples=60, deadline=None)
    @given(case=_one_point_cases())
    def test_no_answer_aliases_the_kept_temporaries(self, case):
        # oracles of two instances of one k and of a rotated one, answering
        # in turn: every gradient is its own fresh array and no later call
        # writes over it
        base, rotated, X = case
        twin = build_instance(base.k, base.sigma, base.zeta, base.variant)
        oracles = [FirstOrderOracle(inst) for inst in (base, twin, rotated)]
        answers = []
        for x in X:
            for oracle in oracles:
                answers.append(oracle(x).gradient)
            answers.append(loss_gradient(base, x))
        copies = [g.copy() for g in answers]
        for oracle in oracles:
            oracle(X[0])
        for i, g in enumerate(answers):
            assert np.array_equal(_bits(g), _bits(copies[i]))
            assert not np.shares_memory(g, X)
            assert not any(np.shares_memory(g, h) for h in answers[:i])

    @staticmethod
    def _assert_answers_are_rows(inst, x, value, gradient):
        # loss, loss_value and loss_gradient at x against a stacked row
        resp = loss(inst, x)
        assert resp.value.hex() == loss_value(inst, x).hex() == value.hex()
        assert np.array_equal(_bits(resp.gradient), _bits(gradient))
        assert np.array_equal(_bits(loss_gradient(inst, x)), _bits(gradient))

    @pytest.mark.parametrize("scale", [1.0, 1e-320])
    @pytest.mark.parametrize("sigma, zeta", [(1.3, 1.0), (1.0, 1e-8)])
    def test_windowed_answers_at_every_offset(self, monkeypatch, sigma, zeta, scale):
        # with the crossover down at k = 1, every one-point answer on a base
        # instance is windowed; at k = 8 a point whose nonzeros start at
        # coordinate 8 - m has w's nonzeros end at offset m, for each window
        # m = 0 .. 8, over a leading block of +0.0 or -0.0 (-0.0 in w's last
        # row); at 1e-320, w is subnormal and, at zeta = 1e-8, z's smaller
        # row underflows to zero where the other does not.  Each answer has
        # the bits of the bare call, on fresh arrays, and of the stacked row
        monkeypatch.setattr(logloss, "WINDOW_FROM", 1)
        k = 8
        rng = np.random.default_rng(8)
        X = np.array([np.concatenate([np.full(k - m, sign * 0.0), rng.standard_normal(m) * scale])
                      for m in range(k + 1) for sign in (1.0, -1.0)])
        inst = build_instance(k, sigma, zeta)
        stacked = loss(inst, X)
        bare = [loss(inst, x) for x in X]
        for x, want in zip(X, bare):
            self._assert_answers_are_rows(inst, x, want.value, want.gradient)
        FirstOrderOracle(inst)
        kern = logloss._kernel(inst)
        for i, (x, value, gradient) in enumerate(zip(X, stacked.value, stacked.gradient)):
            self._assert_answers_are_rows(inst, x, value, gradient)
            assert kern.h_from == i // 2  # the window read from w
            assert bare[i].value.hex() == value.hex()
            assert np.array_equal(_bits(bare[i].gradient), _bits(gradient))
        if scale < 1.0 and zeta < 1.0:
            assert (np.abs(X[-1] * 2e-8) == 0.0).all() and (X[-1] != 0.0).all()

    def test_windows_shrink_and_grow_across_oracles(self, monkeypatch):
        # two oracles of one instance share its kept temporaries, and so the
        # tail of h(0) the windows leave: answers whose windows shrink (to
        # 0) and grow (to k) in turn keep the stacked rows' bits
        monkeypatch.setattr(logloss, "WINDOW_FROM", 1)
        k = 8
        windows = [8, 1, 5, 0, 3, 8, 2, 2, 6, 1, 7, 0, 8]
        rng = np.random.default_rng(13)
        X = np.zeros((len(windows), k))
        for x, m in zip(X, windows):
            x[k - m :] = rng.standard_normal(m)
        inst = build_instance(k, 1.3, 1.0)
        stacked = loss(inst, X)
        oracles = FirstOrderOracle(inst), FirstOrderOracle(inst)
        kern = logloss._kernel(inst)
        for i, (x, m) in enumerate(zip(X, windows)):
            resp = oracles[i % 2](x)
            assert kern.h_from == m
            assert resp.value.hex() == stacked.value[i].hex()
            assert np.array_equal(_bits(resp.gradient), _bits(stacked.gradient[i]))
            self._assert_answers_are_rows(inst, x, stacked.value[i], stacked.gradient[i])

    @settings(max_examples=100, deadline=None)
    @given(case=_one_point_cases())
    def test_windowed_answers_are_the_stacked_rows(self, case):
        # the cases above at any k, scale and (sigma, zeta), with the
        # crossover down at k = 1: a base instance's answers are windowed, a
        # rotated one's, whose U x is dense, are not
        base, rotated, X = case
        stacked = loss(base, X)
        with mock.patch.object(logloss, "WINDOW_FROM", 1):
            FirstOrderOracle(base)
            FirstOrderOracle(rotated)
        assert logloss._kernel(base).h_from == base.k
        assert logloss._kernel(rotated).h_from is None
        for x, value, gradient in zip(X, stacked.value, stacked.gradient):
            self._assert_answers_are_rows(base, x, value, gradient)

    def test_one_point_answer_allocates_only_its_gradient(self, rng):
        # the kernel's temporaries are the oracle's, made with it; a call
        # allocates the gradient it returns (the kernel on fresh arrays
        # peaked at 9 k-vectors)
        k = 20_000
        oracle = FirstOrderOracle(build_instance(k, 1.3, 1.0))
        x = rng.standard_normal(k)
        oracle(x)
        tracemalloc.start()
        try:
            oracle(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * k


class TestOptimumIntercept:
    """The intercept derivative ``invariants.optimum`` reports at (x*, 0)
    against sum tanh(A x*/2) - sum b over the N rows of the dense A."""

    @pytest.mark.parametrize("k", [1, 2, 10, 80])
    def test_matches_dense_rows(self, k):
        inst = build_instance(k, 1.3, 1.0)
        prof = profile(inst)
        dense = abs(np.sum(np.tanh(0.5 * (inst.dense() @ prof.x_star))) - np.sum(inst.labels))
        check = invariants.optimum([(inst, prof)])[2]
        assert check.name == "intercept_derivative_vanishes" and check.passed
        assert abs((invariants.GRADIENT_TOL - check.margin) - dense) <= 1e-12 * inst.n_rows

    @pytest.mark.parametrize("block", range(4))
    def test_fails_off_the_mirror(self, block):
        # block (s, l) mirrors (-s, -l), and tanh is odd, so the derivative
        # vanishes at every x; it reads the mirror, and a copy that breaks
        # it in one block fails at the same x*: a scale off by 1e-6, or a
        # flipped label, which moves sum b by 2k
        inst = build_instance(40, 1.3, 1.0)
        prof = profile(inst)
        scales, labels = list(inst.block_scales), list(inst.block_labels)
        scales[block] *= 1.0 + 1e-6
        labels[block] = -labels[block]
        for broken, reading in ((dataclasses.replace(inst, block_scales=tuple(scales)), 4e-6),
                                (dataclasses.replace(inst, block_labels=tuple(labels)), 80.0)):
            check = invariants.optimum([(broken, prof)])[2]
            assert check.name == "intercept_derivative_vanishes" and not check.passed
            assert invariants.GRADIENT_TOL - check.margin >= reading

    def test_two_block_unsupported(self):
        inst = build_instance(3, 1.3, 1.0, "twoblock")
        with pytest.raises(ValueError, match="unsupported variant"):
            invariants.optimum([(inst, profile(inst))])


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

    @pytest.mark.parametrize("scale, bad", [(1e-200, 0.0), (1e200, np.inf)])
    def test_oracle_refuses_an_out_of_range_constant(self, scale, bad):
        # L = ||A||^2/2 under- or overflows although ||A|| is finite and positive
        inst = build_instance(6, 1.3 * scale, scale)
        assert 0.0 < inst.a_norm() < np.inf
        assert lipschitz(inst) == bad
        with pytest.raises(ValueError, match="smoothness constant"):
            FirstOrderOracle(inst)

    def test_gd_step_descends(self):
        inst = build_instance(10, 1.3, 1.0)
        trace = run("gd", FirstOrderOracle(inst), 200, profile(inst).x_star)
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
