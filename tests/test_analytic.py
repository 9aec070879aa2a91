import dataclasses
import json
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardlogit import (
    analytic,
    bound_general,
    bound_linear_span,
    build_instance,
    c_bracket,
    cli,
    constant_c_ratio,
    invariants,
    lipschitz,
    logcosh,
    loss,
    per_coordinate_gap,
    profile,
    profile_metadata,
    sandwich_ratio,
    solve_c,
    subspace_gap,
)
from hardlogit.logloss import loss_gradient, loss_value
from conftest import dense_ab, instance, logistic_form

LOG2 = np.log(2.0)

# Golden values for (sigma, zeta) = (1.3, 1.0), computed with an
# independent high-precision root solve of the scaling equation.
C_GOLDEN = 0.11219388144148564
RATIO_SHARP_GOLDEN = 0.7887379245167843


def _residual(c, sigma, zeta):
    return sigma * np.tanh(sigma * c) + zeta * np.tanh(zeta * c) - sigma + zeta


class TestSolveC:
    def test_residual_and_golden_value(self):
        c = solve_c(1.3, 1.0)
        assert abs(_residual(c, 1.3, 1.0)) <= 1e-12
        assert abs(c - C_GOLDEN) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
    def test_scale_identity(self, alpha):
        c = solve_c(1.3, 1.0)
        scaled = solve_c(1.3 * alpha, 1.0 * alpha)
        assert abs(scaled - c / alpha) <= 1e-10 * (c / alpha)

    def test_bracket_is_monotone_enclosure(self):
        for ratio in np.linspace(1.01, 1.99, 23):
            sigma, zeta = ratio, 1.0
            c_lb, c_ub = c_bracket(sigma, zeta)
            assert _residual(c_lb, sigma, zeta) <= 0.0
            assert _residual(c_ub, sigma, zeta) >= 0.0

    def test_hundred_ratios(self):
        for ratio in np.linspace(1.005, 1.995, 100):
            sigma, zeta = float(ratio), 1.0
            c = solve_c(sigma, zeta)
            assert abs(_residual(c, sigma, zeta)) <= 1e-12
            c_lb, c_ub = c_bracket(sigma, zeta)
            assert c_lb <= c <= c_ub

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="invalid parameters"):
            solve_c(1.0, 1.0)
        with pytest.raises(ValueError, match="invalid parameters"):
            solve_c(1.0, -0.5)

    @pytest.mark.parametrize("sigma, zeta", [
        (np.inf, 1.0), (np.nan, 1.0), (1.3, np.nan), (np.inf, np.inf),
        (1e300, 1e-300),  # both finite, sigma/zeta is not
    ])
    def test_non_finite_parameters(self, sigma, zeta):
        # at sigma = inf the bisection ran on NaN residuals and returned 5e-324
        with pytest.raises(ValueError, match="invalid parameters"):
            solve_c(sigma, zeta)

    def test_one_bisection_per_ratio(self):
        # the root in z = zeta*c depends on sigma/zeta alone: every scale of
        # one ratio shares one bisection, and each scale divides by its zeta
        analytic._scaled_root.cache_clear()
        cs = [solve_c(1.3 * 2.0**e, 2.0**e) for e in (0, -30, 30, 0, 7)]
        assert analytic._scaled_root.cache_info().misses == 1
        assert cs == [cs[0] * 2.0**-e for e in (0, -30, 30, 0, 7)]

    @pytest.mark.parametrize("sigma, zeta", [
        # the four (sigma, zeta) perfbench/run.py draws with seed 1, and the default
        (2.906755196744478, 1.925695544488903), (2.337043757151506, 1.9229741707058658),
        (1.531629023118017, 1.1349896734588634), (1.9626938364115, 1.1137987045537419),
        (1.3, 1.0),
    ])
    def test_within_eight_ulps_of_50_digit_root(self, sigma, zeta):
        with mpmath.workdps(50):
            s, z = mpmath.mpf(sigma), mpmath.mpf(zeta)

            def res(c):
                return s * mpmath.tanh(s * c) + z * mpmath.tanh(z * c) - s + z

            lo, hi = mpmath.mpf(0), mpmath.mpf(1)
            while res(hi) <= 0:
                hi *= 2
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if res(mid) < 0 else (lo, mid)
            c = solve_c(sigma, zeta)
            assert abs(mpmath.mpf(c) - lo) <= 8 * np.spacing(c)

    def test_doubling_bracket_above_two(self):
        # sigma >= 2*zeta has no closed-form bracket; the root must still solve
        c = solve_c(5.0, 1.0)
        assert abs(_residual(c, 5.0, 1.0)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    cases=st.lists(st.tuples(st.floats(1.0, 1e4, exclude_min=True), st.floats(-8.0, 8.0)),
                   min_size=1, max_size=4),
    repeats=st.integers(2, 3),
)
def test_solve_c_matches_the_uncached_bisection(cases, repeats):
    """The kept root, divided by each call's own zeta, is the bisection's
    result bit for bit, for calls that revisit ratios in alternating order."""
    for _ in range(repeats):
        for ratio, log_scale in cases:
            zeta = 10.0**log_scale
            sigma = ratio * zeta
            if not sigma > zeta:  # the product rounded down onto zeta
                continue
            uncached = analytic._scaled_root.__wrapped__(sigma / zeta) / zeta
            assert solve_c(sigma, zeta) == uncached


@settings(max_examples=60, deadline=None)
@given(
    ratio=st.floats(1.01, 1e4),
    log_scale=st.floats(-8.0, 8.0),
    k=st.integers(1, 300),
    variant=st.sampled_from(("fourblock", "twoblock")),
)
def test_root_property_sweep(ratio, log_scale, k, variant):
    """The root and the optimum it gives hold to relative machine precision
    at any scale of (sigma, zeta), not only near zeta = 1."""
    zeta = 10.0**log_scale
    sigma = ratio * zeta
    c = solve_c(sigma, zeta)
    assert abs(_residual(c, sigma, zeta)) <= 1e-13 * sigma
    inst = instance(k, sigma, zeta, variant)
    prof = profile(inst)
    assert prof.c == c
    gradient = loss(inst, prof.x_star).gradient
    assert np.max(np.abs(gradient)) <= 1e-12 * inst.a_norm()


TANH_ULPS = 4  # numpy's float64 tanh is taken to be within 4 ulp


def optimum_gradient_bound(inst, prof) -> float:
    """A bound on the loss kernel's ||grad f(x*)|| from its rounding alone,
    for the four-block instance at the computed x* = fl(c j), u = 2**-53,
    S = sigma^2 + zeta^2 and tanh within tau = 2 * TANH_ULPS units u:

    - W x* = c 1, and fl(c j) and the differences of W put fl(W x*) within
      2u||x*|| + u c sqrt(k) of it; the products |s| w add u c per entry;
    - phi(w) = sum over blocks of |s| tanh(|s| w/2) has |phi'| <= 4S, so
      those move the kernel's vector phi - drift by 16 u S ||x*|| at most;
    - at the computed root |phi(c) - drift| = 4|res(c)| <= 8 u S c +
      16 u (tau + 4) sigma (half a bisection step, the residual's own
      rounding twice, the division by zeta), and the kernel's products, sum
      and drift round by u sigma (8 tau + 26) per entry;
    - the gradient is W times that vector, ||W|| <= 2, and with ||A|| =
      2 cos(pi/(2k+1)) sqrt(8S), cos >= 1/2, S <= ||A||^2/8 and sigma <=
      ||A||/sqrt(8).

    So ||grad f(x*)|| <= u ||A|| (6 ||A|| ||x*|| + (24 tau + 90) sqrt(k/8)):
    the margins' rounding against ||A|| ||x*||, the size of A x*, and the
    kernel's own against sqrt(k)."""
    u, tau = 2.0**-53, 2 * TANH_ULPS
    a_norm = inst.a_norm()
    return u * a_norm * (6.0 * a_norm * np.sqrt(prof.xstar_norm_sq)
                         + (24 * tau + 90) * np.sqrt(inst.k / 8.0))


@settings(max_examples=100, deadline=None)
@given(
    ratio=st.floats(1.0, 1e4, exclude_min=True),
    log_scale=st.floats(-8.0, 8.0),
    k=st.integers(1, 10_000),
)
def test_optimum_gradient_within_its_rounding(ratio, log_scale, k):
    """||grad f(x*)|| against ||A|| ||x*||, within the rounding bound of
    ``optimum_gradient_bound``, over sigma/zeta in (1, 1e4], zeta from 1e-8
    to 1e8 and k up to 1e4: x* is the optimum at any scale, not only where
    a fixed absolute tolerance happens to fit."""
    zeta = 10.0**log_scale
    sigma = ratio * zeta
    if not sigma > zeta:  # the product rounded down onto zeta
        return
    inst = build_instance(k, sigma, zeta)
    prof = profile(inst)
    gradient = loss(inst, prof.x_star).gradient
    assert np.linalg.norm(gradient) <= optimum_gradient_bound(inst, prof)


class TestProfile:
    def test_value_matches_direct_loss(self):
        inst = build_instance(5, 1.3, 1.0)
        prof = profile(inst)
        direct = loss(inst, prof.x_star).value
        assert abs(direct - prof.f_star) <= 1e-10 * (1.0 + abs(prof.f_star))

    def test_gradient_vanishes(self):
        prof = profile(build_instance(5, 1.3, 1.0))
        inst = build_instance(5, 1.3, 1.0)
        assert np.max(np.abs(loss(inst, prof.x_star).gradient)) <= 1e-9

    def test_norm_sq_formula(self):
        prof = profile(build_instance(3, 1.3, 1.0))
        # sum of squares 1+4+9 = 14, scaled by c^2
        assert prof.xstar_norm_sq / prof.c**2 == pytest.approx(14.0, rel=1e-13)
        assert np.allclose(prof.x_star, prof.c * np.arange(1, 4), rtol=0, atol=0)

    def test_two_block_closed_form(self):
        # h is even, so the CLI's two-block half has half the four-block
        # loss: the same x*, half the optimal value
        for ratio in (1.3, 1.79, 3.0):
            for k in (1, 3, 10, 50, 137, 400):
                prof = profile(build_instance(k, ratio, 1.0))
                f_star = prof.f_star / 2.0
                resp = loss(instance(k, ratio, 1.0, "twoblock"), prof.x_star)
                assert abs(resp.value - f_star) <= 1e-14 * abs(f_star)
                assert np.max(np.abs(resp.gradient)) <= 1e-12

    def test_two_block_value_against_dense_form(self):
        # the N-row logistic form of the dense two-block data reads half
        # the four-block f* at the four-block x*
        for ratio in (1.3, 1.79, 3.0):
            for k in (1, 3, 10, 50, 137, 400):
                prof = profile(build_instance(k, ratio, 1.0))
                f_star = prof.f_star / 2.0
                direct = logistic_form(*dense_ab(k, ratio, 1.0, "twoblock"), prof.x_star)
                assert abs(direct - f_star) <= 1e-13 * abs(f_star)

    def test_bracket_fields(self):
        c_lb, c_ub = c_bracket(1.3, 1.0)
        assert c_lb <= profile(build_instance(4, 1.3, 1.0)).c <= c_ub

    def test_metadata_keys(self):
        prof = profile(build_instance(4, 1.3, 1.0))
        assert set(profile_metadata(prof)) == {"c", "f_star", "xstar_norm_sq"}


class TestTwoBlockNumeric:
    def test_long_run_agrees_with_mirrored_half(self, tmp_path):
        # an unrestricted long accelerated run on the CLI's two-block half
        # reaches half the four-block formula, the f* of its sidecar
        f_opt = _restricted_agd_min(instance(6, 1.3, 1.0, "twoblock"), 6, 60_000)
        prof4 = profile(build_instance(6, 1.3, 1.0))
        assert abs(f_opt - prof4.f_star / 2.0) <= 1e-9
        path = tmp_path / "half.csv"
        assert cli.main(["generate", "--k", "6", "--variant", "twoblock", "--out", str(path)]) == 0
        meta = json.loads(Path(f"{path}.meta.json").read_text())
        assert abs(f_opt - meta["f_star"]) <= 1e-9


class TestRatioConstant:
    def test_sharp_value_above_half(self):
        ratio = constant_c_ratio(1.3, 1.0)
        assert ratio > 0.5
        assert ratio == pytest.approx(RATIO_SHARP_GOLDEN, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.1, 7.0])
    def test_scale_invariance(self, alpha):
        base = constant_c_ratio(1.3, 1.0)
        scaled = constant_c_ratio(1.3 * alpha, 1.0 * alpha)
        assert abs(scaled - base) <= 1e-12

    def test_undefined_above_two(self):
        with pytest.raises(ValueError, match="undefined constant"):
            constant_c_ratio(2.0, 1.0)
        with pytest.raises(ValueError, match="undefined constant"):
            constant_c_ratio(2.7, 1.0)
        # sigma >= 2*zeta holds here too, but solve_c's check comes first
        for sigma, zeta in ((1.0, -1.0), (1e300, 1e-300)):
            with pytest.raises(ValueError, match="invalid parameters"):
                constant_c_ratio(sigma, zeta)

    def test_per_instance_inequality_fifty_ratios(self):
        for ratio in np.linspace(1.02, 1.98, 50):
            sigma, zeta = float(ratio), 1.0
            c = solve_c(sigma, zeta)
            lhs = (sigma - zeta) * c - logcosh(sigma * c) - logcosh(zeta * c)
            sharp = constant_c_ratio(sigma, zeta)
            assert lhs >= sharp * c**2 * sigma**2 - 1e-12


def _restricted_agd_min(inst, t, iterations):
    """Independent restricted-minimization oracle: a long accelerated run
    over the trailing-t-coordinates slice of the instance's loss."""
    k = inst.k
    step = 1.0 / lipschitz(inst)
    pad = np.zeros(k - t)

    def slice_grad(u):
        return loss_gradient(inst, np.concatenate([pad, u]))[k - t:]

    u_prev = np.zeros(t)
    y = np.zeros(t)
    u = u_prev
    for s in range(1, iterations + 1):
        u = y - step * slice_grad(y)
        y = u + ((s - 1) / (s + 2)) * (u - u_prev)
        u_prev = u
    return loss_value(inst, np.concatenate([pad, u]))


def _loop_restricted_identity(insts, profiles):
    """``invariants.restricted_optimum_identity`` placing its stacks one
    row at a time, the reference for the masked placement."""
    unit_gap = per_coordinate_gap(insts[0].sigma, insts[0].zeta)
    worst = [0.0]
    for inst, prof_k in zip(insts[1:], profiles[1:]):
        k = inst.k
        t = np.arange(1, k)
        X = np.zeros((k - 1, k))
        for i, prof_t in enumerate(profiles[: k - 1]):
            X[i, k - 1 - i:] = prof_t.x_star
        rhs = 8.0 * (k - t) * LOG2 + np.array([p.f_star for p in profiles[: k - 1]])
        worst += [np.max(np.abs(loss(inst, X).value - rhs)),
                  np.max(np.abs((rhs - prof_k.f_star) - 4.0 * (k - t) * unit_gap))]
    worst = float(np.max(worst))
    return invariants.Check("restricted_optimum_identity", worst <= invariants.IDENTITY_TOL,
                            invariants.IDENTITY_TOL - worst, f"max={worst:.2e}")


class TestSubspaceGap:
    def test_full_dimension_is_zero(self):
        assert subspace_gap(6, 6, 1.3, 1.0) == 0.0

    def test_identity_against_formula_values(self):
        k, t, sigma, zeta = 6, 3, 1.3, 1.0
        prof_k = profile(build_instance(k, sigma, zeta))
        prof_t = profile(build_instance(t, sigma, zeta))
        expected = (8 * (k - t) * LOG2 + prof_t.f_star) - prof_k.f_star
        assert subspace_gap(k, t, sigma, zeta) == pytest.approx(expected, abs=1e-12)

    def test_against_long_restricted_run(self):
        k, t, sigma, zeta = 6, 3, 1.3, 1.0
        inst = build_instance(k, sigma, zeta)
        prof = profile(inst)
        measured = _restricted_agd_min(inst, t, 100_000) - prof.f_star
        assert abs(measured - subspace_gap(k, t, sigma, zeta)) <= 1e-7

    def test_restricted_identity_all_pairs_k20(self):
        insts = [build_instance(k, 1.3, 1.0) for k in range(1, 21)]
        profs = [profile(inst) for inst in insts]
        assert invariants.restricted_optimum_identity(insts, profs).passed
        # the trailing block is optimal there: those gradient entries vanish
        for inst in insts[1:]:
            for t, prof in enumerate(profs[: inst.k - 1], start=1):
                x = np.concatenate([np.zeros(inst.k - t), prof.x_star])
                assert np.max(np.abs(loss(inst, x).gradient[-t:])) <= 1e-9

    @pytest.mark.parametrize("t, entry", [(1, 0), (6, 0), (6, -1), (11, 3), (11, -1)])
    @pytest.mark.parametrize("ulps", [1, 2**40])
    def test_restricted_identity_reads_each_profiles_own_x_star(self, monkeypatch, t, entry,
                                                               ulps):
        # one entry of one x*_t moved: every stack holding (0, x*_t) carries the
        # moved entry, and the check matches the row-by-row loop bit for bit.
        # One ulp moves the loss by ~1e-15, inside IDENTITY_TOL, so it passes
        # both; 2**40 ulps (~2e-4 relative) fails both.
        insts = [build_instance(n, 1.3, 1.0) for n in range(1, 13)]
        profs = [profile(inst) for inst in insts]
        x = profs[t - 1].x_star.copy()
        x[entry] += ulps * np.spacing(x[entry])
        profs[t - 1] = dataclasses.replace(profs[t - 1], x_star=x)
        stacks = []
        original = invariants.logloss.loss_value

        def recorded(inst, X):
            stacks.append(np.array(X))
            return original(inst, X)

        monkeypatch.setattr(invariants.logloss, "loss_value", recorded)
        check = invariants.restricted_optimum_identity(insts, profs)
        monkeypatch.undo()
        assert check == _loop_restricted_identity(insts, profs)
        assert check.passed == (ulps == 1)
        assert len(stacks) == len(insts) - 1  # one stack per k > 1
        for inst, X in zip(insts[1:], stacks):
            k = inst.k
            rows = np.zeros((k - 1, k))
            for i, prof in enumerate(profs[: k - 1]):
                rows[i, k - 1 - i:] = prof.x_star
            assert np.array_equal(X, rows)  # row t-1 of each k > t holds the moved x

    @pytest.mark.parametrize("k", [2, 6, 12])  # an f*_k only, both roles, an f*_t only
    def test_restricted_identity_fails_on_a_perturbed_f_star(self, k):
        insts = [build_instance(n, 1.3, 1.0) for n in range(1, 13)]
        profs = [profile(inst) for inst in insts]
        profs[k - 1] = dataclasses.replace(profs[k - 1], f_star=profs[k - 1].f_star + 1e-6)
        check = invariants.restricted_optimum_identity(insts, profs)
        assert not check.passed
        assert abs(check.margin - (invariants.IDENTITY_TOL - 1e-6)) <= 1e-9

    def test_exceeds_twice_per_coordinate_floor_at_ratio_13(self):
        # consequence of the ratio constant exceeding 1/2 at sigma/zeta = 1.3
        sigma, zeta = 1.3, 1.0
        c = solve_c(sigma, zeta)
        for k, t in ((5, 2), (12, 7), (30, 1)):
            assert subspace_gap(k, t, sigma, zeta) >= 2 * (k - t) * c**2 * sigma**2

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            subspace_gap(4, 5, 1.3, 1.0)
        with pytest.raises(ValueError):
            subspace_gap(4, 0, 1.3, 1.0)


class TestBounds:
    def test_span_bound_instantiation(self):
        lb = bound_linear_span(1, 1.0, 1.0)
        assert lb.gap == pytest.approx(1.0 / 160.0, rel=1e-15)
        assert lb.dist_factor == 0.125

    def test_general_bound_instantiation(self):
        lb = bound_general(1, 1.0, 1.0)
        assert lb.gap == pytest.approx(3.0 / (32 * 7 * 13), rel=1e-15)
        assert lb.dist_factor == 0.125

    def test_linear_in_distance(self):
        base = bound_linear_span(7, 2.0, 1.0).gap
        assert bound_linear_span(7, 2.0, 3.5).gap == pytest.approx(3.5 * base, rel=1e-14)

    def test_span_bound_matches_subspace_rederivation(self):
        # same constant as 3*(k-t)*a^2*d^2 / (16*k*(k+1)*(2k+1)) at k=2T, t=T
        T, a, d2 = 25, 4.7, 2.3
        k, t = 2 * T, T
        expected = 3 * (k - t) * a**2 * d2 / (16 * k * (k + 1) * (2 * k + 1))
        assert bound_linear_span(T, a, d2).gap == pytest.approx(expected, rel=1e-14)

    def test_general_bound_matches_sigma_rederivation(self):
        # with ||A|| = 8*sigma the constant collapses to 6*sigma^2/((4T+3)(8T+5))
        T, sigma, d2 = 10, 1.3, 5.0
        expected = 6 * sigma**2 * d2 / ((4 * T + 3) * (8 * T + 5))
        assert bound_general(T, 8 * sigma, d2).gap == pytest.approx(expected, rel=1e-14)

    def test_general_below_span_everywhere(self):
        for T in range(1, 10_001):
            assert bound_general(T, 1.0, 1.0).gap < bound_linear_span(T, 1.0, 1.0).gap

    def test_invalid_T(self):
        with pytest.raises(ValueError):
            bound_linear_span(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            bound_general(0, 1.0, 1.0)

    def test_sandwich_ratio_formula_and_cap(self):
        for T in (1, 5, 25, 50, 1000):
            expected = 32 * (2 * T + 1) * (4 * T + 1) / (3.0 * (T + 1) ** 2)
            assert sandwich_ratio(T) == pytest.approx(expected, rel=1e-15)
            assert sandwich_ratio(T) <= 256.0 / 3.0


class TestLogcosh:
    def test_matches_naive_small(self, rng):
        for z in rng.uniform(-20, 20, size=50):
            assert np.isclose(logcosh(z), np.log(np.cosh(z)), rtol=1e-13, atol=1e-15)

    def test_large_argument(self):
        assert logcosh(1000.0) == pytest.approx(1000.0 - LOG2, rel=1e-15)
        assert logcosh(-1000.0) == logcosh(1000.0)


def test_per_coordinate_gap_consistency():
    sigma, zeta = 1.3, 1.0
    c = solve_c(sigma, zeta)
    direct = (sigma - zeta) * c - logcosh(sigma * c) - logcosh(zeta * c)
    assert per_coordinate_gap(sigma, zeta) == pytest.approx(direct, rel=1e-14)
