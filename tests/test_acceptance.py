"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Every tolerance is pinned here; the heavy adversarial runs are
shared between the two criteria that inspect them.
"""

import time

import numpy as np
import pytest

from hardlogit import (
    FirstOrderOracle,
    MethodSpec,
    adversarial_run,
    agd_upper_bound,
    bound_general,
    bound_linear_span,
    build_instance,
    constant_c_ratio,
    lipschitz,
    loss,
    matvec_at,
    phi,
    profile,
    replay_check,
    run,
    sandwich_ratio,
    solve_c,
    subspace_gap,
    support_frontier,
)

LOG2 = np.log(2.0)
SIGMA, ZETA = 1.3, 1.0


def _line(num, ok, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num:2d} [{elapsed:8.3f} s] {detail}", flush=True)


@pytest.fixture(scope="module")
def warmed_up():
    # first-touch numpy/import costs must not pollute the timed criteria
    inst = build_instance(4, SIGMA, ZETA)
    profile(inst)
    run(MethodSpec(name="gd", step_size=1.0 / lipschitz(inst)),
        FirstOrderOracle(inst), 2)
    constant_c_ratio(SIGMA, ZETA)
    return True


def test_criterion_01_ratio_constant_above_half(warmed_up):
    t0 = time.perf_counter()
    ratio = constant_c_ratio(1.3, 1.0)
    elapsed = time.perf_counter() - t0
    ok = ratio > 0.5 and elapsed < 1e-3
    _line(1, ok, elapsed, f"C(1.3) = {ratio:.6f} > 0.5")
    assert ratio > 0.5
    assert elapsed < 1e-3


def test_criterion_02_root_quality(warmed_up):
    t0 = time.perf_counter()
    worst_res = 0.0
    all_in_bracket = True
    for ratio in np.linspace(1.005, 1.995, 100):
        sigma = float(ratio)
        c = solve_c(sigma, 1.0)
        res = abs(sigma * np.tanh(sigma * c) + np.tanh(c) - sigma + 1.0)
        worst_res = max(worst_res, res)
        c_lb = np.arctanh(0.5 - 1.0 / (2 * sigma)) / sigma
        c_ub = np.arctanh(sigma / 2.0 - 0.5)
        all_in_bracket = all_in_bracket and (c_lb <= c <= c_ub)
    elapsed = time.perf_counter() - t0
    ok = worst_res <= 1e-12 and all_in_bracket and elapsed < 0.1
    _line(2, ok, elapsed, f"max residual {worst_res:.2e}, brackets hold: {all_in_bracket}")
    assert worst_res <= 1e-12
    assert all_in_bracket
    assert elapsed < 0.1


def test_criterion_03_optimum_verification(warmed_up):
    t0 = time.perf_counter()
    worst_grad = worst_f = worst_dy = 0.0
    for k in (1, 2, 10, 100):
        for zeta in (0.5, 1.0, 2.0):
            inst = build_instance(k, 1.3 * zeta, zeta)
            prof = profile(inst)
            resp = loss(inst, prof.x_star)
            worst_grad = max(worst_grad, float(np.max(np.abs(resp.gradient))))
            worst_f = max(
                worst_f, abs(resp.value - prof.f_star) / (1.0 + abs(prof.f_star))
            )
            _, _, dy = phi(inst, prof.x_star, 0.0)
            worst_dy = max(worst_dy, abs(dy))
    elapsed = time.perf_counter() - t0
    ok = worst_grad <= 1e-9 and worst_f <= 1e-10 and worst_dy <= 1e-9 and elapsed < 1.0
    _line(3, ok, elapsed,
          f"grad {worst_grad:.2e}, value {worst_f:.2e}, intercept {worst_dy:.2e}")
    assert worst_grad <= 1e-9
    assert worst_f <= 1e-10
    assert worst_dy <= 1e-9
    assert elapsed < 1.0


def test_criterion_04_subspace_trapping(warmed_up):
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    grad_leak = 0.0
    for k in range(2, 31):
        inst = build_instance(k, SIGMA, ZETA)
        for t in range(1, k):
            lead = k - (t + 1)
            for _ in range(100):
                x = np.zeros(k)
                x[k - t:] = rng.standard_normal(t)
                g = loss(inst, x).gradient
                if lead > 0:
                    grad_leak = max(grad_leak, float(np.max(np.abs(g[:lead]))))
    iterate_leak = 0.0
    inst = build_instance(30, SIGMA, ZETA)
    L = lipschitz(inst)
    for name in ("gd", "agd", "heavyball"):
        trace = run(MethodSpec(name=name, step_size=1.0 / L),
                    FirstOrderOracle(inst), 29)
        for t in range(len(trace)):
            lead = 30 - t
            if lead > 0:
                iterate_leak = max(
                    iterate_leak, float(np.max(np.abs(trace.iterates[t][:lead])))
                )
    elapsed = time.perf_counter() - t0
    ok = grad_leak <= 1e-10 and iterate_leak <= 1e-10 and elapsed < 5.0
    _line(4, ok, elapsed,
          f"gradient leak {grad_leak:.2e}, iterate leak {iterate_leak:.2e}")
    assert grad_leak <= 1e-10
    assert iterate_leak <= 1e-10
    assert elapsed < 5.0


def test_criterion_05_restricted_optimum(warmed_up):
    t0 = time.perf_counter()
    profs = {k: profile(build_instance(k, SIGMA, ZETA)) for k in range(1, 21)}
    worst_id = 0.0
    for k in range(2, 21):
        inst = build_instance(k, SIGMA, ZETA)
        for t in range(1, k):
            x = np.zeros(k)
            x[k - t:] = profs[t].x_star
            lhs = loss(inst, x).value
            rhs = 8 * (k - t) * LOG2 + profs[t].f_star
            worst_id = max(worst_id, abs(lhs - rhs))

    # long restricted runs on representative pairs (full grid would blow the
    # stated runtime budget; the closed-form identity above covers all pairs)
    worst_run = 0.0
    for k, t in ((6, 3), (12, 5), (20, 7)):
        inst = build_instance(k, SIGMA, ZETA)
        step = 1.0 / lipschitz(inst)
        pad = np.zeros(k - t)
        u_prev = np.zeros(t)
        y = np.zeros(t)
        u = u_prev
        for s in range(1, 100_001):
            g = loss(inst, np.concatenate([pad, y])).gradient[k - t:]
            u = y - step * g
            y = u + ((s - 1) / (s + 2)) * (u - u_prev)
            u_prev = u
        found = loss(inst, np.concatenate([pad, u])).value
        expected = 8 * (k - t) * LOG2 + profs[t].f_star
        worst_run = max(worst_run, abs(found - expected))
    elapsed = time.perf_counter() - t0
    ok = worst_id <= 1e-9 and worst_run <= 1e-6 and elapsed < 30.0
    _line(5, ok, elapsed,
          f"identity {worst_id:.2e} (all k<=20), long-run {worst_run:.2e}")
    assert worst_id <= 1e-9
    assert worst_run <= 1e-6
    assert elapsed < 30.0


def test_criterion_06_linear_span_lower_bound(warmed_up):
    t0 = time.perf_counter()
    results = []
    for T in (5, 25, 50):
        inst = build_instance(2 * T, SIGMA, ZETA)
        prof = profile(inst)
        a_norm = inst.a_norm()
        lb = bound_linear_span(T, a_norm, prof.xstar_norm_sq)
        for name in ("gd", "agd", "heavyball"):
            trace = run(MethodSpec(name=name, step_size=2.0 / a_norm**2),
                        FirstOrderOracle(inst), T)
            gap = trace.values[-1] - prof.f_star
            d = trace.iterates[-1] - prof.x_star
            results.append((name, T, gap > lb.gap,
                            float(d @ d) > prof.xstar_norm_sq / 8.0,
                            gap / lb.gap))
    elapsed = time.perf_counter() - t0
    ok = all(g and d for _, _, g, d, _ in results) and elapsed < 10.0
    margins = ", ".join(f"{n}/T={T}:{r:.2f}x" for n, T, _, _, r in results[:3])
    _line(6, ok, elapsed, f"9 method/T cells, gap margins e.g. {margins}")
    for name, T, gap_ok, dist_ok, _ in results:
        assert gap_ok, f"{name} T={T} gap below span lower bound"
        assert dist_ok, f"{name} T={T} distance below 1/8 floor"
    assert elapsed < 10.0


def test_criterion_07_tightness_sandwich(warmed_up):
    t0 = time.perf_counter()
    rows = []
    for T in (5, 25, 50):
        inst = build_instance(2 * T, SIGMA, ZETA)
        prof = profile(inst)
        a_norm = inst.a_norm()
        L = 0.5 * a_norm**2
        trace = run(MethodSpec(name="agd", step_size=1.0 / L),
                    FirstOrderOracle(inst), T)
        gap = trace.values[-1] - prof.f_star
        upper = agd_upper_bound(T, L, prof.xstar_norm_sq)
        lower = bound_linear_span(T, a_norm, prof.xstar_norm_sq).gap
        rows.append((T, gap <= upper, upper / lower))
    elapsed = time.perf_counter() - t0
    ratio_ok = all(
        abs(r - sandwich_ratio(T)) <= 1e-9 * r and r <= 256.0 / 3.0
        for T, _, r in rows
    )
    ok = all(u for _, u, _ in rows) and ratio_ok and elapsed < 10.0
    _line(7, ok, elapsed,
          "upper bound holds; upper/lower = "
          + ", ".join(f"T={T}:{r:.2f}" for T, _, r in rows)
          + " (cap 85.33)")
    for T, upper_ok, _ in rows:
        assert upper_ok, f"T={T} accelerated gap above its upper bound"
    assert ratio_ok
    assert elapsed < 10.0


@pytest.fixture(scope="module")
def adversarial_results(warmed_up):
    t0 = time.perf_counter()
    cells = {}
    for T in (5, 10, 25):
        for name in ("gd", "agd", "denseprobe"):
            spec = MethodSpec(name=name)
            trace, final = adversarial_run(spec, T, SIGMA, ZETA)
            cells[(name, T)] = (spec, trace, final)
    return cells, time.perf_counter() - t0


def test_criterion_08_general_lower_bound(adversarial_results):
    cells, elapsed = adversarial_results
    failures = []
    for (name, T), (_, trace, final) in cells.items():
        base = final.base
        prof = profile(base)
        a_norm = final.a_norm()
        lb = bound_general(T, a_norm, prof.xstar_norm_sq)
        z_star = final.U.T @ prof.x_star
        gap = trace.values[-1] - prof.f_star
        d = trace.iterates[-1] - z_star
        ortho = float(np.max(np.abs(final.U.T @ final.U - np.eye(base.k))))
        atb = matvec_at(base, base.labels)
        fixed = float(np.max(np.abs(final.U.T @ atb - atb)))
        if not (gap > lb.gap):
            failures.append(f"{name}/T={T}: gap")
        if not (float(d @ d) > prof.xstar_norm_sq / 8.0):
            failures.append(f"{name}/T={T}: dist")
        if not (ortho <= 1e-10):
            failures.append(f"{name}/T={T}: orthogonality {ortho:.2e}")
        if not (fixed <= 1e-10):
            failures.append(f"{name}/T={T}: data direction {fixed:.2e}")
    ok = not failures and elapsed < 60.0
    _line(8, ok, elapsed,
          f"9 adversarial cells (k up to 102): {'all hold' if not failures else failures}")
    assert not failures, failures
    assert elapsed < 60.0


def test_criterion_09_indistinguishability(adversarial_results):
    cells, _ = adversarial_results
    t0 = time.perf_counter()
    bad = [
        f"{name}/T={T}"
        for (name, T), (spec, trace, final) in cells.items()
        if not replay_check(spec, final, trace, tol=1e-8)
    ]
    elapsed = time.perf_counter() - t0
    ok = not bad
    _line(9, ok, elapsed,
          "replays match within 1e-8 for all 9 cells" if ok else f"mismatch: {bad}")
    assert not bad, bad


def test_criterion_10_span_violation_detection(warmed_up):
    t0 = time.perf_counter()
    verdicts = {}
    for k in (3, 10, 30):
        inst = build_instance(k, SIGMA, ZETA)
        L = lipschitz(inst)
        T = k - 1
        for name in ("gd", "agd", "heavyball", "denseprobe"):
            trace = run(MethodSpec(name=name, step_size=1.0 / L),
                        FirstOrderOracle(inst), T)
            verdicts[(name, k)] = support_frontier(trace) <= 0
    elapsed = time.perf_counter() - t0
    expected = {name: name != "denseprobe" for name in
                ("gd", "agd", "heavyball", "denseprobe")}
    ok = all(v == expected[name] for (name, _), v in verdicts.items())
    _line(10, ok, elapsed,
          "span methods accepted, the probing method flagged, k in {3,10,30}")
    for (name, k), v in verdicts.items():
        assert v == expected[name], f"{name} at k={k}: got {v}"


def test_criterion_11_norm_bound(warmed_up):
    t0 = time.perf_counter()
    worst_err = 0.0
    worst_excess = -np.inf
    eight_sigma_ok = True
    for k in range(1, 201):
        inst = build_instance(k, SIGMA, ZETA)  # sigma = 1.3 * zeta
        a_norm = inst.a_norm()
        svd = np.linalg.svd(inst.dense(), compute_uv=False)[0]
        worst_err = max(worst_err, abs(a_norm - svd) / svd)
        worst_excess = max(worst_excess, a_norm - inst.spectral_norm_bound())
        eight_sigma_ok = eight_sigma_ok and (a_norm < 8.0 * SIGMA)
    elapsed = time.perf_counter() - t0
    ok = worst_err <= 1e-14 and worst_excess < 0.0 and eight_sigma_ok
    _line(11, ok, elapsed,
          f"||A|| matches dense SVD to {worst_err:.2e} relative; "
          f"max excess over the row bound {worst_excess:.2e}; all below 8*sigma")
    assert worst_err <= 1e-14
    assert worst_excess < 0.0
    assert eight_sigma_ok
