"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  The verdicts come from ``hardlogit.invariants``, which pins every
tolerance; the time budgets are pinned here, and the heavy adversarial runs
are shared between the two criteria that inspect them.
"""

import time

import numpy as np
import pytest

from conftest import adversarial
from hardlogit import (
    FirstOrderOracle,
    build_instance,
    constant_c_ratio,
    invariants,
    profile,
    run,
    solve_c,
)

SIGMA, ZETA = 1.3, 1.0


def _line(num, ok, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num:2d} [{elapsed:8.3f} s] {detail}", flush=True)


def _criterion(num, elapsed, budget, cells, detail=None):
    """Print the criterion's line (``detail``, or every check's), then require
    every check of ``cells`` ((cell, Check) pairs) to pass within ``budget`` s."""
    failed = [f"{cell} {c.name}: {c.detail}" for cell, c in cells if not c.passed]
    detail = detail or "; ".join(f"{c.name} {c.detail}" for _, c in cells)
    _line(num, not failed and elapsed < budget, elapsed, failed or detail)
    assert not failed, failed
    assert elapsed < budget


@pytest.fixture(scope="module")
def warmed_up():
    # first-touch numpy/import costs must not pollute the timed criteria
    inst = build_instance(4, SIGMA, ZETA)
    run("gd", FirstOrderOracle(inst), 2, profile(inst).x_star)
    constant_c_ratio(SIGMA, ZETA)
    return True


def test_criterion_01_ratio_constant_above_half(warmed_up):
    inst = build_instance(1, 1.3, 1.0)
    t0 = time.perf_counter()
    check = invariants.ratio_constant(inst)
    elapsed = time.perf_counter() - t0
    _criterion(1, elapsed, 1e-3, [("", check)], f"{check.detail} > 0.5")


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
    insts = [build_instance(k, 1.3 * zeta, zeta)
             for k in (1, 2, 10, 100) for zeta in (0.5, 1.0, 2.0)]
    cells = [("", c) for c in invariants.optimum([(i, profile(i)) for i in insts])]
    elapsed = time.perf_counter() - t0
    _criterion(3, elapsed, 1.0, cells)


def test_criterion_04_subspace_trapping(warmed_up):
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    points = ((inst, np.concatenate([np.zeros(inst.k - t), rng.standard_normal(t)]))
              for inst in (build_instance(k, SIGMA, ZETA) for k in range(2, 31))
              for t in range(1, inst.k) for _ in range(100))  # 100 per trap subspace
    cells = [("k<=30", invariants.gradient_trap(points))]
    inst = build_instance(30, SIGMA, ZETA)
    x_star = profile(inst).x_star
    for name in ("gd", "agd", "heavyball"):
        trace = run(name, FirstOrderOracle(inst), 29, x_star)
        cells.append((name, invariants.zero_chain(trace)))
    elapsed = time.perf_counter() - t0
    _criterion(4, elapsed, 5.0, cells)


def test_criterion_05_restricted_optimum(warmed_up):
    t0 = time.perf_counter()
    insts = [build_instance(k, SIGMA, ZETA) for k in range(1, 21)]
    profs = [profile(inst) for inst in insts]
    # long restricted runs on representative pairs (full grid would blow the
    # stated runtime budget; the closed-form identity covers all pairs)
    pairs = ((6, 3), (12, 5), (20, 7))
    cells = [
        ("k<=20", invariants.restricted_optimum_identity(insts, profs)),
        (pairs, invariants.restricted_run([(insts[k - 1], profs[t - 1]) for k, t in pairs])),
    ]
    elapsed = time.perf_counter() - t0
    _criterion(5, elapsed, 30.0, cells)


def test_criterion_06_linear_span_lower_bound(warmed_up):
    t0 = time.perf_counter()
    cells = []
    for T in (5, 25, 50):
        inst = build_instance(2 * T, SIGMA, ZETA)
        prof = profile(inst)
        for name in ("gd", "agd", "heavyball"):
            trace = run(name, FirstOrderOracle(inst), T, prof.x_star)
            checks = invariants.lower_bound(inst, trace, prof, span=True).checks
            cells += [(f"{name}/T={T}", c) for c in checks]
    elapsed = time.perf_counter() - t0
    _criterion(6, elapsed, 10.0, cells,
               f"{len(cells) // 2} method/T cells, e.g. gd/T=5 {cells[0][1].detail}")


def test_criterion_07_tightness_sandwich(warmed_up):
    t0 = time.perf_counter()
    cells = []
    for T in (5, 25, 50):
        inst = build_instance(2 * T, SIGMA, ZETA)
        prof = profile(inst)
        trace = run("agd", FirstOrderOracle(inst), T, prof.x_star)
        (upper,) = invariants.agd_upper_bound(inst, trace, prof).checks
        cells += [(f"T={T}", upper), (f"T={T}", invariants.sandwich(inst, trace, prof))]
    elapsed = time.perf_counter() - t0
    _criterion(7, elapsed, 10.0, cells,
               "upper bound holds; upper/lower "
               + ", ".join(f"{cell}:{c.detail}" for cell, c in cells[1::2]) + " (cap 85.33)")


@pytest.fixture(scope="module")
def adversarial_results(warmed_up):
    t0 = time.perf_counter()
    cells = {}
    for T in (5, 10, 25):
        for name in ("gd", "agd", "denseprobe"):
            cells[(name, T)] = adversarial(name, T, SIGMA, ZETA)
    return cells, time.perf_counter() - t0


def test_criterion_08_general_lower_bound(adversarial_results):
    cells, elapsed = adversarial_results
    checks = []
    for (name, T), (trace, _, final, _) in cells.items():
        prof = profile(final)
        checks += [(f"{name}/T={T}", c) for c in (
            *invariants.lower_bound(final, trace, prof, span=False).checks,
            invariants.rotation_orthogonal(final),
            *invariants.data_direction_fixed(final).checks,
        )]
    _criterion(8, elapsed, 60.0, checks, "9 adversarial cells (k up to 102): all hold")


def test_criterion_09_indistinguishability(adversarial_results):
    cells, _ = adversarial_results
    t0 = time.perf_counter()
    checks = [(f"{name}/T={T}", invariants.replay_matches(deviation))
              for (name, T), (_, deviation, _, _) in cells.items()]
    elapsed = time.perf_counter() - t0
    _criterion(9, elapsed, np.inf, checks, "replays match within 1e-8 for all 9 cells")


def test_criterion_10_span_violation_detection(warmed_up):
    t0 = time.perf_counter()
    verdicts = {}
    for k in (3, 10, 30):
        inst = build_instance(k, SIGMA, ZETA)
        x_star = profile(inst).x_star
        T = k - 1
        for name in ("gd", "agd", "heavyball", "denseprobe"):
            trace = run(name, FirstOrderOracle(inst), T, x_star)
            verdicts[(name, k)] = invariants.zero_chain(trace).passed
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
    insts = [build_instance(k, SIGMA, ZETA) for k in range(1, 201)]  # sigma = 1.3 * zeta
    check = invariants.norm_bound(insts)
    eight_sigma_ok = all(inst.a_norm() < 8.0 * SIGMA for inst in insts)
    elapsed = time.perf_counter() - t0
    _line(11, check.passed and eight_sigma_ok, elapsed,
          f"{check.detail}; all below 8*sigma: {eight_sigma_ok}")
    assert check.passed, check
    assert eight_sigma_ok
