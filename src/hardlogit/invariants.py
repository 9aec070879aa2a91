"""Every invariant the harness checks, each with its tolerance.

A check runs on instances, profiles, points or traces and returns a
``Check``: ``margin`` is how far the measured quantity lies inside its
limit (negative on failure), ``detail`` the text ``verify`` prints; one
whose figures a report prints returns them with it, as ``Findings``.
``verify`` and the acceptance suite take their checks from here, and a
``race`` or ``resist`` report is the list of its ``Findings``: every verdict
is judged in this module (U'U on the factors of U), and every figure comes
from it, though ``resist`` measures two, the containment and label-direction
residuals that ``adversary`` reports.  Calls into the package go through
module attributes (``logloss.loss``), so a wrapper installed on one sees
them.  Each sweep calls the loss half it reads, one stack per instance:
``logloss.loss_gradient`` in ``gradient_trap`` (``restricted_run`` steps
on it too), ``logloss.loss_value`` in ``restricted_optimum_identity``.
"""

import itertools
import operator
from typing import NamedTuple

import numpy as np

from . import analytic, logloss, optimizers, resist

RATIO_FLOOR = 0.5  # C(sigma/zeta) must exceed it for the per-coordinate gap bound
GRADIENT_TOL = 1e-9  # sup-norm of the gradient and the intercept derivative at x*
VALUE_TOL = 1e-10  # |f(x*) - f*| / (1 + |f*|)
LEAK_TOL = 1e-10  # gradient entries outside the next trap subspace
IDENTITY_TOL = 1e-9  # restricted-optimum identity, absolute
RUN_STEPS = 100_000  # accelerated steps of a restricted run
RUN_TOL = 1e-6  # a restricted run's value against the identity, absolute
NORM_TOL = 1e-14  # closed-form ||A|| against a dense SVD, relative
SANDWICH_TOL = 1e-9  # upper/lower bound against sandwich_ratio(T), relative
SANDWICH_CAP = 256.0 / 3.0
ROTATION_TOL = resist.ORTHOGONALITY_TOL  # ||U'U - I||_F
DIRECTION_TOL = 1e-10  # max |U'(A'b) - A'b|
REPLAY_TOL = 1e-8  # replayed queries and x_T against the placed points, sup-norm


class Check(NamedTuple):
    name: str
    passed: bool
    margin: float
    detail: str


class Findings(NamedTuple):
    """Checks with the figures they compared, under the names a report
    prints them: ``measured`` from the run, ``theoretical`` the targets."""

    checks: tuple
    measured: dict
    theoretical: dict


def _at_most(name: str, worst: float, tol: float) -> Check:
    return Check(name, bool(worst <= tol), tol - worst, f"max={worst:.2e}")


def ratio_constant(inst) -> Check:
    """The ratio constant C(sigma/zeta) of the instance is above 1/2."""
    ratio = analytic.constant_c_ratio(inst.sigma, inst.zeta)
    return Check("ratio_constant_above_half", bool(ratio > RATIO_FLOOR),
                 ratio - RATIO_FLOOR, f"C={ratio:.6f}")


def optimum(pairs) -> tuple[Check, Check, Check]:
    """At the closed-form x* of each (base instance, profile): the gradient
    vanishes and the loss is f*.  The third check is the mirror identity of
    the four-block variant: its blocks pair (s, l) with (-s, -l) and tanh is
    odd, so the derivative in an intercept y at y = 0, sum tanh(A x/2) -
    sum b, vanishes at every x, x* included; it fails on a copy whose one
    block is off its mirror.  Any other variant raises ValueError."""
    grad = value = dy = 0.0
    for inst, prof in pairs:
        if inst.variant != "fourblock":
            raise ValueError("unsupported variant: the intercept derivative needs fourblock")
        resp = logloss.loss(inst, prof.x_star)
        grad = max(grad, float(np.max(np.abs(resp.gradient))))
        value = max(value, abs(resp.value - prof.f_star) / (1.0 + abs(prof.f_star)))
        wx = inst.w.apply(prof.x_star)
        u = np.concatenate([s * wx for s in inst.block_scales])  # A x*, all N rows
        dy = max(dy, abs(float(np.sum(np.tanh(0.5 * u)) - np.sum(inst.labels))))
    return (
        _at_most("optimum_gradient_vanishes", grad, GRADIENT_TOL),
        _at_most("optimum_value_matches_formula", value, VALUE_TOL),
        _at_most("intercept_derivative_vanishes", dy, GRADIENT_TOL),
    )


def gradient_trap(cases) -> Check:
    """For each (instance, x), x a point or a stack of points: a point
    supported on its trailing t coordinates gets a gradient supported on
    the trailing t+1 (the zero chain).  Each run of consecutive cases on
    one instance is evaluated as one stack."""
    leak = [0.0]
    # instances compare by identity (eq=False), so a run is one instance
    for inst, run in itertools.groupby(cases, key=operator.itemgetter(0)):
        X = np.vstack([x for _, x in run]).astype(float, copy=False)
        support = X != 0.0
        first = np.where(support.any(axis=1), support.argmax(axis=1), inst.k)
        outside = np.arange(inst.k) < first[:, None] - 1  # the leading k-(t+1)
        g = logloss.loss_gradient(inst, X)
        leak.append(np.max(np.abs(g), where=outside, initial=0.0))
    return _at_most("gradients_stay_in_next_subspace", float(np.max(leak)), LEAK_TOL)


def zero_chain(trace) -> Check:
    """Every iterate x_t is supported on the trailing t coordinates, the
    one hypothesis of the span lower bound; exact.  The margin is minus
    the support frontier."""
    frontier = trace.support_frontier
    return Check("iterates_in_span", frontier <= 0, float(-frontier),
                 f"support frontier {frontier}")


def trailing_stack(k: int, values: np.ndarray) -> np.ndarray:
    """The k-1 points of dimension k whose point t-1 holds t of ``values``
    on its trailing t coordinates and zeros elsewhere: ``values``, of
    length k(k-1)/2, placed row by row in one masked assignment."""
    stack = np.zeros((k - 1, k))
    stack[np.arange(k) >= np.arange(k - 1, 0, -1)[:, None]] = values
    return stack


def restricted_optimum_identity(insts, profiles) -> Check:
    """``insts`` and their ``profiles`` in dimensions 1, 2, ..., n, one
    (sigma, zeta): for t < k <= n the k-dimensional loss at (0, x*_t) is
    8(k-t)log 2 + f*_t, and that minus f*_k is ``subspace_gap(k, t)``.
    The k-1 points of dimension k are evaluated as one stack, placed from
    the leading k(k-1)/2 entries of one concatenation of the profiles' own
    x*_1, x*_2, ...; the f*_t are read from one array."""
    unit_gap = analytic.per_coordinate_gap(insts[0].sigma, insts[0].zeta)
    x_stars = np.concatenate([p.x_star for p in profiles])
    f_stars = np.array([p.f_star for p in profiles])
    worst = [0.0]
    for inst in insts[1:]:
        k = inst.k
        t = np.arange(1, k)
        X = trailing_stack(k, x_stars[: k * (k - 1) // 2])  # row t-1 is (0, x*_t)
        rhs = 8.0 * (k - t) * logloss.LOG2 + f_stars[: k - 1]
        worst += [np.max(np.abs(logloss.loss_value(inst, X) - rhs)),
                  np.max(np.abs((rhs - f_stars[k - 1]) - 4.0 * (k - t) * unit_gap))]
    return _at_most("restricted_optimum_identity", float(np.max(worst)), IDENTITY_TOL)


def restricted_run(cases) -> Check:
    """For each (k-dimensional instance, t-dimensional profile), RUN_STEPS
    accelerated steps on the trailing t coordinates reach 8(k-t)log 2 + f*_t.
    agd reads only gradients: each answer's value is NaN, never evaluated."""
    worst = 0.0
    for inst, prof in cases:
        k, t = inst.k, len(prof.x_star)
        x = np.zeros(k)

        def ask(y):  # the gradient at (0, y) on the trailing t
            x[k - t:] = y
            return logloss.OracleResponse(np.nan, logloss.loss_gradient(inst, x)[k - t:])

        steps = optimizers.iterate_steps("agd", ask, t, 1.0 / logloss.lipschitz(inst))
        x[k - t:] = next(itertools.islice(steps, RUN_STEPS - 1, None))
        expected = 8.0 * (k - t) * logloss.LOG2 + prof.f_star
        worst = max(worst, abs(logloss.loss_value(inst, x) - expected))
    return _at_most("restricted_run_reaches_identity", worst, RUN_TOL)


def norm_bound(insts) -> Check:
    """The closed-form ||A|| of each instance matches a dense SVD and lies
    below the row-structure bound."""
    err, excess = 0.0, -np.inf
    for inst in insts:
        a_norm = inst.a_norm()
        svd = float(np.linalg.svd(inst.dense(), compute_uv=False)[0])
        err = max(err, abs(a_norm - svd) / svd)
        excess = max(excess, a_norm - inst.spectral_norm_bound())
    return Check("norm_below_closed_form_bound", bool(err <= NORM_TOL and excess < 0.0),
                 min(NORM_TOL - err, -excess),
                 f"max relative error vs SVD={err:.2e}, max excess={excess:.2e}")


def run_figures(inst, trace, prof) -> Findings:
    """A run's final gap and squared distance to x*, ||A|| and ``oracle_calls``."""
    return Findings((), {"final_gap": float(trace.values[-1] - prof.f_star),
                         "final_dist_sq": float(trace.dist_sq[-1]), "a_norm": inst.a_norm(),
                         "oracle_calls": trace.oracle_calls}, {})


def lower_bound(inst, trace, prof, span) -> Findings:
    """The final gap of a T-step run lies above the span lower bound
    (``span``) or the general one, and its squared distance to the optimum
    above 1/8 of the start's; with the ``run_figures``."""
    figures = run_figures(inst, trace, prof).measured
    gap, dist_sq = figures["final_gap"], figures["final_dist_sq"]
    dist0_sq = prof.xstar_norm_sq
    bound_at = analytic.bound_linear_span if span else analytic.bound_general
    bound = bound_at(len(trace) - 1, figures["a_norm"], dist0_sq)
    floor = bound.dist_factor * dist0_sq
    return Findings(
        (Check(f"gap_above_{'span' if span else 'general'}_lower_bound", gap > bound.gap,
               gap - bound.gap, f"gap={gap:.3e}, bound={bound.gap:.3e}"),
         Check("dist_sq_above_one_eighth", dist_sq > floor, dist_sq - floor,
               f"dist_sq={dist_sq:.3e}, floor={floor:.3e}")),
        figures,
        {"gap_lower_bound": bound.gap, "dist_factor": bound.dist_factor, "dist0_sq": dist0_sq},
    )


def agd_upper_bound(inst, trace, prof) -> Findings:
    """The final gap of an accelerated T-step run is below 2L||x*||^2/(T+1)^2;
    with the closed-form ratio of that bound to the span lower bound."""
    T = len(trace) - 1
    upper = analytic.agd_upper_bound(T, logloss.lipschitz(inst), prof.xstar_norm_sq)
    gap = float(trace.values[-1] - prof.f_star)
    return Findings((Check("gap_below_agd_upper_bound", gap <= upper, upper - gap,
                           f"gap={gap:.3e}, bound={upper:.3e}"),),
                    {}, {"agd_upper_bound": upper, "sandwich_ratio": analytic.sandwich_ratio(T)})


def sandwich(T, upper, lower) -> Check:
    """The ``agd_upper_bound`` over the span ``lower_bound`` of one T-step
    run, both as their ``Findings`` report them, is the closed form
    ``sandwich_ratio(T)``, below 256/3."""
    ratio = upper.theoretical["agd_upper_bound"] / lower.theoretical["gap_lower_bound"]
    err = abs(ratio - analytic.sandwich_ratio(T))
    return Check("sandwich_ratio_matches_closed_form",
                 bool(err <= SANDWICH_TOL * ratio and ratio <= SANDWICH_CAP),
                 min(SANDWICH_TOL * ratio - err, SANDWICH_CAP - ratio), f"ratio={ratio:.2f}")


def rotation_orthogonal(inst) -> Findings:
    """The rotated instance's U is orthogonal: ||U'U - I||_F is within
    ROTATION_TOL.  U = I - V'T'V in compact WY form, so U'U - I = V'MV for
    M = T(VV')T' - T - T', and with R from a QR of V' the residual is
    ||RMR'||_F: O(j^2 k) for j reflectors, no k x k array, never negative,
    NaN (a failure) if V or T holds one."""
    V, T = inst.U.V, inst.U.triangular
    R = np.linalg.qr(V.T, mode="r")
    M = T @ (V @ V.T) @ T.T - T - T.T
    residual = float(np.linalg.norm(R @ M @ R.T))
    return Findings((_at_most("rotation_orthogonal", residual, ROTATION_TOL),),
                    {"orthogonality_residual": residual}, {})


def data_direction_fixed(inst) -> Findings:
    """The rotated instance keeps the label direction: U'(A'b) = A'b."""
    residual = resist.data_direction_residual(inst)
    return Findings((_at_most("data_direction_fixed", residual, DIRECTION_TOL),),
                    {"data_direction_residual": residual}, {})


def replay_matches(deviation) -> Check:
    """An adaptive run's replay asks at its placed points and ends at x_T:
    ``deviation`` is ``resist.replay_check``'s; NaN and inf fail."""
    return _at_most("replay_matches", deviation, REPLAY_TOL)


def adversary(oracle, final, deviation) -> Findings:
    """The promises of the adversary behind ``final``, the frozen instance
    of ``oracle``'s run: its U is orthogonal and fixes the label direction,
    and the replay on it reproduced the run (``deviation``).  With the
    reflections taken, the steps skipped and the largest leak of a placed
    point out of its trap subspace."""
    orthogonal, direction = rotation_orthogonal(final), data_direction_fixed(final)
    return Findings(
        orthogonal.checks + direction.checks + (replay_matches(deviation),),
        {"reflections": len(oracle.U), "skipped": oracle.skipped,
         "max_containment_residual": float(np.max(resist.containment_residuals(oracle))),
         **orthogonal.measured, **direction.measured},
        {},
    )
