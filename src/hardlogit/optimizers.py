"""Deterministic first-order methods driven purely by the oracle.

Every method starts at x_0 = 0 and is fully deterministic; the methods
here make one oracle call per iteration, and ``drive`` records every
answer whatever the number of calls.  ``dense_probe`` deliberately leaves
the span of past gradients (it adds a scaled all-ones direction) while
still converging, so span checking and the adaptive adversary have a
method to catch.
"""

import csv
from dataclasses import dataclass, replace

import numpy as np

from .datasets import canonical_name


@dataclass(frozen=True)
class MethodSpec:
    """A named deterministic method and its step parameters.

    ``step_size`` is usually 1/L with L the smoothness constant of the
    target instance; the harness fills it in.  ``momentum`` applies to
    heavyball only, ``probe_scale`` to dense_probe only.
    """

    name: str
    step_size: float | None = None
    momentum: float = 0.9
    probe_scale: float = 1e-3

    def with_step(self, step_size: float) -> "MethodSpec":
        return replace(self, step_size=step_size)


METHOD_NAMES = ("gd", "agd", "heavyball", "denseprobe")


@dataclass(frozen=True)
class Trace:
    """One run's iterates, per-iterate metrics and received gradients.

    iterates[0] is always the zero start; values[i] and grad_norms[i]
    (sup-norm) are the loss data at iterates[i], recomputable exactly.
    gradients holds every gradient the method received, in call order.
    """

    iterates: np.ndarray  # (T+1, k)
    values: np.ndarray  # (T+1,)
    grad_norms: np.ndarray  # (T+1,)
    oracle_calls: int
    gradients: np.ndarray  # (m, k)

    def __len__(self) -> int:
        return self.iterates.shape[0]

    @classmethod
    def from_responses(cls, iterates, gradients, responses, oracle_calls) -> "Trace":
        """The trace whose values and grad_norms are read from one oracle
        response per iterate."""
        return cls(
            iterates=iterates,
            values=np.array([r.value for r in responses]),
            grad_norms=np.array([np.max(np.abs(r.gradient)) for r in responses]),
            oracle_calls=oracle_calls, gradients=gradients,
        )


def iterate_steps(method: MethodSpec, ask, k: int):
    """Generate iterates x_1, x_2, ... calling ask(x) for oracle answers.

    The generator is infinite; callers take as many steps as they need.
    For gd / heavyball / denseprobe the oracle is queried at each iterate;
    agd queries at its extrapolated points.
    """
    name = canonical_name(method.name, METHOD_NAMES, "method")
    if method.step_size is None or not method.step_size > 0:
        raise ValueError("method.step_size must be a positive real")
    eta = float(method.step_size)
    x = np.zeros(k)
    if name == "gd":
        while True:
            g = ask(x).gradient
            x = x - eta * g
            yield x
    elif name == "agd":
        # query at the extrapolated point y_t, report the descent point x_t
        x_prev = x
        y = x
        t = 1
        while True:
            g = ask(y).gradient
            x_new = y - eta * g
            y = x_new + ((t - 1) / (t + 2)) * (x_new - x_prev)
            x_prev = x_new
            t += 1
            yield x_new
    elif name == "heavyball":
        beta = float(method.momentum)
        x_prev = x
        while True:
            g = ask(x).gradient
            x_new = x - eta * g + beta * (x - x_prev)
            x_prev = x
            x = x_new
            yield x
    else:  # denseprobe
        ones_dir = np.full(k, 1.0 / np.sqrt(k))
        scale = float(method.probe_scale)
        while True:
            g = ask(x).gradient
            x = x - eta * g + scale * float(np.linalg.norm(g)) * ones_dir
            yield x


def drive(method: MethodSpec, oracle, T: int):
    """Step the method T times from x_0 = 0 against ``oracle``.

    The oracle must expose the dimension as ``oracle.k``.  Returns
    ``(iterates, gradients, answers)``: the (T+1, k) iterates, every
    gradient the method received in call order as an (m, k) array, and for
    each iterate t the first answer received at a query point equal to x_t
    (None when the method never queried there).
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    k = oracle.k
    iterates = np.zeros((T + 1, k))
    gradients = np.empty((T, k))  # doubled when a method calls more often
    m = 0
    answers = [None] * (T + 1)
    t = 0  # index of the newest iterate while the method computes the next

    def ask(x):
        nonlocal gradients, m
        resp = oracle(x)
        if m == len(gradients):
            gradients = np.concatenate([gradients, np.empty_like(gradients)])
        gradients[m] = resp.gradient
        m += 1
        if answers[t] is None and np.array_equal(x, iterates[t]):
            answers[t] = resp
        return resp

    stepper = iterate_steps(method, ask, k)
    for t in range(T):
        iterates[t + 1] = next(stepper)
    return iterates, gradients[:m], answers


def run(method: MethodSpec, oracle, T: int) -> Trace:
    """Execute exactly T iterations from x_0 = 0 and assemble the trace.

    Trace values come from the answers the method received at its
    iterates; each iterate it never queried (x_T, and agd's x_2 .. x_T)
    costs one extra oracle call.  ``oracle_calls`` counts everything.
    """
    iterates, gradients, answers = drive(method, oracle, T)
    responses = [a if a is not None else oracle(x) for a, x in zip(answers, iterates)]
    extra = sum(a is None for a in answers)
    return Trace.from_responses(iterates, gradients, responses, len(gradients) + extra)


def check_linear_span(trace: Trace, rel_tol: float = 1e-8) -> bool:
    """Whether every iterate x_t lies in the span of the first t gradients
    the method received (``trace.gradients[:t]``).

    Keeps an orthonormal basis of that span as the rows of an (r, k)
    array, adding each gradient after two classical Gram-Schmidt passes
    (dropped when its residual is below 1e-12 of its norm), and tests the
    projection residual of x_t against rel_tol*(1 + ||x_t||).
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    gradients = trace.gradients
    k = trace.iterates.shape[1]
    basis = np.empty((min(len(gradients), k), k))
    r = 0
    for t in range(1, len(trace)):
        if t <= len(gradients) and r < len(basis):
            v = gradients[t - 1]
            for _ in range(2):  # re-orthogonalize for stability
                v = v - (basis[:r] @ v) @ basis[:r]
            v_norm = np.linalg.norm(v)
            if v_norm > 1e-12 * np.linalg.norm(gradients[t - 1]):
                basis[r] = v / v_norm
                r += 1
        x = trace.iterates[t]
        resid = x - (basis[:r] @ x) @ basis[:r]
        if np.linalg.norm(resid) > rel_tol * (1.0 + np.linalg.norm(x)):
            return False
    return True


def trace_to_csv(trace: Trace, path, f_star: float, x_star: np.ndarray) -> None:
    """Per-iteration metrics: t, value, gap, dist_sq, grad_norm."""
    x_star = np.asarray(x_star, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value", "gap", "dist_sq", "grad_norm"])
        for t in range(len(trace)):
            d = trace.iterates[t] - x_star
            writer.writerow([
                t,
                f"{trace.values[t]:.17g}",
                f"{trace.values[t] - f_star:.17g}",
                f"{float(d @ d):.17g}",
                f"{trace.grad_norms[t]:.17g}",
            ])
