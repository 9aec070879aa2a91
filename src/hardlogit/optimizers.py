"""Deterministic first-order methods driven purely by the oracle.

Every method starts at x_0 = 0 and is fully deterministic; the methods
here make one oracle call per iteration, and ``drive`` counts every call
whatever their number.  ``dense_probe`` deliberately leaves the span of
past gradients (it adds a scaled all-ones direction) while still
converging, so the support test and the adaptive adversary have a method
to catch.
"""

import csv
from dataclasses import dataclass, replace

import numpy as np

from .datasets import canonical_name


@dataclass(frozen=True)
class MethodSpec:
    """A named deterministic method and its step size.

    ``step_size`` is usually 1/L with L the smoothness constant of the
    target instance; the harness fills it in.
    """

    name: str
    step_size: float | None = None

    def with_step(self, step_size: float) -> "MethodSpec":
        return replace(self, step_size=step_size)


METHOD_NAMES = ("gd", "agd", "heavyball", "denseprobe")
MOMENTUM = 0.9  # heavyball
PROBE_SCALE = 1e-3  # denseprobe: the weight of its all-ones direction


@dataclass(frozen=True)
class Trace:
    """One run's iterates and per-iterate metrics.

    iterates[0] is always the zero start; values[i] and grad_norms[i]
    (sup-norm) are the loss data at iterates[i], recomputable exactly.
    """

    iterates: np.ndarray  # (T+1, k)
    values: np.ndarray  # (T+1,)
    grad_norms: np.ndarray  # (T+1,)
    oracle_calls: int

    def __len__(self) -> int:
        return self.iterates.shape[0]

    @classmethod
    def from_responses(cls, iterates, responses, oracle_calls) -> "Trace":
        """The trace whose values and grad_norms are read from one oracle
        response per iterate."""
        return cls(
            iterates=iterates,
            values=np.array([r.value for r in responses]),
            grad_norms=np.array([np.max(np.abs(r.gradient)) for r in responses]),
            oracle_calls=oracle_calls,
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
        x_prev = x
        while True:
            g = ask(x).gradient
            x_new = x - eta * g + MOMENTUM * (x - x_prev)
            x_prev = x
            x = x_new
            yield x
    else:  # denseprobe
        ones_dir = np.full(k, 1.0 / np.sqrt(k))
        while True:
            g = ask(x).gradient
            x = x - eta * g + PROBE_SCALE * float(np.linalg.norm(g)) * ones_dir
            yield x


def drive(method: MethodSpec, oracle, T: int):
    """Step the method T times from x_0 = 0 against ``oracle``.

    The oracle must expose the dimension as ``oracle.k``.  Returns
    ``(iterates, answers, calls)``: the (T+1, k) iterates, for each
    iterate t the first answer received at a query point equal to x_t
    (None when the method never queried there), and the number of oracle
    calls the method made.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    k = oracle.k
    iterates = np.zeros((T + 1, k))
    answers = [None] * (T + 1)
    calls = 0
    t = 0  # index of the newest iterate while the method computes the next

    def ask(x):
        nonlocal calls
        resp = oracle(x)
        calls += 1
        if answers[t] is None and np.array_equal(x, iterates[t]):
            answers[t] = resp
        return resp

    stepper = iterate_steps(method, ask, k)
    for t in range(T):
        iterates[t + 1] = next(stepper)
    return iterates, answers, calls


def run(method: MethodSpec, oracle, T: int) -> Trace:
    """Execute exactly T iterations from x_0 = 0 and assemble the trace.

    Trace values come from the answers the method received at its
    iterates; each iterate it never queried (x_T, and agd's x_2 .. x_T)
    costs one extra oracle call.  ``oracle_calls`` counts everything.
    """
    iterates, answers, calls = drive(method, oracle, T)
    responses = [a if a is not None else oracle(x) for a, x in zip(answers, iterates)]
    extra = sum(a is None for a in answers)
    return Trace.from_responses(iterates, responses, calls + extra)


def support_frontier(trace: Trace) -> int:
    """max over t of supp(x_t) - t, where supp(x) is k minus the index of
    the first nonzero entry of x (0 for the zero vector).

    A value <= 0 certifies that every iterate x_t is supported on the
    trailing t coordinates, the one property of a gradient-span method
    that the span lower bound uses (the zero-chain argument).  The test is
    exact: one O(Tk) pass over the iterates, no tolerance.
    """
    x = trace.iterates
    if len(x) == 0:
        raise ValueError("empty trace")
    nonzero = x != 0.0
    supp = np.where(nonzero.any(axis=1), x.shape[1] - nonzero.argmax(axis=1), 0)
    return int(np.max(supp - np.arange(len(x))))


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
