"""Deterministic first-order methods driven purely by the oracle.

A method is its name, one of ``METHOD_NAMES`` as an exact string (any
other name raises ValueError).  Every method starts at x_0 = 0, takes the
step 1/L for the smoothness constant L the oracle exposes, and is fully
deterministic; the methods here make one oracle call per iteration, and
``drive`` counts every call whatever their number as it streams the
iterates, which ``run`` folds into scalars, its count the trace's
``oracle_calls``.  Besides the newest iterates the fold holds only those
it answers in one stack, at most STACK_CELLS cells, so a run's memory is
O(k + STACK_CELLS) whatever T.  ``denseprobe`` deliberately leaves the
span of past gradients (it adds a scaled all-ones direction) while still
converging, so the support test and the adaptive adversary have a method
to catch.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

METHOD_NAMES = ("gd", "agd", "heavyball", "denseprobe")
MOMENTUM = 0.9  # heavyball
PROBE_SCALE = 1e-3  # denseprobe: the weight of its all-ones direction
# cells of a stack of iterates the fold answers in one call: agd's race at
# T = 100, 250, 500 took 42.9 ms answering them one at a time, and 40.4 /
# 38.5 / 38.0 ms at 2,048 / 3,072 / 4,096 cells (medians of 24 alternated
# rounds); race-ladder's peak RSS rose 0.08 / 0.23-0.27 / 0.25 MB
STACK_CELLS = 3072
# trace rows formatted at once: the whole 5,001-row trace of agd's race at
# T = 5,000 at once raised its peak RSS by 1.1 MB
CSV_ROWS = 256


@dataclass(frozen=True)
class Trace:
    """One run's per-iterate metrics, folded from the iterates as they arrive.

    Entry t of ``values``, ``grad_norms`` (sup-norm) and ``dist_sq`` is the
    loss, its gradient and the squared distance to the optimum at x_t
    (x_0 = 0); ``final`` is x_T.  ``support_frontier`` is max over t of
    supp(x_t) - t, supp(x) being k minus the index of the first nonzero of
    x (0 for x = 0): a frontier <= 0 certifies exactly that every x_t lies
    on the trailing t coordinates, the one property of a gradient-span
    method the span lower bound uses (the zero-chain argument).
    """

    values: np.ndarray  # (T+1,)
    grad_norms: np.ndarray  # (T+1,)
    dist_sq: np.ndarray  # (T+1,)
    final: np.ndarray  # (k,)
    support_frontier: int
    oracle_calls: int  # the calls the method made, drive's count

    def __len__(self) -> int:
        return len(self.values)


def iterate_steps(name: str, ask, k: int, step: float):
    """Generate iterates x_1, x_2, ... of method ``name`` with step size ``step``,
    calling ask(x) for oracle answers.

    The generator is infinite; callers take as many steps as they need.
    For gd / heavyball / denseprobe the oracle is queried at each iterate;
    agd queries at its extrapolated points.
    """
    if name not in METHOD_NAMES:
        raise ValueError(f"unknown method {name!r}; expected one of {METHOD_NAMES}")
    x = np.zeros(k)
    if name == "gd":
        while True:
            g = ask(x).gradient
            x = x - step * g
            yield x
    elif name == "agd":
        # query at the extrapolated point y_t, report the descent point x_t
        x_prev = x
        y = x
        t = 1
        while True:
            g = ask(y).gradient
            x_new = y - step * g
            y = x_new + ((t - 1) / (t + 2)) * (x_new - x_prev)
            x_prev = x_new
            t += 1
            yield x_new
    elif name == "heavyball":
        x_prev = x
        while True:
            g = ask(x).gradient
            x_new = x - step * g + MOMENTUM * (x - x_prev)
            x_prev = x
            x = x_new
            yield x
    else:  # denseprobe
        ones_dir = np.full(k, 1.0 / np.sqrt(k))
        while True:
            g = ask(x).gradient
            x = x - step * g + PROBE_SCALE * math.sqrt(g @ g) * ones_dir  # np.linalg.norm(g)
            yield x


def drive(name: str, oracle, T: int):
    """Step method ``name`` T times from x_0 = 0 against ``oracle``.

    The oracle exposes the dimension as ``oracle.k`` and the smoothness
    constant of its loss as ``oracle.lipschitz``; the step is 1/L.  Yields
    ``(x_t, answer_t, calls)`` for t = 0 .. T, each once the method has
    computed x_{t+1}: answer_t is the first answer it received at a query
    point equal to x_t (None when it never queried there, as at x_T), and
    ``calls`` the oracle calls it has made so far, all of them at t = T.
    Only the newest iterates and that answer are held.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    x = np.zeros(oracle.k)
    answer = None
    calls = 0

    def ask(query):
        nonlocal answer, calls
        resp = oracle(query)
        calls += 1
        if answer is None and (query is x or query[-1] == x[-1] and np.array_equal(query, x)):
            answer = resp
        return resp

    stepper = iterate_steps(name, ask, oracle.k, 1.0 / oracle.lipschitz)
    for _ in range(T):
        x_next = next(stepper)
        yield x, answer, calls
        x, answer = x_next, None
    yield x, None, calls


def _fold(stream, oracle, x_star: np.ndarray) -> Trace:
    """Fold ``drive``'s ``(x, answer, calls)`` stream into a trace as each
    iterate arrives (distances to ``x_star``, the optimum in the oracle's
    coordinates).

    Values and gradient norms come from the answer the method received at
    the iterate; an iterate it never queried (x_T, and agd's x_2 .. x_T) is
    evaluated by ``oracle``, a call ``oracle_calls`` leaves out.  Where the
    oracle answers a stack's rows with one-point bits (its
    ``_stacks_exactly``), those iterates are held and answered in stacks
    of at most STACK_CELLS cells, one point at a time where a stack would
    hold one row; so the fold holds at most STACK_CELLS cells of iterates.
    """
    values, grad_norms, dist_sq = [], [], []
    frontier = 0
    exact = getattr(oracle, "_stacks_exactly", None)
    rows = STACK_CELLS // oracle.k if exact is not None and exact() else 1
    held = {}  # t -> x_t, each awaiting its answer

    def answer_held():
        if len(held) > 1:
            ts, stack = list(held), np.array(list(held.values()))
            held.clear()  # the stack is the one copy the call sees
            resp = oracle(stack)
            for t, value, norm in zip(ts, resp.value, np.abs(resp.gradient).max(axis=1)):
                values[t], grad_norms[t] = value, norm
        elif held:
            t, x = held.popitem()
            resp = oracle(x)
            values[t], grad_norms[t] = resp.value, np.abs(resp.gradient).max()

    for t, (x, answer, calls) in enumerate(stream):
        if answer is None:
            values.append(None)
            grad_norms.append(None)
            held[t] = x
            if len(held) >= rows:
                answer_held()
        else:
            values.append(answer.value)
            grad_norms.append(np.abs(answer.gradient).max())
        d = x - x_star
        dist_sq.append(d @ d)
        lead = x[: max(len(x) - t - frontier, 0)]  # where a nonzero raises the frontier
        if np.count_nonzero(lead):
            frontier = len(x) - int(np.argmax(lead != 0.0)) - t
    answer_held()
    return Trace(np.array(values), np.array(grad_norms), np.array(dist_sq), x, frontier, calls)


def run(name: str, oracle, T: int, x_star: np.ndarray) -> Trace:
    """T iterations of method ``name`` against ``oracle``, folded; distances to ``x_star``."""
    return _fold(drive(name, oracle, T), oracle, x_star)


def trace_to_csv(trace: Trace, path, f_star: float) -> None:
    """Per-iteration metrics: t, value, gap, dist_sq, grad_norm, formatted
    CSV_ROWS rows at a time by one template."""
    values = trace.values.tolist()
    rows = zip(range(len(values)), values, (value - f_star for value in values),
               trace.dist_sq.tolist(), trace.grad_norms.tolist())
    with open(path, "w", newline="") as fh:  # "\r\n" ends lines, as csv.writer does
        fh.write("t,value,gap,dist_sq,grad_norm\r\n")
        while block := list(itertools.islice(rows, CSV_ROWS)):
            fh.write("%d,%.17g,%.17g,%.17g,%.17g\r\n" * len(block)
                     % tuple(itertools.chain.from_iterable(block)))
