"""Span tracing of the hardlogit modules, installed from outside the package.

The package binds functions across modules with ``from ... import``, so a
wrapper has to replace every binding a caller uses: ``spectral_norm`` lives
in ``datasets`` and ``logloss``, ``loss`` in ``logloss``, ``analytic`` and
``resist``, and everything again in the package namespace.
``collect_sites`` finds each binding by identity; ``Tracer`` (and the speed
probe of ``speed.py``) swaps in a wrapper while installed and restores the
original afterwards.

Every wrapped call pushes a frame on one stack.  On return the frame's
duration is added to its parent's child time, so a function's self time is
its duration minus the part covered by its direct children.  Functions in
``HOT`` are called thousands of times per round; they are counted and timed
in aggregate only.  Every other call also keeps a span record (id, name,
parent id, start, end) in memory, written out by ``write_spans``.

One stack serves all threads.  That is only correct while one thread runs
traced code at a time, which holds because ``race`` is run with
``HARDLOGIT_THREADS`` cleared: its single worker runs while the caller
waits on it.
"""

import inspect
import json
import os
import time
from collections import defaultdict

MODULES = ("datasets", "logloss", "analytic", "optimizers", "resist", "cli")

# Methods traced besides the public module-level functions.
METHODS = (
    ("datasets", "WOperator", "apply"),
    ("datasets", "RotatedInstance", "__init__"),
    ("resist", "ResistingOracle", "__call__"),
    ("resist", "ResistingOracle", "finalize"),
)

HOT = frozenset({
    "datasets.WOperator.apply", "datasets.matvec_a", "datasets.matvec_at",
    "datasets.build_instance", "datasets.build_w",
    "logloss.loss", "logloss.h_value", "logloss.h_grad", "logloss.phi",
    "analytic.solve_c", "analytic.c_bracket", "analytic.logcosh",
    "analytic.constant_c_ratio", "analytic.per_coordinate_gap",
    "analytic.subspace_gap", "analytic.profile", "analytic.profile_metadata",
})


class Stat:
    __slots__ = ("calls", "s", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.extra = defaultdict(int)


def _on_exit(tracer, name, args, kwargs, result, stat):
    """Counts recorded at the boundary of particular functions."""
    if name == "datasets.spectral_norm":
        stat.extra["iterations"] += result.iterations
    elif name == "datasets.export":
        path = kwargs.get("path", args[2] if len(args) > 2 else None)
        stat.extra["bytes"] += os.path.getsize(path)
    elif name == "analytic.solve_c":
        tracer.solve_c_args.add((float(args[0]), float(args[1])))


def collect_sites(package, wrap):
    """Every binding of a traced function, as (owner, attribute, original,
    wrapper) with the wrapper made by ``wrap(name, original)``."""
    modules = [getattr(package, m) for m in MODULES]
    targets = {}  # id(original) -> (name, original)
    for mod_name, mod in zip(MODULES, modules):
        for attr, value in vars(mod).items():
            if (
                inspect.isfunction(value)
                and not attr.startswith("_")
                and value.__module__ == mod.__name__
                and not inspect.isgeneratorfunction(value)
            ):
                targets[id(value)] = (f"{mod_name}.{attr}", value)
    sites = []
    for mod_name, cls_name, meth in METHODS:
        cls = getattr(getattr(package, mod_name), cls_name)
        original = cls.__dict__[meth]
        sites.append((cls, meth, original, wrap(f"{mod_name}.{cls_name}.{meth}", original)))
    wrappers = {key: wrap(name, fn) for key, (name, fn) in targets.items()}
    for mod in [package] + modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers and value is targets[id(value)][1]:
                sites.append((mod, attr, value, wrappers[id(value)]))
    return sites


def install(sites):
    for owner, attr, _, wrapper in sites:
        setattr(owner, attr, wrapper)


def uninstall(sites):
    for owner, attr, original, _ in sites:
        setattr(owner, attr, original)


class Tracer:
    def __init__(self, package):
        self.sites = collect_sites(package, self._wrap)
        self.reset()

    def reset(self):
        self.stats = defaultdict(Stat)
        self.spans = []
        self.stack = []
        self.solve_c_args = set()
        self.oracle_calls_in_span_check = 0

    def _wrap(self, name, fn):
        tracer = self
        hot = name in HOT
        clock = time.perf_counter
        is_span_check = name == "optimizers.check_linear_span"

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span_id = None
            if not hot:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            frame = [0.0, span_id]  # child time, span id
            stack.append(frame)
            loss_before = tracer.stats["logloss.loss"].calls if is_span_check else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat = tracer.stats[name]
                stat.calls += 1
                stat.s += duration
                stat.self_s += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if span_id is not None:
                    parent_id = parent[1] if parent is not None else None
                    tracer.spans[span_id] = (span_id, name, parent_id, start, end)
                if is_span_check:
                    tracer.oracle_calls_in_span_check += (
                        tracer.stats["logloss.loss"].calls - loss_before
                    )
            _on_exit(tracer, name, args, kwargs, result, stat)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        install(self.sites)

    def uninstall(self):
        uninstall(self.sites)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the calls recorded since the last reset."""
        get = self.stats.__getitem__  # a defaultdict: missing names read as zero
        loss = get("logloss.loss")
        solve = get("analytic.solve_c")
        out = {
            "datasets.spectral_norm.calls": get("datasets.spectral_norm").calls,
            "datasets.spectral_norm.s": get("datasets.spectral_norm").s,
            "datasets.spectral_norm.iterations":
                get("datasets.spectral_norm").extra["iterations"],
            "datasets.WOperator.apply.calls": get("datasets.WOperator.apply").calls,
            "datasets.export.s": get("datasets.export").s,
            "datasets.export.bytes": get("datasets.export").extra["bytes"],
            "datasets.RotatedInstance.init_s":
                get("datasets.RotatedInstance.__init__").s,
            "logloss.loss.calls": loss.calls,
            "logloss.loss.s": loss.s,
            "logloss.loss.us_per_call": 1e6 * loss.s / loss.calls if loss.calls else 0.0,
            "logloss.lipschitz.calls": get("logloss.lipschitz").calls,
            "analytic.solve_c.calls": solve.calls,
            "analytic.solve_c.s": solve.s,
            "analytic.solve_c.distinct_ratio":
                len(self.solve_c_args) / solve.calls if solve.calls else 0.0,
            "analytic.profile.s": get("analytic.profile").s,
            "analytic.numeric_optimum.s": get("analytic.numeric_optimum").s,
            "optimizers.run.s": get("optimizers.run").s,
            "optimizers.run.self_s": get("optimizers.run").self_s,
            "optimizers.check_linear_span.s": get("optimizers.check_linear_span").s,
            "optimizers.check_linear_span.oracle_calls": self.oracle_calls_in_span_check,
            "optimizers.trace_to_csv.s": get("optimizers.trace_to_csv").s,
            "resist.fix_and_map.calls": get("resist.fix_and_map").calls,
            "resist.fix_and_map.s": get("resist.fix_and_map").s,
            "resist.ResistingOracle.self_s": get("resist.ResistingOracle.__call__").self_s,
            "resist.replay_check.s": get("resist.replay_check").s,
            "resist.save_matrix_csv.s": get("resist.save_matrix_csv").s,
        }
        for cmd in ("race", "resist", "verify", "generate"):
            out[f"cli.cmd_{cmd}.self_s"] = get(f"cli.cmd_{cmd}").self_s
        return out

    def write_spans(self, path, rounds):
        """Write the spans of every traced round: one JSON object per round."""
        with open(path, "w") as fh:
            for spans in rounds:
                json.dump({"spans": spans}, fh)
                fh.write("\n")
