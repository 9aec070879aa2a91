"""Command times adjusted for the speed of a shared host.

The host this benchmark was tuned on runs it at speeds that differ by up to
2x from one second to the next, as other tenants load the cores it shares,
and the slow and fast phases last from seconds to minutes.  Raw times of
identical work then spread past any useful bound between runs.

``SpeedProbe`` times a fixed reference kernel, which uses no hardlogit code,
before a command, after it, and about every ``PROBE_INTERVAL_S`` seconds
while it runs.  The probes inside run in the thread that runs the program:
thin wrappers on the outer traced functions (at the tracer's binding
sites) run the kernel when a probe is due, so the kernel never competes
with the program for the interpreter lock.  Each stretch of program time between two kernel
runs is divided by the mean of their two times and multiplied by
``REF_KERNEL_S``, the kernel's time at the full speed of that host: the
adjusted time is the command's time at that full speed.  Kernel time is not
counted in either the raw or the adjusted time.

Probes only interleave correctly while one thread runs program code at a
time, which holds because ``race`` runs with ``HARDLOGIT_THREADS`` cleared.
"""

import time

import numpy as np

from tracer import HOT, collect_sites, install, uninstall

REF_KERNEL_S = 0.010  # the kernel's time at full speed on the 2-core tuning host
PROBE_INTERVAL_S = 0.2
# Of the functions called thousands of times per round, only the outermost
# carry a probe: the program's long loops reach them many times a second,
# and wrappers on every hot function cost 10% of the k = 50 generate.
PROBED_HOT = frozenset({"logloss.loss", "datasets.WOperator.apply", "analytic.profile"})

_REF_MATRIX = np.random.default_rng(0).standard_normal((256, 256)) / 16.0


def ref_kernel():
    """Run the fixed reference work once.

    It mixes the program's kinds of work: interpreter steps, small numpy
    calls and a dense matrix-vector product.
    """
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    v = np.linspace(0.0, 1.0, 64)
    for _ in range(1_500):
        v = np.tanh(0.5 * v) + 1e-3
    w = np.ones(256)
    for _ in range(200):
        w = _REF_MATRIX @ w
        w /= np.linalg.norm(w)


def adjusted_time(kernels):
    """(raw, adjusted) seconds between the first and last of ``kernels``,
    a list of (start, end) kernel runs, not counting the kernels."""
    raw = adj = 0.0
    for (s0, e0), (s1, e1) in zip(kernels, kernels[1:]):
        raw += s1 - e0
        adj += (s1 - e0) * REF_KERNEL_S / ((e0 - s0 + e1 - s1) / 2.0)
    return raw, adj


class SpeedProbe:
    def __init__(self, package):
        self.sites = collect_sites(package, self._wrap)
        self.kernels = []
        self.due = float("inf")

    def _probe(self):
        start = time.perf_counter()
        ref_kernel()
        end = time.perf_counter()
        self.kernels.append((start, end))
        self.due = end + PROBE_INTERVAL_S

    def _wrap(self, name, fn):
        if name in HOT and name not in PROBED_HOT:
            return fn
        probe = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if clock() >= probe.due:
                probe._probe()
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def time(self, fn):
        """(raw seconds, adjusted seconds, result) of ``fn()``."""
        self.kernels = []
        self._probe()
        install(self.sites)
        try:
            result = fn()
        finally:
            uninstall(self.sites)
            self._probe()
        raw, adj = adjusted_time(self.kernels)
        return raw, adj, result
