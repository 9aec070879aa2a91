#!/usr/bin/env python3
"""Benchmark of the hardlogit CLI commands, run in-process on fixed workloads.

    python3 perfbench/run.py --workload race-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each run repeats whole rounds of its workload's commands, one
after another with a single caller (a closed loop), until ``--seconds``
have passed.  After every round each command's outputs are checked against
the independent references in ``reference.py``.  With ``--trace 0`` the
last line reports the end-to-end metrics, with times adjusted to the
host's speed as ``speed.py`` describes; with ``--trace 1`` untraced and
traced rounds alternate and the last line reports the per-layer metrics of
the traced ones.  Outputs, a results record and the spans go to
``.perfbench_work/``.  ``--workload all`` runs every workload in turn, each
in its own process.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads: on a shared 2-core host a threaded
# gemm waits for the slower core, and resist-adversary timings spread most.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import reference as ref_mod
from speed import SpeedProbe
from tracer import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

RACE_METHODS = ("gd", "agd", "heavyball", "denseprobe")
RACE_T = (100, 250, 500)
RESIST_RUNS = (("denseprobe", 130), ("agd", 150))
VERIFY_MAX_K = 80
GENERATE_RUNS = (("twoblock", 50, "csv"), ("fourblock", 2000, "libsvm"),
                 ("fourblock", 400, "csv"))
WORKLOADS = ("race-ladder", "resist-adversary", "analytic-sweep")
SETUP_REPS = 9
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import numpy as np; import hardlogit; "
    "hardlogit.loss(hardlogit.build_instance(4, 1.3, 1.0), np.zeros(4))"
)
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def draw_params(seed, n):
    """(sigma, zeta) per command: 1.1 <= sigma/zeta <= 1.9, zeta in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        ratio = rng.uniform(1.1, 1.9)
        zeta = rng.uniform(0.5, 2.0)
        out.append((float(ratio * zeta), float(zeta)))
    return out


class Command:
    """One CLI invocation, the files whose digests it must reproduce, and
    the check that turns its outputs into operations (name, problems,
    known_fault)."""

    def __init__(self, kind, argv, digest_files, check):
        self.kind, self.argv, self.digest_files, self.check = kind, argv, digest_files, check


def _params_args(sigma, zeta):
    return ["--sigma", repr(sigma), "--zeta", repr(zeta)]


def race_commands(seed, out):
    cmds = []
    for method, (sigma, zeta) in zip(RACE_METHODS, draw_params(seed, len(RACE_METHODS))):
        argv = (["race", "--method", method, "--T", ",".join(map(str, RACE_T))]
                + _params_args(sigma, zeta)
                + ["--out", str(out), "--strict", "--no-timestamp"])
        files = [out / f"{p}_{method}_T{T}.{e}"
                 for T in RACE_T for p, e in (("report", "json"), ("trace", "csv"))]
        refs = {T: ref_mod.Reference(2 * T, sigma, zeta) for T in RACE_T}

        def check(rc, stdout, method=method, refs=refs):
            ops = []
            for T, ref in refs.items():
                stem = out / f"{method}_T{T}"
                report = json.loads((out / f"report_{method}_T{T}.json").read_text())
                trace = ref_mod.read_trace(out / f"trace_{method}_T{T}.csv")
                problems = [] if rc == 0 else [f"exit code {rc}"]
                problems += ref_mod.check_race_cell(report, trace, method, T, ref)
                ops.append((f"race {stem.name}", problems, False))
                ops.append((f"a_norm {stem.name}", ref_mod.check_a_norm(report, ref), True))
            return ops

        cmds.append(Command("race", argv, files, check))
    return cmds


def resist_commands(seed, out):
    cmds = []
    for (method, T), (sigma, zeta) in zip(RESIST_RUNS, draw_params(seed, len(RESIST_RUNS))):
        stem = f"resist_{method}_T{T}"
        argv = (["resist", "--method", method, "--T", str(T)] + _params_args(sigma, zeta)
                + ["--out", str(out), "--strict", "--no-timestamp"])
        files = [out / f"report_{stem}.json", out / f"trace_{stem}.csv"]
        ref = ref_mod.Reference(4 * T + 2, sigma, zeta)

        def check(rc, stdout, method=method, T=T, stem=stem, ref=ref):
            report = json.loads((out / f"report_{stem}.json").read_text())
            trace = ref_mod.read_trace(out / f"trace_{stem}.csv")
            u = ref_mod.read_matrix_csv(out / f"rotation_{stem}.csv")
            problems = [] if rc == 0 else [f"exit code {rc}"]
            problems += ref_mod.check_resist(
                report, trace, u, out / f"dataset_{stem}.libsvm", method, T, ref)
            return [(stem, problems, False),
                    (f"a_norm {stem}", ref_mod.check_a_norm(report, ref), True)]

        cmds.append(Command("resist", argv, files, check))
    return cmds


def analytic_commands(seed, out):
    def verify_check(rc, stdout):
        return [("verify", ref_mod.check_verify(rc, stdout), False)]

    cmds = [Command("verify", ["verify", "--max-k", str(VERIFY_MAX_K)], [], verify_check)]
    params = draw_params(seed, len(GENERATE_RUNS))
    for (variant, k, fmt), (sigma, zeta) in zip(GENERATE_RUNS, params):
        path = out / f"wc_k{k}_{variant}.{fmt}"
        argv = (["generate", "--k", str(k), "--variant", variant, "--format", fmt]
                + _params_args(sigma, zeta) + ["--out", str(path)])
        ref = ref_mod.Reference(k, sigma, zeta, variant)

        def check(rc, stdout, path=path, fmt=fmt, ref=ref):
            problems = [] if rc == 0 else [f"exit code {rc}"]
            meta = path.with_suffix(path.suffix + ".meta.json")
            problems += ref_mod.check_generate(path, meta, fmt, ref)
            return [(f"generate {path.name}", problems, False)]

        cmds.append(Command("generate", argv, [path, path.with_suffix(path.suffix + ".meta.json")], check))
    return cmds


BUILDERS = {
    "race-ladder": race_commands,
    "resist-adversary": resist_commands,
    "analytic-sweep": analytic_commands,
}


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Round:
    """Runs every command once, timing each, then checks all outputs."""

    def __init__(self, cli, cmds, state):
        self.cli, self.cmds, self.state = cli, cmds, state

    def run_commands(self, probe=None):
        """Seconds taken by each command: raw, and adjusted to the host's
        speed when a ``SpeedProbe`` is given."""
        self.outputs = []
        raw, adj = [], []
        for cmd in self.cmds:
            buf = io.StringIO()

            def command(argv=cmd.argv, buf=buf):
                with contextlib.redirect_stdout(buf):
                    return self.cli.main(list(argv))

            if probe is None:
                start = time.perf_counter()
                rc = command()
                raw.append(time.perf_counter() - start)
            else:
                raw_s, adj_s, rc = probe.time(command)
                raw.append(raw_s)
                adj.append(adj_s)
            self.outputs.append((rc, buf.getvalue()))
        return raw, adj

    def check(self):
        state = self.state
        for cmd, (rc, stdout) in zip(self.cmds, self.outputs):
            try:
                ops = cmd.check(rc, stdout)
                digests = {p.name: sha256(p) for p in cmd.digest_files}
            except (OSError, ValueError, KeyError, IndexError) as exc:
                ops = [(" ".join(cmd.argv[:3]), [f"unreadable output: {exc!r}"], False)]
                digests = {}
            changed = [p for p, d in digests.items()
                       if state["digests"].setdefault(p, d) != d]
            if changed:
                ops[0] = (ops[0][0], ops[0][1] + [f"output differs from round 1: {changed}"], ops[0][2])
            for name, problems, known_fault in ops:
                state["attempted"] += 1
                if problems:
                    state["failed"] += 1
                    if not known_fault:
                        state["correct"] = False
                    if len(state["problems"]) < 50:
                        state["problems"].append({"op": name, "problems": problems})


def measure_setup(probe):
    """Median set-up seconds, raw and adjusted to the host's speed."""
    raw, adj = [], []
    for _ in range(SETUP_REPS):
        # no timeout: with one, wait() polls at up to 50 ms intervals
        raw_s, adj_s, _ = probe.time(lambda: subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL))
        raw.append(raw_s)
        adj.append(adj_s)
    return statistics.median(raw), statistics.median(adj)


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_record(state):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except OSError:
        sha = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "hardlogit_threads_cleared": "HARDLOGIT_THREADS" not in os.environ,
        "output_sha256": state["digests"],
    }


def mean_round(rounds):
    """Command seconds per round, averaged over the rounds.

    The mean, not the median: a median over three or four rounds picks up
    a slow round whole; over ten runs of raw times the mean spread less on
    every workload.
    """
    return sum(map(sum, rounds)) / len(rounds)


def layer_unit(name):
    if name.endswith((".calls", ".iterations", ".oracle_calls")):
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith(".distinct_ratio"):
        return "ratio"
    return "s"


def run_workload(workload, seed, seconds, trace):
    import hardlogit
    from hardlogit import cli

    out = WORK / f"{workload}-{os.getpid()}"  # concurrent runs do not share outputs
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmds = BUILDERS[workload](seed, out)
    state = {"attempted": 0, "failed": 0, "correct": True, "problems": [], "digests": {}}
    # warm-up: imports and first-call set-up finish before timing
    hardlogit.loss(hardlogit.build_instance(4, 1.3, 1.0), np.zeros(4))

    probe = None if trace else SpeedProbe(hardlogit)
    setup_raw_s, setup_s = (None, None) if trace else measure_setup(probe)
    tracer = Tracer(hardlogit) if trace else None
    rounds, adj_rounds, traced_rounds, layers, span_rounds = [], [], [], [], []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        rnd = Round(cli, cmds, state)
        raw, adj = rnd.run_commands(probe)
        rounds.append(raw)
        adj_rounds.append(adj)
        if peak_rss_mb is None:  # the program's peak, before any check allocates
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rnd.check()
        if trace:
            rnd = Round(cli, cmds, state)
            tracer.reset()
            tracer.install()
            try:
                traced_rounds.append(rnd.run_commands()[0])
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics())
            span_rounds.append(tracer.spans)
            rnd.check()
        if time.perf_counter() - start >= seconds:
            break

    # the first round fills caches and grows the heap: checked, not timed
    wall_raw_s = mean_round(rounds[1:] or rounds)
    if trace:
        metrics = {name: statistics.median(r[name] for r in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = mean_round(traced_rounds) - wall_raw_s
        units = {name: layer_unit(name) for name in metrics}
        tracer.write_spans(WORK / "results" / f"{workload}-seed{seed}-spans.jsonl", span_rounds)
    else:
        wall_s = mean_round(adj_rounds[1:] or adj_rounds)
        metrics = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
    record = run_record(state)
    record.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "argv": [cmd.argv for cmd in cmds], "round_command_s": rounds,
        "round_command_adjusted_s": adj_rounds, "traced_round_command_s": traced_rounds,
        "raw_wall_s": wall_raw_s, "raw_setup_s": setup_raw_s,
        "metrics": metrics, "problems": state["problems"],
    })
    result_path = WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    result_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(out, ignore_errors=True)

    for kind in sorted({cmd.kind for cmd in cmds}):
        cols = [j for j, cmd in enumerate(cmds) if cmd.kind == kind]
        kind_rounds = rounds if trace else adj_rounds
        timed = kind_rounds[1:] or kind_rounds
        kind_s = mean_round([[r[j] for j in cols] for r in timed])
        print(f"{workload}: {kind}_s = {kind_s:.4f} s ({'raw' if trace else 'adjusted'}), "
              f"mean of {len(timed)} timed rounds")
    print(f"{workload}: raw wall = {wall_raw_s:.4f} s" + (
        "" if trace else f", raw set-up = {setup_raw_s:.4f} s (unadjusted medians)"))
    for name, value in metrics.items():
        print(f"{workload}: {name} = {value:.6g} {units[name]}")
    print(f"{workload}: attempted {state['attempted']}, failed {state['failed']}, "
          f"correct {state['correct']}; record in {result_path.relative_to(ROOT)}")
    for p in state["problems"][:5]:
        print(f"{workload}: problem: {p['op']}: {'; '.join(p['problems'])}")
    print(json.dumps({
        "correct": state["correct"], "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        rc = 0
        for workload in WORKLOADS:
            rc |= subprocess.run([sys.executable, __file__, "--workload", workload,
                                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)]).returncode
        return rc

    if not (SRC / "hardlogit" / "__init__.py").is_file():
        print(f"error: no hardlogit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("HARDLOGIT_THREADS", None)  # race runs its cells on one thread
    import hardlogit
    if Path(hardlogit.__file__).resolve().parent != (SRC / "hardlogit").resolve():
        print(f"error: imported hardlogit from {hardlogit.__file__}", file=sys.stderr)
        return 2
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
