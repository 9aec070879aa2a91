"""Command-line harness: generate datasets, verify invariants, race methods.

Subcommands:

- ``generate``: write one dataset (csv or libsvm) plus its metadata sidecar.
- ``verify``: run the analytic invariant suite up to a given dimension.
- ``race``: run a method on the hard instance (dimension 2T) for each
  requested T and compare the final gap/distance against the span-method
  lower bounds (and, for agd, the upper bound); a method that leaves the
  span gets its figures and no bound verdict.
- ``resist``: race a method against the adaptive rotation adversary
  (dimension 4T+2) and check the general lower bounds plus replay.

Exit codes: 0 pass, 1 assertion failure, 2 usage error (a bad argument,
or an output path that cannot be written).  A report's
figures and verdicts are those of its ``invariants.Findings``; reports are
canonical JSON (sorted keys); pass --no-timestamp for byte-identical reruns.
"""

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import analytic, datasets, invariants, logloss, optimizers, resist

DEFAULT_SIGMA = 1.3
DEFAULT_ZETA = 1.0


def _parse_t_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in str(text).split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad iteration list {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"bad iteration list {text!r}")
    return values


def cmd_generate(args) -> int:
    inst = datasets.build_instance(args.k, args.sigma, args.zeta, args.variant)
    out = Path(args.out or f"wc_k{inst.k}_{inst.variant}.{args.format}")
    out.parent.mkdir(parents=True, exist_ok=True)
    extra = analytic.profile_metadata(analytic.profile(inst))
    sidecar = datasets.export(inst, args.format, out, extra)
    print(f"wrote {out} ({inst.n_rows} rows x {inst.k} columns) and {sidecar}")
    return 0


def cmd_verify(args) -> int:
    if args.max_k < 2:
        print("error: --max-k must be >= 2", file=sys.stderr)
        return 2
    insts = [datasets.build_instance(k, DEFAULT_SIGMA, DEFAULT_ZETA)
             for k in range(1, args.max_k + 1)]
    profiles = [analytic.profile(inst) for inst in insts]
    rng = np.random.default_rng(20240601)  # one draw of k(k-1)/2 per dimension k
    trap_points = (
        (insts[k - 1], invariants.trailing_stack(k, rng.standard_normal(k * (k - 1) // 2)))
        for k in range(2, args.max_k + 1)
    )
    checks = [
        invariants.ratio_constant(insts[0]),
        *invariants.optimum(zip(insts, profiles)),
        invariants.gradient_trap(trap_points),
        invariants.restricted_optimum_identity(insts, profiles),
        invariants.norm_bound([i for i in insts if i.k in (1, 2, 3, 5, args.max_k)]),
    ]
    for check in checks:
        status = "ok" if check.passed else "FAIL"
        print(f"{status:4s} {check.name}: {check.detail}")
    failures = sum(not check.passed for check in checks)
    print(f"{failures} failure(s)")
    return 1 if failures else 0


def _emit(args, inst, T, stem, trace, prof, findings, ts, out_dir) -> bool:
    """Write the report of a T-iteration run of ``args.method`` on ``inst``
    from ``findings``, a list of ``invariants.Findings`` (their figures, and
    their checks as the verdicts, in order), and the trace CSV; print the
    verdicts and return whether all passed."""
    report = {"config": {"method": args.method, "k": inst.k, "sigma": args.sigma,
                         "zeta": args.zeta, "T": T, "variant": inst.variant},
              "measured": {}, "theoretical": {}}
    checks = []
    for found in findings:
        report["measured"].update(found.measured)
        report["theoretical"].update(found.theoretical)
        checks += found.checks
    report["verdicts"] = [{"check": c.name, "passed": bool(c.passed), "margin": float(c.margin)}
                          for c in checks]
    if ts is not None:
        report["timestamp"] = ts
    with open(out_dir / f"report_{stem}.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    optimizers.trace_to_csv(trace, out_dir / f"trace_{stem}.csv", prof.f_star)
    for c in checks:
        status = "ok" if c.passed else "FAIL"
        print(f"{status:4s} T={T} {c.name} (margin {c.margin:.3e})")
    return all(c.passed for c in checks)


def _oracle_and_profile(inst):
    """The first-order oracle of ``inst`` and the profile its cell is judged
    against, or a ValueError before the run: the oracle's own one unless L
    is a positive finite double, then one unless ||x*||^2 is finite, since
    every bound and floor of the report scales with it."""
    oracle = logloss.FirstOrderOracle(inst)
    prof = analytic.profile(inst)
    if not math.isfinite(prof.xstar_norm_sq):
        raise ValueError(f"||x*||^2 is not finite at sigma={inst.sigma}, zeta={inst.zeta}, "
                         f"k={inst.k}: xstar_norm_sq = {prof.xstar_norm_sq}")
    return oracle, prof


def _race_cell(args, T, ts, out_dir) -> bool:
    inst = datasets.build_instance(2 * T, args.sigma, args.zeta)
    oracle, prof = _oracle_and_profile(inst)
    trace = optimizers.run(args.method, oracle, T, prof.x_star)
    # no bound is a theorem for a non-span method here (the general one needs the adversary)
    span = invariants.zero_chain(trace).passed
    findings = [
        invariants.lower_bound(inst, trace, prof, True) if span
        else invariants.run_figures(inst, trace, prof),
        invariants.Findings(
            (), {"span_method": span, "support_frontier": trace.support_frontier}, {}),
    ]
    if args.method == "agd":
        findings.append(invariants.agd_upper_bound(inst, trace, prof))
    return _emit(args, inst, T, f"{args.method}_T{T}", trace, prof, findings, ts, out_dir)


def _resist_cell(args, T, ts, out_dir) -> bool:
    inst = datasets.build_instance(4 * T + 2, args.sigma, args.zeta)
    _, prof = _oracle_and_profile(inst)  # the adversary answers through its own oracle
    trace, deviation, final, oracle = resist.adversarial_run(args.method, inst, T, prof.x_star)
    findings = [invariants.lower_bound(final, trace, prof, False),
                invariants.adversary(oracle, final, deviation)]
    del oracle  # T+1 placed k-vectors; the exports below need the memory more

    stem = f"resist_{args.method}_T{T}"
    datasets.export(final, "libsvm", out_dir / f"dataset_{stem}.libsvm",
                    analytic.profile_metadata(prof))
    resist.save_matrix_csv(final.U, out_dir / f"rotation_{stem}.csv")
    return _emit(args, final, T, stem, trace, prof, findings, ts, out_dir)


def _cells(args, cell, Ts) -> int:
    """Run ``cell(args, T, ts, out_dir)`` for each T in ``Ts``, all into the
    one ``--out`` directory under one timestamp; 1 if a cell failed under
    ``--strict``, else 0."""
    ts = None if args.no_timestamp else time.strftime("%Y-%m-%dT%H:%M:%S%z")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    passed = [cell(args, T, ts, out_dir) for T in Ts]
    return 1 if args.strict and not all(passed) else 0


def cmd_race(args) -> int:
    return _cells(args, _race_cell, args.T)


def cmd_resist(args) -> int:
    return _cells(args, _resist_cell, [args.T])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardlogit",
        description="Hard binary-logistic-regression datasets and first-order method benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a dataset file plus metadata sidecar")
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    p_gen.add_argument("--zeta", type=float, default=DEFAULT_ZETA)
    p_gen.add_argument("--variant", default="fourblock", choices=datasets.VARIANTS)
    p_gen.add_argument("--format", default="csv", choices=datasets.FORMATS)
    p_gen.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run the analytic invariant suite")
    p_ver.add_argument("--max-k", type=int, default=20)

    for name, help_text, method, T_arg in (
        ("race", "race a method against the lower bounds", "agd",
         {"type": _parse_t_list, "default": (5, 25, 50),
          "help": "comma-separated iteration counts"}),
        ("resist", "race a method against the rotation adversary", "denseprobe",
         {"type": int, "default": 10}),
    ):
        p_cell = sub.add_parser(name, help=help_text)
        p_cell.add_argument("--method", default=method, choices=optimizers.METHOD_NAMES)
        p_cell.add_argument("--T", **T_arg)
        p_cell.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
        p_cell.add_argument("--zeta", type=float, default=DEFAULT_ZETA)
        p_cell.add_argument("--out", default="reports")
        p_cell.add_argument("--strict", action="store_true")
        p_cell.add_argument("--no-timestamp", action="store_true")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command: parse ``argv`` with the process's one parser and
    call ``cmd_<command>`` as this module holds it at the time of the call,
    so a wrapper installed on it sees the call."""
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
