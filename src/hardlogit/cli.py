"""Command-line harness: generate datasets, verify invariants, race methods.

Subcommands:

- ``generate``: write one dataset (csv or libsvm) plus its metadata sidecar.
- ``verify``: run the analytic invariant suite up to a given dimension.
- ``race``: run a method on the hard instance (dimension 2T) for each
  requested T and compare the final gap/distance against the span-method
  lower bounds (and, for agd, the upper bound).
- ``resist``: race a method against the adaptive rotation adversary
  (dimension 4T+2) and check the general lower bounds plus replay.

Exit codes: 0 pass, 1 assertion failure, 2 usage error.  Reports are
canonical JSON (sorted keys); pass --no-timestamp for byte-identical
reruns.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analytic, datasets, invariants, logloss, optimizers, resist

DEFAULT_SIGMA = 1.3
DEFAULT_ZETA = 1.0


@dataclass
class ExperimentReport:
    """Config echo, measured quantities, theoretical targets, and the
    verdicts as ``invariants.Check`` records."""

    config: dict
    measured: dict
    theoretical: dict
    verdicts: list = field(default_factory=list)
    timestamp: str | None = None

    def write(self, path) -> None:
        out = {"config": self.config, "measured": self.measured,
               "theoretical": self.theoretical, "verdicts": [
                   {"check": v.name, "passed": bool(v.passed), "margin": float(v.margin)}
                   for v in self.verdicts]}
        if self.timestamp is not None:
            out["timestamp"] = self.timestamp
        with open(path, "w") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _timestamp(args) -> str | None:
    if getattr(args, "no_timestamp", False):
        return None
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


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
    fmt = args.format.lower()
    ext = {"csv": "csv", "libsvm": "libsvm"}[fmt]
    out = Path(args.out) if args.out else Path(f"wc_k{inst.k}_{inst.variant.value}.{ext}")
    datasets.export(inst, fmt, out)
    sidecar = out.with_suffix(out.suffix + ".meta.json")
    extra = analytic.profile_metadata(analytic.profile(inst))
    datasets.export(inst, "json-meta", sidecar, extra_meta=extra)
    print(f"wrote {out} ({inst.n_rows} rows x {inst.k} columns) and {sidecar}")
    return 0


def cmd_verify(args) -> int:
    if args.max_k < 2:
        print("error: --max-k must be >= 2", file=sys.stderr)
        return 2
    insts = [datasets.build_instance(k, DEFAULT_SIGMA, DEFAULT_ZETA)
             for k in range(1, args.max_k + 1)]
    profiles = [analytic.profile(inst) for inst in insts]
    rng = np.random.default_rng(20240601)
    trap_points = ((inst, np.concatenate([np.zeros(inst.k - t), rng.standard_normal(t)]))
                   for inst in insts[1:] for t in range(1, inst.k))  # t < k
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


def _bound_report(args, inst, T, trace, prof, x_star, span, ts):
    """Report of a T-iteration run of ``args.method`` on ``inst`` (optimum
    ``x_star`` in the run's coordinates) against the span lower bound, or
    the general one when ``span`` is false."""
    a_norm = inst.a_norm()
    gap = float(trace.values[-1] - prof.f_star)
    diff = trace.iterates[-1] - x_star
    dist_sq = float(diff @ diff)
    dist0_sq = prof.xstar_norm_sq
    bound_at = analytic.bound_linear_span if span else analytic.bound_general
    bound = bound_at(T, a_norm, dist0_sq)
    return ExperimentReport(
        config={
            "method": args.method, "k": inst.k, "sigma": args.sigma,
            "zeta": args.zeta, "T": T, "variant": inst.variant.value,
        },
        measured={
            "final_gap": gap, "final_dist_sq": dist_sq, "a_norm": a_norm,
            "oracle_calls": trace.oracle_calls,
        },
        theoretical={
            "gap_lower_bound": bound.gap, "dist_factor": bound.dist_factor,
            "dist0_sq": dist0_sq,
        },
        verdicts=list(invariants.lower_bound(inst, trace, prof, x_star, span)),
        timestamp=ts,
    )


def _emit(report, out_dir, stem, trace, f_star, x_star) -> bool:
    """Write the report and the trace CSV, print the verdicts, and return
    whether all passed."""
    report.write(out_dir / f"report_{stem}.json")
    optimizers.trace_to_csv(trace, out_dir / f"trace_{stem}.csv", f_star, x_star)
    T = report.config["T"]
    for v in report.verdicts:
        status = "ok" if v.passed else "FAIL"
        print(f"{status:4s} T={T} {v.name} (margin {v.margin:.3e})")
    return all(v.passed for v in report.verdicts)


def _race_cell(args, T, ts, out_dir) -> bool:
    inst = datasets.build_instance(2 * T, args.sigma, args.zeta)
    prof = analytic.profile(inst)
    trace = optimizers.run(args.method, logloss.FirstOrderOracle(inst), T)
    chain = invariants.zero_chain(trace)
    report = _bound_report(args, inst, T, trace, prof, prof.x_star, chain.passed, ts)
    report.measured["span_method"] = chain.passed
    report.measured["support_frontier"] = int(-chain.margin)
    if args.method == "agd":
        upper = analytic.agd_upper_bound(T, logloss.lipschitz(inst), prof.xstar_norm_sq)
        report.theoretical["agd_upper_bound"] = upper
        report.theoretical["sandwich_ratio"] = analytic.sandwich_ratio(T)
        report.verdicts.append(invariants.agd_upper_bound(inst, trace, prof))
    stem = f"{args.method}_T{T}"
    return _emit(report, out_dir, stem, trace, prof.f_star, prof.x_star)


def cmd_race(args) -> int:
    ts = _timestamp(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ok = True
    for T in args.T:
        ok = _race_cell(args, T, ts, out_dir) and ok
    if not ok and args.strict:
        return 1
    return 0


def cmd_resist(args) -> int:
    ts = _timestamp(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    T = args.T
    trace, final = resist.adversarial_run(args.method, T, args.sigma, args.zeta)
    prof = analytic.profile(final)
    z_star = final.U.T @ prof.x_star
    report = _bound_report(args, final, T, trace, prof, z_star, False, ts)
    report.measured["orthogonality_residual"] = final.orthogonality_residual
    report.measured["data_direction_residual"] = resist.data_direction_residual(final)
    report.verdicts += [invariants.rotation_orthogonal(final),
                        invariants.data_direction_fixed(final),
                        invariants.replay_matches(args.method, final, trace)]

    stem = f"resist_{args.method}_T{T}"
    datasets.export(final, "libsvm", out_dir / f"dataset_{stem}.libsvm")
    datasets.export(
        final, "json-meta", out_dir / f"dataset_{stem}.libsvm.meta.json",
        extra_meta=analytic.profile_metadata(prof),
    )
    resist.save_matrix_csv(final.U, out_dir / f"rotation_{stem}.csv")
    if not _emit(report, out_dir, stem, trace, prof.f_star, z_star) and args.strict:
        return 1
    return 0


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
    p_gen.add_argument("--variant", default="fourblock", choices=["fourblock", "twoblock"])
    p_gen.add_argument("--format", default="csv", choices=["csv", "libsvm"])
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_ver = sub.add_parser("verify", help="run the analytic invariant suite")
    p_ver.add_argument("--max-k", type=int, default=20)
    p_ver.set_defaults(func=cmd_verify)

    p_race = sub.add_parser("race", help="race a method against the lower bounds")
    p_race.add_argument("--method", default="agd",
                        choices=list(optimizers.METHOD_NAMES))
    p_race.add_argument("--T", type=_parse_t_list, default=[5, 25, 50],
                        help="comma-separated iteration counts")
    p_race.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    p_race.add_argument("--zeta", type=float, default=DEFAULT_ZETA)
    p_race.add_argument("--out", default="reports")
    p_race.add_argument("--strict", action="store_true")
    p_race.add_argument("--no-timestamp", action="store_true")
    p_race.set_defaults(func=cmd_race)

    p_res = sub.add_parser("resist", help="race a method against the rotation adversary")
    p_res.add_argument("--method", default="denseprobe",
                       choices=list(optimizers.METHOD_NAMES))
    p_res.add_argument("--T", type=int, default=10)
    p_res.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    p_res.add_argument("--zeta", type=float, default=DEFAULT_ZETA)
    p_res.add_argument("--out", default="reports")
    p_res.add_argument("--strict", action="store_true")
    p_res.add_argument("--no-timestamp", action="store_true")
    p_res.set_defaults(func=cmd_resist)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
