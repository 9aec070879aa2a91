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

from . import analytic, datasets, logloss, optimizers, resist

DEFAULT_SIGMA = 1.3
DEFAULT_ZETA = 1.0


@dataclass
class ExperimentReport:
    """Config echo, measured quantities, theoretical targets, verdicts."""

    config: dict
    measured: dict
    theoretical: dict
    verdicts: list = field(default_factory=list)
    timestamp: str | None = None

    def add_verdict(self, check: str, passed: bool, margin: float) -> None:
        self.verdicts.append(
            {"check": check, "passed": bool(passed), "margin": float(margin)}
        )

    @property
    def all_passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def to_dict(self) -> dict:
        out = {
            "config": self.config,
            "measured": self.measured,
            "theoretical": self.theoretical,
            "verdicts": self.verdicts,
        }
        if self.timestamp is not None:
            out["timestamp"] = self.timestamp
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
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


def _verify_checks(max_k: int, rng: np.random.Generator):
    """Yield (name, passed, detail) for every analytic invariant."""
    sigma, zeta = DEFAULT_SIGMA, DEFAULT_ZETA

    ratio = analytic.constant_c_ratio(sigma, zeta)
    yield "ratio_constant_above_half", ratio > 0.5, f"C={ratio:.6f}"

    insts = {k: datasets.build_instance(k, sigma, zeta) for k in range(1, max_k + 1)}
    worst_grad = 0.0
    worst_f = 0.0
    worst_dy = 0.0
    profiles = {}
    for k, inst in insts.items():
        prof = profiles[k] = analytic.profile(inst)
        resp = logloss.loss(inst, prof.x_star)
        worst_grad = max(worst_grad, float(np.max(np.abs(resp.gradient))))
        worst_f = max(
            worst_f, abs(resp.value - prof.f_star) / (1.0 + abs(prof.f_star))
        )
        _, _, dy = logloss.phi(inst, prof.x_star, 0.0)
        worst_dy = max(worst_dy, abs(dy))
    yield "optimum_gradient_vanishes", worst_grad <= 1e-9, f"max={worst_grad:.2e}"
    yield "optimum_value_matches_formula", worst_f <= 1e-10, f"max={worst_f:.2e}"
    yield "intercept_derivative_vanishes", worst_dy <= 1e-9, f"max={worst_dy:.2e}"

    leak = 0.0
    for k in range(2, max_k + 1):
        inst = insts[k]
        for t in range(1, k):
            x = np.zeros(k)
            x[k - t:] = rng.standard_normal(t)
            g = logloss.loss(inst, x).gradient
            lead = k - (t + 1)
            if lead > 0:
                leak = max(leak, float(np.max(np.abs(g[:lead]))))
    yield "gradients_stay_in_next_subspace", leak <= 1e-10, f"max={leak:.2e}"

    worst_id = 0.0
    unit_gap = analytic.per_coordinate_gap(sigma, zeta)  # one root solve for all (k, t)
    for k in range(2, max_k + 1):
        inst = insts[k]
        prof_k = profiles[k]
        for t in range(1, k):
            prof_t = profiles[t]
            x = np.zeros(k)
            x[k - t:] = prof_t.x_star
            lhs = logloss.loss(inst, x).value
            rhs = 8.0 * (k - t) * logloss.LOG2 + prof_t.f_star
            worst_id = max(worst_id, abs(lhs - rhs))
            gap = 4.0 * (k - t) * unit_gap  # = analytic.subspace_gap(k, t, sigma, zeta)
            worst_id = max(worst_id, abs((rhs - prof_k.f_star) - gap))
    yield "restricted_optimum_identity", worst_id <= 1e-9, f"max={worst_id:.2e}"

    worst_err = 0.0
    worst_excess = -np.inf
    for k in (1, 2, 3, 5, max_k):
        inst = insts[k]
        a_norm = inst.a_norm()
        svd = float(np.linalg.svd(inst.dense(), compute_uv=False)[0])
        worst_err = max(worst_err, abs(a_norm - svd) / svd)
        worst_excess = max(worst_excess, a_norm - inst.spectral_norm_bound())
    yield (
        "norm_below_closed_form_bound",
        worst_err <= 1e-14 and worst_excess <= 0.0,
        f"max relative error vs SVD={worst_err:.2e}, max excess={worst_excess:.2e}",
    )


def cmd_verify(args) -> int:
    if args.max_k < 2:
        print("error: --max-k must be >= 2", file=sys.stderr)
        return 2
    rng = np.random.default_rng(20240601)
    failures = 0
    for name, passed, detail in _verify_checks(args.max_k, rng):
        status = "ok" if passed else "FAIL"
        print(f"{status:4s} {name}: {detail}")
        failures += 0 if passed else 1
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
    if span:
        bound = analytic.bound_linear_span(T, a_norm, dist0_sq)
        bound_name = "gap_above_span_lower_bound"
    else:
        bound = analytic.bound_general(T, a_norm, dist0_sq)
        bound_name = "gap_above_general_lower_bound"
    report = ExperimentReport(
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
        timestamp=ts,
    )
    report.add_verdict(bound_name, gap > bound.gap, gap - bound.gap)
    report.add_verdict(
        "dist_sq_above_one_eighth",
        dist_sq > bound.dist_factor * dist0_sq,
        dist_sq - bound.dist_factor * dist0_sq,
    )
    return report


def _emit(report, out_dir, stem, trace, f_star, x_star) -> bool:
    """Write the report and the trace CSV, print the verdicts, and return
    whether all passed."""
    report.write(out_dir / f"report_{stem}.json")
    optimizers.trace_to_csv(trace, out_dir / f"trace_{stem}.csv", f_star, x_star)
    T = report.config["T"]
    for v in report.verdicts:
        status = "ok" if v["passed"] else "FAIL"
        print(f"{status:4s} T={T} {v['check']} (margin {v['margin']:.3e})")
    return report.all_passed


def _race_cell(args, T, ts, out_dir) -> bool:
    inst = datasets.build_instance(2 * T, args.sigma, args.zeta)
    prof = analytic.profile(inst)
    lips = logloss.lipschitz(inst)
    spec = optimizers.MethodSpec(name=args.method, step_size=1.0 / lips)
    trace = optimizers.run(spec, logloss.FirstOrderOracle(inst), T)
    frontier = optimizers.support_frontier(trace)
    is_span = frontier <= 0
    report = _bound_report(args, inst, T, trace, prof, prof.x_star, is_span, ts)
    report.measured["span_method"] = is_span
    report.measured["support_frontier"] = frontier
    if args.method == "agd":
        gap = report.measured["final_gap"]
        upper = analytic.agd_upper_bound(T, lips, prof.xstar_norm_sq)
        report.theoretical["agd_upper_bound"] = upper
        report.theoretical["sandwich_ratio"] = analytic.sandwich_ratio(T)
        report.add_verdict("gap_below_agd_upper_bound", gap <= upper, upper - gap)
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
    method = optimizers.MethodSpec(name=args.method)
    trace, final = resist.adversarial_run(method, T, args.sigma, args.zeta)
    prof = analytic.profile(final.base)
    z_star = final.U.T @ prof.x_star
    report = _bound_report(args, final, T, trace, prof, z_star, False, ts)
    ortho = resist.orthogonality_residual(final)
    fixed_dir = resist.data_direction_residual(final)
    replay_ok = resist.replay_check(method, final, trace)
    report.measured["orthogonality_residual"] = ortho
    report.measured["data_direction_residual"] = fixed_dir
    report.add_verdict("rotation_orthogonal", ortho <= 1e-10, 1e-10 - ortho)
    report.add_verdict("data_direction_fixed", fixed_dir <= 1e-10, 1e-10 - fixed_dir)
    report.add_verdict("replay_matches", replay_ok, 0.0 if replay_ok else -1.0)

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
