import json
from pathlib import Path

import numpy as np
import pytest

from hardlogit import (
    FirstOrderOracle,
    analytic,
    build_instance,
    datasets,
    invariants,
    logloss,
    optimizers,
    profile,
    resist,
    run,
)
from hardlogit import cli
from hardlogit.cli import main
from conftest import dense_ab, logistic_form, nan_in_v, rotated_ab, scale_first_beta


def test_generate_csv_k1(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["generate", "--k", "1", "--format", "csv"])
    assert rc == 0
    lines = (tmp_path / "wc_k1_fourblock.csv").read_text().strip().splitlines()
    assert lines[0] == "feature_1,label"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [2.6, -2.0, -2.6, 2.0]
    assert [r[1] for r in rows] == ["1", "1", "-1", "-1"]
    meta = json.loads((tmp_path / "wc_k1_fourblock.csv.meta.json").read_text())
    assert meta["k"] == 1 and meta["N"] == 4
    assert {"c", "f_star", "xstar_norm_sq", "spectral_norm_bound"} <= set(meta)


def test_generate_twoblock_row_count(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main([
        "generate", "--k", "3", "--variant", "twoblock", "--format", "libsvm",
        "--sigma", "1.3", "--zeta", "1.0",
    ])
    assert rc == 0
    lines = (tmp_path / "wc_k3_twoblock.libsvm").read_text().strip().splitlines()
    assert len(lines) == 6
    # the sidecar carries the exact two-block optimum
    meta = json.loads((tmp_path / "wc_k3_twoblock.libsvm.meta.json").read_text())
    A, b = dense_ab(3, 1.3, 1.0, "twoblock")
    f_at_ramp = logistic_form(A, b, meta["c"] * np.arange(1.0, 4.0))
    assert abs(meta["f_star"] - f_at_ramp) <= 1e-14 * abs(f_at_ramp)
    assert meta["xstar_norm_sq"] == pytest.approx(14.0 * meta["c"] ** 2, rel=1e-15)


def test_generate_libsvm_roundtrip(tmp_path):
    out = tmp_path / "data.libsvm"
    rc = main(["generate", "--k", "5", "--format", "libsvm", "--out", str(out)])
    assert rc == 0
    inst = build_instance(5, 1.3, 1.0)
    rows = np.zeros((20, 5))
    for i, line in enumerate(out.read_text().strip().splitlines()):
        for pair in line.split()[1:]:
            idx, val = pair.split(":")
            rows[i, int(idx) - 1] = float(val)
    assert np.array_equal(rows, inst.dense())


def test_generate_creates_the_output_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "nested" / "data.csv"
    assert main(["generate", "--k", "3", "--out", str(out)]) == 0
    assert out.is_file() and out.with_suffix(".csv.meta.json").is_file()
    assert len(out.read_text().splitlines()) == 1 + 12
    assert capsys.readouterr().err == ""


def test_generate_invalid_dimension(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["generate", "--k", "0"])
    assert rc != 0
    assert "invalid dimension" in capsys.readouterr().err


@pytest.mark.parametrize("argv, out", [
    (["generate", "--k", "3"], "sub/data.csv"),
    (["race", "--method", "gd", "--T", "2"], "sub"),
    (["resist", "--method", "gd", "--T", "2"], "sub"),
], ids=["generate", "race", "resist"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv, out):
    # an --out below a regular file: an error line and exit 2, no traceback
    (tmp_path / "file").write_text("")
    assert main(argv + ["--out", str(tmp_path / "file" / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "file") in err
    assert (tmp_path / "file").read_text() == ""


def test_verify_passes(capsys, monkeypatch):
    # the invariant lines in the order the benchmark's reference checks them;
    # below k = 5 the norm check samples the dimensions there are
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from reference import VERIFY_INVARIANTS

    for max_k in ("8", "4", "2"):
        assert main(["verify", "--max-k", max_k]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1].rstrip(":") for line in lines[:-1]] == list(VERIFY_INVARIANTS)
        assert all(line.startswith("ok ") for line in lines[:-1])
        assert lines[-1] == "0 failure(s)"


def test_verify_evaluates_one_stack_per_dimension(capsys, monkeypatch):
    # per k: one loss call at x*, and for k > 1 one loss_gradient stack of
    # trap points and one loss_value stack of restricted optima, 238 calls at
    # --max-k 80 where one per point was 6,400
    counts = {}
    for name in ("loss", "loss_value", "loss_gradient"):
        _count_calls(monkeypatch, logloss, name, counts)
    assert main(["verify", "--max-k", "80"]) == 0
    assert capsys.readouterr().out.endswith("0 failure(s)\n")
    assert counts == {"loss": 80, "loss_value": 79, "loss_gradient": 79}


def test_verify_bisects_once(capsys, monkeypatch):
    # 80 profiles, ratio_constant and per_coordinate_gap share one sigma/zeta,
    # so a fresh root cache bisects once for the 82 solve_c calls
    counts = {}
    _count_calls(monkeypatch, analytic, "solve_c", counts)
    analytic._scaled_root.cache_clear()
    assert main(["verify", "--max-k", "80"]) == 0
    assert capsys.readouterr().out.endswith("0 failure(s)\n")
    assert counts["solve_c"] == 82
    assert analytic._scaled_root.cache_info().misses == 1


def test_parser_choices_are_the_package_tuples():
    # each named choice of the CLI is the one tuple its module checks against
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    choices = {(command, action.dest): action.choices for command, parser in subparsers.items()
               for action in parser._actions if action.choices is not None}
    assert choices == {("generate", "variant"): datasets.VARIANTS,
                       ("generate", "format"): datasets.FORMATS,
                       ("race", "method"): optimizers.METHOD_NAMES,
                       ("resist", "method"): optimizers.METHOD_NAMES}


def test_one_parser_dispatched_at_call_time(tmp_path, monkeypatch):
    # a `race --T 3,5` then a default-T race on the process's one parser write
    # what a fresh parser's would, and a wrapper installed on cli.cmd_race
    # after the first call sees the second
    assert cli._parser() is cli._parser()
    runs = (["race", "--method", "gd", "--T", "3,5"], ["race", "--method", "gd"])
    for i, argv in enumerate(runs):
        fresh = cli.build_parser().parse_args(argv + ["--out", str(tmp_path / f"fresh{i}"),
                                                      "--no-timestamp"])
        assert cli.cmd_race(fresh) == 0
    seen = []
    for i, argv in enumerate(runs):
        assert main(argv + ["--out", str(tmp_path / f"main{i}"), "--no-timestamp"]) == 0
        if i == 0:
            original = cli.cmd_race
            monkeypatch.setattr(cli, "cmd_race", lambda args: seen.append(args.T) or original(args))
    assert seen == [(5, 25, 50)]
    for i, names in enumerate((["T3", "T5"], ["T5", "T25", "T50"])):
        files = sorted(p.name for p in (tmp_path / f"fresh{i}").iterdir())
        assert files == sorted(f"{kind}_gd_{T}.{ext}" for T in names
                               for kind, ext in (("report", "json"), ("trace", "csv")))
        assert sorted(p.name for p in (tmp_path / f"main{i}").iterdir()) == files
        for name in files:
            assert ((tmp_path / f"main{i}" / name).read_bytes()
                    == (tmp_path / f"fresh{i}" / name).read_bytes())


@pytest.mark.parametrize("sigma, zeta", [("inf", "1"), ("nan", "1"), ("1.3", "nan"),
                                         ("inf", "inf"), ("1e308", "1")])
@pytest.mark.parametrize("command", ["generate", "race", "resist"])
def test_non_finite_parameters_are_usage_errors(tmp_path, capsys, command, sigma, zeta):
    # at --sigma inf generate wrote a sidecar with f_star NaN, not valid JSON;
    # at 1e308 the block scale 2*sigma overflows
    argv = [command, "--sigma", sigma, "--zeta", zeta, "--out", str(tmp_path / "out")]
    assert main(argv + (["--k", "4"] if command == "generate" else ["--T", "2"])) == 2
    assert "invalid parameters" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("scale", [1e-200, 1e200])
@pytest.mark.parametrize("command", ["race", "resist"])
def test_lipschitz_out_of_range_is_a_usage_error(tmp_path, capsys, command, scale):
    # ||A||^2/2 underflows to 0 (a ZeroDivisionError) or overflows (NaN margins)
    argv = [command, "--sigma", repr(1.3 * scale), "--zeta", repr(scale), "--T", "2",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "smoothness constant" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["race", "resist"])
def test_non_finite_optimum_norm_is_a_usage_error(tmp_path, capsys, command, monkeypatch):
    # at sigma = 1e-154, zeta = 7.7e-155, L is finite but ||x*||^2 is not:
    # race passed gap_below_agd_upper_bound at margin inf (and warned of an
    # overflow in the fold), resist died with a traceback; both now refuse
    # the cell before the run, and write nothing
    inst = build_instance(6, 1e-154, 7.7e-155)
    assert 0.0 < logloss.lipschitz(inst) < np.inf
    assert profile(inst).xstar_norm_sq == np.inf

    def no_run(*_):
        raise AssertionError("ran the method")

    monkeypatch.setattr(cli.optimizers, "run", no_run)
    monkeypatch.setattr(cli.resist, "adversarial_run", no_run)
    argv = [command, "--method", "agd", "--T", "3", "--sigma", "1e-154",
            "--zeta", "7.7e-155", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "xstar_norm_sq = inf" in err
    assert not any((tmp_path / "out").iterdir())


def test_generate_at_extreme_scales(tmp_path, capsys):
    # at 1.3e200 sigma**2 overflowed (an OverflowError traceback); the sidecar
    # now holds the bound, and ||A|| below it, as at sigma = 1.3 scaled by 1e200
    out = tmp_path / "big.csv"
    assert main(["generate", "--k", "4", "--sigma", "1.3e200", "--zeta", "1e200",
                 "--out", str(out)]) == 0
    meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
    inst = build_instance(4, 1.3e200, 1e200)
    assert meta["spectral_norm_bound"] == inst.spectral_norm_bound() > inst.a_norm()
    unit = build_instance(4, 1.3, 1.0).spectral_norm_bound()
    assert abs(meta["spectral_norm_bound"] - 1e200 * unit) <= 1e-15 * 1e200 * unit
    # at 1.3e-200 ||x*||^2 is past the largest double: no file, an error line
    out = tmp_path / "small.csv"
    assert main(["generate", "--k", "4", "--sigma", "1.3e-200", "--zeta", "1e-200",
                 "--out", str(out)]) == 2
    assert "xstar_norm_sq" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".csv.meta.json").exists()


def test_verify_max_k_too_small(capsys):
    assert main(["verify", "--max-k", "1"]) == 2


def test_race_agd_report(tmp_path, capsys):
    rc = main([
        "race", "--method", "agd", "--T", "5", "--out", str(tmp_path),
        "--no-timestamp", "--strict",
    ])
    assert rc == 0
    report = json.loads((tmp_path / "report_agd_T5.json").read_text())
    assert report["config"] == {
        "method": "agd", "k": 10, "sigma": 1.3, "zeta": 1.0, "T": 5,
        "variant": "fourblock",
    }
    assert report["measured"]["span_method"] is True
    assert report["measured"]["support_frontier"] == 0
    assert all(v["passed"] for v in report["verdicts"])
    assert [v["check"] for v in report["verdicts"]] == [
        "gap_above_span_lower_bound", "dist_sq_above_one_eighth",
        "gap_below_agd_upper_bound",
    ]
    assert (tmp_path / "trace_agd_T5.csv").exists()


def test_race_denseprobe_reports_figures_without_a_verdict(tmp_path):
    # no bound is a theorem for a method that leaves the span on the unrotated
    # dimension-2T instance (the general one holds against the adversary in
    # dimension 4T+2): the cell reports its figures and judges nothing
    rc = main([
        "race", "--method", "denseprobe", "--T", "4", "--out", str(tmp_path),
        "--no-timestamp", "--strict",
    ])
    assert rc == 0
    report = json.loads((tmp_path / "report_denseprobe_T4.json").read_text())
    assert report["measured"]["span_method"] is False
    assert report["measured"]["support_frontier"] == 8 - 1  # x_1 is dense
    assert report["verdicts"] == [] and report["theoretical"] == {}
    inst = build_instance(8, 1.3, 1.0)
    prof = profile(inst)
    trace = run("denseprobe", FirstOrderOracle(inst), 4, prof.x_star)
    assert report["measured"] == {
        "final_gap": trace.values[-1] - prof.f_star, "final_dist_sq": trace.dist_sq[-1],
        "a_norm": inst.a_norm(), "oracle_calls": 4, "span_method": False,
        "support_frontier": 7,
    }


@pytest.mark.parametrize("argv, names", [
    (["race", "--method", "gd", "--T", "3,6"],
     ["report_gd_T3.json", "report_gd_T6.json", "trace_gd_T3.csv", "trace_gd_T6.csv"]),
    (["resist", "--method", "denseprobe", "--T", "4"],
     ["dataset_resist_denseprobe_T4.libsvm", "dataset_resist_denseprobe_T4.libsvm.meta.json",
      "report_resist_denseprobe_T4.json", "rotation_resist_denseprobe_T4.csv",
      "trace_resist_denseprobe_T4.csv"]),
], ids=["race", "resist"])
def test_race_reports_reproducible(tmp_path, argv, names):
    for sub in ("a", "b"):
        rc = main(argv + ["--out", str(tmp_path / sub), "--no-timestamp"])
        assert rc == 0
    for sub in ("a", "b"):
        assert sorted(p.name for p in (tmp_path / sub).iterdir()) == names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_resist_report_and_exports(tmp_path):
    T = 2
    rc = main([
        "resist", "--method", "denseprobe", "--T", str(T), "--out", str(tmp_path),
        "--no-timestamp", "--strict",
    ])
    assert rc == 0
    report = json.loads((tmp_path / f"report_resist_denseprobe_T{T}.json").read_text())
    assert report["config"]["k"] == 4 * T + 2
    assert all(v["passed"] for v in report["verdicts"])
    assert [v["check"] for v in report["verdicts"]] == [
        "gap_above_general_lower_bound", "dist_sq_above_one_eighth",
        "rotation_orthogonal", "data_direction_fixed", "replay_matches",
    ]
    measured = report["measured"]
    # every step either reflected or found its query already trapped
    assert measured["reflections"] >= 1
    assert measured["reflections"] + measured["skipped"] == measured["oracle_calls"] == T
    assert 0.0 <= measured["max_containment_residual"] <= 1e-12
    dataset = (tmp_path / f"dataset_resist_denseprobe_T{T}.libsvm").read_text()
    assert len(dataset.strip().splitlines()) == 16 * T + 8
    rotation = np.loadtxt(tmp_path / f"rotation_resist_denseprobe_T{T}.csv",
                          delimiter=",")
    assert rotation.shape == (4 * T + 2, 4 * T + 2)
    assert np.max(np.abs(rotation.T @ rotation - np.eye(4 * T + 2))) <= 1e-10


def test_resist_strict_fails_on_rotation_verdict(tmp_path, monkeypatch):
    # a fault planted in the frozen rotation once the run and its replay are
    # done, under the unchanged ROTATION_TOL, fails the verdict and --strict
    argv = ["resist", "--method", "denseprobe", "--T", "4", "--no-timestamp", "--strict"]
    run_adversary = resist.adversarial_run
    for plant, want_failed in ((scale_first_beta, ["rotation_orthogonal"]),
                               (nan_in_v, ["rotation_orthogonal", "data_direction_fixed"])):
        def planted(*args, plant=plant):
            trace, deviation, final, oracle = run_adversary(*args)
            assert len(final.U) == 1
            plant(final.U)
            return trace, deviation, final, oracle

        monkeypatch.setattr(resist, "adversarial_run", planted)
        out = tmp_path / plant.__name__
        assert main(argv + ["--out", str(out)]) == 1
        report = json.loads((out / "report_resist_denseprobe_T4.json").read_text())
        residual = report["measured"]["orthogonality_residual"]
        assert residual > invariants.ROTATION_TOL or np.isnan(residual)
        assert [v["check"] for v in report["verdicts"] if not v["passed"]] == want_failed


def test_resist_libsvm_holds_exact_rotated_rows(tmp_path):
    # every written entry is a nonzero of s * (W U), bit for bit; a dense
    # A @ U product would also write its rounding residues of exact zeros
    T = 4
    rc = main([
        "resist", "--method", "denseprobe", "--T", str(T), "--out", str(tmp_path),
        "--no-timestamp",
    ])
    assert rc == 0
    stem = f"resist_denseprobe_T{T}"
    meta = json.loads((tmp_path / f"dataset_{stem}.libsvm.meta.json").read_text())
    U = np.loadtxt(tmp_path / f"rotation_{stem}.csv", delimiter=",")
    AU, b = rotated_ab(U, meta["sigma"], meta["zeta"])
    lines = (tmp_path / f"dataset_{stem}.libsvm").read_text().splitlines()
    assert len(lines) == AU.shape[0]
    entries = 0
    for row, lab, line in zip(AU, b, lines):
        label, *pairs = line.split(" ")
        assert int(label) == lab
        cols = [int(p.split(":")[0]) - 1 for p in pairs]
        vals = [float(p.split(":")[1]) for p in pairs]
        (nz,) = np.nonzero(row)
        assert cols == nz.tolist()
        assert vals == row[nz].tolist()
        entries += len(pairs)
    assert entries == np.count_nonzero(AU) < AU.size


ALL_METHODS = ["gd", "agd", "heavyball", "denseprobe"]


@pytest.mark.parametrize("method", ALL_METHODS)
def test_reports_count_the_method_inquiries(tmp_path, method):
    # oracle_calls is drive's count, T for every method here, in race and
    # resist alike; the fold's evaluations at unqueried iterates are not in it
    Ts = [3, 7]
    assert main(["race", "--method", method, "--T", ",".join(map(str, Ts)),
                 "--out", str(tmp_path), "--no-timestamp"]) == 0
    for T in Ts:
        report = json.loads((tmp_path / f"report_{method}_T{T}.json").read_text())
        assert report["measured"]["oracle_calls"] == T
    T = 5
    assert main(["resist", "--method", method, "--T", str(T), "--out", str(tmp_path),
                 "--no-timestamp"]) == 0
    report = json.loads((tmp_path / f"report_resist_{method}_T{T}.json").read_text())
    assert report["measured"]["oracle_calls"] == T


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args):
        counts[name] = counts.get(name, 0) + 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("argv, expected", [  # one call per cell: two race cells, one resist
    (["race", "--method", "agd", "--T", "3,6"], {"bound_linear_span": 2, "agd_upper_bound": 2}),
    (["race", "--method", "denseprobe", "--T", "3,6"], {}),  # not a span method: no bound
    (["resist", "--method", "denseprobe", "--T", "4"],
     {"bound_general": 1, "bound_linear_span": 1, "data_direction_residual": 1}),
], ids=["race-agd", "race-denseprobe", "resist"])
def test_report_figures_computed_once_per_cell(tmp_path, monkeypatch, argv, expected):
    # the report reads the figures its verdicts computed; nothing recomputes them
    counts = {}
    for owner, name in ((analytic, "bound_linear_span"), (analytic, "bound_general"),
                        (analytic, "agd_upper_bound"), (resist, "data_direction_residual")):
        _count_calls(monkeypatch, owner, name, counts)
    assert main(argv + ["--out", str(tmp_path), "--no-timestamp", "--strict"]) == 0
    assert counts == expected


BOUND_FIGURES = {"final_gap", "final_dist_sq", "a_norm", "oracle_calls"}
BOUND_TARGETS = {"gap_lower_bound", "dist_factor", "dist0_sq"}


@pytest.mark.parametrize("argv, stem, measured, theoretical", [
    (["race", "--method", "gd", "--T", "4"], "gd_T4",
     BOUND_FIGURES | {"span_method", "support_frontier"}, BOUND_TARGETS),
    (["race", "--method", "agd", "--T", "4"], "agd_T4",
     BOUND_FIGURES | {"span_method", "support_frontier"},
     BOUND_TARGETS | {"agd_upper_bound", "sandwich_ratio"}),
    (["resist", "--method", "denseprobe", "--T", "4"], "resist_denseprobe_T4",
     BOUND_FIGURES | {"reflections", "skipped", "max_containment_residual",
                      "orthogonality_residual", "data_direction_residual"}, BOUND_TARGETS),
    (["race", "--method", "denseprobe", "--T", "4"], "denseprobe_T4",
     BOUND_FIGURES | {"span_method", "support_frontier"}, set()),
], ids=["race-gd", "race-agd", "resist-denseprobe", "race-denseprobe"])
def test_report_schema(tmp_path, argv, stem, measured, theoretical):
    assert main(argv + ["--out", str(tmp_path), "--no-timestamp"]) == 0
    report = json.loads((tmp_path / f"report_{stem}.json").read_text())
    assert set(report) == {"config", "measured", "theoretical", "verdicts"}
    assert set(report["measured"]) == measured
    assert set(report["theoretical"]) == theoretical


def test_sandwich_reads_the_bounds_it_is_given(monkeypatch):
    # a criterion-07 cell: the upper and span lower bounds are computed once,
    # by the findings that report them, and the sandwich divides those
    counts = {}
    for name in ("agd_upper_bound", "bound_linear_span"):
        _count_calls(monkeypatch, analytic, name, counts)
    for T in (5, 25):
        counts.clear()
        inst = build_instance(2 * T, 1.3, 1.0)
        prof = profile(inst)
        trace = run("agd", FirstOrderOracle(inst), T, prof.x_star)
        upper = invariants.agd_upper_bound(inst, trace, prof)
        lower = invariants.lower_bound(inst, trace, prof, span=True)
        check = invariants.sandwich(T, upper, lower)
        assert check.passed, check
        assert counts == {"agd_upper_bound": 1, "bound_linear_span": 1}


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["race", "--method", "simplex"])
    assert exc.value.code == 2


@pytest.mark.parametrize("T", ["0", "-1"])
def test_resist_rejects_a_nonpositive_T(tmp_path, capsys, T):
    assert main(["resist", "--T", T, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_draws_each_instances_trap_points_at_once():
    # one draw of k(k-1)/2 per instance, placed row by row, is the 85,320
    # numbers of a draw per point, bit for bit, and gradient_trap takes the
    # stack as it took the points
    one, each = np.random.default_rng(20240601), np.random.default_rng(20240601)
    stacks, points = [], []
    for k in range(2, 81):
        inst = build_instance(k, 1.3, 1.0)
        stacks.append((inst, invariants.trailing_stack(k, one.standard_normal(k * (k - 1) // 2))))
        points += [(inst, np.concatenate([np.zeros(k - t), each.standard_normal(t)]))
                   for t in range(1, k)]
        assert np.array_equal(stacks[-1][1], np.array([x for _, x in points[-(k - 1):]]))
    assert invariants.gradient_trap(stacks) == invariants.gradient_trap(points)
