import json

import numpy as np
import pytest

from hardlogit import build_instance, matvec_a
from hardlogit.cli import main
from conftest import dense_ab, logistic_form


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
    x = np.arange(1.0, 6.0)
    assert np.allclose(rows @ x, matvec_a(inst, x), rtol=1e-12, atol=1e-12)


def test_generate_invalid_dimension(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["generate", "--k", "0"])
    assert rc != 0
    assert "invalid dimension" in capsys.readouterr().err


def test_verify_passes(capsys):
    rc = main(["verify", "--max-k", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 failure(s)" in out
    assert "ratio_constant_above_half" in out


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
    assert all(v["passed"] for v in report["verdicts"])
    checks = {v["check"] for v in report["verdicts"]}
    assert checks == {
        "gap_above_span_lower_bound", "dist_sq_above_one_eighth",
        "gap_below_agd_upper_bound",
    }
    assert (tmp_path / "trace_agd_T5.csv").exists()


def test_race_denseprobe_downgrades_to_general_bound(tmp_path):
    rc = main([
        "race", "--method", "denseprobe", "--T", "4", "--out", str(tmp_path),
        "--no-timestamp", "--strict",
    ])
    assert rc == 0
    report = json.loads((tmp_path / "report_denseprobe_T4.json").read_text())
    assert report["measured"]["span_method"] is False
    checks = {v["check"] for v in report["verdicts"]}
    assert "gap_above_general_lower_bound" in checks


def test_race_reports_reproducible(tmp_path):
    for sub in ("a", "b"):
        rc = main([
            "race", "--method", "gd", "--T", "3,6", "--out", str(tmp_path / sub),
            "--no-timestamp",
        ])
        assert rc == 0
    for name in ("report_gd_T3.json", "report_gd_T6.json", "trace_gd_T3.csv"):
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
    checks = {v["check"] for v in report["verdicts"]}
    assert checks == {
        "gap_above_general_lower_bound", "dist_sq_above_one_eighth",
        "rotation_orthogonal", "data_direction_fixed", "replay_matches",
    }
    dataset = (tmp_path / f"dataset_resist_denseprobe_T{T}.libsvm").read_text()
    assert len(dataset.strip().splitlines()) == 16 * T + 8
    rotation = np.loadtxt(tmp_path / f"rotation_resist_denseprobe_T{T}.csv",
                          delimiter=",")
    assert rotation.shape == (4 * T + 2, 4 * T + 2)
    assert np.max(np.abs(rotation.T @ rotation - np.eye(4 * T + 2))) <= 1e-10


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["race", "--method", "simplex"])
    assert exc.value.code == 2
