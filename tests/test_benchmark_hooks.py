"""The benchmark in ``perfbench/`` wraps package functions and methods by
name from outside ``src/`` (``tracer.METHODS`` binds class attributes such
as ``datasets.RotatedInstance.__init__`` through ``cls.__dict__``, and its
per-layer metrics read functions such as ``optimizers.run`` by name).
Running one small ``resist`` and one small ``race`` under the tracer and
under the speed probe makes a refactor that drops or renames one of those
names fail here, instead of silently reading 0 in every benchmark run."""

import functools
import json
from pathlib import Path

import numpy as np
import pytest

import hardlogit
from hardlogit import cli, logloss, optimizers

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

RESIST = ["resist", "--method", "denseprobe", "--T", "2", "--no-timestamp"]
RACE = ["race", "--method", "agd", "--T", "3,5", "--no-timestamp"]


def _bound(methods):
    """What each (module, class, attribute) in ``methods`` is bound to now."""
    return [vars(getattr(getattr(hardlogit, m), c))[a] for m, c, a in methods]


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import speed
    import tracer

    return tracer, speed


def _outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _untraced(tmp_path, argv=RESIST):
    out = tmp_path / "plain"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return _outputs(out)


def _traced(tracer_mod, argv):
    """A tracer that has recorded one ``cli.main(argv)``, which must pass."""
    tracer = tracer_mod.Tracer(hardlogit)
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return tracer


def test_tracer_wraps_every_hook(perfbench, tmp_path):
    tracer_mod, _ = perfbench
    originals = _bound(tracer_mod.METHODS)
    tracer = tracer_mod.Tracer(hardlogit)
    out = tmp_path / "traced"
    tracer.install()
    try:
        assert cli.main(RESIST + ["--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    assert _bound(tracer_mod.METHODS) == originals
    for hook in tracer_mod.METHODS:  # every hooked method runs in a resist
        assert tracer.stats[".".join(hook)].calls > 0
    # the replay, which now makes the resist trace, is timed under its name
    assert tracer.stats["resist.replay_check"].calls == 1
    assert tracer.layer_metrics()["resist.replay_check.s"] > 0.0
    assert _outputs(out) == _untraced(tmp_path)


def test_tracer_times_the_race_layers(perfbench, tmp_path, monkeypatch):
    tracer_mod, _ = perfbench
    out = tmp_path / "traced"
    seen = {"calls": 0, "rows": 0}
    loss = logloss.loss

    @functools.wraps(loss)  # still logloss.loss to the tracer, which wraps it
    def counting(inst, x):
        seen["calls"] += 1
        seen["rows"] += 1 if np.ndim(x) == 1 else len(x)
        return loss(inst, x)

    monkeypatch.setattr(logloss, "loss", counting)
    tracer = _traced(tracer_mod, RACE + ["--out", str(out)])
    monkeypatch.undo()
    layers = tracer.layer_metrics()
    # one run and one trace CSV per T, each timed under the name the metric reads
    assert tracer.stats["optimizers.run"].calls == 2
    assert tracer.stats["optimizers.trace_to_csv"].calls == 2
    assert layers["optimizers.run.s"] > 0.0 and layers["optimizers.trace_to_csv.s"] > 0.0
    # every answer of the race goes through logloss.loss, and the tracer
    # counts each call: a row for each call the method made, as its report
    # counts them, and for each fold evaluation of an iterate it never
    # queried, which on these base instances come in one stack per run
    answers = 0
    for T in (3, 5):
        report = json.loads((out / f"report_agd_T{T}.json").read_text())
        config = report["config"]
        inst = hardlogit.build_instance(2 * T, config["sigma"], config["zeta"])
        stream = optimizers.drive("agd", hardlogit.FirstOrderOracle(inst), T)
        answers += report["measured"]["oracle_calls"] + sum(a is None for _, a, _ in stream)
    assert seen["rows"] == answers
    assert layers["logloss.loss.calls"] == tracer.stats["logloss.loss"].calls == seen["calls"]
    assert seen["calls"] == 3 + 5 + 2
    assert _outputs(out) == _untraced(tmp_path, RACE)


def test_tracer_times_the_loss_halves_by_name(perfbench, capsys):
    # verify's sweeps call the half of the loss kernel they read, one stack
    # per k > 1: loss_gradient in the leak sweep, loss_value in the
    # restricted identity; only the optimum check, once per k, calls loss
    tracer_mod, _ = perfbench
    tracer = _traced(tracer_mod, ["verify", "--max-k", "6"])
    assert capsys.readouterr().out.endswith("0 failure(s)\n")
    for name, calls in (("loss_value", 5), ("loss_gradient", 5), ("loss", 6)):
        stat = tracer.stats[f"logloss.{name}"]
        assert stat.calls == calls, name
        assert stat.s > 0.0, name
    assert tracer.layer_metrics()["logloss.loss.calls"] == 6


def test_tracer_reads_the_commands_and_exports_by_name(perfbench, tmp_path):
    # the per-command self times and the export metrics read cli.cmd_race,
    # cli.cmd_resist and datasets.export by name; one export call writes a
    # dataset and its sidecar, and its bytes are the data file's size
    tracer_mod, _ = perfbench
    tracer = _traced(tracer_mod, RESIST + ["--out", str(tmp_path / "resist")])
    assert tracer.stats["cli.cmd_resist"].calls == 1
    assert tracer.stats["datasets.export"].calls == 1
    libsvm = tmp_path / "resist" / "dataset_resist_denseprobe_T2.libsvm"
    assert tracer.layer_metrics()["datasets.export.bytes"] == libsvm.stat().st_size
    assert tracer.layer_metrics()["cli.cmd_resist.self_s"] > 0.0

    tracer = _traced(tracer_mod, RACE + ["--out", str(tmp_path / "race")])
    assert tracer.stats["cli.cmd_race"].calls == 1
    assert tracer.layer_metrics()["cli.cmd_race.self_s"] > 0.0

    data = tmp_path / "wc.libsvm"
    tracer = _traced(tracer_mod, ["generate", "--k", "5", "--format", "libsvm",
                                  "--out", str(data)])
    assert tracer.stats["datasets.export"].calls == 1
    assert tracer.layer_metrics()["datasets.export.bytes"] == data.stat().st_size
    assert data.with_name("wc.libsvm.meta.json").is_file()


def test_tracer_times_the_rotation_writer(perfbench, tmp_path):
    # resist.save_matrix_csv.s reads the rotation writer by name: a small
    # resist calls it once, and it calls no traced function, so its time is
    # all its own (a public per-row helper of resist would be traced as its
    # child, once per row)
    tracer_mod, _ = perfbench
    tracer = _traced(tracer_mod, RESIST + ["--out", str(tmp_path)])
    writer = tracer.stats["resist.save_matrix_csv"]
    assert writer.calls == 1
    assert tracer.layer_metrics()["resist.save_matrix_csv.s"] > 0.0
    assert writer.self_s == writer.s


def test_speed_probe_runs_under_its_wrappers(perfbench, tmp_path):
    tracer_mod, speed_mod = perfbench
    originals = _bound(tracer_mod.METHODS)
    probe = speed_mod.SpeedProbe(hardlogit)
    out = tmp_path / "probed"
    raw, adjusted, rc = probe.time(lambda: cli.main(RESIST + ["--out", str(out)]))
    assert rc == 0 and raw > 0.0 and adjusted > 0.0
    assert _bound(tracer_mod.METHODS) == originals
    assert _outputs(out) == _untraced(tmp_path)


def test_resist_outputs_pass_the_benchmark_reference(perfbench, tmp_path):
    # the benchmark's independent check of a resist run: the rotation CSV is
    # orthogonal and keeps A'b, the libsvm rows are A U, and a dense replay
    # reproduces the trace and stays above the general bound
    import reference

    T, sigma, zeta = 4, 1.3, 1.0
    argv = ["resist", "--method", "denseprobe", "--T", str(T), "--sigma", repr(sigma),
            "--zeta", repr(zeta), "--out", str(tmp_path), "--strict", "--no-timestamp"]
    assert cli.main(argv) == 0
    stem = f"resist_denseprobe_T{T}"
    report = json.loads((tmp_path / f"report_{stem}.json").read_text())
    trace = reference.read_trace(tmp_path / f"trace_{stem}.csv")
    u = reference.read_matrix_csv(tmp_path / f"rotation_{stem}.csv")
    ref = reference.Reference(4 * T + 2, sigma, zeta)
    assert report["measured"]["reflections"] >= 1
    assert reference.check_resist(report, trace, u, tmp_path / f"dataset_{stem}.libsvm",
                                  "denseprobe", T, ref) == []
    assert reference.check_a_norm(report, ref) == []
