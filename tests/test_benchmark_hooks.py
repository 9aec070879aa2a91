"""The benchmark in ``perfbench/`` wraps package functions and methods by
name from outside ``src/`` (``tracer.METHODS`` binds class attributes such
as ``datasets.RotatedInstance.__init__`` through ``cls.__dict__``).  Running
one small ``resist`` under the tracer and under the speed probe makes a
refactor that drops or renames one of those names fail here, instead of in
every benchmark run."""

from pathlib import Path

import pytest

import hardlogit
from hardlogit import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

RESIST = ["resist", "--method", "denseprobe", "--T", "2", "--no-timestamp"]


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


def _untraced(tmp_path):
    out = tmp_path / "plain"
    assert cli.main(RESIST + ["--out", str(out)]) == 0
    return _outputs(out)


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
    assert _outputs(out) == _untraced(tmp_path)


def test_speed_probe_runs_under_its_wrappers(perfbench, tmp_path):
    tracer_mod, speed_mod = perfbench
    originals = _bound(tracer_mod.METHODS)
    probe = speed_mod.SpeedProbe(hardlogit)
    out = tmp_path / "probed"
    raw, adjusted, rc = probe.time(lambda: cli.main(RESIST + ["--out", str(out)]))
    assert rc == 0 and raw > 0.0 and adjusted > 0.0
    assert _bound(tracer_mod.METHODS) == originals
    assert _outputs(out) == _untraced(tmp_path)
