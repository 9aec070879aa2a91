"""The suite's own configuration: a failing hypothesis test is reported as
a failure, and the session goes on to the next test.

``pyproject.toml`` turns every warning into an error.  When a ``@given``
test fails, hypothesis's report hook imports its patch writer, which warns
on import; ``conftest.py`` imports it first with that warning silenced.  The
probe below runs a fresh pytest session on one failing and one passing test
under the repository's configuration and this directory's ``conftest.py``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_failing_given_test_does_not_end_the_session(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1, done.stdout[-2000:]
    assert "1 failed, 1 passed" in done.stdout
