"""Every script in ``examples/`` runs to completion.

Each example is a self-contained end-to-end demo; this smoke test runs it
in a fresh interpreter (``PYTHONPATH=src``, a temporary working directory)
and asserts a zero exit code, so an API change that breaks a demo fails
the suite instead of going unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent
_EXAMPLES = sorted((_REPO_ROOT / "examples").glob("*.py"))


def test_examples_are_discovered():
    assert _EXAMPLES


@pytest.mark.parametrize("script", _EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
