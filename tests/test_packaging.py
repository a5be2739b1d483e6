"""``setup.py`` describes the package on its own."""

import os
import subprocess
import sys

import repro

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_setup_py_reports_name_and_version():
    out = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=_REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert out == ["repro", repro.__version__]
