"""``setup.py`` describes the package on its own; every ``__all__`` resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

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


_PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
)


@pytest.mark.parametrize("name", _PACKAGES)
def test_every_exported_name_imports(name):
    """A re-export left behind by a deleted module fails here, not in user code."""
    module = importlib.import_module(name)
    assert isinstance(module.__all__, list) and module.__all__
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
