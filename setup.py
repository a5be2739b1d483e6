"""Packaging for the ``repro`` dead-reckoning reproduction.

This file is the whole package description (there is no
``pyproject.toml``)::

    pip install -e .        # editable install; puts the ``repro`` CLI on PATH
    python setup.py --name --version

The version is read from ``src/repro/__init__.py`` without importing the
package, so building needs no runtime dependency installed.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_HERE = Path(__file__).resolve().parent
_VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (_HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "Reproduction of 'A Map-Based Dead-Reckoning Protocol for Updating "
        "Location Information'"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "networkx"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
