"""Setuptools shim.

The project metadata lives in ``pyproject.toml``; this file exists so the
package can also be installed in environments whose setuptools/pip are too
old for PEP 660 editable installs (``pip install -e . --no-use-pep517``).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Single-sourced: the version lives in src/repro/__init__.py only.
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(
        encoding="utf-8"),
    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    description=("Pulse-level simulation library reproducing 'Direct "
                 "Conversion Pulsed UWB Transceiver Architecture' "
                 "(Blazquez et al., DATE 2005)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
