"""Layering: the signal-chain packages never import the sweep layer.

``repro.dsp``, ``repro.adc`` and ``repro.channel`` are the building
blocks ``repro.sim`` composes; an import the other way (even a
function-local one, the usual way round an import cycle) would tie the
blocks to the engine.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
LOWER_PACKAGES = ("dsp", "adc", "channel")


def _imported_modules(tree: ast.AST, package: str):
    """Every absolute module name an ``import`` statement anywhere in
    ``tree`` (function bodies included) names, relative ones resolved
    against ``repro.<package>``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = ["repro", package][:max(0, 3 - node.level)]
                module = ".".join(base + ([node.module] if node.module
                                          else []))
            else:
                module = node.module or ""
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


def _is_sim(module: str) -> bool:
    return module == "repro.sim" or module.startswith("repro.sim.")


@pytest.mark.parametrize("package", LOWER_PACKAGES)
def test_package_does_not_import_repro_sim(package):
    files = sorted((SRC / package).glob("*.py"))
    assert files, f"no modules found under {SRC / package}"
    offenders = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        offenders += [f"{path.name}: {module}"
                      for module in _imported_modules(tree, package)
                      if _is_sim(module)]
    assert offenders == []


def test_scan_sees_function_local_imports():
    tree = ast.parse("def f():\n    from repro.sim.backends import x\n"
                     "def g():\n    import repro.sim\n"
                     "def h():\n    from ..sim import batch\n"
                     "def k():\n    from repro import sim\n")
    found = [module for module in _imported_modules(tree, "dsp")
             if _is_sim(module)]
    assert found == ["repro.sim.backends", "repro.sim.backends.x",
                     "repro.sim", "repro.sim", "repro.sim.batch",
                     "repro.sim"]
