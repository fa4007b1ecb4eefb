"""Layering and reachability of the ``repro`` modules.

``repro.dsp``, ``repro.adc`` and ``repro.channel`` are the building
blocks ``repro.sim`` composes; an import the other way (even a
function-local one, the usual way round an import cycle) would tie the
blocks to the engine.

Every module under ``src/repro`` must also be reached by imports from an
entry point (a benchmark, an example, perfbench, a tool or
``python -m repro``); a module only its own unit tests import is surface
nothing needs.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
LOWER_PACKAGES = ("dsp", "adc", "channel")
ENTRY_DIRS = ("benchmarks", "examples", "perfbench", "tools")


def _from_module(node: ast.ImportFrom, package: str) -> str:
    """The absolute module a ``from ... import`` names, a relative one
    resolved against ``repro.<package>``."""
    if not node.level:
        return node.module or ""
    base = ["repro", package][:max(0, 3 - node.level)]
    return ".".join(base + ([node.module] if node.module else []))


def _imported_modules(tree: ast.AST, package: str):
    """Every absolute module name an ``import`` statement anywhere in
    ``tree`` (function bodies included) names, relative ones resolved
    against ``repro.<package>``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            module = _from_module(node, package)
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


class _ModuleGraph:
    """The modules under ``src/repro`` and the re-exports of its packages.

    A module is named by its dotted path; a package by its directory,
    standing for its ``__init__.py``.
    """

    def __init__(self) -> None:
        self.paths = {}
        for path in sorted(SRC.rglob("*.py")):
            parts = path.relative_to(SRC.parent).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            self.paths[".".join(parts)] = path
        self.reexports = {}
        for name, path in self.paths.items():
            if self.is_package(name):
                bound = {}
                for node in ast.walk(_parse(path)):
                    if isinstance(node, ast.ImportFrom):
                        module = _from_module(node, _package_of(path))
                        for alias in node.names:
                            bound[alias.asname or alias.name] = \
                                f"{module}.{alias.name}"
                self.reexports[name] = bound

    def is_package(self, name: str) -> bool:
        return self.paths[name].name == "__init__.py"

    def resolve(self, name: str) -> str | None:
        """The non-package module that importing ``name`` (a module, or
        ``module.Name``) reaches, following package re-exports; ``None``
        for a package itself, a name a package ``__init__`` defines, or
        anything outside ``repro``."""
        while name not in self.paths:
            owner, _, attr = name.rpartition(".")
            if owner not in self.paths:
                return None
            if not self.is_package(owner):
                return owner
            name = self.reexports[owner].get(attr)
            if name is None:
                return None
        return None if self.is_package(name) else name

    def reached_from(self, roots) -> set[str]:
        """Every non-package module the import statements of ``roots``
        (``(tree, package)`` pairs) reach, transitively."""
        reached = set()
        pending = list(roots)
        while pending:
            tree, package = pending.pop()
            for imported in _imported_modules(tree, package):
                module = self.resolve(imported)
                if module is not None and module not in reached:
                    reached.add(module)
                    path = self.paths[module]
                    pending.append((_parse(path), _package_of(path)))
        return reached


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _package_of(path: Path) -> str:
    """The ``repro`` subpackage a source file sits in ("" at the top)."""
    return "" if path.parent == SRC else path.parent.name


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


def test_every_module_is_reached_from_an_entry_point():
    graph = _ModuleGraph()
    main = graph.paths["repro.__main__"]
    roots = [(_parse(main), _package_of(main))]
    roots += [(_parse(path), "") for directory in ENTRY_DIRS
              for path in sorted((REPO / directory).rglob("*.py"))]
    reached = graph.reached_from(roots) | {"repro.__main__"}
    unreached = sorted(name for name in graph.paths
                       if not graph.is_package(name) and name not in reached)
    assert not unreached, ("modules no entry point reaches: "
                           + ", ".join(unreached))


def test_reachability_follows_reexports_not_packages():
    graph = _ModuleGraph()
    # A name imported from a package reaches the module that defines it,
    # through as many re-exporting packages as it takes.
    assert graph.resolve("repro.core.Gen2Config") == "repro.core.config"
    assert graph.resolve("repro.DEFAULT_BAND_PLAN") == "repro.constants"
    assert graph.resolve("repro.sim.engine") == "repro.sim.engine"
    assert graph.resolve("repro.sim.engine.SweepEngine") == "repro.sim.engine"
    # A package, or a name its __init__ defines, reaches no submodule.
    assert graph.resolve("repro.rf") is None
    assert graph.resolve("repro.__version__") is None
    assert graph.resolve("numpy.fft") is None
    tree = ast.parse("import repro.core\n"
                     "def f():\n    from repro.rf import PlanarEllipticalAntenna\n")
    assert graph.reached_from([(tree, "")]) >= {"repro.rf.antenna"}
    assert graph.reached_from([(ast.parse("import repro.core\n"), "")]) \
        == set()
