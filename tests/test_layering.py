"""Layering and reachability of the ``repro`` modules.

``repro.dsp``, ``repro.adc`` and ``repro.channel`` are the building
blocks ``repro.sim`` composes; an import the other way (even a
function-local one, the usual way round an import cycle) would tie the
blocks to the engine.

Every module under ``src/repro`` must also be reached by imports from an
entry point (a benchmark, an example, perfbench, a tool or
``python -m repro``); a module only its own unit tests import is surface
nothing needs.  The same holds one level down: every public function,
class and method must be named by code outside ``tests/``, or carry its
reason in :data:`REACHABILITY_ALLOWLIST`.
"""

import ast
import re
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


# ----------------------------------------------------------------------
# Definition-level reachability
# ----------------------------------------------------------------------
# Public definitions that no code outside tests/ names, each with the
# reason it stays.  Keyed by module and qualified name.
REACHABILITY_ALLOWLIST = {
    # Hooks the standard library calls by name.
    "repro.serve.api.ServeServer.process_request":
        "socketserver calls it for every accepted connection",
    "repro.serve.api.ServeServer.shutdown_request":
        "socketserver calls it when a handler finishes",
    "repro.serve.api._Handler.log_message":
        "http.server calls it to log each request",
    "repro.serve.api._Handler.do_GET":
        "http.server dispatches GET requests to it",
    "repro.serve.api._Handler.do_POST":
        "http.server dispatches POST requests to it",
    # Oracle inputs for the stage-level closed-form checks (ROADMAP
    # item 10) and the S-V characteristics oracle (ROADMAP item 4).
    "repro.dsp.acquisition.CoarseAcquisition.detection_statistics":
        "false-alarm input of the acquisition oracle",
    "repro.adc.quantizer.UniformQuantizer.measured_sndr_db":
        "measured side of the 6.02 N + 1.76 dB ADC oracle",
    "repro.adc.quantizer.UniformQuantizer.quantization_noise_power":
        "step^2 / 12 input of the ADC oracle",
    "repro.adc.quantizer.ideal_sndr_db":
        "closed-form side of the 6.02 N + 1.76 dB ADC oracle",
    "repro.dsp.channel_estimation.ChannelEstimate.energy_capture":
        "captured-energy input of the RAKE-with-known-channel oracle",
    "repro.channel.multipath.MultipathChannel.mean_excess_delay_s":
        "mean excess delay of the S-V characteristics oracle",
    # Seams through which a test compares reached code bit for bit with
    # its reference.
    "repro.sim.batch_rx.BatchedFullStackModel.receive_batch":
        "fullstack vs per-packet receive parity "
        "(tests/sim/test_fullstack_parity.py)",
}

# A string that is a dotted identifier names what it spells: perfbench
# patches its targets by attribute name.
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")
_DEF_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _public_definitions(tree: ast.AST, module: str):
    """``(key, node)`` for every public top-level function and class of
    ``tree`` and every public method of its top-level classes."""
    for node in tree.body:
        if not isinstance(node, _DEF_TYPES):
            continue
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEF_TYPES[:2]) \
                        and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def _references(tree: ast.AST):
    """``(identifier, enclosing definitions)`` for every name, attribute
    and identifier-like string in ``tree``, except the strings of an
    ``__all__`` list; the definitions are the ids of the enclosing
    function and class nodes, outermost first."""
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported.update(id(child) for child in ast.walk(node.value))

    def visit(node, enclosing):
        if isinstance(node, _DEF_TYPES):
            enclosing = enclosing + (id(node),)
        if isinstance(node, ast.Name):
            yield node.id, enclosing
        elif isinstance(node, ast.Attribute):
            yield node.attr, enclosing
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in exported and _IDENTIFIER.match(node.value):
            for part in node.value.split("."):
                yield part, enclosing
        for child in ast.iter_child_nodes(node):
            yield from visit(child, enclosing)

    yield from visit(tree, ())


def _unreached(sources, roots, seeds=()):
    """The definitions of ``sources`` that no reference reaches.

    ``sources`` are ``(module, tree)`` pairs whose public definitions are
    checked, ``roots`` are trees whose every reference counts.  A
    reference inside a checked definition counts only once that
    definition is reached, and never for the definition itself, so
    code only unreached code names stays unreached.  Names are matched
    without their owner, so a collision can only keep a definition.
    ``seeds`` are keys treated as reached.  Returns ``{key: node}``.
    """
    definitions = {}
    references = []
    for module, tree in sources:
        definitions.update(_public_definitions(tree, module))
        references += _references(tree)
    for tree in roots:
        references += _references(tree)
    by_name = {}
    for key, node in definitions.items():
        by_name.setdefault(key.rpartition(".")[2], []).append(id(node))
    checked = {id(node) for node in definitions.values()}
    references = [(name, enclosing) for name, enclosing in references
                  if name in by_name]
    reached = {id(definitions[key]) for key in seeds if key in definitions}
    grew = True
    while grew:
        grew = False
        for name, enclosing in references:
            if any(owner in checked and owner not in reached
                   for owner in enclosing):
                continue
            for target in by_name[name]:
                if target not in reached and target not in enclosing:
                    reached.add(target)
                    grew = True
    return {key: node for key, node in definitions.items()
            if id(node) not in reached}


def _scan_repository(seeds=()):
    """Scan ``src/repro`` with ``benchmarks/``, ``examples/``,
    ``perfbench/`` and ``tools/`` as roots.  Returns ``(unreached,
    located)``: both map a definition's key to ``"path:line key"``, the
    first for the unreached definitions, the second for all of them."""
    sources, where = [], {}
    for path in sorted(SRC.rglob("*.py")):
        module, tree = _module_name(path), _parse(path)
        sources.append((module, tree))
        relative = path.relative_to(REPO)
        for key, node in _public_definitions(tree, module):
            where[key] = f"{relative}:{node.lineno} {key}"
    roots = [_parse(path) for directory in ENTRY_DIRS
             for path in sorted((REPO / directory).rglob("*.py"))]
    return {key: where[key] for key in _unreached(sources, roots, seeds)}, \
        where


def test_every_public_definition_is_reached_outside_tests():
    unreached, _ = _scan_repository(seeds=REACHABILITY_ALLOWLIST)
    assert not unreached, (
        "public definitions only tests reach (delete them, or allowlist "
        "them with a reason):\n" + "\n".join(unreached.values()))


def test_reachability_allowlist_has_no_stale_entry():
    unreached, defined = _scan_repository()
    stale = [f"{key}: " + ("reached without the allowlist" if key in defined
                           else "no such definition")
             for key in REACHABILITY_ALLOWLIST if key not in unreached]
    assert not stale, "stale allowlist entries:\n" + "\n".join(stale)


def test_reachability_scan_follows_only_reached_code():
    source = ast.parse(
        "__all__ = ['exported']\n"
        "def exported(): pass\n"
        "def used(): helper()\n"
        "def helper(): pass\n"
        "def dead(): chained()\n"
        "def chained(): pass\n"
        "def recursive(): recursive()\n"
        "def patched(): pass\n"
        "class Box:\n"
        "    def method(self): pass\n"
        "    def _private(self): pass\n"
        "class Unused:\n"
        "    def method(self): pass\n")
    root = ast.parse("used()\nBox().method()\npatch(obj, 'm.patched')\n")
    # An __all__ entry, recursion and a call from unreached code reach
    # nothing; a method of an unreached class sharing a reached name does.
    unreached = _unreached([("m", source)], [root])
    assert set(unreached) == {"m.exported", "m.dead", "m.chained",
                              "m.recursive", "m.Unused"}
    assert set(_unreached([("m", source)], [root], seeds=["m.dead"])) \
        == {"m.exported", "m.recursive", "m.Unused"}
