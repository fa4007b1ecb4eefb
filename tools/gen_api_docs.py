#!/usr/bin/env python
"""Generate ``docs/api.md`` and police docstrings on the public surface.

The public surface is every module listed in ``PUBLIC_MODULES`` plus
every name those modules export through ``__all__`` (classes, functions,
and — for classes — their public methods and properties).  Two modes:

``python tools/gen_api_docs.py``
    Regenerate ``docs/api.md`` from the live docstrings (deterministic,
    dependency-free: the committed file must match a fresh run, which CI
    enforces with ``git diff --exit-code``).

``python tools/gen_api_docs.py --check``
    Exit non-zero listing every public object with a missing docstring —
    the CI gate that keeps the docstring pass from rotting.

When `pdoc <https://pdoc.dev>`_ is installed, ``--pdoc-html DIR`` also
renders a browsable HTML tree with it; the markdown output stays
dependency-free so the repository never requires pdoc to build its
committed docs.

Run from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path

PUBLIC_MODULES = (
    "repro",
    "repro.adc.flash",
    "repro.adc.interleaved",
    "repro.channel.multipath",
    "repro.core.transmitter",
    "repro.dsp.agc",
    "repro.pulses.train",
    "repro.sim",
    "repro.sim.backends",
    "repro.sim.batch",
    "repro.sim.batch_rx",
    "repro.sim.engine",
    "repro.sim.scenarios",
    "repro.runs",
    "repro.runs.store",
    "repro.runs.warehouse",
    "repro.runs.driver",
    "repro.runs.artifacts",
    "repro.runs.cli",
    "repro.serve",
    "repro.serve.broker",
    "repro.serve.leases",
    "repro.serve.api",
    "repro.serve.worker",
    "repro.obs",
    "repro.obs.recorder",
    "repro.obs.ledger",
    "repro.obs.progress",
    "repro.obs.report",
    "repro.utils.io",
)

DEFAULT_OUTPUT = Path("docs/api.md")


def _public_methods(cls):
    """(name, member) pairs for the class's own public methods/properties."""
    members = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, (staticmethod, classmethod)):
            members.append((name, member.__func__))
        elif isinstance(member, property):
            members.append((name, member))
        elif inspect.isfunction(member):
            members.append((name, member))
    return sorted(members)


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _first_line(doc: str | None) -> str:
    return (doc or "").strip().splitlines()[0] if (doc or "").strip() else ""


def collect_missing_docstrings() -> list[str]:
    """Every public object whose docstring is missing/empty, as dotted paths."""
    missing = []
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        if not (module.__doc__ or "").strip():
            missing.append(module_name)
        for export in getattr(module, "__all__", ()):
            obj = getattr(module, export, None)
            if obj is None or inspect.ismodule(obj):
                continue
            path = f"{module_name}.{export}"
            if not inspect.isclass(obj) and not callable(obj):
                continue   # constants document themselves by value
            if not (getattr(obj, "__doc__", "") or "").strip():
                missing.append(path)
            if inspect.isclass(obj):
                for name, member in _public_methods(obj):
                    doc = (getattr(member, "__doc__", "") or "").strip()
                    if not doc:
                        missing.append(f"{path}.{name}")
    return missing


def render_markdown() -> str:
    """The full docs/api.md content from the live public surface."""
    import repro
    lines = [
        "# API reference",
        "",
        f"Public surface of `repro` {repro.__version__}, generated by "
        "`tools/gen_api_docs.py` from the live docstrings — edit the "
        "docstrings, not this file, then regenerate with "
        "`PYTHONPATH=src python tools/gen_api_docs.py`.",
        "",
    ]
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        lines.append(f"## `{module_name}`")
        lines.append("")
        lines.append(_first_line(module.__doc__))
        lines.append("")
        exports = [name for name in getattr(module, "__all__", ())
                   if not inspect.ismodule(getattr(module, name, None))]
        for export in exports:
            obj = getattr(module, export)
            # Skip re-exports documented under their home module.
            home = getattr(obj, "__module__", module_name)
            if (inspect.isclass(obj) or inspect.isfunction(obj)) \
                    and home != module_name and home in PUBLIC_MODULES:
                lines.append(f"- `{export}` — re-export of "
                             f"`{home}.{export}`.")
                continue
            if inspect.isclass(obj):
                lines.append(f"### `{export}{_signature(obj)}`")
                lines.append("")
                lines.append(_first_line(obj.__doc__))
                lines.append("")
                for name, member in _public_methods(obj):
                    if isinstance(member, property):
                        descriptor = f"`{name}` *(property)*"
                        doc = _first_line(member.__doc__)
                    else:
                        descriptor = f"`{name}{_signature(member)}`"
                        doc = _first_line(member.__doc__)
                    lines.append(f"- {descriptor} — {doc}")
                lines.append("")
            elif callable(obj):
                lines.append(f"### `{export}{_signature(obj)}`")
                lines.append("")
                lines.append(_first_line(obj.__doc__))
                lines.append("")
            else:
                value = repr(obj)
                if " at 0x" in value:   # default reprs are not deterministic
                    value = (f"<{type(obj).__module__}."
                             f"{type(obj).__qualname__}>")
                lines.append(f"- `{export} = {value}` — module constant.")
        lines.append("")
    text = "\n".join(lines)
    while "\n\n\n" in text:
        text = text.replace("\n\n\n", "\n\n")
    return text.rstrip() + "\n"


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="fail listing public objects without "
                             "docstrings (no file writes)")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT),
                        metavar="FILE", help="markdown output path "
                        "(default: docs/api.md)")
    parser.add_argument("--pdoc-html", default=None, metavar="DIR",
                        help="also render an HTML tree with pdoc into DIR "
                             "(requires pdoc)")
    args = parser.parse_args(argv)

    missing = collect_missing_docstrings()
    if missing:
        print("missing docstrings on the public surface:", file=sys.stderr)
        for path in missing:
            print(f"  - {path}", file=sys.stderr)
        return 1
    if args.check:
        print(f"docstring check OK: {len(PUBLIC_MODULES)} module(s), "
              "no missing docstrings")
        return 0

    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(render_markdown(), encoding="utf-8")
    print(f"wrote {output}")

    if args.pdoc_html is not None:
        try:
            import pdoc  # noqa: F401
        except ImportError:
            print("pdoc is not installed; skipping --pdoc-html "
                  "(pip install pdoc)", file=sys.stderr)
            return 1
        import subprocess
        command = [sys.executable, "-m", "pdoc", "-o", args.pdoc_html,
                   *PUBLIC_MODULES]
        subprocess.run(command, check=True)
        print(f"wrote pdoc HTML tree to {args.pdoc_html}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
