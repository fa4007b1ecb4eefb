"""perfbench's traced mode still finds every function it patches.

``perfbench/layers.py`` times the layers by patching public functions
and methods of ``src/`` by name.  A rename there would otherwise only
surface in the benchmark's traced smoke run; this test installs the
patches in-process (reading ``perfbench/``, never writing it) and checks
that :meth:`Tracer.restore` puts every original back.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


@pytest.fixture
def perfbench_modules(monkeypatch):
    """Import ``layers`` and ``tracing`` from ``perfbench/``, then forget
    them again so no other test sees those top-level names (no bytecode
    is written into ``perfbench/``)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("layers", "tracing"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import layers
    import tracing
    yield layers, tracing
    for name in ("layers", "tracing"):
        sys.modules.pop(name, None)


def _targets():
    """The patch targets most exposed to refactors, as (holder, attr)."""
    from repro.channel.multipath import MultipathChannel
    from repro.sim.backends import NumpyBackend
    from repro.sim.batch import BatchedLinkModel
    return [(BatchedLinkModel, "synthesize"),
            (BatchedLinkModel, "simulate"),
            (NumpyBackend, "quantize_uniform"),
            (NumpyBackend, "symbol_windows"),
            (MultipathChannel, "apply_batch")]


def test_layers_install_resolves_every_target_and_restores(
        perfbench_modules):
    layers, tracing = perfbench_modules
    originals = {(holder, attr): holder.__dict__[attr]
                 for holder, attr in _targets()}
    tracer = tracing.Tracer()
    try:
        assert layers.install(tracer) is None
        for (holder, attr), original in originals.items():
            assert holder.__dict__[attr] is not original, (
                f"{holder.__name__}.{attr} was not patched")
    finally:
        tracer.restore()
    for (holder, attr), original in originals.items():
        assert holder.__dict__[attr] is original
