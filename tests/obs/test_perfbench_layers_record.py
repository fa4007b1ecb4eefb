"""Every full-stack receiver layer perfbench times records time.

``perfbench/layers.py`` times a layer by patching one function by name.
If the receiver stops calling that function on the path the layer
stands for, the layer reads 0 and the per-layer breakdown silently loses
a stage.  This test installs the patches in-process (reading
``perfbench/``, never writing it), runs one small full-stack chunk per
hardware generation, and checks that each receiver layer recorded a
span on both.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import Gen1Config, Gen2Config
from repro.core.transceiver import Gen1Transceiver, Gen2Transceiver
from repro.sim.batch_rx import BatchedFullStackModel
from repro.sim.scenarios import SCENARIOS

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

LAYERS = ("dsp.agc", "adc.convert", "dsp.acquisition",
          "dsp.channel_estimation", "dsp.rake", "dsp.viterbi.mlse")

#: Back ends that equalize (MLSE over a 64-tap estimate), so every layer
#: runs on both generations.
BACK_END = {"use_mlse": True, "channel_estimate_taps": 64}


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


def _model(generation):
    if generation == "gen1":
        config = Gen1Config.fast_test_config().with_changes(
            pulses_per_bit=1, **BACK_END)
        transceiver = Gen1Transceiver(config, rng=np.random.default_rng(1))
    else:
        config = Gen2Config.fast_test_config().with_changes(
            rake_fingers=16, mlse_max_taps=5, **BACK_END)
        transceiver = Gen2Transceiver(config, rng=np.random.default_rng(1))
    return BatchedFullStackModel(transceiver)


@pytest.mark.parametrize("generation", ["gen1", "gen2"])
def test_every_receiver_layer_records_time(perfbench_modules, generation):
    layers, tracing = perfbench_modules
    model = _model(generation)
    scenario = SCENARIOS.get("cm1")
    scenario_rng = np.random.default_rng(2)
    tracer = tracing.Tracer()
    layers.install(tracer)
    tracer.recording = True
    try:
        model.simulate(14.0, 4, 64, rng=np.random.default_rng(3),
                       make_channel=lambda: scenario.make_channel(
                           scenario_rng))
    finally:
        tracer.recording = False
        tracer.restore()
    busy = {name: 0.0 for name in LAYERS}
    for span in tracer.finished_spans():
        if span.name in busy:
            busy[span.name] += span.duration
    assert all(seconds > 0 for seconds in busy.values()), busy
