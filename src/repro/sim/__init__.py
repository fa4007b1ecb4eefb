"""repro.sim: batched Monte-Carlo sweep engine and scenario registry.

This package is the one entry point for the paper's BER/PER claims.  The
:class:`SweepEngine` runs whole grids of operating points — (Eb/N0 x
modulation x channel scenario x ADC resolution) — with per-point seeded
random streams and optional process-pool parallelism, through a
vectorized kernel that carries packet generation, channel application,
AWGN and demodulation over a batch axis, or through the per-packet
transceiver stack itself.

Usage::

    import numpy as np
    from repro.sim import SweepEngine, sweep_grid

    engine = SweepEngine(generation="gen2", seed=7)

    # One curve: Eb/N0 sweep over a clean AWGN link.
    curve = engine.ber_curve(np.arange(0.0, 12.0, 2.0),
                             scenario="awgn", num_packets=64)
    print(curve.as_rows())

    # A full grid: two scenarios x two modulations x an ADC-resolution axis,
    # fanned out over 4 worker processes.
    grid = sweep_grid(np.arange(0.0, 12.0, 2.0),
                      scenarios=("awgn", "cm3"),
                      modulations=("bpsk", "ook"),
                      adc_bits=(1, 4))
    result = SweepEngine(seed=7).run(grid, num_packets=64, max_workers=4)
    for label, curve in result.curves().items():
        print(label, curve.ber_values())

Scenarios are resolved by name against :data:`repro.sim.SCENARIOS`
(AWGN, two-ray, exponential-decay, 802.15.3a CM1-CM4, narrowband and
partial-band interference, gen-1/gen-2 baseline presets); register custom
environments with :meth:`ScenarioRegistry.register`.

Three backends share the same grid interface: ``backend="batch"``
(default) is the vectorized genie-timed kernel in :mod:`repro.sim.batch`;
``backend="fullstack"`` is the batched full receiver chain in
:mod:`repro.sim.batch_rx` — real acquisition, channel estimation, RAKE
and Viterbi over a batch axis, bit-decision-identical to the packet loop
at a fraction of its cost; ``backend="packet"`` drives the per-packet
transceiver stack one packet at a time (the reference oracle the
fullstack backend is pinned against).

Every kernel runs on NumPy/SciPy on the host.  Process fan-out
(``max_workers``) hands each worker the grid's task prototypes once and
returns results through a ``multiprocessing.shared_memory`` block
(:mod:`repro.sim.shm`) instead of pickles, bit-identical to a serial
run.
"""

from repro.sim.batch import BatchedLinkModel, BatchResult, pulse_for_config
from repro.sim.batch_rx import BatchedFullStackModel, FullStackBatchResult
from repro.sim.engine import SweepEngine, SweepPoint, SweepResult, sweep_grid
from repro.sim.scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioRegistry,
    default_registry,
)
from repro.sim.shm import ChunkResultBlock

__all__ = [
    "BatchResult",
    "BatchedFullStackModel",
    "BatchedLinkModel",
    "FullStackBatchResult",
    "ChunkResultBlock",
    "SCENARIOS",
    "Scenario",
    "ScenarioRegistry",
    "SweepEngine",
    "SweepPoint",
    "SweepResult",
    "default_registry",
    "pulse_for_config",
    "sweep_grid",
]
