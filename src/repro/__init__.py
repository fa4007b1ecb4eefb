"""repro: pulse-level simulation library reproducing the DATE 2005 paper
"Direct Conversion Pulsed UWB Transceiver Architecture" (Blazquez et al.).

The package is organized by subsystem:

* :mod:`repro.constants` — FCC limits, band plan, headline system numbers.
* :mod:`repro.pulses` — pulse shapes, modulation, pulse trains, FCC mask.
* :mod:`repro.rf` — the planar elliptical UWB antenna.
* :mod:`repro.adc` — flash / time-interleaved / SAR converters, power
  models.
* :mod:`repro.channel` — AWGN, 802.15.3a Saleh-Valenzuela multipath,
  narrowband interferers, the FCC transmit-power limit.
* :mod:`repro.dsp` — the digital back end: correlators, acquisition,
  channel estimation, RAKE, MLSE (Viterbi), spectral monitoring, digital
  notch, AGC, parallelization.
* :mod:`repro.phy` — preambles, CRC, scrambler, convolutional coding,
  packet framing.
* :mod:`repro.power` — per-block power models and system budgets.
* :mod:`repro.core` — the two transceiver generations, link simulation and
  the power/QoS/data-rate adaptation controller.
* :mod:`repro.sim` — the batched Monte-Carlo sweep engine, the scenario
  registry and the shared-memory process fan-out (the fast path for BER
  grids across many environments).
* :mod:`repro.runs` — persistent sweep runs: the content-addressed result
  store (append-only JSONL or the queryable SQLite warehouse with ETL
  migration, compaction/GC and cross-run queries), the sharded/resumable
  run driver, curve artifacts and the ``python -m repro`` CLI.
* :mod:`repro.obs` — dependency-free run telemetry: spans/counters/gauges,
  the per-run event ledger (``events.jsonl`` + ``telemetry.json``), live
  CLI progress and the ``python -m repro report`` renderer.  Off by
  default and bitwise invisible to results.
* :mod:`repro.prototype` — the discrete prototype platform and the
  modulation-scheme comparison.

Quick start::

    from repro.core import Gen2Config, Gen2Transceiver

    transceiver = Gen2Transceiver(Gen2Config.fast_test_config())
    simulation = transceiver.simulate_packet(num_payload_bits=64, ebn0_db=14.0)
    print(simulation.result.crc_ok, simulation.result.payload_bit_errors)
"""

# Defined before the subpackage imports so modules imported below (e.g.
# repro.runs.driver) can read the version during package initialization.
__version__ = "1.21.0"

from repro import (
    adc,
    channel,
    constants,
    core,
    dsp,
    obs,
    phy,
    power,
    prototype,
    pulses,
    rf,
    runs,
    sim,
    utils,
)
from repro.constants import DEFAULT_BAND_PLAN, BandPlan

__all__ = [
    "adc",
    "channel",
    "constants",
    "core",
    "dsp",
    "obs",
    "phy",
    "power",
    "prototype",
    "pulses",
    "rf",
    "runs",
    "sim",
    "utils",
    "BandPlan",
    "DEFAULT_BAND_PLAN",
    "__version__",
]
