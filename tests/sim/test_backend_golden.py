"""Golden regression: the NumPy batch kernel must stay bit-identical.

The fixture in ``golden_backend_fixture.json`` pins the error counts of
the NumPy genie kernel (``SweepEngine(backend="batch")``) as of
``batch_kernel`` 3, the revision that synthesizes the received signal in
closed form at the ADC rate and draws noise only at the samples the ADC
keeps.  Refactors may change how the kernel computes, but the NumPy
reference path must keep producing byte-for-byte the same error counts —
these tests are the contract that makes cached ``repro.runs`` stores and
published curves stable across refactors.  A deliberate change of the
random stream bumps ``_BATCH_KERNEL_VERSION`` in ``repro.sim.engine``
(which moves every batch ``config_digest``) and regenerates the fixture
from the same engine, grid and run specs.
"""

import json
from pathlib import Path

import pytest

from repro.sim import SweepEngine, sweep_grid

FIXTURE_PATH = Path(__file__).with_name("golden_backend_fixture.json")


def _load_grids():
    with FIXTURE_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)["grids"]


GRIDS = _load_grids()


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_numpy_backend_matches_pre_refactor_golden(name):
    spec = GRIDS[name]
    engine = SweepEngine(**spec["engine"])
    grid_spec = spec["grid"]
    points = sweep_grid(grid_spec["ebn0"],
                        scenarios=tuple(grid_spec["scenarios"]),
                        modulations=tuple(grid_spec["modulations"]),
                        adc_bits=tuple(grid_spec["adc_bits"]))
    result = engine.run(points, **spec["run"])
    assert len(result.entries) == len(spec["entries"])
    for (point, measurement), expected in zip(result.entries,
                                              spec["entries"]):
        (ebn0_db, scenario, modulation, adc_bits,
         bit_errors, total_bits, packets_sent, packets_failed) = expected
        assert point.ebn0_db == ebn0_db
        assert point.scenario == scenario
        assert point.modulation == modulation
        assert point.adc_bits == adc_bits
        assert measurement.bit_errors == bit_errors, (
            f"{name}: {point} moved from the batch_kernel 3 golden "
            f"({measurement.bit_errors} != {bit_errors} bit errors) — the "
            "NumPy backend must stay bit-identical")
        assert measurement.total_bits == total_bits
        assert measurement.packets_sent == packets_sent
        assert measurement.packets_failed == packets_failed


def test_golden_covers_both_generations_and_quantize_modes():
    engines = [GRIDS[name]["engine"] for name in GRIDS]
    assert {spec["generation"] for spec in engines} == {"gen1", "gen2"}
    assert any(not spec.get("quantize", True) for spec in engines)
