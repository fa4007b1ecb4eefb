"""Golden regression: two-packet chunks of the genie kernel, chunk by chunk.

``golden_small_chunk_fixture.json`` pins the per-chunk counts of
``SweepEngine(backend="batch").measure_points`` on two-packet chunks at
packet offsets 0, 2, 4 and 6 — the offset-extended spawn keys the sweep
service leases.  It covers both generations, the ``awgn``, ``cm1`` and
``narrowband`` scenarios (gen 2 with the digital notch on), 1- and 4-bit
ADCs and BPSK and PPM, and the counts must come out the same on every
execution shape: one call over the whole grid, the chunks fanned over a
two-worker pool, and one call per chunk on one engine (what a service
worker does).  The fixture was written by ``python
tests/sim/test_small_chunk_golden.py`` before the genie path kept its
models, configs and seed keys across chunks; it may only change with
``_BATCH_KERNEL_VERSION``.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import Gen1Config, Gen2Config
from repro.sim import SweepEngine, sweep_grid

FIXTURE_PATH = Path(__file__).with_name("golden_small_chunk_fixture.json")
CHUNK_PACKETS = 2
CHUNKS = 4
PAYLOAD_BITS = 64

#: name -> (engine keyword arguments, config changes, scenarios)
CASES = {
    "gen1": ({"generation": "gen1", "seed": 11}, None,
             ("awgn", "cm1", "narrowband")),
    "gen2": ({"generation": "gen2", "seed": 11}, None, ("awgn", "cm1")),
    "gen2_notch": ({"generation": "gen2", "seed": 11},
                   {"enable_digital_notch": True}, ("narrowband",)),
}


def _engine(name: str) -> SweepEngine:
    kwargs, changes, _ = CASES[name]
    config = None
    if changes is not None:
        base = (Gen1Config if kwargs["generation"] == "gen1"
                else Gen2Config).fast_test_config()
        config = base.with_changes(**changes)
    return SweepEngine(config=config, backend="batch", **kwargs)


def _points(name: str):
    return sweep_grid((4.0, 8.0), scenarios=CASES[name][2],
                      modulations=("bpsk", "ppm"), adc_bits=(1, 4))


def _row(point, measurement) -> list:
    return [point.ebn0_db, point.scenario, point.modulation, point.adc_bits,
            measurement.bit_errors, measurement.packets_failed,
            measurement.total_bits]


def _measure(engine: SweepEngine, points, mode: str) -> dict:
    """Per-chunk rows keyed by ``str(packet_offset)``, grid order inside."""
    rows: dict[str, list] = {}

    def on_chunk(point, offset, measurement):
        rows.setdefault(str(offset), []).append(_row(point, measurement))

    if mode == "per_chunk":
        for point in points:
            for chunk in range(CHUNKS):
                engine.measure_points(
                    [(point, CHUNK_PACKETS, chunk * CHUNK_PACKETS)],
                    payload_bits_per_packet=PAYLOAD_BITS,
                    chunk_packets=CHUNK_PACKETS, on_chunk=on_chunk)
    else:
        engine.measure_points(
            [(point, CHUNKS * CHUNK_PACKETS, 0) for point in points],
            payload_bits_per_packet=PAYLOAD_BITS,
            max_workers=2 if mode == "pool" else None,
            chunk_packets=CHUNK_PACKETS, on_chunk=on_chunk)
    return rows


def _load():
    with FIXTURE_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)["cases"]


@pytest.mark.parametrize("mode", ["serial", "pool", "per_chunk"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_small_chunks_match_golden(name, mode):
    expected = _load()[name]
    got = _measure(_engine(name), _points(name), mode)
    assert got == expected, (
        f"{name} ({mode}): two-packet chunk counts moved from the golden")


def test_golden_covers_the_required_axes():
    cases = _load()
    rows = [row for case in cases.values()
            for chunk in case.values() for row in chunk]
    assert {row[1] for row in rows} == {"awgn", "cm1", "narrowband"}
    assert {row[2] for row in rows} == {"bpsk", "ppm"}
    assert {row[3] for row in rows} == {1, 4}
    assert all(set(case) == {str(CHUNK_PACKETS * chunk)
                             for chunk in range(CHUNKS)}
               for case in cases.values())
    assert any(row[4] for row in rows), "every chunk error-free pins nothing"


if __name__ == "__main__":
    fixture = {"_comment": "Per-chunk counts of two-packet genie chunks; "
                           "see tests/sim/test_small_chunk_golden.py",
               "cases": {name: _measure(_engine(name), _points(name),
                                        "serial")
                         for name in sorted(CASES)}}
    FIXTURE_PATH.write_text(json.dumps(fixture, indent=1) + "\n",
                            encoding="utf-8")
