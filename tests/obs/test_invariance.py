"""Telemetry must be bitwise invisible: on/off runs are identical.

The hard contract of :mod:`repro.obs` (see ``docs/architecture.md``):
attaching a :class:`~repro.obs.recorder.Recorder` to an engine changes
*nothing* about the results — not the per-point counts, not the
per-packet error vectors, not the config digest (hence not the store
keys) — across backends and scheduling modes.
"""

import pytest

from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.runs import RunDriver
from repro.sim import SweepEngine, sweep_grid

INVARIANCE_MATRIX = [
    ("packet", None),
    ("packet", 2),
    ("fullstack", None),
    ("fullstack", 2),
    ("batch", None),
    ("batch", 2),
]


@pytest.mark.parametrize("backend,workers", INVARIANCE_MATRIX)
def test_results_identical_with_and_without_telemetry(
        engine_factory, backend, workers):
    grid = sweep_grid([3.0, 6.0])
    kwargs = dict(num_packets=6, payload_bits_per_packet=24,
                  max_workers=workers, collect_errors_per_packet=True)
    plain = engine_factory(seed=37, backend=backend,
                           chunk_packets=3).run(grid, **kwargs)
    recorder = Recorder()
    traced = engine_factory(seed=37, backend=backend, chunk_packets=3,
                            recorder=recorder).run(grid, **kwargs)
    assert traced.entries == plain.entries
    assert traced.errors_per_packet == plain.errors_per_packet
    # And the recorder actually saw the run (it is invisible, not inert).
    assert recorder.counter_totals()["chunks.scheduled"] == 4
    assert recorder.span_stats()["chunk.run"]["count"] == 4


def test_config_digest_excludes_the_recorder(engine_factory):
    plain = engine_factory(seed=5)
    traced = engine_factory(seed=5, recorder=Recorder())
    assert traced.config_digest() == plain.config_digest()
    for point in sweep_grid([2.0, 4.0]):
        assert traced.point_digest(point) == plain.point_digest(point)


def test_engine_defaults_to_the_null_recorder(engine_factory):
    assert engine_factory().recorder is NULL_RECORDER


def test_disabled_engine_run_records_nothing(engine_factory):
    engine = engine_factory(seed=2)
    engine.run(sweep_grid([4.0]), num_packets=2,
               payload_bits_per_packet=16)
    assert engine.recorder.events() == ()


def test_store_contents_identical_with_and_without_telemetry(tmp_path):
    grid = sweep_grid([2.0, 4.0])

    def run(name, recorder):
        engine = SweepEngine(seed=13, chunk_packets=2, recorder=recorder)
        driver = RunDriver.create(tmp_path / name, engine, grid,
                                  num_packets=4,
                                  payload_bits_per_packet=16)
        driver.run_shard(0, max_workers=2)
        return driver

    plain = run("plain", None)
    traced = run("traced", Recorder())
    assert traced.merge() == plain.merge()
    # Identical store keys AND identical chunk records on disk.
    plain_store = plain.store_for_shard(0)
    traced_store = traced.store_for_shard(0)
    assert traced_store.keys() == plain_store.keys()
    for key in plain_store.keys():
        assert traced_store.chunks_for(key) == plain_store.chunks_for(key)
    plain_lines = sorted(
        (plain.store_dir / plain_store.writer_name).read_text().splitlines())
    traced_lines = sorted(
        (traced.store_dir
         / traced_store.writer_name).read_text().splitlines())
    assert traced_lines == plain_lines
