"""What the genie (``backend="batch"``) path builds per engine, per point
and per chunk.

A service worker calls ``measure_points`` once per two-packet chunk, so
anything built per call is paid per chunk.  The engine keeps the
resolved configuration and the ``BatchedLinkModel`` of each point
(``SweepEngine._resolved``), a point's seed key is hashed once per call
and a chunk builds only the random streams it draws from.  These tests
count those constructions instead of timing them, and check that the
memoized model is bitwise a fresh one.
"""

import numpy as np
import pytest

from repro.core.config import Gen1Config, Gen2Config
from repro.pulses.modulation import MODULATION_SCHEMES
from repro.sim import SweepEngine, SweepPoint
from repro.sim.batch import BatchedLinkModel
from repro.sim.scenarios import SCENARIOS

CHUNKS = 100


def _count_calls(monkeypatch, holder, name, calls):
    original = getattr(holder, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)
    monkeypatch.setattr(holder, name, counted)


def _chunks(engine, point):
    """``CHUNKS`` two-packet chunks of ``point``, one call each, at
    offsets 0, 2, 4, ... (what a service worker runs)."""
    return [engine.measure_points([(point, 2, 2 * chunk)],
                                  chunk_packets=2)[0]
            for chunk in range(CHUNKS)]


@pytest.mark.parametrize("generation, config_class",
                         [("gen1", Gen1Config), ("gen2", Gen2Config)])
def test_model_and_config_are_built_once_per_engine(monkeypatch, generation,
                                                    config_class):
    calls = {}
    _count_calls(monkeypatch, BatchedLinkModel, "__init__", calls)
    _count_calls(monkeypatch, config_class, "fast_test_config", calls)
    engine = SweepEngine(generation=generation, seed=5)
    _chunks(engine, SweepPoint(6.0))
    _chunks(engine, SweepPoint(8.0))
    assert calls == {"__init__": 1, "fast_test_config": 1}


@pytest.mark.parametrize("scenario, streams", [("awgn", 1), ("cm1", 2),
                                               ("narrowband", 2)])
def test_a_chunk_builds_only_the_streams_it_draws(monkeypatch, scenario,
                                                  streams):
    calls = {}
    _count_calls(monkeypatch, np.random, "SeedSequence", calls)
    _chunks(SweepEngine(seed=5), SweepPoint(6.0, scenario=scenario))
    assert calls == {"SeedSequence": streams * CHUNKS}


def test_memoized_chunks_equal_fresh_engines():
    # Each chunk on a fresh engine builds its model from scratch; on one
    # engine every chunk after the first reuses the model.
    point = SweepPoint(4.0, scenario="cm1", modulation="ppm", adc_bits=2)
    shared = _chunks(SweepEngine(seed=9), point)
    fresh = [SweepEngine(seed=9).measure_points(
        [(point, 2, 2 * chunk)], chunk_packets=2)[0]
        for chunk in range(CHUNKS)]
    assert shared == fresh


def _notch_config():
    return Gen2Config.fast_test_config().with_changes(
        enable_digital_notch=True, adc_bits=4)


@pytest.mark.parametrize("quantize", [True, False])
@pytest.mark.parametrize("modulation", MODULATION_SCHEMES)
@pytest.mark.parametrize("scenario", ["awgn", "cm1", "narrowband"])
def test_memoized_model_simulates_like_a_fresh_one(scenario, modulation,
                                                   quantize):
    engine = SweepEngine(config=_notch_config(), quantize=quantize, seed=2)
    point = SweepPoint(5.0, scenario=scenario, modulation=modulation)
    # Run chunks first, so that the memoized model has state to leak.
    engine.measure_points([(point, 6, 0)], chunk_packets=2)
    memoized = engine._task_for(point, 3, 32).model
    notch = SCENARIOS.get(scenario).notch_frequency_hz
    fresh = BatchedLinkModel(_notch_config(), modulation=modulation,
                             quantize=quantize, notch_frequency_hz=notch)
    assert memoized is not fresh
    assert memoized.notch_frequency_hz == notch
    results = []
    for model in (memoized, fresh):
        rng = np.random.default_rng(17)
        scenario_rng = np.random.default_rng(18)
        results.append(model.simulate(
            5.0, 3, 32, rng=rng,
            channel=SCENARIOS.get(scenario).make_channel(scenario_rng),
            interferer=SCENARIOS.get(scenario).make_interferer(scenario_rng)))
    memo_result, fresh_result = results
    for field in ("ebn0_db", "bit_errors", "total_bits", "packets_sent",
                  "packets_failed"):
        assert getattr(memo_result, field) == getattr(fresh_result, field)
    np.testing.assert_array_equal(memo_result.errors_per_packet,
                                  fresh_result.errors_per_packet)


def test_one_engine_keys_its_models_on_every_input():
    # The same engine, config and modulation: the scenario's notch and
    # the point's ADC resolution still pick different models.
    engine = SweepEngine(config=_notch_config(), seed=4)
    points = [SweepPoint(6.0), SweepPoint(6.0, scenario="narrowband"),
              SweepPoint(6.0, adc_bits=1),
              SweepPoint(6.0, scenario="narrowband", adc_bits=1),
              SweepPoint(6.0, modulation="ppm")]
    engine.measure_points([(point, 2, 0) for point in points])
    models = [engine._task_for(point, 2, 64).model for point in points]
    assert len({id(model) for model in models}) == len(points)
    assert [model.notch_frequency_hz is not None for model in models] == [
        False, True, False, True, False]
    assert [model.config.adc_bits for model in models] == [4, 4, 1, 1, 4]
    assert models[4].modulator.name == "ppm"


def test_engines_with_different_configs_never_share_a_model():
    point = SweepPoint(6.0, scenario="narrowband", adc_bits=3)
    engines = [SweepEngine(seed=1),
               SweepEngine(config=Gen2Config.fast_test_config(), seed=1),
               SweepEngine(config=_notch_config(), seed=1),
               SweepEngine(seed=1, quantize=False),
               SweepEngine(seed=1, generation="gen1")]
    models = []
    for engine in engines:
        engine.measure_points([(point, 2, 0)])
        task = engine._task_for(point, 2, 64)
        assert task.model.config == task.config
        assert task.config.adc_bits == 3
        assert task.model.quantize is engine.quantize
        models.append(task.model)
    assert len({id(model) for model in models}) == len(engines)
    notched = [model.notch_frequency_hz is not None for model in models]
    assert notched == [False, False, True, False, False]
