"""Traced-memory budgets of the full-stack receiver, stage by stage.

One 64-packet chunk of each ``fullstack-cm1`` benchmark grid (gen-2
paper grade at 6 dB, gen-1 one pulse per bit at 12 dB, CM1, 256-bit
payloads) runs under ``tracemalloc``.  Each stage's peak is the most it
held above what was allocated when it was entered, measured in a second
run of the chunk after a first run measured the whole chunk.  A
budget is the peak measured when the stages were made to work a block at
a time, plus a margin of 25% and 2 MB, so a stage that goes back to
batch-sized temporaries fails here.  Before that change the whole chunk
peaked at 58.2 MB (gen 2) and 107.4 MB (gen 1), the gen-2 RAKE at
45.9 MB, the gen-1 AGC at 26.8 MB and the gen-1 acquisition at 44.5 MB.
The RAKE budgets date from when ``combine_streams_batch`` began to pad
and gather a block of packets at a time, not only a block of fingers:
before, the gen-1 RAKE peaked at 36.3 MB, the gen-2 RAKE at 27.7 MB
and the gen-2 chunk at 39.8 MB.
"""

import tracemalloc

import pytest

from repro.adc.interleaved import TimeInterleavedADC
from repro.adc.sar import QuadratureSARADC
from repro.core.config import Gen1Config, Gen2Config
from repro.dsp.acquisition import CoarseAcquisition
from repro.dsp.agc import AutomaticGainControl
from repro.dsp.channel_estimation import ChannelEstimator
from repro.sim import SweepEngine, batch_rx, sweep_grid

PAPER_GRADE = {"use_mlse": True, "mlse_max_taps": 5, "rake_fingers": 16,
               "channel_estimate_taps": 64, "adc_comparator_noise_std": 0.0}

#: Measured traced peaks in MB per stage and for the whole chunk.
MEASURED_MB = {
    "gen2": {"draws": 7.0, "front": 11.0, "agc": 6.1, "adc": 11.7,
             "acquisition": 5.1, "chanest": 22.2, "rake": 16.0,
             "mlse": 22.0, "simulate": 35.2},
    "gen1": {"draws": 27.7, "front": 29.7, "agc": 3.5, "adc": 3.0,
             "acquisition": 17.8, "chanest": 33.8, "rake": 5.7,
             "simulate": 57.0},
}

STAGES = [
    ("draws", batch_rx.BatchedFullStackModel, "_phase1_draws"),
    ("front", batch_rx.BatchedFullStackModel, "_adc_rate_front"),
    ("agc", AutomaticGainControl, "apply_from_peak_batch"),
    ("adc", QuadratureSARADC, "convert"),
    ("adc", TimeInterleavedADC, "convert_presampled_batch"),
    ("acquisition", CoarseAcquisition, "acquire_batch"),
    ("chanest", ChannelEstimator, "estimate_averaged_batch"),
    ("rake", batch_rx, "combine_streams_batch"),
    ("mlse", batch_rx, "equalize_to_bits_batch"),
]


def _engine(generation):
    if generation == "gen2":
        config = Gen2Config.fast_test_config().with_changes(**PAPER_GRADE)
        ebn0_db = 6
    else:
        config = Gen1Config.fast_test_config().with_changes(pulses_per_bit=1)
        ebn0_db = 12
    engine = SweepEngine(config=config, generation=generation, seed=1,
                         backend="fullstack", chunk_packets=64)
    point = sweep_grid((ebn0_db,), scenarios=("cm1",))[0]
    engine.measure_points([(point, 2, 0)], payload_bits_per_packet=256)
    return engine, point


def _traced(function, peaks, name):
    def wrapper(*args, **kwargs):
        entered = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return function(*args, **kwargs)
        finally:
            peak = (tracemalloc.get_traced_memory()[1] - entered) / 1e6
            peaks[name] = max(peaks.get(name, 0.0), peak)
    return wrapper


@pytest.mark.parametrize("generation", ["gen2", "gen1"])
def test_chunk_stages_stay_within_their_memory_budgets(generation,
                                                       monkeypatch):
    engine, point = _engine(generation)
    tracemalloc.start()
    try:
        engine.measure_points([(point, 64, 0)], payload_bits_per_packet=256)
        peaks = {"simulate": tracemalloc.get_traced_memory()[1] / 1e6}
        for name, holder, attribute in STAGES:
            monkeypatch.setattr(holder, attribute, _traced(
                getattr(holder, attribute), peaks, name))
        engine.measure_points([(point, 64, 0)], payload_bits_per_packet=256)
    finally:
        tracemalloc.stop()
    measured = MEASURED_MB[generation]
    assert set(peaks) == set(measured)
    over = {name: (round(peaks[name], 1), measured[name])
            for name in measured
            if peaks[name] > 1.25 * measured[name] + 2.0}
    assert not over, f"traced peak (MB, measured MB) over budget: {over}"
