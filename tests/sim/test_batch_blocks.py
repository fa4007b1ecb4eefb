"""The genie kernel's row blocks against the whole-batch chain.

``BatchedLinkModel.simulate`` runs everything per packet one row block
at a time: synthesis, interferer, noise, AGC, quantizer, notch and
matched filter.  The oracle here is the chain it replaces, which ran
each stage once over the whole batch (one ``awgn`` call, one quantizer
call, one correlation).  Every stage is per row, and the noise is
drawn in ``awgn``'s stream order, so decisions, AGC gains and error
counts must agree bit for bit for every block size and packet count.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.batch as batch_module
from repro.channel.awgn import RowBlockNoise, awgn, noise_std_for_ebn0
from repro.channel.saleh_valenzuela import generate_channel
from repro.core.config import Gen1Config, Gen2Config
from repro.sim import BatchedLinkModel
from repro.sim.scenarios import SCENARIOS

PAYLOAD_BITS = 16
CONFIGS = {"gen1": Gen1Config.fast_test_config,
           "gen2": Gen2Config.fast_test_config}
#: (rows per block, packet counts): 1, B - 1, B, B + 1 and 2B + 3
#: packets; 64 rows is at least the packet count of most cases.
BLOCKS = [(rows, sorted({n for n in (1, rows - 1, rows, rows + 1,
                                     2 * rows + 3) if n >= 1}))
          for rows in (1, 7, 64)]


def _whole_batch(model, ebn0_db, num_packets, payload_bits, rng, channel,
                 interferer):
    """The whole-batch chain: decisions, AGC gains, errors per packet."""
    bits = rng.integers(0, 2, size=(num_packets, payload_bits),
                        dtype=np.int64)
    symbols = model.modulate(bits)
    num_symbols = symbols.shape[1]
    references = model.reference_templates(channel)
    samples = model.synthesize(symbols, references)

    energy = model.energy_per_bit(symbols)
    positive = energy > 0
    energy = np.where(positive, energy, energy[positive].mean())

    pad_adc = 0
    if model.notch_frequency_hz is not None and interferer is not None:
        pad_adc = int(np.ceil(6.0 / (1.0 - batch_module._NOTCH_POLE_RADIUS)))
    if pad_adc:
        pad = np.zeros((num_packets, pad_adc), dtype=samples.dtype)
        samples = np.concatenate((pad, samples), axis=-1)
    if interferer is not None:
        taps = (channel.discrete_impulse_response(model.sim_rate_hz).size
                if channel is not None else 1)
        span = (pad_adc * model.decimation
                + num_symbols * model.samples_per_symbol + taps - 1)
        samples = samples + model._interferer_waveform(
            interferer, span, bool(np.iscomplexobj(samples)),
            rng)[::model.decimation]
    if ebn0_db is not None:
        noise_std = noise_std_for_ebn0(energy, float(ebn0_db))
        samples = awgn(samples, noise_std[..., None], rng=rng)

    gains = np.ones(num_packets)
    if model.quantize:
        gains = model._agc_gains(samples)
        samples = batch_module._HELPERS.quantize_uniform(
            samples * gains[:, None], bits=model.config.adc_bits,
            full_scale=batch_module._AGC_FULL_SCALE)
    if model.notch_frequency_hz is not None:
        samples = model._apply_notch(samples)
    if pad_adc:
        samples = samples[..., pad_adc:]

    statistics = [model._correlate(samples, reference, num_symbols)
                  for reference in references]
    norm = gains[:, None] * np.sum(np.abs(references[0]) ** 2)
    if model.position_templates is not None:
        early, late = statistics[0], statistics[1]
        decision = np.real(late - early) / np.maximum(norm, 1e-300)
    else:
        decision = np.real(statistics[0]) / np.maximum(norm, 1e-300)
    received = model.modulator.demodulate(
        decision.ravel()).reshape(bits.shape)
    return decision, gains, np.sum(received != bits, axis=-1)


def _blocked(model, *args):
    """``simulate``'s decisions, per-block AGC gains, errors and block
    count."""
    decisions, gains, blocks = [], [], []
    demodulate, agc_gains = model.modulator.demodulate, model._agc_gains
    synthesize = model.synthesize

    def record_blocks(symbols, references):
        blocks.append(len(symbols))
        return synthesize(symbols, references)

    def record_decisions(values):
        decisions.append(np.array(values))
        return demodulate(values)

    def record_gains(samples):
        gains.append(agc_gains(samples))
        return gains[-1]

    model.modulator.demodulate = record_decisions
    model._agc_gains = record_gains
    model.synthesize = record_blocks
    try:
        result = model.simulate(*args[:3], rng=args[3], channel=args[4],
                                interferer=args[5])
    finally:
        model.modulator.demodulate = demodulate
        model._agc_gains = agc_gains
        model.synthesize = synthesize
    assert len(decisions) == 1
    gains = np.concatenate(gains) if gains else np.ones(args[1])
    return (decisions[0].reshape(args[1], -1), gains,
            result.errors_per_packet), len(blocks)


def _scenario_inputs(name):
    rng = np.random.default_rng(3)
    if name == "cm1":
        return generate_channel("CM1", rng=rng, complex_gains=True), None, None
    if name == "narrowband":
        scenario = SCENARIOS.get("narrowband")
        return (None, scenario.make_interferer(rng),
                scenario.notch_frequency_hz)
    return None, None, None


def _row_samples(model, channel, notch, interferer):
    """ADC samples per packet: body, channel tail and notch pad."""
    sim_samples = model.samples_per_symbol * PAYLOAD_BITS
    if channel is not None:
        sim_samples += channel.discrete_impulse_response(
            model.sim_rate_hz).size - 1
    adc = math.ceil(sim_samples / model.decimation)
    if notch is not None and interferer is not None:
        adc += math.ceil(6.0 / (1.0 - batch_module._NOTCH_POLE_RADIUS))
    return adc


@pytest.mark.parametrize("ebn0_db", [None, 3.0])
@pytest.mark.parametrize("quantize", [True, False], ids=["q", "ideal"])
@pytest.mark.parametrize("scenario", ["awgn", "cm1", "narrowband"])
@pytest.mark.parametrize("modulation", ["bpsk", "ook", "ppm"])
@pytest.mark.parametrize("generation", sorted(CONFIGS))
def test_row_blocks_match_the_whole_batch_bit_for_bit(
        monkeypatch, generation, modulation, scenario, quantize, ebn0_db):
    channel, interferer, notch = _scenario_inputs(scenario)
    model = BatchedLinkModel(CONFIGS[generation](), modulation=modulation,
                             quantize=quantize, notch_frequency_hz=notch)
    row = _row_samples(model, channel, notch, interferer)
    for rows, packet_counts in BLOCKS:
        monkeypatch.setattr(batch_module, "_BLOCK_SAMPLES", rows * row)
        for packets in packet_counts:
            args = (ebn0_db, packets, PAYLOAD_BITS)
            expected = _whole_batch(model, *args, np.random.default_rng(9),
                                    channel, interferer)
            got, blocks = _blocked(model, *args, np.random.default_rng(9),
                                   channel, interferer)
            assert blocks == -(-packets // rows)
            for name, want, have in zip(("decisions", "gains", "errors"),
                                        expected, got):
                assert have.dtype == want.dtype, (rows, packets, name)
                np.testing.assert_array_equal(
                    have, want, err_msg=f"{name}: {rows} rows per block, "
                                        f"{packets} packets")


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 9), row_size=st.integers(0, 6),
       cuts=st.lists(st.integers(0, 9), max_size=4),
       complex_signal=st.booleans(), per_row=st.booleans())
def test_row_block_noise_equals_awgn_for_any_split(rows, row_size, cuts,
                                                   complex_signal, per_row):
    draws = np.random.default_rng(rows * 10 + row_size)
    signal = draws.standard_normal((rows, row_size))
    if complex_signal:
        signal = signal + 1j * draws.standard_normal((rows, row_size))
    noise_std = (draws.uniform(0.1, 2.0, (rows, 1)) if per_row
                 else draws.uniform(0.1, 2.0))
    expected = awgn(signal, noise_std, rng=np.random.default_rng(4))

    noise = RowBlockNoise(signal.shape, noise_std, np.random.default_rng(4))
    bounds = [0, *sorted(cut for cut in cuts if cut < rows), rows]
    blocks = [noise.add(signal[start:stop])
              for start, stop in zip(bounds, bounds[1:])]
    got = np.concatenate(blocks)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


def test_row_block_noise_rejects_a_block_past_the_batch():
    noise = RowBlockNoise((2, 3), 1.0, np.random.default_rng(0))
    noise.add(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="does not continue"):
        noise.add(np.zeros((1, 3)))


#: Bounds on the traced (``tracemalloc``) peak of one 512-packet,
#: 256-bit ``simulate`` on AWGN, with the value measured when the row
#: blocks landed.  NumPy reports its buffers to ``tracemalloc``, so the
#: peak is deterministic.  A full-batch complex intermediate (16.8 MB
#: on gen-2, 168 MB as float64 on gen-1) breaks them.
PEAK_BOUNDS_MB = {"gen2": (20.0, 14.5), "gen1": (60.0, 4.7)}


@pytest.mark.parametrize("generation", sorted(PEAK_BOUNDS_MB))
def test_simulate_peak_memory_is_bounded(generation):
    model = BatchedLinkModel(CONFIGS[generation]())
    model.simulate(4.0, 2, 64, rng=np.random.default_rng(0))
    tracemalloc.start()
    try:
        model.simulate(4.0, 512, 256, rng=np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    bound, measured = PEAK_BOUNDS_MB[generation]
    assert peak <= bound, (f"{generation}: traced peak {peak:.1f} MB "
                           f"(measured {measured} MB, bound {bound} MB)")
