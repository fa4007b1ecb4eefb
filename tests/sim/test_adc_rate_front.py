"""The batched full-stack front ends synthesize at the ADC rate.

``BatchedFullStackModel``'s batched front halves compute every packet's
samples at the ADC rate (``_adc_rate_front``): a Toeplitz synthesis of
the channel-convolved pulse train, then impairments, interference and
noise at the kept samples only.  The oracle here is the chain they
replaced, which built every packet at the simulation rate
(``transmit_batch``), convolved it with its channel
(``apply_channels_batch``), impaired it, added interference and noise
there, and only then kept every ``decimation``-th sample.  The rows must
agree to rounding, the transmit energies and every random stream
exactly.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.channel.awgn import noise_std_for_ebn0
from repro.channel.interference import ToneInterferer, accepts_rng
from repro.channel.multipath import apply_channels_batch
from repro.core.config import Gen1Config, Gen2Config
from repro.core.transceiver import Gen1Transceiver, Gen2Transceiver
from repro.sim.batch_rx import BatchedFullStackModel, pulse_train_rows
from repro.sim.scenarios import SCENARIOS
from repro.utils.bits import random_bits

NUM_PACKETS = 6
PAYLOAD_BITS = 32
#: Largest allowed difference from the simulation-rate oracle, relative
#: to the row's peak.
TOLERANCE = 1e-12


class _RandomPhaseTone:
    """A tone whose phase each realization draws from the packet rng."""

    frequency_hz = 37e6

    def waveform(self, num_samples, sample_rate_hz, rng=None,
                 complex_baseband=True):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        t = np.arange(num_samples) / sample_rate_hz
        if complex_baseband:
            return 0.3 * np.exp(1j * (2.0 * np.pi * self.frequency_hz * t
                                      + phase))
        return 0.3 * np.cos(2.0 * np.pi * self.frequency_hz * t + phase)

    def add_to(self, signal, sample_rate_hz, rng=None):
        signal = np.asarray(signal)
        return signal + self.waveform(signal.size, sample_rate_hz, rng=rng,
                                      complex_baseband=np.iscomplexobj(
                                          signal))


IMPAIRED = {"carrier_frequency_offset_hz": 2e5, "iq_gain_imbalance_db": 0.5,
            "iq_phase_imbalance_deg": 2.0, "dc_offset": 0.01}
INTERFERERS = {None: lambda: None,
               "tone": lambda: ToneInterferer(frequency_hz=60e6,
                                              amplitude=0.2, phase_rad=0.4),
               "rng": _RandomPhaseTone}


def _model(generation, impaired=False):
    if generation == "gen1":
        return BatchedFullStackModel(Gen1Transceiver(
            Gen1Config.fast_test_config(), rng=np.random.default_rng(7)))
    config = Gen2Config.fast_test_config()
    if impaired:
        config = config.with_changes(**IMPAIRED)
    return BatchedFullStackModel(Gen2Transceiver(
        config, rng=np.random.default_rng(7)))


def _channel_factory(scenario, seed):
    """``make_channel`` for a scenario; ``"mixed"`` alternates two_ray's
    real gains and cm1's complex ones, so a gen-1 batch promoted to
    complex still carries logically real packets."""
    rng = np.random.default_rng(seed)
    names = itertools.cycle(["two_ray", "cm1"] if scenario == "mixed"
                            else [scenario])
    return lambda: SCENARIOS.get(next(names)).make_channel(rng)


def _reference_front(model, ebn0_db, rng, make_channel, make_interferer,
                     lead_in_s):
    """The simulation-rate front half, draws in the per-packet order:
    ``transmit_batch`` -> ``apply_channels_batch`` -> impairments ->
    interference -> noise, then every ``decimation``-th sample."""
    transceiver = model.transceiver
    transmitter = transceiver.transmitter
    config = model.config
    sample_rate = config.simulation_rate_hz
    decimation = config.decimation_factor
    gen2 = isinstance(transceiver, Gen2Transceiver)
    payloads, lead_ins, channels, packets = [], [], [], []
    interferers, waves, noises, complex_rows = [], [], [], []
    for _ in range(NUM_PACKETS):
        channel = make_channel()
        interferer = make_interferer()
        payload = random_bits(PAYLOAD_BITS, rng=rng)
        lead_in = (lead_in_s if lead_in_s is not None
                   else float(rng.integers(4, 25))
                   * config.pulse_repetition_interval_s)
        packet = transmitter.builder.build(payload)
        num_samples = transmitter.num_transmit_samples(
            packet, lead_in_s=lead_in, lead_out_s=2e-8)
        is_complex = gen2 or (channel is not None
                              and np.iscomplexobj(channel.gains))
        wave = None
        if interferer is not None and accepts_rng(interferer, "add_to"):
            wave = interferer.waveform(num_samples, sample_rate, rng=rng,
                                       complex_baseband=is_complex)
        noise = None
        if ebn0_db is not None:
            noise = tuple(rng.standard_normal(num_samples)
                          for _ in range(2 if is_complex else 1))
        if gen2:
            num_adc = -(-num_samples // decimation)
            for adc in (model.receiver.adc.i_adc, model.receiver.adc.q_adc):
                adc.draw_comparator_noise(rng, (num_adc,))
        payloads.append(payload)
        lead_ins.append(lead_in)
        channels.append(channel)
        packets.append(packet)
        interferers.append(interferer)
        waves.append(wave)
        noises.append(noise)
        complex_rows.append(is_complex)

    tx_batch = transmitter.transmit_batch(payloads, lead_ins,
                                          lead_out_s=2e-8, packets=packets)
    batch = apply_channels_batch(channels, tx_batch.waveforms, sample_rate,
                                 valid_lengths=tx_batch.lengths)
    rows = []
    for index in range(NUM_PACKETS):
        row = batch[index, :tx_batch.lengths[index]]
        if not complex_rows[index]:
            row = np.real(row)
        if gen2:
            row = transceiver._apply_impairments(row, rng)
        if waves[index] is not None:
            row = row + waves[index]
        elif interferers[index] is not None:
            row = interferers[index].add_to(row, sample_rate)
        if noises[index] is not None:
            std = noise_std_for_ebn0(
                float(tx_batch.energies_per_body_bit[index]), ebn0_db)
            if len(noises[index]) == 2:
                row = row + ((noises[index][0] + 1j * noises[index][1])
                             * (std / np.sqrt(2.0)))
            else:
                row = row + std * noises[index][0]
        rows.append(row[::decimation])
    return rows, tx_batch


@pytest.mark.parametrize("generation, impaired, scenario, lead_in, "
                         "interferer, ebn0_db", [
    ("gen2", False, "awgn", None, None, 6.0),
    ("gen2", False, "two_ray", "odd", "tone", 6.0),
    ("gen2", False, "cm1", None, "rng", 6.0),
    ("gen2", True, "cm1", "odd", "tone", 6.0),
    ("gen2", True, "two_ray", None, "rng", None),
    ("gen1", False, "awgn", "odd", "rng", 12.0),
    ("gen1", False, "two_ray", None, "tone", 12.0),
    ("gen1", False, "cm1", None, None, 12.0),
    ("gen1", False, "mixed", "odd", "tone", 12.0),
    ("gen1", False, "mixed", None, "rng", None),
])
def test_adc_rate_rows_match_the_simulation_rate_chain(
        generation, impaired, scenario, lead_in, interferer, ebn0_db):
    model = _model(generation, impaired)
    # A pinned lead-in of an odd number of simulation samples puts every
    # kept sample on the other phase of the channel-convolved pulse.
    lead_in_s = (None if lead_in is None
                 else 13 / model.config.simulation_rate_hz)
    streams = {}
    for name in ("reference", "adc_rate"):
        rng = np.random.default_rng(21)
        make_channel = _channel_factory(scenario, 22)
        make_interferer = INTERFERERS[interferer]
        if name == "reference":
            rows, tx_batch = _reference_front(
                model, ebn0_db, rng, make_channel, make_interferer,
                lead_in_s)
        else:
            draws = model._phase1_draws(
                ebn0_db, NUM_PACKETS, PAYLOAD_BITS, rng, make_channel,
                make_interferer, lead_in_s)
            _, _, energies = model._noiseless_adc_rows(draws)
            batch, adc_lengths = model._adc_rate_front(draws, ebn0_db, rng)
        streams[name] = rng.bit_generator.state

    # Every random stream lines up: the phase-1 draws consume exactly
    # what the simulation-rate chain consumed.
    assert streams["adc_rate"] == streams["reference"]
    assert np.array_equal(energies, tx_batch.energies_per_body_bit)
    assert draws.true_starts(model.config.decimation_factor) == [
        int(start) // model.config.decimation_factor
        for start in tx_batch.preamble_start_samples]
    assert [int(n) for n in adc_lengths] == [row.size for row in rows]
    for index, reference in enumerate(rows):
        row = batch[index, :adc_lengths[index]]
        peak = np.max(np.abs(reference))
        assert np.max(np.abs(row - reference)) <= TOLERANCE * peak, index
        assert not np.any(batch[index, adc_lengths[index]:])


@pytest.mark.parametrize("generation", ["gen1", "gen2"])
def test_batched_front_leaves_the_generator_where_the_oracle_does(
        generation):
    model = _model(generation)
    frontend = getattr(model, f"_frontend_batched_{generation}")
    states = []
    for front in (model._frontend_per_packet, frontend):
        rng = np.random.default_rng(5)
        scenario_rng = np.random.default_rng(6)
        rows, _, payloads, starts = front(
            8.0, 4, PAYLOAD_BITS, rng,
            lambda: SCENARIOS.get("cm1").make_channel(scenario_rng),
            _RandomPhaseTone, None)
        states.append((rng.bit_generator.state,
                       scenario_rng.bit_generator.state,
                       [row.size for row in rows], starts))
    assert states[0] == states[1]


@pytest.mark.parametrize("generation", ["gen1", "gen2"])
def test_batched_front_hands_over_its_batch_zero_padded(generation):
    """The back half takes the converted batch as it is, so every row
    must be zero past its packet, as packing the rows would leave it
    (the converter maps the padding to nonzero codes)."""
    model = _model(generation)
    scenario_rng = np.random.default_rng(6)
    rows, _, _, _ = getattr(model, f"_frontend_batched_{generation}")(
        8.0, 5, PAYLOAD_BITS, np.random.default_rng(5),
        lambda: SCENARIOS.get("cm1").make_channel(scenario_rng), None, None)
    assert len(set(rows.lengths.tolist())) > 1
    assert rows.batch.shape == (5, int(rows.lengths.max()))
    for index, length in enumerate(rows.lengths):
        assert np.array_equal(rows[index], rows.batch[index, :length])
        assert not np.any(rows.batch[index, length:])


@pytest.mark.parametrize("transceiver", [
    lambda: Gen1Transceiver(Gen1Config()),
    lambda: Gen2Transceiver(Gen2Config.fast_test_config())],
    ids=["gen1-default", "gen2-fast"])
def test_pulse_grid_is_transmit_batch_bit_for_bit(transceiver):
    transmitter = transceiver().transmitter
    rng = np.random.default_rng(8)
    payloads = [rng.integers(0, 2, 256) for _ in range(3)]
    packets = [transmitter.builder.build(bits) for bits in payloads]
    lead_in_s = 13 / transmitter.pulse.sample_rate_hz
    reference = transmitter.transmit_batch(payloads, lead_in_s,
                                           packets=packets)
    amplitudes, energies = transmitter.pulse_grid(packets)
    # At 256 bits the sum of squares differs from the closed form
    # pulses x ||pulse||^2 in the last bits; the noise level rides on it.
    assert np.array_equal(energies, reference.energies_per_body_bit)
    spacing = transmitter.samples_per_chip
    pulse = transmitter.pulse.waveform
    for row, waveform in zip(amplitudes, reference.waveforms):
        rebuilt = np.zeros_like(waveform)
        for index, amplitude in enumerate(row):
            start = 13 + index * spacing
            rebuilt[start:start + pulse.size] = amplitude * pulse
        assert np.array_equal(rebuilt, waveform)


def test_pulse_train_rows_is_the_full_convolution():
    rng = np.random.default_rng(3)
    amplitudes = rng.choice([-1.0, 1.0], (3, 9))
    kernels = (rng.standard_normal((3, 11))
               + 1j * rng.standard_normal((3, 11)))
    step = 4
    out = pulse_train_rows(amplitudes, kernels, step)
    for row in range(3):
        train = np.zeros((9 - 1) * step + 1)
        train[::step] = amplitudes[row]
        expected = np.convolve(train, kernels[row])
        np.testing.assert_allclose(out[row], expected, rtol=0, atol=1e-13)
    real = pulse_train_rows(amplitudes, kernels.real, step)
    assert not np.iscomplexobj(real)
    np.testing.assert_allclose(real, out.real, rtol=0, atol=1e-13)


#: Bound on the traced (``tracemalloc``) peak of the gen-1 batched front
#: half on one 64-packet, 256-bit CM1 chunk of the fullstack benchmark's
#: gen-1 layout (one pulse per bit), with the value measured when the
#: ADC-rate synthesis landed.  The simulation-rate chain it replaced
#: peaked at 187 MB: it held the complex 4 GHz transmit and channel
#: batches.
GEN1_CM1_FRONT_PEAK_MB = (130.0, 107.4)


def test_gen1_cm1_front_peak_memory_is_bounded():
    config = Gen1Config.fast_test_config().with_changes(pulses_per_bit=1)
    model = BatchedFullStackModel(Gen1Transceiver(
        config, rng=np.random.default_rng(3)))
    scenario = SCENARIOS.get("cm1")
    scenario_rng = np.random.default_rng(5)
    model._frontend_batched_gen1(
        12.0, 2, 256, np.random.default_rng(4),
        lambda: scenario.make_channel(scenario_rng), lambda: None, None)
    tracemalloc.start()
    try:
        model._frontend_batched_gen1(
            12.0, 64, 256, np.random.default_rng(6),
            lambda: scenario.make_channel(scenario_rng), lambda: None, None)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    bound, measured = GEN1_CM1_FRONT_PEAK_MB
    assert peak <= bound, (f"traced peak {peak:.1f} MB (measured "
                           f"{measured} MB, bound {bound} MB)")
