"""The genie kernel's ADC-rate synthesis against a simulation-rate oracle.

``BatchedLinkModel.synthesize`` builds the noiseless received ADC
samples in closed form and never forms the simulation-rate waveform.
The oracle here is the straightforward route it replaces: pulse-shape
every symbol at the simulation rate (an outer product with the symbol
template, one composite per PPM position), convolve the batch with the
channel (``MultipathChannel.apply_batch``, tail kept) and keep every
``decimation``-th sample.  Both must agree to rounding level, and the
closed-form energy per bit must match the simulation-rate sum of
squares.
"""

import numpy as np
import pytest

from repro.channel.saleh_valenzuela import generate_channel
from repro.core.config import Gen1Config, Gen2Config
from repro.sim import BatchedLinkModel
from repro.sim.scenarios import SCENARIOS

PACKETS = 5
PAYLOAD_BITS = 24
CONFIGS = {"gen1": Gen1Config.fast_test_config,
           "gen2": Gen2Config.fast_test_config}


def _channel(name):
    if name == "none":
        return None
    if name == "two_ray":
        return SCENARIOS.get("two_ray").make_channel(np.random.default_rng(0))
    return generate_channel("CM1", rng=np.random.default_rng(11),
                            complex_gains=True)


def _sim_rate_oracle(model, symbols, channel):
    """Sim-rate pulse shaping -> channel FFT -> decimation, plus the
    sim-rate energy per bit."""
    packets, num_symbols = symbols.shape
    if model.position_templates is not None:
        clean = sum((symbols == position)[:, :, None] * template
                    for position, template
                    in enumerate(model.position_templates))
    else:
        amplitudes = model.modulator.symbols_to_amplitudes(
            symbols.ravel()).reshape(packets, num_symbols)
        clean = amplitudes[:, :, None] * model.symbol_template
    clean = clean.reshape(packets, num_symbols * model.samples_per_symbol)
    bits = num_symbols * model.modulator.bits_per_symbol
    energy = np.sum(np.abs(clean) ** 2, axis=-1) / bits
    if channel is not None:
        clean = channel.apply_batch(clean, model.sim_rate_hz,
                                    keep_length=False)
    return clean[:, ::model.decimation], energy


@pytest.mark.parametrize("channel_name", ["none", "two_ray", "cm1"])
@pytest.mark.parametrize("modulation", ["bpsk", "ook", "ppm", "pam4"])
@pytest.mark.parametrize("generation", sorted(CONFIGS))
def test_adc_rate_synthesis_matches_the_sim_rate_oracle(generation,
                                                        modulation,
                                                        channel_name):
    model = BatchedLinkModel(CONFIGS[generation](), modulation=modulation)
    channel = _channel(channel_name)
    bits = np.random.default_rng(5).integers(0, 2,
                                             size=(PACKETS, PAYLOAD_BITS))
    symbols = model.modulate(bits)

    waveform = model.synthesize(symbols, model.reference_templates(channel))
    expected, expected_energy = _sim_rate_oracle(model, symbols, channel)

    assert waveform.shape == expected.shape
    assert np.iscomplexobj(waveform) == np.iscomplexobj(expected)
    peak = np.max(np.abs(expected))
    assert peak > 0
    assert np.max(np.abs(waveform - expected)) <= 1e-12 * peak
    energy = model.energy_per_bit(symbols)
    np.testing.assert_allclose(energy, expected_energy, rtol=1e-14, atol=0)
