"""The genie kernel works at the ADC rate, and its digests are versioned.

``BatchedLinkModel.simulate`` synthesizes the received signal at the ADC
rate and draws noise there, one row block at a time, so every noise
sample it draws reaches the ADC.  Each such revision (``batch_kernel``
2: noise after decimation; 3: closed-form ADC-rate synthesis) can move
the kernel's outputs, so batch-engine ``config_digest`` values moved
with it while packet and fullstack digests (and their caches and pins)
must not.
"""

import math

import numpy as np
import pytest

import repro.sim.batch as batch_module
from repro.channel.awgn import RowBlockNoise
from repro.channel.saleh_valenzuela import generate_channel
from repro.core.config import Gen2Config
from repro.sim import BatchedLinkModel, SweepEngine
from repro.sim.backends import NumpyBackend
from repro.sim.scenarios import SCENARIOS

PACKETS = 3
PAYLOAD_BITS = 16


def _record_shapes(monkeypatch):
    """Record the block shapes the kernel adds noise to and quantizes,
    with blocks of one row so that a three-packet batch splits."""
    shapes = {"noise": [], "quantize": []}
    real_add = RowBlockNoise.add
    real_quantize = NumpyBackend.quantize_uniform

    def add(self, signal):
        shapes["noise"].append(tuple(signal.shape))
        return real_add(self, signal)

    def quantize_uniform(self, samples, *args, **kwargs):
        shapes["quantize"].append(tuple(samples.shape))
        return real_quantize(self, samples, *args, **kwargs)

    monkeypatch.setattr(RowBlockNoise, "add", add)
    monkeypatch.setattr(NumpyBackend, "quantize_uniform", quantize_uniform)
    monkeypatch.setattr(batch_module, "_BLOCK_SAMPLES", 1)
    return shapes


def _scenario_inputs(name):
    rng = np.random.default_rng(3)
    if name == "cm1":
        return generate_channel("CM1", rng=rng, complex_gains=True), None, None
    if name == "narrowband":
        scenario = SCENARIOS.get("narrowband")
        return (None, scenario.make_interferer(rng),
                scenario.notch_frequency_hz)
    return None, None, None


def _adc_samples(model, channel, notch, interferer):
    """ADC-rate samples per packet: body, channel tail and notch pad."""
    sim_samples = model.samples_per_symbol * PAYLOAD_BITS
    if channel is not None:
        sim_samples += channel.discrete_impulse_response(
            model.sim_rate_hz).size - 1
    adc = math.ceil(sim_samples / model.decimation)
    if notch is not None and interferer is not None:
        adc += math.ceil(6.0 / (1.0 - batch_module._NOTCH_POLE_RADIUS))
    return adc


@pytest.mark.parametrize("scenario", ["awgn", "cm1", "narrowband"])
def test_noise_is_drawn_only_at_the_samples_the_adc_keeps(monkeypatch,
                                                          scenario):
    shapes = _record_shapes(monkeypatch)
    channel, interferer, notch = _scenario_inputs(scenario)
    model = BatchedLinkModel(Gen2Config.fast_test_config(),
                             notch_frequency_hz=notch)
    model.simulate(4.0, PACKETS, PAYLOAD_BITS,
                   rng=np.random.default_rng(1), channel=channel,
                   interferer=interferer)
    expected = _adc_samples(model, channel, notch, interferer)
    assert shapes["noise"] == shapes["quantize"]
    assert {row_length for _, row_length in shapes["noise"]} == {expected}
    assert sum(rows for rows, _ in shapes["noise"]) == PACKETS
    assert sum(rows for rows, _ in shapes["quantize"]) == PACKETS


@pytest.mark.parametrize("scenario", ["awgn", "cm1", "narrowband"])
def test_unquantized_noise_runs_at_the_adc_rate(monkeypatch, scenario):
    shapes = _record_shapes(monkeypatch)
    channel, interferer, notch = _scenario_inputs(scenario)
    model = BatchedLinkModel(Gen2Config.fast_test_config(), quantize=False,
                             notch_frequency_hz=notch)
    model.simulate(4.0, PACKETS, PAYLOAD_BITS,
                   rng=np.random.default_rng(1), channel=channel,
                   interferer=interferer)
    assert shapes["quantize"] == []
    body = PAYLOAD_BITS * model.samples_per_symbol_adc
    expected = _adc_samples(model, channel, notch, interferer)
    assert {row_length for _, row_length in shapes["noise"]} == {expected}
    assert sum(rows for rows, _ in shapes["noise"]) == PACKETS
    assert expected >= body
    if channel is None and interferer is None:
        assert expected == body


#: ``config_digest`` values computed before the batch kernel moved to
#: the ADC rate.  Packet and fullstack engines must keep them (their
#: caches and the benchmark's exact pins key on them); batch engines
#: must not (their version-1 cache entries hold the old stream).
_DIGESTS_BEFORE_BATCH_KERNEL_2 = {
    ("batch", "gen2", True):
        "60334c994d154c2770e6778ff9e1c0ae19d36982328a77a22e65d6a545915453",
    ("batch", "gen1", True):
        "0b5ed6ad2a57a38a4d53c420e22b41eab891761bf9378135898068e5d8d42a53",
    ("batch", "gen2", False):
        "2299b9a0d647ed7196e36ab918d1343d06c9d28072b1a46fc90d37169515289c",
    ("packet", "gen2", True):
        "4ea1daa545c2c6e30edd944f2db9f9008eea549c20a4d44ae34d74f4b655935f",
    ("packet", "gen1", True):
        "6435e1f4873a2ad9fcb47ccea986cbe4cc1c201167d43afdf35a50e469fcf8c4",
    ("fullstack", "gen2", True):
        "92d4cf4a5266ab9f6e6c635a13a01dc85fee19c278b455552407e12cc9edfd16",
    ("fullstack", "gen1", True):
        "900ceeca5a97358e45a322d9488ceac73403df30f11f7f56c8cc6dd20961ba94",
}


#: Batch ``config_digest`` values of ``batch_kernel`` 2 (noise drawn
#: after decimation, sim-rate synthesis and channel FFT).  The closed-form
#: ADC-rate synthesis of version 3 must not reuse their cache entries.
_DIGESTS_AT_BATCH_KERNEL_2 = {
    ("batch", "gen2", True):
        "8fbd44f187b9f854c1ceba7c7913f1554c081654e24a1cae7a4912daa65d5948",
    ("batch", "gen1", True):
        "604e16a9e2fea45717dbf39e9ffcfa8a649ef3873b70ad6701f6a386f151856b",
    ("batch", "gen2", False):
        "6103a1ab0b6a495455acd4086d69cfe81a941b0c37affe4c590cf54b2e748363",
}


#: Batch ``config_digest`` values of ``batch_kernel`` 3, the current
#: kernel.  The benchmark's exact pins and every batch cache key on them.
_DIGESTS_AT_BATCH_KERNEL_3 = {
    ("batch", "gen2", True):
        "d9fb139f09db3852f64a650a9144db4a8cefa01643635c82b6ca37cff93891f7",
    ("batch", "gen1", True):
        "2f7914cd92a5e685bea170a98442a8e61ec97d88a641aa1d1ad4cc73c5963a7d",
    ("batch", "gen2", False):
        "ea08c417566998feb524a16708d82c9850027cf2ec35644a883d2304a7721090",
}


@pytest.mark.parametrize(
    "key", sorted(_DIGESTS_AT_BATCH_KERNEL_3),
    ids=lambda key: f"{key[1]}-{'q' if key[2] else 'ideal'}")
def test_batch_engine_digests_are_pinned(key):
    backend, generation, quantize = key
    digest = SweepEngine(seed=1, backend=backend, generation=generation,
                         quantize=quantize).config_digest()
    assert digest == _DIGESTS_AT_BATCH_KERNEL_3[key]


@pytest.mark.parametrize(
    "key", sorted(_DIGESTS_BEFORE_BATCH_KERNEL_2),
    ids=lambda key: f"{key[0]}-{key[1]}-{'q' if key[2] else 'ideal'}")
def test_only_batch_engine_digests_moved(key):
    backend, generation, quantize = key
    digest = SweepEngine(seed=1, backend=backend, generation=generation,
                         quantize=quantize).config_digest()
    if backend == "batch":
        assert digest != _DIGESTS_BEFORE_BATCH_KERNEL_2[key]
        assert digest != _DIGESTS_AT_BATCH_KERNEL_2[key]
    else:
        assert digest == _DIGESTS_BEFORE_BATCH_KERNEL_2[key]


def test_zero_energy_packets_are_noised_at_the_batch_mean(monkeypatch):
    # OOK packets of all-zero bits transmit nothing; their noise level
    # comes from the mean energy of the packets that did transmit.
    model = BatchedLinkModel(Gen2Config.fast_test_config(), modulation="ook")
    bits = np.random.default_rng(3).integers(0, 2, size=(32, 2),
                                             dtype=np.int64)
    silent = bits.sum(axis=1) == 0
    assert silent.any() and not silent.all()
    levels = []
    original = batch_module.noise_std_for_ebn0

    def record(energy, ebn0_db):
        levels.append(np.array(energy))
        return original(energy, ebn0_db)
    monkeypatch.setattr(batch_module, "noise_std_for_ebn0", record)
    result = model.simulate(6.0, 32, 2, rng=np.random.default_rng(3))
    assert result.packets_sent == 32
    (energy,) = levels
    assert np.all(energy[silent] == energy[~silent].mean())
    with pytest.raises(ValueError, match="zero energy"):
        model.simulate(6.0, 1, 1, rng=np.random.default_rng(1))
