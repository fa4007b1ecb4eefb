"""Tests for narrowband-interferer generators."""

import numpy as np
import pytest

from repro.channel.interference import (
    MultiToneInterferer,
    ToneInterferer,
    interferer_amplitude_for_sir,
)
from repro.utils import dsp


class TestToneInterferer:
    def test_power_complex(self):
        tone = ToneInterferer(frequency_hz=100e6, amplitude=0.5)
        wave = tone.waveform(10000, 1e9, complex_baseband=True)
        assert dsp.signal_power(wave) == pytest.approx(0.25, rel=1e-6)
        assert tone.power(complex_baseband=True) == pytest.approx(0.25)

    def test_power_real(self):
        tone = ToneInterferer(frequency_hz=100e6, amplitude=1.0)
        wave = tone.waveform(100000, 1e9, complex_baseband=False)
        assert dsp.signal_power(wave) == pytest.approx(0.5, rel=1e-2)

    def test_frequency_content(self):
        tone = ToneInterferer(frequency_hz=123e6, amplitude=1.0)
        wave = tone.waveform(16384, 1e9)
        freqs, psd = dsp.estimate_psd(wave, 1e9)
        assert abs(freqs[np.argmax(psd)] - 123e6) < 2e6

    def test_negative_frequency_allowed(self):
        tone = ToneInterferer(frequency_hz=-50e6, amplitude=1.0)
        wave = tone.waveform(16384, 1e9)
        freqs, psd = dsp.estimate_psd(wave, 1e9)
        assert freqs[np.argmax(psd)] < 0

    def test_add_to_matches_input_type(self):
        tone = ToneInterferer(frequency_hz=10e6)
        real_out = tone.add_to(np.zeros(100), 1e9)
        complex_out = tone.add_to(np.zeros(100, dtype=complex), 1e9)
        assert not np.iscomplexobj(real_out)
        assert np.iscomplexobj(complex_out)


class TestSIRHelper:
    def test_sir_achieved(self):
        rng = np.random.default_rng(0)
        signal = rng.standard_normal(50000) + 1j * rng.standard_normal(50000)
        amplitude = interferer_amplitude_for_sir(signal, sir_db=-10.0)
        tone = ToneInterferer(frequency_hz=50e6, amplitude=amplitude)
        interference = tone.waveform(signal.size, 1e9)
        sir = 10 * np.log10(dsp.signal_power(signal)
                            / dsp.signal_power(interference))
        assert sir == pytest.approx(-10.0, abs=0.1)

    def test_zero_signal_raises(self):
        with pytest.raises(ValueError):
            interferer_amplitude_for_sir(np.zeros(10), 0.0)


class TestMultiTone:
    def test_requires_tones(self):
        with pytest.raises(ValueError):
            MultiToneInterferer(tones=())

    def test_sum_of_powers(self):
        tones = (ToneInterferer(50e6, 1.0), ToneInterferer(150e6, 1.0))
        multi = MultiToneInterferer(tones=tones)
        wave = multi.waveform(100000, 1e9)
        assert dsp.signal_power(wave) == pytest.approx(2.0, rel=0.05)

    def test_frequencies(self):
        multi = MultiToneInterferer(tones=(ToneInterferer(1e6),
                                           ToneInterferer(2e6)))
        assert multi.frequencies() == (1e6, 2e6)
