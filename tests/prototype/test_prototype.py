"""Tests for the discrete prototype platform and the modulation comparison."""

import numpy as np
import pytest

from repro.prototype.comparison import ModulationComparison
from repro.prototype.platform import DiscretePrototypePlatform
from repro.pulses.spectrum import bandwidth_at_level


class TestPlatform:
    def test_bandlimits_arbitrary_waveform(self, rng):
        platform = DiscretePrototypePlatform(dac_bits=None)
        wideband = rng.standard_normal(8192) + 1j * rng.standard_normal(8192)
        shaped = platform.shape_baseband(wideband)
        _, _, bw = bandwidth_at_level(shaped, platform.baseband_rate_hz,
                                      level_db=-10.0, nperseg=2048)
        assert bw <= 700e6

    def test_dac_quantization_changes_waveform(self, rng):
        fine = DiscretePrototypePlatform(dac_bits=None)
        coarse = DiscretePrototypePlatform(dac_bits=4)
        x = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
        assert not np.allclose(fine.shape_baseband(x), coarse.shape_baseband(x))

    def test_reference_pulse_bandwidth(self):
        platform = DiscretePrototypePlatform()
        pulse = platform.reference_pulse()
        padded = np.pad(pulse, 2048)
        _, _, bw = bandwidth_at_level(padded, platform.baseband_rate_hz,
                                      level_db=-10.0, nperseg=4096)
        assert 250e6 < bw < 800e6

    def test_passband_output_matches_fig4(self):
        platform = DiscretePrototypePlatform()
        output = platform.generate_passband(platform.reference_pulse(),
                                            amplitude=0.15)
        assert output.peak_amplitude == pytest.approx(0.15, rel=1e-6)
        assert output.carrier_hz == pytest.approx(5e9)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            DiscretePrototypePlatform(bandwidth_hz=3e9, baseband_rate_hz=2e9)


class TestModulationComparison:
    def test_bpsk_close_to_theory(self, rng):
        comparison = ModulationComparison(rng=rng)
        result = comparison.run_scheme("bpsk", [8.0], num_bits=3000)
        assert result.measured_ber[0] <= 5 * max(result.theoretical_ber[0],
                                                 1e-4)

    def test_bpsk_better_than_ook(self, rng):
        comparison = ModulationComparison(rng=rng)
        results = comparison.run_all(["bpsk", "ook"], [6.0], num_bits=3000)
        assert results["bpsk"].measured_ber[0] <= results["ook"].measured_ber[0]

    def test_ber_decreases_with_ebn0(self, rng):
        comparison = ModulationComparison(rng=rng)
        result = comparison.run_scheme("bpsk", [0.0, 9.0], num_bits=3000)
        assert result.measured_ber[1] <= result.measured_ber[0]

    def test_pam4_runs(self, rng):
        comparison = ModulationComparison(rng=rng)
        result = comparison.run_scheme("pam4", [14.0], num_bits=2000)
        assert result.measured_ber[0] < 0.3

    def test_ppm_runs(self, rng):
        comparison = ModulationComparison(rng=rng)
        result = comparison.run_scheme("ppm", [10.0], num_bits=2000)
        assert result.measured_ber[0] < 0.1
