"""Tests for the AWGN channel and the path-loss / link-budget models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.awgn import (
    AWGNChannel,
    awgn,
    noise_std_for_ebn0,
    noise_std_for_snr,
)
from repro.channel.pathloss import (
    LinkBudget,
    free_space_path_loss_db,
    log_distance_path_loss_db,
    max_transmit_power_dbm,
    thermal_noise_power_dbm,
)
from repro.utils import dsp


class TestAWGN:
    def test_zero_noise_returns_signal(self):
        x = np.ones(100)
        assert np.array_equal(awgn(x, 0.0), x)

    def test_noise_power_matches_request(self, rng):
        x = np.zeros(200_000)
        noisy = awgn(x, 0.5, rng=rng)
        assert np.std(noisy) == pytest.approx(0.5, rel=0.02)

    def test_complex_noise_split_between_quadratures(self, rng):
        x = np.zeros(200_000, dtype=complex)
        noisy = awgn(x, 1.0, rng=rng)
        assert np.std(noisy.real) == pytest.approx(1 / np.sqrt(2), rel=0.02)
        assert np.std(noisy.imag) == pytest.approx(1 / np.sqrt(2), rel=0.02)
        assert dsp.signal_power(noisy) == pytest.approx(1.0, rel=0.02)

    @staticmethod
    def _allocating_awgn(signal, noise_std, rng):
        """The out-of-place formula awgn used to run (the reference)."""
        if np.iscomplexobj(signal):
            noise = (rng.standard_normal(signal.shape)
                     + 1j * rng.standard_normal(signal.shape))
            return signal + noise * (noise_std / np.sqrt(2.0))
        return signal + noise_std * rng.standard_normal(signal.shape)

    @pytest.mark.parametrize("dtype", [float, complex, np.float32,
                                       np.complex64])
    @pytest.mark.parametrize("std_shape", [(), (3, 1), (3, 50), (2, 3, 1)])
    def test_matches_the_allocating_formula_bit_for_bit(self, dtype,
                                                        std_shape):
        # (2, 3, 1) widens the signal's (3, 50) shape: every leading row
        # reuses the same draws, scaled by its own noise level.
        draws = np.random.default_rng(5)
        signal = draws.standard_normal((3, 50)).astype(dtype)
        if np.iscomplexobj(signal):
            signal = signal + 1j * draws.standard_normal((3, 50))
            signal = signal.astype(dtype)
        noise_std = draws.uniform(0.1, 2.0, std_shape)
        noisy = awgn(signal, noise_std, rng=np.random.default_rng(11))
        expected = self._allocating_awgn(signal, noise_std,
                                         np.random.default_rng(11))
        assert noisy.shape == expected.shape
        assert noisy.dtype == expected.dtype
        np.testing.assert_array_equal(noisy, expected)

    def test_does_not_modify_the_signal(self, rng):
        signal = np.ones((2, 8), dtype=complex)
        awgn(signal, np.array([[0.5], [1.0]]), rng=rng)
        np.testing.assert_array_equal(signal, 1.0)

    def test_negative_std_raises(self):
        with pytest.raises(ValueError):
            awgn(np.ones(4), -0.1)

    def test_nan_std_raises(self):
        # NaN compares False both ways; it must not read as "no noise".
        with pytest.raises(ValueError, match="NaN"):
            awgn(np.ones(4), float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            awgn(np.ones((2, 4)), np.array([[0.5], [np.nan]]))
        with pytest.raises(ValueError, match="NaN"):
            awgn(np.ones(4), noise_std_for_ebn0(1.0, float("nan")))

    def test_infinite_std_raises(self):
        # Eb/N0 = -inf dB asks for infinite noise; it must not simulate
        # NaN samples.
        with pytest.raises(ValueError, match="infinite"):
            awgn(np.ones(4), float("inf"))
        with pytest.raises(ValueError, match="infinite"):
            awgn(np.ones((2, 4)), np.array([[0.5], [np.inf]]))
        with np.errstate(divide="ignore"):
            noise_std = noise_std_for_ebn0(1.0, float("-inf"))
        with pytest.raises(ValueError, match="infinite"):
            awgn(np.ones(4), noise_std)

    def test_noise_std_for_snr(self, rng):
        x = np.sin(2 * np.pi * 0.01 * np.arange(100_000))
        std = noise_std_for_snr(x, 10.0)
        noisy = awgn(x, std, rng=rng)
        measured_snr = 10 * np.log10(dsp.signal_power(x)
                                     / dsp.signal_power(noisy - x))
        assert measured_snr == pytest.approx(10.0, abs=0.2)

    def test_noise_std_for_snr_zero_signal_raises(self):
        with pytest.raises(ValueError):
            noise_std_for_snr(np.zeros(10), 10.0)

    def test_noise_std_for_ebn0_formula(self):
        # Eb/N0 = Eb / (2 sigma^2).
        sigma = noise_std_for_ebn0(energy_per_bit=4.0, ebn0_db=0.0)
        assert sigma == pytest.approx(np.sqrt(2.0))

    def test_channel_class_snr(self, rng):
        channel = AWGNChannel(rng)
        x = np.ones(100_000)
        noisy = channel.apply_snr(x, 20.0)
        snr = 10 * np.log10(1.0 / np.var(noisy - x))
        assert snr == pytest.approx(20.0, abs=0.3)

    @given(st.floats(min_value=0.1, max_value=100.0),
           st.floats(min_value=-5.0, max_value=20.0))
    @settings(max_examples=30)
    def test_noise_std_positive(self, energy, ebn0):
        assert noise_std_for_ebn0(energy, ebn0) > 0


class TestPathLoss:
    def test_free_space_known_value(self):
        # 1 m at 2.4 GHz is about 40 dB.
        assert free_space_path_loss_db(1.0, 2.4e9) == pytest.approx(40.0, abs=0.3)

    def test_free_space_distance_scaling(self):
        loss1 = free_space_path_loss_db(1.0, 5e9)
        loss10 = free_space_path_loss_db(10.0, 5e9)
        assert loss10 - loss1 == pytest.approx(20.0, abs=1e-6)

    def test_log_distance_matches_free_space_at_reference(self):
        assert log_distance_path_loss_db(1.0, 5e9) == pytest.approx(
            free_space_path_loss_db(1.0, 5e9))

    def test_log_distance_exponent(self):
        loss = log_distance_path_loss_db(10.0, 5e9, exponent=3.0)
        reference = free_space_path_loss_db(1.0, 5e9)
        assert loss - reference == pytest.approx(30.0, abs=1e-6)

    def test_thermal_noise_in_500mhz(self):
        # kTB for 500 MHz is about -87 dBm.
        assert thermal_noise_power_dbm(500e6) == pytest.approx(-87.0, abs=0.5)

    def test_max_transmit_power_500mhz(self):
        # -41.3 dBm/MHz over 500 MHz integrates to about -14.3 dBm.
        assert max_transmit_power_dbm(500e6) == pytest.approx(-14.3, abs=0.1)

    def test_invalid_distance(self):
        with pytest.raises(ValueError):
            free_space_path_loss_db(0.0, 5e9)


class TestLinkBudget:
    def _budget(self):
        return LinkBudget(center_frequency_hz=4.5e9, bandwidth_hz=500e6,
                          noise_figure_db=7.0)

    def test_snr_decreases_with_distance(self):
        budget = self._budget()
        assert budget.received_snr_db(1.0) > budget.received_snr_db(5.0)

    def test_ebn0_exceeds_snr_for_low_rate(self):
        budget = self._budget()
        # Spreading 500 MHz over 100 Mbps gives ~7 dB of processing gain.
        assert budget.ebn0_db(3.0, 100e6) > budget.received_snr_db(3.0)

    def test_short_range_100mbps_feasible(self):
        # The paper's gen-2 operating point: 100 Mbps at a couple of metres
        # should close with reasonable Eb/N0.
        budget = self._budget()
        assert budget.ebn0_db(2.0, 100e6) > 8.0

    def test_max_range_monotone_in_required_snr(self):
        budget = self._budget()
        assert budget.max_range_m(0.0) >= budget.max_range_m(10.0)

    def test_max_range_zero_when_infeasible(self):
        budget = self._budget()
        assert budget.max_range_m(200.0) == 0.0

    def test_transmit_power_is_fcc_limited(self):
        budget = self._budget()
        assert budget.transmit_power_dbm() == pytest.approx(-14.3, abs=0.1)
