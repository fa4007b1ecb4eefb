"""Tests for the AWGN channel and the FCC transmit-power limit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.awgn import awgn, noise_std_for_ebn0
from repro.channel.pathloss import max_transmit_power_dbm
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
        with pytest.raises(ValueError, match="infinite"):
            awgn(np.ones(4), noise_std_for_ebn0(1.0, float("-inf")))

    @pytest.mark.parametrize("energy, ebn0_db", [
        (float("nan"), 6.0),
        (float("inf"), 6.0),
        (-float("inf"), 6.0),
        (0.0, 6.0),
        (-1.0, 6.0),
        (1.0, float("nan")),
        (1.0, -float("inf")),
        (1.0, -4000.0),         # 10 ** -400 underflows to 0
        (1e300, -300.0),        # 1e300 / 2e-30 overflows
        (float("inf"), float("inf")),
        (float("nan"), float("inf")),
        (np.array([1.0, np.nan]), 6.0),
        (np.array([1.0, 2.0]), np.array([6.0, np.nan])),
    ])
    def test_noise_std_for_ebn0_rejects_nan_or_infinite_results(
            self, energy, ebn0_db):
        # The underflow and overflow cases may warn on the way; the
        # ValueError is what counts.
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match="NaN|infinite|positive"):
            noise_std_for_ebn0(energy, ebn0_db)

    @pytest.mark.parametrize("energy, ebn0_db, expected", [
        (4.0, 0.0, np.sqrt(2.0)),
        (4.0, float("inf"), 0.0),   # +inf dB: noiseless
        (1e-300, 300.0, np.sqrt(1e-300 / 2e30)),
        (1e300, -8.0, np.sqrt(1e300 / (2.0 * 10 ** -0.8))),
    ])
    def test_noise_std_for_ebn0_finite_cases(self, energy, ebn0_db,
                                             expected):
        std = noise_std_for_ebn0(energy, ebn0_db)
        assert isinstance(std, float)
        assert std == pytest.approx(expected, rel=1e-12)
        both = noise_std_for_ebn0(np.array([energy, energy]),
                                  np.array([ebn0_db, ebn0_db]))
        np.testing.assert_allclose(both, [expected, expected], rtol=1e-12)

    def test_noise_std_for_ebn0_formula(self):
        # Eb/N0 = Eb / (2 sigma^2).
        sigma = noise_std_for_ebn0(energy_per_bit=4.0, ebn0_db=0.0)
        assert sigma == pytest.approx(np.sqrt(2.0))

    @given(st.floats(min_value=0.1, max_value=100.0),
           st.floats(min_value=-5.0, max_value=20.0))
    @settings(max_examples=30)
    def test_noise_std_positive(self, energy, ebn0):
        assert noise_std_for_ebn0(energy, ebn0) > 0


class TestTransmitPowerLimit:
    def test_max_transmit_power_500mhz(self):
        # -41.3 dBm/MHz over 500 MHz integrates to about -14.3 dBm.
        assert max_transmit_power_dbm(500e6) == pytest.approx(-14.3, abs=0.1)
