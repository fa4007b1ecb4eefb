"""Tests for the planar elliptical antenna model (Fig. 2)."""

import numpy as np
import pytest

from repro.constants import FCC_UWB_HIGH_HZ, FCC_UWB_LOW_HZ, SPEED_OF_LIGHT
from repro.rf.antenna import PlanarEllipticalAntenna


class TestAntenna:
    def test_default_dimensions_match_paper(self):
        antenna = PlanarEllipticalAntenna()
        assert antenna.length_m == pytest.approx(0.042)
        assert antenna.width_m == pytest.approx(0.027)

    def test_lower_cutoff_below_fcc_band(self):
        antenna = PlanarEllipticalAntenna()
        assert antenna.lower_cutoff_hz < FCC_UWB_LOW_HZ

    def test_gain_rolls_off_at_low_frequency(self):
        antenna = PlanarEllipticalAntenna()
        assert antenna.gain_db(500e6) < antenna.gain_db(5e9) - 10.0

    def test_in_band_gain_near_nominal(self):
        antenna = PlanarEllipticalAntenna(nominal_gain_dbi=2.0)
        freqs = np.linspace(FCC_UWB_LOW_HZ, FCC_UWB_HIGH_HZ, 64)
        gains = antenna.gain_db(freqs)
        assert np.all(gains > -2.0)
        assert np.all(gains < 5.0)

    def test_return_loss_better_in_band(self):
        antenna = PlanarEllipticalAntenna()
        assert antenna.return_loss_db(5e9) < antenna.return_loss_db(500e6)

    def test_covers_fcc_band(self):
        antenna = PlanarEllipticalAntenna()
        assert antenna.covers_band(FCC_UWB_LOW_HZ, FCC_UWB_HIGH_HZ,
                                   max_return_loss_db=-8.0)

    def test_impulse_response_finite_and_short(self):
        antenna = PlanarEllipticalAntenna()
        h = antenna.impulse_response(40e9, duration_s=4e-9)
        assert np.all(np.isfinite(h))
        # Most energy within the first 2 ns.
        energy = np.cumsum(h ** 2)
        idx_90 = np.searchsorted(energy, 0.9 * energy[-1])
        assert idx_90 / 40e9 < 2.5e-9

    def test_apply_preserves_length(self):
        antenna = PlanarEllipticalAntenna()
        x = np.random.default_rng(0).standard_normal(2000)
        assert antenna.apply(x, 40e9).size == x.size

    def test_scalar_frequency_accessors(self):
        antenna = PlanarEllipticalAntenna()
        assert isinstance(antenna.gain_db(5e9), float)
        assert isinstance(antenna.return_loss_db(5e9), float)

    def test_upper_resonance_is_set_by_the_minor_axis(self):
        antenna = PlanarEllipticalAntenna()
        # Half a wavelength across the 27 mm minor axis: about 5.55 GHz.
        assert antenna.upper_resonance_hz == pytest.approx(
            SPEED_OF_LIGHT / (2.0 * 0.027))
        assert antenna.upper_resonance_hz > antenna.lower_cutoff_hz

    def test_transfer_function_magnitude_and_group_delay(self):
        antenna = PlanarEllipticalAntenna(dispersion_ps_per_ghz=20.0)
        freqs = np.linspace(3e9, 10e9, 8)
        response = antenna.transfer_function(freqs)
        assert np.allclose(20.0 * np.log10(np.abs(response)),
                           antenna.gain_db(freqs))
        # Group delay -dphi/df / (2 pi) grows 20 ps per GHz above the
        # lower cutoff.
        df = 1e3
        ratio = antenna.transfer_function(freqs + df) / response
        group_delay_s = -np.angle(ratio) / (2.0 * np.pi * df)
        expected_s = 20e-12 * (freqs - antenna.lower_cutoff_hz) / 1e9
        assert np.allclose(group_delay_s, expected_s, atol=1e-14)
        assert isinstance(antenna.transfer_function(5e9), complex)

    @pytest.mark.parametrize("kwargs", [
        dict(length_m=0.0), dict(length_m=-0.04),
        dict(width_m=float("nan")), dict(width_m=float("inf"))],
        ids=["zero_length", "negative_length", "nan_width", "inf_width"])
    def test_non_physical_dimensions_raise(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            PlanarEllipticalAntenna(**kwargs)

    def test_band_below_the_first_resonance_is_not_covered(self):
        antenna = PlanarEllipticalAntenna()
        assert not antenna.covers_band(0.5e9, antenna.lower_cutoff_hz)

    def test_impulse_response_has_no_dc_and_a_minimum_length(self):
        antenna = PlanarEllipticalAntenna()
        h = antenna.impulse_response(40e9, duration_s=4e-9)
        assert h.size == 160
        assert abs(np.sum(h)) < 1e-9 * np.max(np.abs(h))
        # Shorter than eight samples is padded up to eight.
        assert antenna.impulse_response(1e9, duration_s=1e-9).size == 8
        # The peak sits one eighth of the way in (the causal shift).
        assert int(np.argmax(np.abs(h))) == h.size // 8
