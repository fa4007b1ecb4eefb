"""Closed-form checks of the gen-2 direct-conversion impairments (Fig. 3).

``Gen2Transceiver._apply_impairments`` is the one place every gen-2
sweep (per-packet and full-stack) applies the carrier frequency offset,
I/Q gain/phase imbalance and DC offset of the direct-conversion front
end.
"""

import numpy as np
import pytest

from repro.core.config import Gen2Config
from repro.core.transceiver import Gen2Transceiver

IMPAIRMENT_FIELDS = {
    "carrier_frequency_offset_hz": 1e6,
    "iq_gain_imbalance_db": 0.5,
    "iq_phase_imbalance_deg": 3.0,
    "dc_offset": 0.05,
}


def _impair(waveform, **impairments):
    config = Gen2Config.fast_test_config().with_changes(**impairments)
    transceiver = Gen2Transceiver(config)
    return transceiver._apply_impairments(waveform,
                                          np.random.default_rng(0))


def test_no_impairment_is_the_identity():
    assert not Gen2Config.fast_test_config().has_impairments
    rng = np.random.default_rng(1)
    waveform = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    out = _impair(waveform)
    assert out.dtype == waveform.dtype
    assert out.tobytes() == waveform.tobytes()


@pytest.mark.parametrize("name, value", sorted(IMPAIRMENT_FIELDS.items()))
def test_each_impairment_field_counts_as_configured(name, value):
    config = Gen2Config.fast_test_config()
    assert config.with_changes(**{name: value}).has_impairments
    assert config.with_changes(**{name: -value}).has_impairments


def test_has_impairments_is_not_part_of_the_config_repr():
    # config_digest hashes repr(config); the predicate adds no field.
    assert "has_impairments" not in repr(Gen2Config.fast_test_config())


def test_dc_offset_is_the_output_mean_on_a_zero_input():
    out = _impair(np.zeros(1000, dtype=complex), dc_offset=0.05)
    assert np.mean(out) == pytest.approx(0.05, abs=1e-15)


def test_cfo_rotates_a_constant_by_pi_after_500_ns():
    config = Gen2Config.fast_test_config()
    index = int(round(500e-9 * config.simulation_rate_hz))
    out = _impair(np.ones(index + 1, dtype=complex),
                  carrier_frequency_offset_hz=1e6)
    assert out[0] == 1.0
    assert out[index] == pytest.approx(-1.0 + 0j, abs=1e-9)
    assert np.allclose(np.abs(out), 1.0)


def test_iq_imbalance_image_ratio_matches_closed_form():
    gain_db, phase_deg = 0.5, 3.0
    num_samples, tone_bin = 2000, 50
    n = np.arange(num_samples)
    tone = np.exp(2j * np.pi * tone_bin * n / num_samples)
    out = _impair(tone, iq_gain_imbalance_db=gain_db,
                  iq_phase_imbalance_deg=phase_deg)
    spectrum = np.fft.fft(out)
    image_ratio = np.abs(spectrum[-tone_bin]) / np.abs(spectrum[tone_bin])
    g = 10.0 ** (gain_db / 20.0)
    phi = np.deg2rad(phase_deg)
    alpha = 0.5 * (1.0 + g * np.exp(-1j * phi))
    beta = 0.5 * (1.0 - g * np.exp(1j * phi))
    assert image_ratio == pytest.approx(abs(beta / alpha), rel=1e-9)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", sorted(IMPAIRMENT_FIELDS))
def test_non_finite_impairment_is_rejected(name, value):
    # A NaN used to read as "not configured" (abs(nan) > 0 is False) and
    # an infinite DC offset turned every sample into inf.
    with pytest.raises(ValueError, match=name):
        Gen2Config.fast_test_config().with_changes(**{name: value})
