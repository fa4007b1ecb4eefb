"""Oracle tables for the flash and SAR code searches.

``FlashADC.convert_codes`` guesses each code from the ideal threshold
grid and corrects it against the real thresholds; ``SARADC.convert_codes``
walks a precomputed tree of trial levels; both convert rows a block at a
time.  The oracles below are the plain searches they replaced — a
``searchsorted`` over the sorted thresholds, and the bit-serial
successive approximation — kept here as test-local copies.  Every case
must give the oracle's codes exactly, and on the SAR's ``rng`` path leave
the generator where the oracle leaves it.

Each table runs per bit depth, 1 to 8 bits, on ideal and on mismatched
converters, with inputs on every threshold (or trial level) and its
``nextafter`` neighbours, at ± full scale, ±inf and NaN, plus a random
spread; a wide 2-D batch covers several row blocks.
"""

import numpy as np
import pytest

from repro.adc.flash import FlashADC
from repro.adc.interleaved import TimeInterleavedADC
from repro.adc.sar import QuadratureSARADC, SARADC

BITS = range(1, 9)


def _flash_oracle(adc, x):
    """The searchsorted conversion (the number of thresholds at or below
    each sample)."""
    x = (1.0 + adc.gain_error) * np.asarray(x, dtype=float) + adc.offset_error
    return np.searchsorted(adc._thresholds, x, side="right").astype(np.int64)


def _sar_oracle(adc, x, rng=None, noise=None):
    """The bit-serial successive-approximation search."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    codes = np.zeros(x.shape, dtype=np.int64)
    estimate = np.full(x.shape, -adc.full_scale)
    for bit_index in range(adc.bits):
        trial = estimate + 2.0 * adc._weights[bit_index]
        if noise is not None:
            bit_noise = noise[bit_index]
        elif adc.comparator_noise_std > 0:
            bit_noise = rng.normal(0.0, adc.comparator_noise_std,
                                   size=x.shape)
        else:
            bit_noise = 0.0
        keep = (x + bit_noise) >= trial
        estimate = np.where(keep, trial, estimate)
        codes = codes | (keep.astype(np.int64) << (adc.bits - 1 - bit_index))
    return codes


def _edges_and_spread(levels, full_scale, seed):
    """Every level and its nextafter neighbours, the range ends, the
    non-finite inputs and a random spread past both ends."""
    levels = np.asarray(levels, dtype=float)
    return np.concatenate((
        levels, np.nextafter(levels, np.inf), np.nextafter(levels, -np.inf),
        [full_scale, -full_scale, np.inf, -np.inf, np.nan, 0.0, -0.0],
        np.random.default_rng(seed).uniform(-1.3 * full_scale,
                                            1.3 * full_scale, 3000)))


FLASH_CASES = {
    "ideal": {},
    "offset thresholds": {"comparator_offset_std": 0.05},
    "thresholds far off the grid": {"comparator_offset_std": 0.6},
    "gain and offset error": {"gain_error": 0.03, "offset_error": -0.02},
}


@pytest.mark.parametrize("case", FLASH_CASES)
@pytest.mark.parametrize("bits", BITS)
def test_flash_codes_are_the_searchsorted_codes(bits, case):
    adc = FlashADC(bits=bits, full_scale=0.8,
                   rng=np.random.default_rng(bits), **FLASH_CASES[case])
    # Inputs whose gain/offset-corrected value lands on each threshold.
    on_thresholds = ((adc._thresholds - adc.offset_error)
                     / (1.0 + adc.gain_error))
    x = _edges_and_spread(on_thresholds, adc.full_scale, bits)
    x = np.concatenate((x, _edges_and_spread(adc._thresholds,
                                             adc.full_scale, bits + 50)))
    assert np.array_equal(adc.convert_codes(x), _flash_oracle(adc, x))
    # A wide 2-D batch (several row blocks) and a strided view.
    batch = np.resize(x, (23, 4001))
    assert np.array_equal(adc.convert_codes(batch),
                          _flash_oracle(adc, batch))
    assert np.array_equal(adc.convert_codes(batch[:, 1::3]),
                          _flash_oracle(adc, batch[:, 1::3]))


def test_flash_shapes_and_values():
    adc = FlashADC(bits=4, rng=np.random.default_rng(0),
                   comparator_offset_std=0.01)
    assert adc.convert_codes(0.3).shape == ()
    assert adc.convert_codes(np.zeros((3, 0))).shape == (3, 0)
    x = np.linspace(-1.2, 1.2, 101)
    assert np.array_equal(adc.convert(x),
                          adc.codes_to_values(_flash_oracle(adc, x)))


@pytest.mark.parametrize("bits", BITS)
def test_interleaved_batch_is_the_per_slice_oracle(bits):
    adc = TimeInterleavedADC.uniform(
        num_slices=4, bits=bits, comparator_offset_std=0.02,
        gain_mismatch_std=0.02, offset_mismatch_std=0.01,
        rng=np.random.default_rng(bits))
    batch = np.random.default_rng(bits + 9).uniform(-1.2, 1.2, (9, 9003))
    expected = np.empty(batch.shape)
    for index, slice_adc in enumerate(adc.slices):
        expected[:, index::4] = slice_adc.codes_to_values(
            _flash_oracle(slice_adc, batch[:, index::4]))
    assert np.array_equal(adc.convert_presampled_batch(batch), expected)


SAR_CASES = {
    "ideal": {},
    "mismatched weights": {"capacitor_mismatch_std": 0.01},
    "non-monotone weights": {"capacitor_mismatch_std": 0.3},
}


def _sar(bits, case, noise_std=0.0):
    return SARADC(bits=bits, comparator_noise_std=noise_std,
                  rng=np.random.default_rng(bits), **SAR_CASES[case])


@pytest.mark.parametrize("case", SAR_CASES)
@pytest.mark.parametrize("bits", BITS)
def test_sar_codes_are_the_bit_serial_codes(bits, case):
    adc = _sar(bits, case)
    x = _edges_and_spread(adc._levels[1:], adc.full_scale, bits)
    assert np.array_equal(adc.convert_codes(x), _sar_oracle(adc, x))
    batch = np.resize(x, (17, 5003))
    assert np.array_equal(adc.convert_codes(batch), _sar_oracle(adc, batch))


@pytest.mark.parametrize("case", SAR_CASES)
@pytest.mark.parametrize("bits", BITS)
def test_sar_injected_noise_is_the_bit_serial_codes(bits, case):
    adc = _sar(bits, case)
    x = np.resize(_edges_and_spread(adc._levels[1:], adc.full_scale, bits),
                  (11, 3001))
    noise = np.random.default_rng(bits + 1).normal(0.0, 0.02,
                                                   (bits,) + x.shape)
    assert np.array_equal(adc.convert_codes(x, noise=noise),
                          _sar_oracle(adc, x, noise=noise))


@pytest.mark.parametrize("case", SAR_CASES)
@pytest.mark.parametrize("bits", BITS)
def test_sar_rng_path_draws_like_the_bit_serial_search(bits, case):
    adc = _sar(bits, case, noise_std=0.01)
    x = np.resize(_edges_and_spread(adc._levels[1:], adc.full_scale, bits),
                  (7, 2003))
    rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
    assert np.array_equal(adc.convert_codes(x, rng=rng),
                          _sar_oracle(adc, x, rng=oracle_rng))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_sar_pair_is_the_bit_serial_pair():
    pair = QuadratureSARADC.matched_pair(
        bits=5, capacitor_mismatch_std=0.01, comparator_noise_std=0.01,
        rng=np.random.default_rng(2))
    z = np.random.default_rng(3).normal(0.0, 0.4, (5, 999)) \
        + 1j * np.random.default_rng(4).normal(0.0, 0.4, (5, 999))
    rng, oracle_rng = np.random.default_rng(6), np.random.default_rng(6)
    expected_i = pair.i_adc.codes_to_values(
        _sar_oracle(pair.i_adc, z.real, rng=oracle_rng))
    expected_q = pair.q_adc.codes_to_values(
        _sar_oracle(pair.q_adc, z.imag, rng=oracle_rng))
    assert np.array_equal(pair.convert(z, rng=rng),
                          expected_i + 1j * expected_q)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("shape", [(5, 1, 40), (5, 3), (4, 3, 40),
                                   (5, 3, 40, 1), (3, 40)])
def test_sar_rejects_noise_of_any_other_shape(shape):
    adc = SARADC(bits=5)
    x = np.zeros((3, 40))
    with pytest.raises(ValueError, match="noise must have shape"):
        adc.convert_codes(x, noise=np.zeros(shape))


def test_sar_scalar_noise_shape():
    adc = SARADC(bits=3)
    noise = np.array([0.0, 0.0, 0.0])
    assert adc.convert_codes(0.2, noise=noise).tolist() \
        == _sar_oracle(adc, 0.2).tolist()
