"""Tests for the ADC models: uniform quantizer, flash, interleaved, SAR."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.adc.flash import FlashADC
from repro.adc.interleaved import TimeInterleavedADC
from repro.adc.quantizer import UniformQuantizer, ideal_sndr_db
from repro.adc.sar import QuadratureSARADC, SARADC


class TestUniformQuantizer:
    def test_levels_and_step(self):
        q = UniformQuantizer(bits=5, full_scale=1.0)
        assert q.num_levels == 32
        assert q.step == pytest.approx(2.0 / 32)

    def test_one_bit_is_sign_detector(self):
        q = UniformQuantizer(bits=1, full_scale=1.0)
        out = q.quantize(np.array([-0.7, -0.01, 0.01, 0.9]))
        assert np.array_equal(np.sign(out), [-1, -1, 1, 1])
        assert np.all(np.abs(out) == pytest.approx(0.5))

    def test_quantization_error_bounded(self):
        q = UniformQuantizer(bits=6)
        x = np.linspace(-0.99, 0.99, 777)
        err = q.quantize(x) - x
        assert np.max(np.abs(err)) <= q.step / 2 + 1e-12

    def test_saturation(self):
        q = UniformQuantizer(bits=4, full_scale=0.5)
        out = q.quantize(np.array([5.0, -5.0]))
        assert out[0] < 0.5
        assert out[1] > -0.5

    def test_measured_sndr_close_to_ideal(self):
        for bits in (4, 6, 8):
            q = UniformQuantizer(bits=bits)
            measured = q.measured_sndr_db()
            assert measured == pytest.approx(ideal_sndr_db(bits), abs=1.5)

    def test_ideal_sndr_formula(self):
        assert ideal_sndr_db(5) == pytest.approx(6.02 * 5 + 1.76)

    def test_complex_quantization(self):
        q = UniformQuantizer(bits=5)
        x = np.array([0.3 + 0.2j])
        out = q.quantize(x)
        assert np.iscomplexobj(out)

    @staticmethod
    def _integer_round_trip(q, x):
        """The float -> int64 -> float formula the quantizer used to run;
        defined (and the reference) for finite inputs below ~2**63 LSBs."""
        codes = np.floor((np.asarray(x, dtype=float) + q.full_scale)
                         / q.step).astype(np.int64)
        codes = np.clip(codes, 0, q.num_levels - 1)
        return (codes.astype(float) + 0.5) * q.step - q.full_scale

    @pytest.mark.parametrize("bits, full_scale", [(1, 1.0), (3, 1.0),
                                                  (4, 0.5), (8, 2.0)])
    def test_finite_inputs_match_the_integer_round_trip(self, rng, bits,
                                                        full_scale):
        q = UniformQuantizer(bits=bits, full_scale=full_scale)
        edges = -full_scale + q.step * np.arange(q.num_levels + 1)
        x = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [full_scale, -full_scale, 0.0, -0.0, 3.0 * full_scale,
             -7.0 * full_scale, 1e6, -1e6],
            rng.uniform(-1.5 * full_scale, 1.5 * full_scale, 500)])
        out = q.quantize(x)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, self._integer_round_trip(q, x))
        z = x + 1j * rng.permutation(x)
        quantized = q.quantize(z)
        assert quantized.dtype == np.complex128
        np.testing.assert_array_equal(
            quantized.real, self._integer_round_trip(q, z.real))
        np.testing.assert_array_equal(
            quantized.imag, self._integer_round_trip(q, z.imag))

    def test_float32_input_is_quantized_in_double(self):
        q = UniformQuantizer(bits=6)
        x = np.linspace(-1.2, 1.2, 301, dtype=np.float32)
        np.testing.assert_array_equal(q.quantize(x),
                                      self._integer_round_trip(q, x))

    def test_infinite_and_huge_inputs_saturate_to_the_end_codes(self):
        q = UniformQuantizer(bits=3)
        top, bottom = 1.0 - q.step / 2, -1.0 + q.step / 2
        out = q.quantize([np.inf, 1e300, -np.inf, -1e300])
        np.testing.assert_array_equal(out, [top, top, bottom, bottom])
        z = q.quantize(np.array([complex(np.inf, -np.inf),
                                 complex(-1e300, 1e300)]))
        np.testing.assert_array_equal(z, [complex(top, bottom),
                                          complex(bottom, top)])

    def test_nan_propagates(self):
        q = UniformQuantizer(bits=4)
        out = q.quantize([np.nan, 0.1])
        assert np.isnan(out[0]) and not np.isnan(out[1])
        z = q.quantize(np.array([complex(np.nan, 0.1)]))
        assert np.isnan(z.real[0]) and not np.isnan(z.imag[0])

    @given(st.integers(min_value=1, max_value=10),
           st.floats(min_value=-0.999, max_value=0.999))
    @settings(max_examples=40)
    def test_quantize_monotone(self, bits, x):
        q = UniformQuantizer(bits=bits)
        smaller = float(q.quantize(np.array([x * 0.5]))[0])
        larger = float(q.quantize(np.array([x]))[0])
        if x >= 0:
            assert larger >= smaller
        else:
            assert larger <= smaller


class TestFlashADC:
    def test_ideal_flash_matches_uniform(self):
        flash = FlashADC(bits=4, comparator_offset_std=0.0)
        uniform = UniformQuantizer(bits=4)
        x = np.linspace(-0.95, 0.95, 101)
        assert np.allclose(flash.convert(x), uniform.quantize(x))

    def test_ideal_thresholds_are_the_uniform_code_boundaries(self):
        flash = FlashADC(bits=3, full_scale=1.0)
        boundaries = -1.0 + 0.25 * np.arange(1, 8)
        assert flash.convert_codes(boundaries - 1e-9).tolist() == \
            list(range(7))
        assert flash.convert_codes(boundaries + 1e-9).tolist() == \
            list(range(1, 8))

    def test_codes_monotone_in_input(self):
        flash = FlashADC(bits=4, comparator_offset_std=0.01,
                         rng=np.random.default_rng(0))
        x = np.linspace(-1, 1, 500)
        codes = flash.convert_codes(x)
        assert np.all(np.diff(codes) >= 0)

    def test_gain_error_shifts_codes(self):
        ideal = FlashADC(bits=4)
        with_gain = FlashADC(bits=4, gain_error=0.2)
        x = np.array([0.5])
        assert with_gain.convert_codes(x)[0] >= ideal.convert_codes(x)[0]

    def test_complex_input(self):
        flash = FlashADC(bits=4)
        out = flash.convert(np.array([0.2 + 0.4j]))
        assert np.iscomplexobj(out)


class TestTimeInterleavedADC:
    def test_uniform_factory(self):
        adc = TimeInterleavedADC.uniform(num_slices=4, bits=4,
                                         rng=np.random.default_rng(0))
        assert adc.num_slices == 4
        assert adc.bits == 4

    def test_presampled_conversion_matches_single_adc_when_matched(self):
        adc = TimeInterleavedADC.uniform(num_slices=4, bits=4,
                                         rng=np.random.default_rng(1))
        x = np.linspace(-0.9, 0.9, 400)
        out = adc.convert_presampled(x)
        single = FlashADC(bits=4)
        assert np.allclose(out, single.convert(x))

    def test_mismatch_creates_slice_dependent_errors(self):
        adc = TimeInterleavedADC.uniform(
            num_slices=4, bits=6, offset_mismatch_std=0.05,
            rng=np.random.default_rng(2))
        x = np.zeros(400)
        out = adc.convert_presampled(x)
        per_slice_mean = [np.mean(out[i::4]) for i in range(4)]
        assert np.std(per_slice_mean) > 1e-3

    def test_requires_slices(self):
        with pytest.raises(ValueError):
            TimeInterleavedADC(slices=())


class TestSARADC:
    def test_ideal_sar_error_bounded(self):
        sar = SARADC(bits=5, capacitor_mismatch_std=0.0,
                     comparator_noise_std=0.0)
        x = np.linspace(-0.95, 0.95, 333)
        out = sar.convert(x)
        assert np.max(np.abs(out - x)) <= sar.step

    def test_codes_cover_full_range(self):
        sar = SARADC(bits=5)
        codes = sar.convert_codes(np.linspace(-1.2, 1.2, 1000))
        assert codes.min() == 0
        assert codes.max() == 31

    def test_codes_monotone(self):
        sar = SARADC(bits=5, rng=np.random.default_rng(0))
        x = np.linspace(-1, 1, 500)
        codes = sar.convert_codes(x)
        assert np.all(np.diff(codes) >= 0)

    def test_comparator_noise_creates_code_variation(self):
        sar = SARADC(bits=5, comparator_noise_std=0.05,
                     rng=np.random.default_rng(1))
        codes = sar.convert_codes(np.full(200, 0.1),
                                  rng=np.random.default_rng(2))
        assert np.unique(codes).size > 1

    def test_mismatch_changes_transfer_function(self):
        ideal = SARADC(bits=5)
        mismatched = SARADC(bits=5, capacitor_mismatch_std=0.05,
                            rng=np.random.default_rng(3))
        x = np.linspace(-0.9, 0.9, 200)
        assert not np.allclose(ideal.convert(x), mismatched.convert(x))

    def test_scalar_input(self):
        sar = SARADC(bits=5)
        assert isinstance(sar.convert(0.3), float)


class TestQuadratureSAR:
    def test_matched_pair_properties(self):
        pair = QuadratureSARADC.matched_pair(bits=5,
                                             rng=np.random.default_rng(0))
        assert pair.bits == 5
        assert pair.sample_rate_hz == pytest.approx(500e6)

    def test_complex_conversion(self):
        pair = QuadratureSARADC.matched_pair(bits=6,
                                             rng=np.random.default_rng(1))
        x = np.array([0.3 + 0.4j, -0.2 - 0.7j])
        out = pair.convert(x)
        assert np.iscomplexobj(out)
        assert np.max(np.abs(out - x)) < 2 * pair.i_adc.step
