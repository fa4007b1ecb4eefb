"""Tests for fixed-point quantization and argument validation helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.fixed_point import FixedPointFormat
from repro.utils.validation import (
    require_int,
    require_json_int,
    require_non_negative,
    require_positive,
)


class TestFixedPointFormat:
    def test_num_levels_and_step(self):
        fmt = FixedPointFormat(total_bits=4, full_scale=1.0)
        assert fmt.num_levels == 16
        assert fmt.step == pytest.approx(0.125)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=0)

    @pytest.mark.parametrize("bits, min_code, max_code", [
        (1, -1, 0), (4, -8, 7), (8, -128, 127)])
    def test_code_range_is_twos_complement(self, bits, min_code, max_code):
        fmt = FixedPointFormat(total_bits=bits)
        assert (fmt.min_code, fmt.max_code) == (min_code, max_code)
        assert fmt.max_code - fmt.min_code + 1 == fmt.num_levels
        codes = fmt.quantize_to_codes(np.array([-1e9, 1e9]))
        assert codes.tolist() == [min_code, max_code]

    def test_quantize_within_step(self):
        fmt = FixedPointFormat(total_bits=6, full_scale=1.0)
        x = np.linspace(-0.99, 0.99, 101)
        q = fmt.quantize(x)
        assert np.all(np.abs(q - x) <= fmt.step / 2 + 1e-12)

    def test_saturation(self):
        fmt = FixedPointFormat(total_bits=4, full_scale=1.0)
        q = fmt.quantize(np.array([10.0, -10.0]))
        assert q[0] <= 1.0
        assert q[1] >= -1.0

    def test_codes_roundtrip(self):
        fmt = FixedPointFormat(total_bits=5, full_scale=2.0)
        codes = fmt.quantize_to_codes(np.linspace(-1.9, 1.9, 40))
        values = fmt.codes_to_values(codes)
        assert np.all(values <= 2.0)
        assert np.all(values >= -2.0)

    def test_codes_out_of_range_raise(self):
        fmt = FixedPointFormat(total_bits=3)
        with pytest.raises(ValueError):
            fmt.codes_to_values(np.array([100]))

    def test_complex_quantization(self):
        fmt = FixedPointFormat(total_bits=8)
        x = np.array([0.3 + 0.4j, -0.2 - 0.9j])
        q = fmt.quantize(x)
        assert np.iscomplexobj(q)
        assert np.all(np.abs(q.real - x.real) <= fmt.step)
        assert np.all(np.abs(q.imag - x.imag) <= fmt.step)

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.9, 0.9, 1000)
        err4 = np.mean((FixedPointFormat(total_bits=4).quantize(x) - x) ** 2)
        err8 = np.mean((FixedPointFormat(total_bits=8).quantize(x) - x) ** 2)
        assert err8 < err4 / 10

    @given(st.integers(min_value=1, max_value=12),
           st.floats(min_value=-0.999, max_value=0.999))
    @settings(max_examples=50)
    def test_quantizer_monotonic_and_bounded(self, bits, value):
        fmt = FixedPointFormat(total_bits=bits, full_scale=1.0)
        q = float(fmt.quantize(value))
        assert -1.0 <= q <= 1.0
        assert abs(q - value) <= fmt.step


class TestValidation:
    def test_require_positive_accepts(self):
        assert require_positive(3.0, "x") == 3.0

    def test_require_positive_rejects(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                require_positive(bad, "x")

    def test_require_non_negative(self):
        assert require_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            require_non_negative(-0.1, "x")

    def test_require_int(self):
        assert require_int(4, "n") == 4
        with pytest.raises(TypeError):
            require_int(4.0, "n")
        with pytest.raises(TypeError):
            require_int(True, "n")
        with pytest.raises(ValueError):
            require_int(2, "n", minimum=3)

    @pytest.mark.parametrize("value, minimum, expected", [
        (4, None, 4), (4.0, None, 4), (-3.0, None, -3), (2.0, 2, 2)])
    def test_require_json_int_accepts_whole_numbers(self, value, minimum,
                                                    expected):
        result = require_json_int(value, "n", minimum)
        assert result == expected
        assert type(result) is int

    @pytest.mark.parametrize("value, minimum, error", [
        (4.5, None, TypeError), (True, None, TypeError),
        (float("nan"), None, TypeError), (float("inf"), None, TypeError),
        ("4", None, TypeError), (1.0, 2, ValueError)])
    def test_require_json_int_rejects(self, value, minimum, error):
        with pytest.raises(error, match="n"):
            require_json_int(value, "n", minimum)
