"""Tests for bit-handling helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.bits import (
    bit_errors,
    bits_to_int,
    int_to_bits,
    pack_bits,
    random_bits,
    unpack_bits,
)


class TestRandomBits:
    def test_length(self):
        assert random_bits(100, np.random.default_rng(0)).size == 100

    def test_only_zeros_and_ones(self):
        bits = random_bits(500, np.random.default_rng(1))
        assert set(np.unique(bits)).issubset({0, 1})

    def test_roughly_balanced(self):
        bits = random_bits(10000, np.random.default_rng(2))
        assert 0.45 < bits.mean() < 0.55

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            random_bits(-1)


class TestIntConversions:
    def test_int_to_bits_msb_first(self):
        assert np.array_equal(int_to_bits(5, 4), [0, 1, 0, 1])

    def test_bits_to_int(self):
        assert bits_to_int([1, 0, 1, 1]) == 11

    def test_too_large_raises(self):
        with pytest.raises(ValueError):
            int_to_bits(16, 4)

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_roundtrip(self, value):
        assert bits_to_int(int_to_bits(value, 16)) == value


class TestErrors:
    def test_no_errors(self):
        assert bit_errors([1, 0, 1], [1, 0, 1]) == 0

    def test_all_errors(self):
        assert bit_errors([1, 1, 1], [0, 0, 0]) == 3

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            bit_errors([1, 0], [1])


class TestPacking:
    def test_pack_unpack_roundtrip(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 1])
        words = pack_bits(bits, 4)
        assert np.array_equal(words, [0b1011, 0b0011])
        assert np.array_equal(unpack_bits(words, 4), bits)

    def test_pack_invalid_length(self):
        with pytest.raises(ValueError):
            pack_bits([1, 0, 1], 2)

    def test_unpack_out_of_range(self):
        with pytest.raises(ValueError):
            unpack_bits([4], 2)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=6,
                    max_size=60).filter(lambda bits: len(bits) % 3 == 0))
    def test_pack_unpack_property(self, bits):
        words = pack_bits(bits, 3)
        assert np.array_equal(unpack_bits(words, 3), bits)
