"""Tests for preamble sequences, CRC, and the scrambler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.crc import CRC16_CCITT, CRC32, append_crc, check_crc
from repro.phy.preamble import (
    PreambleConfig,
    barker_sequence,
    bits_to_bipolar,
    build_preamble_symbols,
    gold_code,
    lfsr_sequence,
    m_sequence,
)
from repro.phy.scrambler import Scrambler
from repro.utils.bits import random_bits


class TestMSequence:
    def test_length(self):
        for degree in (5, 7, 9):
            assert m_sequence(degree).size == (1 << degree) - 1

    def test_balance_property(self):
        # An m-sequence of length 2^n - 1 has exactly 2^(n-1) ones.
        for degree in (5, 6, 7, 8):
            seq = m_sequence(degree)
            assert seq.sum() == 1 << (degree - 1)

    def test_maximal_period(self):
        degree = 6
        period = (1 << degree) - 1
        seq = lfsr_sequence((6, 5), 2 * period)
        assert np.array_equal(seq[:period], seq[period:])
        # No shorter period divides it.
        for p in range(1, period):
            if period % p == 0:
                assert not np.array_equal(seq[:p], seq[p:2 * p])

    def test_periodic_autocorrelation_is_minus_one(self):
        seq = bits_to_bipolar(m_sequence(7))
        for shift in (1, 5, 31, 100):
            rolled = np.roll(seq, shift)
            assert np.dot(seq, rolled) == pytest.approx(-1.0)

    def test_aperiodic_lag1_autocorrelation_small(self):
        seq = bits_to_bipolar(m_sequence(7))
        assert abs(np.dot(seq[:-1], seq[1:])) < 20

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            m_sequence(2)

    def test_different_seeds_are_shifts(self):
        a = m_sequence(5, initial_state=1)
        b = m_sequence(5, initial_state=3)
        assert not np.array_equal(a, b)
        # b must be a cyclic shift of a.
        found = any(np.array_equal(np.roll(a, k), b) for k in range(a.size))
        assert found


class TestGoldAndBarker:
    def test_gold_code_length(self):
        assert gold_code(7, 0).size == 127

    def test_gold_codes_differ(self):
        assert not np.array_equal(gold_code(7, 0), gold_code(7, 1))

    def test_gold_invalid_index(self):
        with pytest.raises(ValueError):
            gold_code(7, 200)

    def test_barker_13_autocorrelation(self):
        seq = bits_to_bipolar(barker_sequence(13))
        sidelobes = [abs(np.dot(seq[:-k], seq[k:])) for k in range(1, 13)]
        assert max(sidelobes) <= 1.0

    def test_barker_invalid_length(self):
        with pytest.raises(ValueError):
            barker_sequence(6)


class TestPreambleConfig:
    def test_total_symbols(self):
        config = PreambleConfig(sequence_degree=5, num_repetitions=4)
        assert config.sequence_length == 31
        assert config.total_symbols == 124

    def test_build_preamble_is_tiled(self):
        config = PreambleConfig(sequence_degree=5, num_repetitions=3)
        symbols = build_preamble_symbols(config)
        base = config.base_sequence_bipolar()
        assert np.array_equal(symbols[:31], base)
        assert np.array_equal(symbols[31:62], base)

    def test_bipolar_values(self):
        config = PreambleConfig(sequence_degree=5, num_repetitions=1)
        symbols = build_preamble_symbols(config)
        assert set(np.unique(symbols)) == {-1.0, 1.0}

    def test_gold_option(self):
        config = PreambleConfig(sequence_degree=7, num_repetitions=1,
                                use_gold=True, code_index=2)
        assert config.base_sequence_bits().size == 127


class TestCRC:
    def test_crc16_known_vector(self):
        # CRC-16-CCITT (init 0xFFFF) of ASCII "123456789" is 0x29B1.
        bits = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))
        assert CRC16_CCITT.compute(bits.astype(np.int64)) == 0x29B1

    def test_crc32_known_vector(self):
        # The MSB-first (non-reflected) CRC-32 of ASCII "123456789" is
        # the catalogued CRC-32/BZIP2 check value 0xFC891918.
        bits = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))
        assert CRC32.compute(bits.astype(np.int64)) == 0xFC891918

    @pytest.mark.parametrize("crc", [CRC16_CCITT, CRC32],
                             ids=lambda crc: crc.name)
    def test_compute_bits_is_the_register_msb_first(self, crc):
        payload = random_bits(77, np.random.default_rng(6))
        bits = crc.compute_bits(payload)
        assert bits.size == crc.width
        assert int("".join(map(str, bits.tolist())), 2) == \
            crc.compute(payload)
        assert np.array_equal(append_crc(payload, crc)[-crc.width:], bits)

    def test_append_and_check(self):
        payload = random_bits(120, np.random.default_rng(0))
        protected = append_crc(payload)
        assert check_crc(protected)

    def test_single_bit_error_detected(self):
        payload = random_bits(64, np.random.default_rng(1))
        protected = append_crc(payload)
        for position in (0, 10, protected.size - 1):
            corrupted = protected.copy()
            corrupted[position] ^= 1
            assert not check_crc(corrupted)

    def test_crc32_roundtrip(self):
        payload = random_bits(96, np.random.default_rng(2))
        protected = append_crc(payload, CRC32)
        assert check_crc(protected, CRC32)

    def test_too_short_fails(self):
        assert not check_crc(np.array([1, 0, 1]))

    def test_invalid_bits_raise(self):
        with pytest.raises(ValueError):
            CRC16_CCITT.compute([0, 2, 1])

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1,
                    max_size=200))
    @settings(max_examples=40)
    def test_crc_roundtrip_property(self, payload):
        protected = append_crc(np.asarray(payload))
        assert check_crc(protected)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=8,
                    max_size=100),
           st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=40)
    def test_crc_detects_burst_errors(self, payload, seed):
        rng = np.random.default_rng(seed)
        protected = append_crc(np.asarray(payload))
        corrupted = protected.copy()
        burst_start = int(rng.integers(0, protected.size - 3))
        corrupted[burst_start:burst_start + 3] ^= 1
        assert not check_crc(corrupted)


class TestScrambler:
    def test_scramble_changes_bits(self):
        scrambler = Scrambler()
        bits = np.zeros(128, dtype=np.int64)
        scrambled = scrambler.scramble(bits)
        assert scrambled.sum() > 20

    def test_self_inverse(self):
        scrambler = Scrambler()
        bits = random_bits(256, np.random.default_rng(0))
        assert np.array_equal(scrambler.descramble(scrambler.scramble(bits)),
                              bits)

    def test_keystream_is_balanced(self):
        scrambler = Scrambler()
        stream = scrambler.keystream(127 * 8)
        assert 0.4 < stream.mean() < 0.6

    def test_keystream_periodicity(self):
        scrambler = Scrambler()
        stream = scrambler.keystream(127 * 2)
        assert np.array_equal(stream[:127], stream[127:])

    def test_different_seeds_differ(self):
        a = Scrambler(seed=0x5B).keystream(64)
        b = Scrambler(seed=0x11).keystream(64)
        assert not np.array_equal(a, b)

    def test_invalid_seed(self):
        with pytest.raises(ValueError):
            Scrambler(seed=0)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            Scrambler().scramble([0, 1, 2])

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=0,
                    max_size=300))
    @settings(max_examples=30)
    def test_roundtrip_property(self, bits):
        scrambler = Scrambler()
        assert np.array_equal(
            scrambler.descramble(scrambler.scramble(np.asarray(bits, dtype=np.int64))),
            np.asarray(bits, dtype=np.int64))
