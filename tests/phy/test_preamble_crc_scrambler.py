"""Tests for preamble sequences, CRC, and the scrambler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.crc import CRC16_CCITT, CRC32, append_crc, check_crc
from repro.phy.preamble import (
    _GOLD_SECOND_TAPS,
    _PRIMITIVE_TAPS,
    PreambleConfig,
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


def _periodic_correlation(a, b):
    """Every cyclic lag of the periodic cross-correlation of two +-1 codes."""
    spectrum = np.fft.fft(a) * np.conj(np.fft.fft(b))
    return np.rint(np.real(np.fft.ifft(spectrum))).astype(int)


class TestLFSR:
    @pytest.mark.parametrize("degree", sorted(_PRIMITIVE_TAPS))
    def test_every_tabulated_polynomial_is_maximal_length(self, degree):
        period = (1 << degree) - 1
        seq = m_sequence(degree)
        assert seq.sum() == 1 << (degree - 1)
        correlation = _periodic_correlation(bits_to_bipolar(seq),
                                            bits_to_bipolar(seq))
        assert correlation[0] == period
        assert np.all(correlation[1:] == -1)

    @pytest.mark.parametrize("initial_state", [0, -1, 1 << 7])
    def test_initial_state_must_be_a_non_zero_register_state(self,
                                                             initial_state):
        with pytest.raises(ValueError, match="initial_state"):
            lfsr_sequence((7, 6), 10, initial_state=initial_state)

    @pytest.mark.parametrize("num_bits, error", [
        (0, ValueError), (-4, ValueError), (2.5, TypeError),
        (True, TypeError)])
    def test_bit_count_must_be_a_positive_int(self, num_bits, error):
        with pytest.raises(error, match="num_bits"):
            lfsr_sequence((7, 6), num_bits)

    def test_output_starts_with_the_register_low_bit_first(self):
        assert lfsr_sequence((3, 2), 7).tolist() == [1, 0, 0, 1, 0, 1, 1]

    @pytest.mark.parametrize("degree", [3, 8, 11])
    def test_output_obeys_the_feedback_recurrence(self, degree):
        # s[i + d] = XOR over taps of s[i + d - tap] (d = the degree).
        taps = _PRIMITIVE_TAPS[degree]
        seq = lfsr_sequence(taps, 200, initial_state=0b101)
        i = np.arange(200 - degree)
        predicted = np.bitwise_xor.reduce(
            [seq[i + degree - tap] for tap in taps])
        assert np.array_equal(seq[degree:], predicted)


class TestGoldCode:
    @pytest.mark.parametrize("degree", sorted(_GOLD_SECOND_TAPS))
    def test_second_polynomial_is_maximal_length(self, degree):
        period = (1 << degree) - 1
        seq = bits_to_bipolar(lfsr_sequence(_GOLD_SECOND_TAPS[degree],
                                            period))
        correlation = _periodic_correlation(seq, seq)
        assert np.all(correlation[1:] == -1)

    @pytest.mark.parametrize("degree", [5, 7])
    def test_preferred_pair_cross_correlation_is_three_valued(self, degree):
        # A preferred pair of odd degree n cross-correlates only to -1,
        # -t and t - 2 with t = 2^((n+1)/2) + 1.
        t = (1 << ((degree + 1) // 2)) + 1
        period = (1 << degree) - 1
        correlation = _periodic_correlation(
            bits_to_bipolar(gold_code(degree, period)),
            bits_to_bipolar(gold_code(degree, period + 1)))
        assert set(correlation.tolist()) == {-1, -t, t - 2}

    @pytest.mark.parametrize("degree", [5, 7])
    def test_last_two_indices_are_the_generating_pair(self, degree):
        period = (1 << degree) - 1
        assert np.array_equal(gold_code(degree, period), m_sequence(degree))
        assert np.array_equal(
            gold_code(degree, period + 1),
            lfsr_sequence(_GOLD_SECOND_TAPS[degree], period))

    @pytest.mark.parametrize("degree", [3, 4, 8])
    def test_degree_without_a_second_polynomial_raises(self, degree):
        with pytest.raises(ValueError, match="degree"):
            gold_code(degree)

    def test_gold_code_length(self):
        assert gold_code(7, 0).size == 127

    def test_gold_codes_differ(self):
        assert not np.array_equal(gold_code(7, 0), gold_code(7, 1))

    def test_gold_invalid_index(self):
        with pytest.raises(ValueError):
            gold_code(7, 200)


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

    @pytest.mark.parametrize("kwargs, error", [
        (dict(sequence_degree=2), ValueError),
        (dict(sequence_degree=7.0), TypeError),
        (dict(num_repetitions=0), ValueError),
        (dict(num_repetitions=True), TypeError)])
    def test_invalid_structure_raises(self, kwargs, error):
        with pytest.raises(error, match=next(iter(kwargs))):
            PreambleConfig(**kwargs)

    @pytest.mark.parametrize("code_index", [0, 5, 30])
    def test_code_index_picks_a_cyclic_shift_of_the_m_sequence(self,
                                                               code_index):
        base = PreambleConfig(sequence_degree=5).base_sequence_bits()
        shifted = PreambleConfig(sequence_degree=5,
                                 code_index=code_index).base_sequence_bits()
        assert np.array_equal(shifted,
                              m_sequence(5, initial_state=code_index + 1))
        assert any(np.array_equal(np.roll(base, k), shifted)
                   for k in range(base.size))

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

    @pytest.mark.parametrize("crc", [CRC16_CCITT, CRC32],
                             ids=lambda crc: crc.name)
    def test_empty_payload_leaves_the_initial_register(self, crc):
        assert crc.compute([]) == crc.initial_value ^ crc.final_xor

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1,
                    max_size=64), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30)
    def test_crc_is_affine_over_gf2(self, a, seed):
        # CRC(a ^ b) = CRC(a) ^ CRC(b) ^ CRC(0) for equal-length inputs.
        a = np.asarray(a)
        b = random_bits(a.size, np.random.default_rng(seed))
        zero = np.zeros(a.size, dtype=np.int64)
        for crc in (CRC16_CCITT, CRC32):
            assert crc.compute(a ^ b) == (crc.compute(a) ^ crc.compute(b)
                                          ^ crc.compute(zero))

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

    @pytest.mark.parametrize("kwargs", [dict(seed=1 << 7), dict(seed=-1),
                                        dict(taps=(1,))])
    def test_invalid_register_raises(self, kwargs):
        with pytest.raises(ValueError):
            Scrambler(**kwargs)

    @pytest.mark.parametrize("num_bits, error", [(-1, ValueError),
                                                 (2.5, TypeError)])
    def test_keystream_length_must_be_a_non_negative_int(self, num_bits,
                                                         error):
        with pytest.raises(error, match="num_bits"):
            Scrambler().keystream(num_bits)

    def test_keystream_prefix_does_not_depend_on_call_order(self):
        # The memoized stream must serve a short request after a long one
        # (and the reverse) with the same leading bits.
        short_first = Scrambler(seed=0x2A).keystream(10)
        long_after = Scrambler(seed=0x2A).keystream(300)
        assert np.array_equal(long_after[:10], short_first)
        assert np.array_equal(Scrambler(seed=0x2A).keystream(10), short_first)
        assert Scrambler(seed=0x2A).keystream(0).size == 0

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=0,
                    max_size=300))
    @settings(max_examples=30)
    def test_roundtrip_property(self, bits):
        scrambler = Scrambler()
        assert np.array_equal(
            scrambler.descramble(scrambler.scramble(np.asarray(bits, dtype=np.int64))),
            np.asarray(bits, dtype=np.int64))
