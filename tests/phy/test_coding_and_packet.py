"""Tests for convolutional coding, Viterbi decoding, and packet framing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.coding import (
    ConvolutionalCode,
    K3_RATE_HALF,
    K7_RATE_HALF,
    ViterbiDecoder,
)
from repro.phy.packet import (
    HEADER_LENGTH_BITS,
    PacketBuilder,
    PacketConfig,
    PacketParser,
)
from repro.phy.preamble import PreambleConfig
from repro.utils.bits import bit_errors, random_bits


class TestConvolutionalCode:
    def test_rate_and_states(self):
        assert K3_RATE_HALF.rate_inverse == 2
        assert K3_RATE_HALF.num_states == 4
        assert K7_RATE_HALF.num_states == 64

    def test_encode_length(self):
        bits = random_bits(50, np.random.default_rng(0))
        coded = K3_RATE_HALF.encode(bits, terminate=True)
        assert coded.size == (50 + 2) * 2

    def test_encode_unterminated_length(self):
        coded = K3_RATE_HALF.encode(np.zeros(10, dtype=np.int64),
                                    terminate=False)
        assert coded.size == 20

    def test_zero_input_gives_zero_output(self):
        coded = K3_RATE_HALF.encode(np.zeros(16, dtype=np.int64))
        assert np.all(coded == 0)

    def test_known_k3_sequence(self):
        # Encoding a single 1 with the (7,5) code gives the impulse response
        # 11 10 11 followed by zeros.
        coded = K3_RATE_HALF.encode(np.array([1]), terminate=True)
        assert np.array_equal(coded, [1, 1, 1, 0, 1, 1])

    @pytest.mark.parametrize("code", [K3_RATE_HALF, K7_RATE_HALF],
                             ids=["k3", "k7"])
    def test_trellis_walk_reproduces_encode(self, code):
        # The decoder's trellis (output_bits/next_state) and the encoder
        # must describe the same machine, starting from the zero state.
        bits = random_bits(40, np.random.default_rng(7))
        state, walked = 0, []
        for bit in bits.tolist():
            walked.append(code.output_bits(state, bit))
            state = code.next_state(state, bit)
        assert np.array_equal(np.concatenate(walked),
                              code.encode(bits, terminate=False))
        for _ in range(code.constraint_length - 1):
            state = code.next_state(state, 0)
        assert state == 0

    def test_invalid_generators(self):
        with pytest.raises(ValueError):
            ConvolutionalCode(constraint_length=3, generators=(0b1111,
                                                               0b101))
        with pytest.raises(ValueError):
            ConvolutionalCode(constraint_length=3, generators=(0b111,))


class TestViterbiDecoder:
    def test_decode_clean(self):
        decoder = ViterbiDecoder(K3_RATE_HALF)
        bits = random_bits(100, np.random.default_rng(1))
        coded = K3_RATE_HALF.encode(bits)
        assert np.array_equal(decoder.decode(coded), bits)

    def test_corrects_isolated_errors(self):
        decoder = ViterbiDecoder(K3_RATE_HALF)
        bits = random_bits(100, np.random.default_rng(2))
        coded = K3_RATE_HALF.encode(bits)
        corrupted = coded.copy()
        corrupted[10] ^= 1
        corrupted[60] ^= 1
        corrupted[150] ^= 1
        assert np.array_equal(decoder.decode(corrupted), bits)

    def test_soft_decoding_beats_hard_at_low_snr(self):
        rng = np.random.default_rng(3)
        decoder = ViterbiDecoder(K3_RATE_HALF)
        hard_total = 0
        soft_total = 0
        for trial in range(8):
            bits = random_bits(200, rng)
            coded = K3_RATE_HALF.encode(bits)
            bipolar = 2.0 * coded - 1.0
            noisy = bipolar + rng.normal(0, 0.9, size=bipolar.size)
            hard = (noisy > 0).astype(np.int64)
            hard_total += bit_errors(bits, decoder.decode(hard, soft=False))
            soft_total += bit_errors(bits, decoder.decode(noisy, soft=True))
        assert soft_total <= hard_total

    def test_k7_code_roundtrip(self):
        decoder = ViterbiDecoder(K7_RATE_HALF)
        bits = random_bits(60, np.random.default_rng(4))
        coded = K7_RATE_HALF.encode(bits)
        assert np.array_equal(decoder.decode(coded), bits)

    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    @pytest.mark.parametrize("code", [K3_RATE_HALF, K7_RATE_HALF],
                             ids=["k3", "k7"])
    def test_decode_batch_matches_decode_row_by_row(self, code, soft):
        # Noisy enough that rows carry decoding errors, so the batched
        # tie-breaking and traceback are exercised, not just clean paths.
        rng = np.random.default_rng(8)
        decoder = ViterbiDecoder(code)
        bits = random_bits(6 * 30, rng).reshape(6, 30)
        coded = np.stack([code.encode(row) for row in bits])
        noisy = 2.0 * coded - 1.0 + rng.normal(0.0, 1.0, coded.shape)
        received = noisy if soft else (noisy > 0).astype(np.int64)
        batch = decoder.decode_batch(received, soft=soft)
        for row, decoded in zip(received, batch):
            assert np.array_equal(decoded, decoder.decode(row, soft=soft))

    def test_decode_batch_rejects_a_single_stream(self):
        decoder = ViterbiDecoder(K3_RATE_HALF)
        with pytest.raises(ValueError, match="batch"):
            decoder.decode_batch(np.zeros(8))

    def test_invalid_length_raises(self):
        decoder = ViterbiDecoder(K3_RATE_HALF)
        with pytest.raises(ValueError):
            decoder.decode(np.zeros(7))

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=4,
                    max_size=80))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, bits):
        decoder = ViterbiDecoder(K3_RATE_HALF)
        coded = K3_RATE_HALF.encode(np.asarray(bits, dtype=np.int64))
        assert np.array_equal(decoder.decode(coded),
                              np.asarray(bits, dtype=np.int64))

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=20,
                    max_size=60),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_viterbi_never_worse_than_channel_errors(self, bits, seed):
        """Decoding a corrupted stream should fix at least as much as it breaks
        when the corruption is a single channel bit."""
        bits = np.asarray(bits, dtype=np.int64)
        rng = np.random.default_rng(seed)
        decoder = ViterbiDecoder(K3_RATE_HALF)
        coded = K3_RATE_HALF.encode(bits)
        corrupted = coded.copy()
        corrupted[int(rng.integers(0, coded.size))] ^= 1
        decoded = decoder.decode(corrupted)
        assert bit_errors(bits, decoded) == 0


class TestPacketFraming:
    def _config(self, use_coding=True):
        return PacketConfig(
            preamble=PreambleConfig(sequence_degree=5, num_repetitions=2),
            use_coding=use_coding)

    def test_build_and_parse_roundtrip(self):
        config = self._config()
        builder = PacketBuilder(config)
        parser = PacketParser(config)
        payload = random_bits(64, np.random.default_rng(0))
        packet = builder.build(payload)
        result = parser.parse(packet.body_bits)
        assert result.crc_ok
        assert np.array_equal(result.payload_bits, payload)

    def test_roundtrip_without_coding(self):
        config = self._config(use_coding=False)
        builder = PacketBuilder(config)
        parser = PacketParser(config)
        payload = random_bits(40, np.random.default_rng(1))
        packet = builder.build(payload)
        result = parser.parse(packet.body_bits)
        assert result.crc_ok
        assert np.array_equal(result.payload_bits, payload)

    def test_header_contents(self):
        config = self._config()
        builder = PacketBuilder(config)
        packet = builder.build(random_bits(32, np.random.default_rng(2)),
                               modulation_id=3)
        parser = PacketParser(config)
        result = parser.parse(packet.body_bits)
        assert result.header_payload_length == 32
        assert result.header_modulation_id == 3
        assert result.header_coding_flag == 1

    def test_preamble_length(self):
        config = self._config()
        packet = PacketBuilder(config).build(random_bits(8,
                                                         np.random.default_rng(3)))
        assert packet.preamble_symbols.size == 31 * 2

    def test_body_starts_with_header(self):
        config = self._config()
        packet = PacketBuilder(config).build(np.zeros(16, dtype=np.int64))
        assert packet.body_bits.size >= HEADER_LENGTH_BITS

    def test_corrupted_payload_fails_crc(self):
        config = self._config(use_coding=False)
        builder = PacketBuilder(config)
        parser = PacketParser(config)
        packet = builder.build(random_bits(64, np.random.default_rng(4)))
        corrupted = packet.body_bits.copy()
        corrupted[HEADER_LENGTH_BITS + 5] ^= 1
        result = parser.parse(corrupted)
        assert not result.crc_ok

    def test_coded_packet_survives_sparse_errors(self):
        config = self._config(use_coding=True)
        builder = PacketBuilder(config)
        parser = PacketParser(config)
        payload = random_bits(64, np.random.default_rng(5))
        packet = builder.build(payload)
        corrupted = packet.body_bits.copy()
        corrupted[HEADER_LENGTH_BITS + 3] ^= 1
        corrupted[HEADER_LENGTH_BITS + 40] ^= 1
        result = parser.parse(corrupted)
        assert result.crc_ok
        assert np.array_equal(result.payload_bits, payload)

    def test_parse_many_matches_parse_row_by_row(self):
        # Clean, payload-corrupted, header-corrupted and truncated rows,
        # of two payload lengths, with and without soft values.
        config = self._config()
        builder = PacketBuilder(config)
        parser = PacketParser(config)
        rng = np.random.default_rng(9)
        rows, soft_rows = [], []
        for index in range(8):
            body = builder.build(random_bits(32 if index % 2 else 48,
                                             rng)).body_bits.copy()
            if index == 2:
                body[HEADER_LENGTH_BITS + 7] ^= 1
                body[HEADER_LENGTH_BITS + 9] ^= 1
            if index == 3:
                body[HEADER_LENGTH_BITS + 6:HEADER_LENGTH_BITS + 14] ^= 1
            if index == 4:
                body[3] ^= 1
            if index == 5:
                body = body[:10]
            rows.append(body)
            coded = body[HEADER_LENGTH_BITS:]
            soft_rows.append(None if index % 3 == 0 else
                             2.0 * coded - 1.0
                             + rng.normal(0.0, 0.3, coded.size))
        for soft in (None, soft_rows):
            results = parser.parse_many(rows, soft)
            assert len(results) == len(rows)
            assert not all(result.crc_ok for result in results)
            for index, (row, result) in enumerate(zip(rows, results)):
                expected = parser.parse(
                    row, None if soft is None else soft[index])
                assert result.crc_ok == expected.crc_ok
                assert np.array_equal(result.payload_bits,
                                      expected.payload_bits)
                assert (result.header_payload_length,
                        result.header_modulation_id,
                        result.header_coding_flag) == (
                    expected.header_payload_length,
                    expected.header_modulation_id,
                    expected.header_coding_flag)

    def test_parse_many_needs_one_soft_entry_per_row(self):
        parser = PacketParser(self._config())
        rows = [np.zeros(40, dtype=np.int64)] * 2
        with pytest.raises(ValueError, match="one entry"):
            parser.parse_many(rows, [None])

    def test_num_body_bits_counts_header_and_coded_payload(self):
        config = self._config()
        packet = PacketBuilder(config).build(np.zeros(16, dtype=np.int64))
        # 16 payload + 16 CRC bits, rate-1/2 K=3 code with 2 tail bits.
        assert packet.num_payload_bits == 16
        assert packet.body_bits.size == HEADER_LENGTH_BITS + (32 + 2) * 2

    def test_payload_too_long_raises(self):
        builder = PacketBuilder(self._config())
        with pytest.raises(ValueError):
            builder.build(np.zeros(5000, dtype=np.int64))

    def test_truncated_body_handled(self):
        config = self._config()
        parser = PacketParser(config)
        result = parser.parse(np.zeros(4, dtype=np.int64))
        assert not result.crc_ok
        assert result.payload_bits.size == 0

    @given(st.integers(min_value=0, max_value=200),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip_property(self, num_bits, seed):
        config = self._config()
        payload = random_bits(num_bits, np.random.default_rng(seed))
        packet = PacketBuilder(config).build(payload)
        result = PacketParser(config).parse(packet.body_bits)
        assert result.crc_ok
        assert np.array_equal(result.payload_bits, payload)
