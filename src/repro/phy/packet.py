"""Packet format: preamble + header + payload + CRC.

A minimal but complete framing layer so the end-to-end link simulations
exercise real packets the way the silicon does: the preamble drives
acquisition and channel estimation, the header carries the payload length
and modulation configuration, and a CRC closes the payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.phy.coding import ConvolutionalCode, K3_RATE_HALF, ViterbiDecoder
from repro.phy.crc import CRC, CRC16_CCITT, append_crc, check_crc
from repro.phy.preamble import PreambleConfig, build_preamble_symbols
from repro.phy.scrambler import Scrambler
from repro.utils.bits import bits_to_int, int_to_bits
from repro.utils.validation import require_int

__all__ = ["PacketConfig", "Packet", "PacketBuilder", "PacketParser",
           "HEADER_LENGTH_BITS"]

#: Header: 12-bit payload length (bits), 3-bit modulation id, 1-bit coding flag.
HEADER_LENGTH_BITS = 16


@dataclass(frozen=True)
class PacketConfig:
    """Static configuration shared by the builder and the parser."""

    preamble: PreambleConfig = field(default_factory=PreambleConfig)
    crc: CRC = CRC16_CCITT
    scrambler_seed: int = 0x5B
    code: ConvolutionalCode | None = K3_RATE_HALF
    use_coding: bool = True

    def scrambler(self) -> Scrambler:
        """A fresh scrambler instance with this config's seed."""
        return Scrambler(seed=self.scrambler_seed)


@dataclass(frozen=True)
class Packet:
    """A built packet ready for modulation.

    ``preamble_symbols`` are bipolar (+-1) chips; ``body_bits`` are the
    header plus the (scrambled, coded, CRC-protected) payload bits that the
    modulator maps onto pulses.
    """

    preamble_symbols: np.ndarray
    body_bits: np.ndarray
    payload_bits: np.ndarray
    config: PacketConfig

    @property
    def num_payload_bits(self) -> int:
        return int(self.payload_bits.size)


class PacketBuilder:
    """Assemble packets: scramble, CRC, optionally encode, prepend a header."""

    def __init__(self, config: PacketConfig | None = None) -> None:
        self.config = config if config is not None else PacketConfig()

    def _build_header(self, payload_length_bits: int, modulation_id: int) -> np.ndarray:
        require_int(payload_length_bits, "payload_length_bits", minimum=0)
        require_int(modulation_id, "modulation_id", minimum=0)
        if payload_length_bits >= (1 << 12):
            raise ValueError("payload too long for the 12-bit length field")
        if modulation_id >= (1 << 3):
            raise ValueError("modulation_id must fit in 3 bits")
        coding_flag = 1 if (self.config.use_coding and self.config.code) else 0
        return np.concatenate((
            int_to_bits(payload_length_bits, 12),
            int_to_bits(modulation_id, 3),
            int_to_bits(coding_flag, 1),
        ))

    def build(self, payload_bits, modulation_id: int = 0) -> Packet:
        """Build a packet around ``payload_bits``."""
        payload_bits = np.asarray(payload_bits, dtype=np.int64).ravel()
        if payload_bits.size and not np.all((payload_bits == 0) | (payload_bits == 1)):
            raise ValueError("payload_bits must contain only 0 and 1")

        protected = append_crc(payload_bits, self.config.crc)
        scrambled = self.config.scrambler().scramble(protected)
        if self.config.use_coding and self.config.code is not None:
            body_payload = self.config.code.encode(scrambled, terminate=True)
        else:
            body_payload = scrambled
        header = self._build_header(payload_bits.size, modulation_id)
        body_bits = np.concatenate((header, body_payload))
        preamble_symbols = build_preamble_symbols(self.config.preamble)
        return Packet(preamble_symbols=preamble_symbols,
                      body_bits=body_bits,
                      payload_bits=payload_bits,
                      config=self.config)


@dataclass(frozen=True)
class ParseResult:
    """Outcome of parsing received body bits."""

    payload_bits: np.ndarray
    crc_ok: bool
    header_payload_length: int
    header_modulation_id: int
    header_coding_flag: int


class PacketParser:
    """Recover the payload from received (possibly erroneous) body bits."""

    def __init__(self, config: PacketConfig | None = None) -> None:
        self.config = config if config is not None else PacketConfig()
        self._decoder = (ViterbiDecoder(self.config.code)
                         if self.config.code is not None else None)

    def parse(self, body_bits, soft_values=None) -> ParseResult:
        """Parse received body bits (header + coded payload).

        ``soft_values``, when given, are real-valued reliabilities aligned
        with the *coded payload* portion (positive = bit 1) used for
        soft-decision Viterbi decoding.
        """
        body_bits = np.asarray(body_bits, dtype=np.int64).ravel()
        if body_bits.size < HEADER_LENGTH_BITS:
            return ParseResult(np.zeros(0, dtype=np.int64), False, 0, 0, 0)
        header = body_bits[:HEADER_LENGTH_BITS]
        payload_length = bits_to_int(header[:12])
        modulation_id = bits_to_int(header[12:15])
        coding_flag = int(header[15])
        coded = body_bits[HEADER_LENGTH_BITS:]

        if coding_flag and self._decoder is not None:
            if soft_values is not None:
                soft = np.asarray(soft_values, dtype=float).ravel()
                usable = (soft.size // self.config.code.rate_inverse) \
                    * self.config.code.rate_inverse
                scrambled = self._decoder.decode(soft[:usable], soft=True,
                                                 terminated=True)
            else:
                usable = (coded.size // self.config.code.rate_inverse) \
                    * self.config.code.rate_inverse
                scrambled = self._decoder.decode(coded[:usable], soft=False,
                                                 terminated=True)
        else:
            scrambled = coded

        return self._finish_parse(scrambled, payload_length, modulation_id,
                                  coding_flag)

    def parse_many(self, body_bits_rows,
                   soft_values_rows=None) -> list["ParseResult"]:
        """Parse a batch of received packets, sharing Viterbi trellis passes.

        Each row is parsed to exactly the :class:`ParseResult` that
        :meth:`parse` would return for it; rows whose (possibly corrupted)
        headers imply the same coded length and decision mode are decoded
        together through :meth:`ViterbiDecoder.decode_batch`, which is
        where the per-packet parse spends most of its time.
        ``soft_values_rows`` (optional, one entry per row, entries may be
        ``None``) carries the per-row soft reliabilities :meth:`parse`
        accepts.
        """
        rows = [np.asarray(row, dtype=np.int64).ravel()
                for row in body_bits_rows]
        if soft_values_rows is None:
            soft_values_rows = [None] * len(rows)
        else:
            soft_values_rows = list(soft_values_rows)
            if len(soft_values_rows) != len(rows):
                raise ValueError("soft_values_rows must hold one entry "
                                 "(possibly None) per body-bits row")

        results: list[ParseResult | None] = [None] * len(rows)
        # (soft?, usable coded length) -> list of (row index, decoder input)
        groups: dict[tuple[bool, int], list[tuple[int, np.ndarray]]] = {}
        headers: dict[int, tuple[int, int, int]] = {}
        for index, body_bits in enumerate(rows):
            if body_bits.size < HEADER_LENGTH_BITS:
                results[index] = ParseResult(np.zeros(0, dtype=np.int64),
                                             False, 0, 0, 0)
                continue
            header = body_bits[:HEADER_LENGTH_BITS]
            payload_length = bits_to_int(header[:12])
            modulation_id = bits_to_int(header[12:15])
            coding_flag = int(header[15])
            headers[index] = (payload_length, modulation_id, coding_flag)
            coded = body_bits[HEADER_LENGTH_BITS:]
            if coding_flag and self._decoder is not None:
                soft_values = soft_values_rows[index]
                rate = self.config.code.rate_inverse
                if soft_values is not None:
                    soft = np.asarray(soft_values, dtype=float).ravel()
                    usable = (soft.size // rate) * rate
                    groups.setdefault((True, usable), []).append(
                        (index, soft[:usable]))
                else:
                    usable = (coded.size // rate) * rate
                    groups.setdefault((False, usable), []).append(
                        (index, coded[:usable].astype(float)))
            else:
                results[index] = self._finish_parse(coded, *headers[index])

        for (soft, _usable), members in groups.items():
            batch = np.asarray([entry for _, entry in members])
            decoded = self._decoder.decode_batch(batch, soft=soft,
                                                 terminated=True)
            for (index, _), scrambled in zip(members, decoded):
                results[index] = self._finish_parse(scrambled,
                                                    *headers[index])
        return results

    def _finish_parse(self, scrambled, payload_length: int,
                      modulation_id: int, coding_flag: int) -> "ParseResult":
        """Descramble + CRC-check one packet's decoded stream (the shared
        tail of :meth:`parse` and :meth:`parse_many`)."""
        descrambled = self.config.scrambler().descramble(scrambled)
        expected_protected = payload_length + self.config.crc.width
        if descrambled.size < expected_protected:
            return ParseResult(np.zeros(0, dtype=np.int64), False,
                               payload_length, modulation_id, coding_flag)
        protected = descrambled[:expected_protected]
        crc_ok = check_crc(protected, self.config.crc)
        payload = protected[:payload_length]
        return ParseResult(payload_bits=payload, crc_ok=crc_ok,
                           header_payload_length=payload_length,
                           header_modulation_id=modulation_id,
                           header_coding_flag=coding_flag)


__all__.append("ParseResult")
