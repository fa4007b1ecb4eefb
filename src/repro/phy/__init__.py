"""PHY layer: preambles, CRC, scrambler, convolutional coding, packet framing."""

from repro.phy.coding import (
    ConvolutionalCode,
    K3_RATE_HALF,
    K7_RATE_HALF,
    ViterbiDecoder,
)
from repro.phy.crc import CRC, CRC16_CCITT, CRC32, append_crc, check_crc
from repro.phy.packet import (
    HEADER_LENGTH_BITS,
    Packet,
    PacketBuilder,
    PacketConfig,
    PacketParser,
    ParseResult,
)
from repro.phy.preamble import (
    PreambleConfig,
    bits_to_bipolar,
    build_preamble_symbols,
    gold_code,
    lfsr_sequence,
    m_sequence,
)
from repro.phy.scrambler import Scrambler

__all__ = [
    "ConvolutionalCode",
    "K3_RATE_HALF",
    "K7_RATE_HALF",
    "ViterbiDecoder",
    "CRC",
    "CRC16_CCITT",
    "CRC32",
    "append_crc",
    "check_crc",
    "HEADER_LENGTH_BITS",
    "Packet",
    "PacketBuilder",
    "PacketConfig",
    "PacketParser",
    "ParseResult",
    "PreambleConfig",
    "bits_to_bipolar",
    "build_preamble_symbols",
    "gold_code",
    "lfsr_sequence",
    "m_sequence",
    "Scrambler",
]
