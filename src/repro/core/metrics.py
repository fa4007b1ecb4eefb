"""Result containers and link-quality metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from repro.utils.bits import bit_errors
from repro.utils.validation import require_int

__all__ = [
    "PacketResult",
    "BERPoint",
    "BERCurve",
    "qfunc",
    "theoretical_bpsk_ber",
    "theoretical_ook_ber",
    "theoretical_ppm_ber",
]


def qfunc(x) -> np.ndarray:
    """Gaussian Q-function."""
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def theoretical_bpsk_ber(ebn0_db) -> np.ndarray:
    """Matched-filter BPSK bit error rate in AWGN."""
    ebn0 = 10.0 ** (np.asarray(ebn0_db, dtype=float) / 10.0)
    return qfunc(np.sqrt(2.0 * ebn0))


def theoretical_ook_ber(ebn0_db) -> np.ndarray:
    """On-off keying with an optimal threshold in AWGN."""
    ebn0 = 10.0 ** (np.asarray(ebn0_db, dtype=float) / 10.0)
    return qfunc(np.sqrt(ebn0))


def theoretical_ppm_ber(ebn0_db) -> np.ndarray:
    """Binary orthogonal (PPM) signalling in AWGN."""
    ebn0 = 10.0 ** (np.asarray(ebn0_db, dtype=float) / 10.0)
    return qfunc(np.sqrt(ebn0))


@dataclass(frozen=True)
class PacketResult:
    """Outcome of transmitting and receiving one packet."""

    detected: bool
    crc_ok: bool
    payload_bit_errors: int
    num_payload_bits: int
    timing_error_samples: int
    acquisition_time_s: float
    peak_acquisition_metric: float
    extra: dict = field(default_factory=dict)

    @property
    def packet_success(self) -> bool:
        """A packet counts as delivered when detected and CRC-clean."""
        return self.detected and self.crc_ok


@dataclass(frozen=True)
class BERPoint:
    """One operating point of a BER sweep."""

    ebn0_db: float
    bit_errors: int
    total_bits: int
    packets_sent: int
    packets_failed: int

    @property
    def ber(self) -> float:
        """Measured bit error rate (1.0 when no bits were measured)."""
        if self.total_bits == 0:
            return 1.0
        return self.bit_errors / self.total_bits

    @property
    def per(self) -> float:
        """Measured packet error rate."""
        if self.packets_sent == 0:
            return 1.0
        return self.packets_failed / self.packets_sent

    def merge(self, other: "BERPoint") -> "BERPoint":
        """Pool this measurement with another one of the same operating point.

        Error and packet counts are additive, so independently simulated
        batches (cache chunks, escalated ``num_packets`` runs) combine into
        one tighter estimate.  Raises ``ValueError`` when the Eb/N0 values
        differ — pooling across operating points is a bug, not a merge.
        """
        if not isinstance(other, BERPoint):
            raise TypeError("merge() expects a BERPoint")
        if float(other.ebn0_db) != float(self.ebn0_db):
            raise ValueError(
                f"cannot merge BER points at different operating points "
                f"({self.ebn0_db} dB vs {other.ebn0_db} dB)")
        return BERPoint(
            ebn0_db=self.ebn0_db,
            bit_errors=self.bit_errors + other.bit_errors,
            total_bits=self.total_bits + other.total_bits,
            packets_sent=self.packets_sent + other.packets_sent,
            packets_failed=self.packets_failed + other.packets_failed)

    def to_dict(self) -> dict:
        """Plain-type mapping for JSON persistence (see ``from_dict``)."""
        return {"ebn0_db": float(self.ebn0_db),
                "bit_errors": int(self.bit_errors),
                "total_bits": int(self.total_bits),
                "packets_sent": int(self.packets_sent),
                "packets_failed": int(self.packets_failed)}

    @classmethod
    def from_dict(cls, data: dict) -> "BERPoint":
        """Rebuild a point from :meth:`to_dict` output, validating counts.

        Every count must be an integer: a bool, a string or a float (even
        ``2.0``) is rejected, never truncated.
        """
        try:
            point = cls(ebn0_db=float(data["ebn0_db"]),
                        bit_errors=require_int(data["bit_errors"],
                                               "bit_errors"),
                        total_bits=require_int(data["total_bits"],
                                               "total_bits"),
                        packets_sent=require_int(data["packets_sent"],
                                                 "packets_sent"),
                        packets_failed=require_int(data["packets_failed"],
                                                   "packets_failed"))
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"malformed BER point record: {error}") from None
        if not math.isfinite(point.ebn0_db):
            raise ValueError("malformed BER point record: non-finite ebn0_db")
        if min(point.bit_errors, point.total_bits, point.packets_sent,
               point.packets_failed) < 0:
            raise ValueError("malformed BER point record: negative count")
        if point.bit_errors > point.total_bits:
            raise ValueError("malformed BER point record: more bit errors "
                             "than bits")
        if point.packets_failed > point.packets_sent:
            raise ValueError("malformed BER point record: more failed "
                             "packets than packets sent")
        return point


@dataclass
class BERCurve:
    """A sweep of BER points plus metadata."""

    label: str
    points: list[BERPoint] = field(default_factory=list)

    def add(self, point: BERPoint) -> None:
        """Append a point to the curve."""
        self.points.append(point)

    def ber_values(self) -> np.ndarray:
        """The measured BER values."""
        return np.asarray([p.ber for p in self.points])

    def as_rows(self) -> list[tuple[float, float, float]]:
        """Rows of ``(ebn0_db, ber, per)`` for printing."""
        return [(p.ebn0_db, p.ber, p.per) for p in self.points]


def count_payload_errors(sent_bits, received_bits) -> int:
    """Bit errors between sent and received payloads of possibly unequal length.

    Missing bits count as errors (a truncated payload is not a free pass).
    """
    sent_bits = np.asarray(sent_bits, dtype=np.int64)
    received_bits = np.asarray(received_bits, dtype=np.int64)
    overlap = min(sent_bits.size, received_bits.size)
    errors = bit_errors(sent_bits[:overlap], received_bits[:overlap]) \
        if overlap else 0
    errors += sent_bits.size - overlap
    return int(errors)


__all__.append("count_payload_errors")
