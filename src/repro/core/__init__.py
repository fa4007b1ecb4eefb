"""Core transceivers: configs, TX/RX chains, link simulation, adaptation."""

from repro.core.adaptation import (
    AdaptationController,
    ChannelConditions,
    OperatingMode,
)
from repro.core.config import Gen1Config, Gen2Config
from repro.core.link import AcquisitionStatistics, LinkSimulator
from repro.core.metrics import (
    BERCurve,
    BERPoint,
    PacketResult,
    count_payload_errors,
    qfunc,
    theoretical_bpsk_ber,
    theoretical_ook_ber,
    theoretical_ppm_ber,
)
from repro.core.receiver import Gen1Receiver, Gen2Receiver, ReceiveResult
from repro.core.transceiver import Gen1Transceiver, Gen2Transceiver, PacketSimulation
from repro.core.transmitter import Gen1Transmitter, Gen2Transmitter, TransmitOutput

__all__ = [
    "AdaptationController",
    "ChannelConditions",
    "OperatingMode",
    "Gen1Config",
    "Gen2Config",
    "AcquisitionStatistics",
    "LinkSimulator",
    "BERCurve",
    "BERPoint",
    "PacketResult",
    "count_payload_errors",
    "qfunc",
    "theoretical_bpsk_ber",
    "theoretical_ook_ber",
    "theoretical_ppm_ber",
    "Gen1Receiver",
    "Gen2Receiver",
    "ReceiveResult",
    "Gen1Transceiver",
    "Gen2Transceiver",
    "PacketSimulation",
    "Gen1Transmitter",
    "Gen2Transmitter",
    "TransmitOutput",
]
