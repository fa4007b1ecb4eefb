"""Complete transceivers: a transmitter + receiver pair over a channel.

``Gen1Transceiver`` and ``Gen2Transceiver`` wrap the whole TX -> channel ->
RX chain for one packet, which is the unit of work the sweep engine's
``packet`` backend repeats to build BER/PER curves (and
:class:`repro.core.link.LinkSimulator` repeats for acquisition
statistics).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.awgn import awgn, noise_std_for_ebn0
from repro.channel.interference import accepts_rng
from repro.channel.multipath import MultipathChannel
from repro.core.config import Gen1Config, Gen2Config
from repro.core.metrics import PacketResult
from repro.core.receiver import Gen1Receiver, Gen2Receiver, ReceiveResult
from repro.core.transmitter import Gen1Transmitter, Gen2Transmitter, TransmitOutput
from repro.utils.bits import random_bits

__all__ = ["PacketSimulation", "Gen1Transceiver", "Gen2Transceiver"]


@dataclass(frozen=True)
class PacketSimulation:
    """Full record of one simulated packet exchange."""

    transmit: TransmitOutput
    receive: ReceiveResult
    result: PacketResult
    ebn0_db: float | None


class _Transceiver:
    """Shared packet-simulation flow for both generations."""

    def __init__(self, transmitter, receiver, config) -> None:
        self.transmitter = transmitter
        self.receiver = receiver
        self.config = config

    # ------------------------------------------------------------------
    # Channel application helpers
    # ------------------------------------------------------------------
    def _apply_channel(self, waveform, channel: MultipathChannel | None,
                       sample_rate_hz: float) -> np.ndarray:
        if channel is None:
            return np.asarray(waveform)
        return channel.apply(waveform, sample_rate_hz)

    def _apply_impairments(self, waveform, rng: np.random.Generator,
                           decimation: int = 1) -> np.ndarray:
        """Hook for generation-specific analog impairments.

        ``waveform`` holds every ``decimation``-th simulation-rate sample
        of a packet (the batched front end impairs only the samples its
        ADC keeps); the impairments are per sample, so the result is
        those samples of the impaired simulation-rate waveform.
        """
        return np.asarray(waveform)

    # ------------------------------------------------------------------
    # Packet simulation
    # ------------------------------------------------------------------
    def simulate_packet(self, payload_bits=None, num_payload_bits: int = 64,
                        ebn0_db: float | None = 12.0,
                        channel: MultipathChannel | None = None,
                        interferer=None,
                        lead_in_s: float | None = None,
                        rng: np.random.Generator | None = None,
                        monitor_spectrum: bool = False) -> PacketSimulation:
        """Simulate one packet through the configured chain.

        Parameters
        ----------
        payload_bits:
            Explicit payload; when ``None``, ``num_payload_bits`` random
            bits are drawn.
        ebn0_db:
            Eb/N0 of the AWGN added after the (optional) multipath channel,
            referenced to the transmitted energy per body bit.  ``None``
            disables noise.
        channel:
            Optional :class:`MultipathChannel`.
        interferer:
            Optional object with an ``add_to(waveform, sample_rate_hz)``
            method (any of the generators in ``repro.channel.interference``).
        lead_in_s:
            Idle air time before the packet; when ``None``, a random lead-in
            of up to ~25 pulse intervals is drawn so acquisition is
            exercised with an unknown arrival time.
        """
        if rng is None:
            rng = np.random.default_rng()
        if payload_bits is None:
            payload_bits = random_bits(num_payload_bits, rng=rng)
        payload_bits = np.asarray(payload_bits, dtype=np.int64)

        if lead_in_s is None:
            max_lead_chips = 25
            lead_in_s = (float(rng.integers(4, max_lead_chips))
                         * self.config.pulse_repetition_interval_s)

        tx = self.transmitter.transmit(payload_bits, lead_in_s=lead_in_s,
                                       lead_out_s=2e-8)
        sample_rate = tx.sample_rate_hz
        energy_per_bit = tx.energy_per_body_bit()

        waveform = self._apply_channel(tx.waveform, channel, sample_rate)
        waveform = self._apply_impairments(waveform, rng)
        if interferer is not None:
            # Modulated interferers draw random symbols; feed them the
            # packet rng so seeded simulations stay deterministic.
            if accepts_rng(interferer, "add_to"):
                waveform = interferer.add_to(waveform, sample_rate, rng=rng)
            else:
                waveform = interferer.add_to(waveform, sample_rate)
        if ebn0_db is not None:
            noise_std = noise_std_for_ebn0(energy_per_bit, ebn0_db)
            waveform = awgn(waveform, noise_std, rng=rng)

        rx = self.receiver.receive(waveform, rng=rng,
                                   monitor_spectrum=monitor_spectrum)

        true_preamble_start_adc = (tx.preamble_start_sample
                                   // self.config.decimation_factor)
        result = rx.to_packet_result(payload_bits, true_preamble_start_adc)
        return PacketSimulation(transmit=tx, receive=rx, result=result,
                                ebn0_db=ebn0_db)

    def data_rate_bps(self) -> float:
        """Uncoded channel bit rate of the configured waveform."""
        return self.config.data_rate_bps


class Gen1Transceiver(_Transceiver):
    """First-generation baseband pulsed transceiver (Fig. 1)."""

    def __init__(self, config: Gen1Config | None = None,
                 rng: np.random.Generator | None = None) -> None:
        config = config if config is not None else Gen1Config()
        super().__init__(Gen1Transmitter(config), Gen1Receiver(config, rng=rng),
                         config)


class Gen2Transceiver(_Transceiver):
    """Second-generation direct-conversion transceiver (Fig. 3)."""

    def __init__(self, config: Gen2Config | None = None,
                 rng: np.random.Generator | None = None) -> None:
        config = config if config is not None else Gen2Config()
        super().__init__(Gen2Transmitter(config), Gen2Receiver(config, rng=rng),
                         config)

    def _apply_impairments(self, waveform, rng: np.random.Generator,
                           decimation: int = 1) -> np.ndarray:
        """Apply the direct-conversion impairments configured for the link
        (``decimation`` as in the base hook)."""
        config = self.config
        x = np.asarray(waveform, dtype=complex)
        if not config.has_impairments:
            return x
        if abs(config.carrier_frequency_offset_hz) > 0:
            # The sample times of dsp.time_vector, at the kept samples.
            t = (np.arange(0, x.size * decimation, decimation)
                 / config.simulation_rate_hz)
            x = x * np.exp(1j * 2.0 * np.pi
                           * config.carrier_frequency_offset_hz * t)
        if (abs(config.iq_gain_imbalance_db) > 0
                or abs(config.iq_phase_imbalance_deg) > 0):
            gain_error = 10.0 ** (config.iq_gain_imbalance_db / 20.0) - 1.0
            phase_error = np.deg2rad(config.iq_phase_imbalance_deg)
            alpha = 0.5 * (1.0 + (1.0 + gain_error) * np.exp(-1j * phase_error))
            beta = 0.5 * (1.0 - (1.0 + gain_error) * np.exp(1j * phase_error))
            x = alpha * x + beta * np.conj(x)
        if abs(config.dc_offset) > 0:
            x = x + config.dc_offset
        return x
