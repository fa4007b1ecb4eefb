"""Transmitters for both transceiver generations.

A transmitter maps payload bits to a sampled waveform:

``payload bits -> packet (preamble chips + body bits) -> pulse train``

The preamble chips and the body symbols both ride on the same prototype
pulse; the preamble sends one pulse per chip, the body sends
``pulses_per_bit`` identical pulses per (BPSK) bit — the "Pulses per bit"
knob of Fig. 3 that trades data rate for energy per bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import DEFAULT_BAND_PLAN
from repro.core.config import Gen1Config, Gen2Config
from repro.phy.packet import Packet, PacketBuilder
from repro.pulses.modulation import BPSKModulator
from repro.pulses.shapes import (
    Pulse,
    gaussian_derivative_pulse,
    gaussian_pulse,
)
from repro.pulses.train import PulseTrainConfig, PulseTrainGenerator
from repro.utils import dsp

__all__ = ["TransmitOutput", "TransmitBatch", "Gen1Transmitter",
           "Gen2Transmitter"]


@dataclass(frozen=True)
class TransmitOutput:
    """Everything a link simulation needs to know about one transmission."""

    waveform: np.ndarray
    sample_rate_hz: float
    packet: Packet
    pulse: Pulse
    preamble_start_sample: int
    body_start_sample: int
    num_body_symbols: int
    samples_per_symbol: int
    samples_per_chip: int

    @property
    def num_samples(self) -> int:
        """Length of the transmit waveform in samples."""
        return int(self.waveform.size)

    @property
    def duration_s(self) -> float:
        """On-air duration of the transmission."""
        return self.num_samples / self.sample_rate_hz

    def energy_per_body_bit(self) -> float:
        """Average transmitted energy per body (channel) bit."""
        body = self.waveform[self.body_start_sample:
                             self.body_start_sample
                             + self.num_body_symbols * self.samples_per_symbol]
        num_bits = max(self.packet.body_bits.size, 1)
        return dsp.signal_energy(body) / num_bits


@dataclass(frozen=True)
class TransmitBatch:
    """A zero-padded batch of transmissions, one packet per row.

    Produced by :meth:`_PulsedTransmitter.transmit_batch`; row ``i`` of
    ``waveforms`` holds the first ``lengths[i]`` samples of what
    :meth:`_PulsedTransmitter.transmit` would have emitted for packet
    ``i`` (bitwise — the batch synthesis broadcasts the same elementwise
    pulse placement), zero-padded to the widest packet.
    """

    waveforms: np.ndarray
    lengths: np.ndarray
    sample_rate_hz: float
    packets: tuple
    pulse: Pulse
    preamble_start_samples: np.ndarray
    body_start_samples: np.ndarray
    num_body_symbols: int
    samples_per_symbol: int
    samples_per_chip: int
    energies_per_body_bit: np.ndarray

    @property
    def num_packets(self) -> int:
        """Number of transmissions in the batch."""
        return int(self.waveforms.shape[0])


class _PulsedTransmitter:
    """Shared machinery of both generations (they differ only in the pulse)."""

    def __init__(self, config, pulse: Pulse) -> None:
        self.config = config
        self.pulse = pulse
        self.builder = PacketBuilder(config.packet)
        self.modulator = BPSKModulator()
        self._chip_train_config = PulseTrainConfig(
            pulse_repetition_interval_s=config.pulse_repetition_interval_s,
            pulses_per_symbol=1)
        self._bit_train_config = PulseTrainConfig(
            pulse_repetition_interval_s=config.pulse_repetition_interval_s,
            pulses_per_symbol=config.pulses_per_bit)
        self._chip_generator = PulseTrainGenerator(
            pulse, self._chip_train_config, self.modulator)
        self._bit_generator = PulseTrainGenerator(
            pulse, self._bit_train_config, self.modulator)

    @property
    def samples_per_chip(self) -> int:
        """Simulation-rate samples per preamble chip."""
        return self._chip_generator.samples_per_pulse_interval

    @property
    def samples_per_symbol(self) -> int:
        """Simulation-rate samples per body bit."""
        return self._bit_generator.samples_per_symbol

    def transmit(self, payload_bits, lead_in_s: float = 0.0,
                 lead_out_s: float = 0.0,
                 amplitude: float = 1.0) -> TransmitOutput:
        """Build the transmit waveform for one packet.

        ``lead_in_s``/``lead_out_s`` pad the waveform with silence before
        and after the packet (the receiver does not know where the packet
        starts — that is acquisition's job).
        """
        return self._transmit_built(self.builder.build(payload_bits),
                                    lead_in_s=lead_in_s,
                                    lead_out_s=lead_out_s,
                                    amplitude=amplitude)

    def _transmit_built(self, packet, lead_in_s: float = 0.0,
                        lead_out_s: float = 0.0,
                        amplitude: float = 1.0) -> TransmitOutput:
        """:meth:`transmit` for a packet that is already built (so batch
        callers that built packets early never build them twice)."""
        preamble_train = self._chip_generator.generate_from_symbols(
            packet.preamble_symbols)
        body_symbols = self.modulator.modulate(packet.body_bits)
        body_train = self._bit_generator.generate_from_symbols(body_symbols)

        sample_rate = self.pulse.sample_rate_hz
        lead_in = int(round(lead_in_s * sample_rate))
        lead_out = int(round(lead_out_s * sample_rate))
        is_complex = np.iscomplexobj(self.pulse.waveform)
        dtype = complex if is_complex else float
        waveform = np.concatenate((
            np.zeros(lead_in, dtype=dtype),
            preamble_train.waveform.astype(dtype),
            body_train.waveform.astype(dtype),
            np.zeros(lead_out, dtype=dtype),
        )) * amplitude

        return TransmitOutput(
            waveform=waveform,
            sample_rate_hz=sample_rate,
            packet=packet,
            pulse=self.pulse,
            preamble_start_sample=lead_in,
            body_start_sample=lead_in + preamble_train.waveform.size,
            num_body_symbols=int(body_symbols.size),
            samples_per_symbol=self.samples_per_symbol,
            samples_per_chip=self.samples_per_chip,
        )

    def num_transmit_samples(self, packet, lead_in_s: float = 0.0,
                             lead_out_s: float = 0.0) -> int:
        """Sample count :meth:`transmit` would emit for a built packet.

        Lets batched front ends size per-packet random draws (interferer
        symbols, noise samples) *before* any waveform is synthesized —
        the key to consuming seeded streams in per-packet order while the
        synthesis itself runs as one batch.
        """
        sample_rate = self.pulse.sample_rate_hz
        lead_in = int(round(lead_in_s * sample_rate))
        lead_out = int(round(lead_out_s * sample_rate))
        preamble = packet.preamble_symbols.size * self.samples_per_chip
        body = (self.modulator.num_symbols(packet.body_bits.size)
                * self.samples_per_symbol)
        return lead_in + preamble + body + lead_out

    def pulse_grid(self, packets) -> tuple[np.ndarray, np.ndarray]:
        """Built packets as pulse amplitudes on the PRI grid.

        :meth:`transmit` sends a packet as one train of pulses, one
        pulse repetition interval apart: the preamble chips, then
        ``pulses_per_bit`` pulses per body bit.  Row ``i`` of the
        returned ``(packets, pulses)`` amplitudes holds packet ``i``'s
        train, pulse ``k`` starting ``k * samples_per_chip`` samples
        after its lead-in, so ``transmit``'s waveform is
        ``sum_k a_k pulse[n - lead_in - k * samples_per_chip]``.  The
        second array holds each packet's energy per body bit, bitwise
        what :meth:`transmit_batch` reports.  Packets must be built from
        equal-length payloads.
        """
        packets = list(packets)
        chips = self._chip_generator.grid_amplitudes(
            np.stack([packet.preamble_symbols for packet in packets]))
        body_symbols = self.modulator.modulate(np.concatenate(
            [packet.body_bits for packet in packets])).reshape(
                len(packets), -1)
        body = self._bit_generator.grid_amplitudes(body_symbols)
        if chips is None or body is None:
            raise ValueError("the packets' pulses are off the PRI grid")
        # BPSK bodies differ only in their pulse signs, so every packet
        # has the same |body|^2 as the first; summing one synthesized
        # body row reproduces transmit_batch's per-row sums bit for bit.
        body_row = self._bit_generator.generate_batch_from_symbols(
            body_symbols[:1])
        num_bits = max(packets[0].body_bits.size, 1)
        energy = np.sum(np.abs(body_row) ** 2, axis=-1) / num_bits
        return (np.concatenate((chips, body), axis=1),
                np.repeat(energy, len(packets)))

    def transmit_batch(self, payloads, lead_in_s, lead_out_s: float = 0.0,
                       amplitude: float = 1.0,
                       packets=None) -> TransmitBatch:
        """Build a whole batch of transmit waveforms in one array pass.

        The batched form of :meth:`transmit`: ``payloads`` holds one
        equal-length payload per packet and ``lead_in_s`` a scalar or
        per-packet lead-in.  The preamble waveform is synthesized once
        (it is payload-independent) and every body rides through
        :meth:`~repro.pulses.train.PulseTrainGenerator
        .generate_batch_from_symbols`, so row ``i`` of the result is
        bitwise what ``transmit(payloads[i], ...)`` would have produced
        — pinned by the full-stack parity suite.  Configurations the
        grid fast path cannot express (time hopping, position
        modulation) fall back to per-packet synthesis into the same
        container.  ``packets`` may pass packets already built from the
        payloads (callers that needed the lengths early); otherwise they
        are built here.
        """
        payloads = [np.asarray(bits, dtype=np.int64) for bits in payloads]
        num_packets = len(payloads)
        if num_packets == 0:
            raise ValueError("transmit_batch needs at least one payload")
        if packets is None:
            packets = [self.builder.build(bits) for bits in payloads]
        packets = list(packets)
        if len(packets) != num_packets:
            raise ValueError("packets must match payloads one to one")
        sample_rate = self.pulse.sample_rate_hz
        lead_in_s = np.broadcast_to(np.asarray(lead_in_s, dtype=float),
                                    (num_packets,))
        lead_ins = np.rint(lead_in_s * sample_rate).astype(np.int64)
        lead_out = int(round(lead_out_s * sample_rate))

        body_symbol_rows = [self.modulator.modulate(packet.body_bits)
                            for packet in packets]
        num_body_symbols = int(body_symbol_rows[0].size)
        same_shape = (
            all(row.size == num_body_symbols for row in body_symbol_rows)
            and all(np.array_equal(packet.preamble_symbols,
                                   packets[0].preamble_symbols)
                    for packet in packets[1:]))
        body_batch = None
        if same_shape:
            body_batch = self._bit_generator.generate_batch_from_symbols(
                np.stack(body_symbol_rows))
        if body_batch is None:
            # Uneven bodies or a non-grid waveform: synthesize per packet
            # from the already-built packets (identical output, just
            # without the batched multiply).
            outputs = [self._transmit_built(packet, lead_in_s=float(lead),
                                            lead_out_s=lead_out_s,
                                            amplitude=amplitude)
                       for packet, lead in zip(packets, lead_in_s)]
            return self._batch_from_outputs(outputs)

        preamble_wave = self._chip_generator.generate_from_symbols(
            packets[0].preamble_symbols).waveform
        is_complex = np.iscomplexobj(self.pulse.waveform)
        dtype = complex if is_complex else float
        preamble_wave = np.asarray(preamble_wave, dtype=dtype)
        body_batch = np.asarray(body_batch, dtype=dtype)
        if amplitude != 1.0:
            # Scaling by exactly 1.0 is the identity on every float, so
            # the default skips the two full-batch multiply passes.
            preamble_wave = preamble_wave * amplitude
            body_batch = body_batch * amplitude

        preamble_len = preamble_wave.size
        body_len = body_batch.shape[1]
        lengths = lead_ins + preamble_len + body_len + lead_out
        width = int(lengths.max())
        waveforms = np.zeros((num_packets, width), dtype=dtype)
        body_starts = lead_ins + preamble_len
        for index in range(num_packets):
            start = int(lead_ins[index])
            waveforms[index, start:start + preamble_len] = preamble_wave
            body_start = start + preamble_len
            waveforms[index, body_start:body_start + body_len] = \
                body_batch[index]

        num_bits = max(packets[0].body_bits.size, 1)
        energies = np.sum(np.abs(body_batch) ** 2, axis=-1) / num_bits
        return TransmitBatch(
            waveforms=waveforms,
            lengths=lengths,
            sample_rate_hz=sample_rate,
            packets=tuple(packets),
            pulse=self.pulse,
            preamble_start_samples=lead_ins,
            body_start_samples=body_starts,
            num_body_symbols=num_body_symbols,
            samples_per_symbol=self.samples_per_symbol,
            samples_per_chip=self.samples_per_chip,
            energies_per_body_bit=energies,
        )

    def _batch_from_outputs(self, outputs) -> TransmitBatch:
        """Pack per-packet :class:`TransmitOutput` rows into a batch."""
        lengths = np.asarray([output.num_samples for output in outputs],
                             dtype=np.int64)
        width = int(lengths.max())
        is_complex = any(np.iscomplexobj(output.waveform)
                         for output in outputs)
        waveforms = np.zeros((len(outputs), width),
                             dtype=complex if is_complex else float)
        for index, output in enumerate(outputs):
            waveforms[index, :lengths[index]] = output.waveform
        return TransmitBatch(
            waveforms=waveforms,
            lengths=lengths,
            sample_rate_hz=outputs[0].sample_rate_hz,
            packets=tuple(output.packet for output in outputs),
            pulse=self.pulse,
            preamble_start_samples=np.asarray(
                [output.preamble_start_sample for output in outputs],
                dtype=np.int64),
            body_start_samples=np.asarray(
                [output.body_start_sample for output in outputs],
                dtype=np.int64),
            num_body_symbols=outputs[0].num_body_symbols,
            samples_per_symbol=outputs[0].samples_per_symbol,
            samples_per_chip=outputs[0].samples_per_chip,
            energies_per_body_bit=np.asarray(
                [output.energy_per_body_bit() for output in outputs]),
        )


class Gen1Transmitter(_PulsedTransmitter):
    """Carrier-free baseband pulse transmitter (gen 1).

    The pulse is a Gaussian derivative ("monocycle" by default) whose
    spectrum sits below ~1 GHz, matching the baseband chip that needs no
    up-conversion.
    """

    def __init__(self, config: Gen1Config | None = None) -> None:
        config = config if config is not None else Gen1Config()
        pulse = gaussian_derivative_pulse(
            order=config.pulse_order,
            bandwidth_hz=config.pulse_bandwidth_hz,
            sample_rate_hz=config.simulation_rate_hz)
        super().__init__(config, pulse)


class Gen2Transmitter(_PulsedTransmitter):
    """Complex-baseband transmitter for the 3.1-10.6 GHz system (gen 2).

    The waveform is the 500 MHz-bandwidth complex envelope; the sub-band
    centre frequency lives in ``config.channel_index`` and is read from the
    band plan (:meth:`carrier_frequency_hz`), not baked into the samples.
    """

    def __init__(self, config: Gen2Config | None = None) -> None:
        config = config if config is not None else Gen2Config()
        base = gaussian_pulse(bandwidth_hz=config.pulse_bandwidth_hz,
                              sample_rate_hz=config.simulation_rate_hz)
        pulse = Pulse(base.waveform.astype(complex),
                      base.sample_rate_hz, name="gen2_envelope")
        super().__init__(config, pulse)

    def carrier_frequency_hz(self) -> float:
        """Centre frequency of the configured sub-band."""
        return DEFAULT_BAND_PLAN.center_frequency(self.config.channel_index)
