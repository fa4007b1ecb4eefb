"""Batched (vectorized) Monte-Carlo link kernel.

The legacy :class:`~repro.core.link.LinkSimulator` pushes one packet at a
time through the full transceiver stack — transmitter, channel, AWGN, AGC,
ADC, acquisition, channel estimation, RAKE — which makes wide BER grids
slow.  This module provides the *fast path*: a :class:`BatchedLinkModel`
that carries a leading batch axis end-to-end, so one grid point becomes a
handful of array operations instead of a Python loop:

* packet generation: one ``(packets, bits)`` draw, one modulation call;
* received signal: synthesized directly at the ADC rate.  Every symbol
  starts on an ADC sample, so the noiseless ADC samples are
  ``sum_k a_k g[n - k S]`` with ``g = (template * h)[::decimation]`` the
  channel-convolved symbol response; one Toeplitz matmul per composite
  template builds the whole batch (:meth:`BatchedLinkModel.synthesize`),
  and no simulation-rate (2 GHz) waveform or channel FFT is ever formed;
* energy per bit in closed form, ``sum_k |a_k|^2 ||template||^2 / bits``;
* AWGN: per-packet noise levels, drawn only at the samples the ADC
  keeps, in :func:`repro.channel.awgn.awgn`'s stream order
  (:class:`repro.channel.awgn.RowBlockNoise`);
* ADC: per-packet AGC gains and uniform quantization, then the
  optional digital notch;
* demodulation: a matched-filter correlation over zero-copy strided
  symbol windows against the same ``g`` (the ideal all-finger RAKE).

Bits, symbols, references, energy, noise levels and the interferer
realization are whole-batch host arrays.  Everything per packet runs
one *row block* of packets at a time (about ``2**16`` ADC samples, at
least one packet), while the block is in cache: synthesis, interferer,
noise, AGC, quantizer, notch, matched filter and decisions.  Every one
of those stages is per row and the noise keeps its stream order, so the
block size changes no result; the only batch-size sample array left is
the real noise plane of complex baseband, which the stream order draws
before any imaginary sample.

The golden fixture pins its error counts bit for bit.  Host-side work
(modulator symbol maps, channel ray bookkeeping, the final error count)
is O(packets).

The model is *genie-aided* on the receiver side — symbol timing and the
channel impulse response are known exactly, so there is no acquisition or
channel-estimation loss.  ADC amplitude resolution (AGC + uniform
quantization) and the digital notch are still modelled because they are the
impairments the paper's resolution claims hinge on.  The result matches the
full per-packet simulator within Monte-Carlo tolerance at operating points
where synchronization is reliable, at a fraction of the cost.

When synchronization and estimation losses are the point — the paper's
synchronization cliff, the genie-vs-full-stack BER gap, energy capture
vs RAKE fingers — use the batched *full-stack* sibling instead:
:class:`repro.sim.batch_rx.BatchedFullStackModel`
(``SweepEngine(backend="fullstack")``), which runs the real receiver
chain over the batch axis and is bit-decision-identical to the
per-packet oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sp_signal

from repro.channel.awgn import RowBlockNoise, noise_std_for_ebn0
# Unused here; perfbench's traced mode patches ``repro.sim.batch.awgn``
# by name.
from repro.channel.awgn import awgn  # noqa: F401
from repro.channel.interference import accepts_rng
from repro.channel.multipath import MultipathChannel
from repro.core.config import Gen1Config, Gen2Config
from repro.core.metrics import BERPoint
from repro.pulses.modulation import make_modulator
from repro.pulses.shapes import Pulse, gaussian_derivative_pulse, gaussian_pulse
from repro.sim.backends import NumpyBackend
from repro.utils.validation import require_int

__all__ = ["BatchResult", "BatchedLinkModel", "pulse_for_config"]

_AGC_PEAK_BACKOFF_DB = 1.0
_AGC_FULL_SCALE = 1.0
_NOTCH_POLE_RADIUS = 0.995
# ADC samples per row block of ``simulate`` (at least one row): about a
# megabyte of complex samples, so a block stays in cache from synthesis
# to decisions.  No result depends on it.
_BLOCK_SAMPLES = 1 << 16
_HELPERS = NumpyBackend()


def pulse_for_config(config) -> Pulse:
    """The prototype pulse a configuration's transmitter would use."""
    if isinstance(config, Gen1Config):
        return gaussian_derivative_pulse(
            order=config.pulse_order,
            bandwidth_hz=config.pulse_bandwidth_hz,
            sample_rate_hz=config.simulation_rate_hz)
    if isinstance(config, Gen2Config):
        base = gaussian_pulse(bandwidth_hz=config.pulse_bandwidth_hz,
                              sample_rate_hz=config.simulation_rate_hz)
        return Pulse(base.waveform.astype(complex), base.sample_rate_hz,
                     name="gen2_envelope")
    raise TypeError(f"unsupported configuration type {type(config).__name__}")


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one batched grid point."""

    ebn0_db: float
    bit_errors: int
    total_bits: int
    packets_sent: int
    packets_failed: int
    errors_per_packet: np.ndarray

    @property
    def ber(self) -> float:
        """Measured bit error rate of the batch."""
        if self.total_bits == 0:
            return 1.0
        return self.bit_errors / self.total_bits

    def to_ber_point(self) -> BERPoint:
        """Convert to the BER-curve point container the plots expect."""
        return BERPoint(ebn0_db=self.ebn0_db, bit_errors=self.bit_errors,
                        total_bits=self.total_bits,
                        packets_sent=self.packets_sent,
                        packets_failed=self.packets_failed)


class BatchedLinkModel:
    """Vectorized body-only link model for one transceiver configuration.

    Parameters
    ----------
    config:
        A :class:`Gen1Config` or :class:`Gen2Config`; the pulse shape,
        pulses per bit, sampling rates and ADC resolution are taken from it.
    modulation:
        Any scheme accepted by :func:`repro.pulses.modulation.make_modulator`
        (``"bpsk"``, ``"ook"``, ``"ppm"``, ``"pam4"``, ...).
    quantize:
        Model the AGC + uniform ADC quantization (resolution taken from
        ``config.adc_bits``).  Disable for an ideal infinite-resolution
        receiver, e.g. when checking measured BER against textbook curves.
    notch_frequency_hz:
        When set, a digital single-pole notch at this frequency is applied
        to the quantized samples (the batched equivalent of the spectral
        monitor + digital notch control loop, with a genie frequency
        estimate).
    """

    def __init__(self, config, modulation: str = "bpsk",
                 quantize: bool = True,
                 notch_frequency_hz: float | None = None) -> None:
        self.config = config
        self.modulator = make_modulator(modulation)
        self.quantize = bool(quantize)
        self.notch_frequency_hz = notch_frequency_hz
        self.pulse = pulse_for_config(config)

        self.sim_rate_hz = config.simulation_rate_hz
        self.decimation = config.decimation_factor
        samples_per_pri = int(round(config.pulse_repetition_interval_s
                                    * self.sim_rate_hz))
        if self.pulse.num_samples > samples_per_pri:
            raise ValueError("pulse duration exceeds the pulse repetition "
                             "interval; pulses would overlap")
        self.samples_per_symbol = samples_per_pri * config.pulses_per_bit
        if self.samples_per_symbol % self.decimation != 0:
            raise ValueError("symbol duration must be an integer number of "
                             "ADC sample periods")
        self.samples_per_symbol_adc = self.samples_per_symbol // self.decimation

        # Templates are tiny host arrays; the batch only ever sees their
        # channel-convolved ADC-rate versions (reference_templates).
        template = np.zeros(self.samples_per_symbol,
                            dtype=self.pulse.waveform.dtype)
        for rep in range(config.pulses_per_bit):
            start = rep * samples_per_pri
            template[start:start + self.pulse.num_samples] += self.pulse.waveform
        self.symbol_template = template

        offsets = self.modulator.position_offsets
        if offsets is not None:
            self.position_templates = tuple(
                self._shifted_template(offset) for offset in offsets)
        else:
            self.position_templates = None
        # Sim-rate energy of each composite template (energy_per_bit).
        self._template_energies = tuple(
            float(np.sum(np.abs(t) ** 2)) for t in self._sim_templates)

    def _shifted_template(self, offset_s: float) -> np.ndarray:
        """Host-side symbol template delayed by a PPM position offset."""
        shift = int(round(offset_s * self.sim_rate_hz))
        if shift >= self.samples_per_symbol:
            raise ValueError("position offset exceeds the symbol duration")
        template = np.zeros_like(self.symbol_template)
        keep = self.samples_per_symbol - shift
        template[shift:] = self.symbol_template[:keep]
        return template

    @property
    def _sim_templates(self) -> tuple[np.ndarray, ...]:
        """Sim-rate composite templates: one per PPM position, else one."""
        if self.position_templates is not None:
            return self.position_templates
        return (self.symbol_template,)

    # ------------------------------------------------------------------
    # Transmit side
    # ------------------------------------------------------------------
    def modulate(self, bits: np.ndarray) -> np.ndarray:
        """Map a ``(packets, bits)`` array to per-symbol modulation symbols.

        Runs on the host — the modulator maps are O(packets x symbols),
        negligible next to the O(samples) waveform work.
        """
        bits = np.asarray(bits, dtype=np.int64)
        packets, num_bits = bits.shape
        bps = self.modulator.bits_per_symbol
        if num_bits % bps != 0:
            raise ValueError(f"bits per packet ({num_bits}) must be a "
                             f"multiple of bits_per_symbol ({bps})")
        # Rows stay aligned through the flatten because num_bits % bps == 0.
        symbols = self.modulator.modulate(bits.ravel())
        return symbols.reshape(packets, num_bits // bps)

    def _amplitudes(self, symbols: np.ndarray) -> tuple[np.ndarray, ...]:
        """Host ``(packets, symbols)`` amplitudes, one array per composite
        template: 0/1 indicators per PPM position, else the modulator's
        pulse amplitudes."""
        symbols = np.asarray(symbols)
        if self.position_templates is not None:
            return tuple((symbols == position).astype(float)
                         for position in range(len(self.position_templates)))
        return (self.modulator.symbols_to_amplitudes(
            symbols.ravel()).reshape(symbols.shape),)

    def synthesize(self, symbols: np.ndarray, references):
        """Noiseless received ADC-rate waveforms of a symbol batch.

        ``symbols`` is ``(packets, symbols)``; ``references`` are the
        channel-convolved ADC-rate symbol responses ``g`` from
        :meth:`reference_templates`, one per composite template.  A symbol
        lasts ``S`` whole ADC periods, so the received samples are
        ``sum_k a_k g[n - k S]``.  Cut into ``S``-sample blocks, ``g``
        becomes a ``(blocks, S)`` matrix and every ``S``-sample output
        block is a weighted sum of its rows, so one matmul of a
        ``(packets, symbols + blocks - 1, blocks)`` Toeplitz view of the
        amplitudes against the reversed blocks builds the batch.  The
        result is ``(packets, (symbols - 1) * S + len(g))``: exactly the
        ADC samples of the channel-convolved simulation-rate waveform
        (tail included), which is never built.
        """
        packets, num_symbols = np.shape(symbols)
        step = self.samples_per_symbol_adc
        length = int(references[0].shape[-1])
        blocks = -(-length // step)
        waveform = None
        for amplitudes, reference in zip(self._amplitudes(symbols),
                                         references):
            # Row j of the Toeplitz view holds a_{j-blocks+1} .. a_j.
            padded = np.zeros((packets, num_symbols + 2 * (blocks - 1)))
            padded[:, blocks - 1:blocks - 1 + num_symbols] = amplitudes
            toeplitz = _HELPERS.symbol_windows(
                padded, num_symbols + blocks - 1, 1, blocks)
            kernel = np.zeros(blocks * step, dtype=reference.dtype)
            kernel[:length] = reference
            kernel = np.ascontiguousarray(kernel.reshape(blocks, step)[::-1])
            part = np.matmul(toeplitz, kernel)
            waveform = part if waveform is None else waveform + part
        waveform = waveform.reshape(packets, -1)
        return waveform[:, :(num_symbols - 1) * step + length]

    def energy_per_bit(self, symbols: np.ndarray) -> np.ndarray:
        """Per-packet transmitted energy per bit of a symbol batch (host).

        ``symbols`` is ``(packets, symbols)``.  Same convention as
        ``TransmitOutput.energy_per_body_bit`` (the sim-rate sum of
        squares), in closed form: symbols never overlap at the
        transmitter, so it is ``sum_k |a_k|^2 ||template||^2 / bits``.
        """
        energy = sum(np.sum(np.abs(amplitudes) ** 2, axis=-1) * template
                     for amplitudes, template in zip(
                         self._amplitudes(symbols), self._template_energies))
        return energy / (np.shape(symbols)[1] * self.modulator.bits_per_symbol)

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------
    def _agc_gains(self, samples):
        """Per-packet feed-forward gains, mirroring the receiver's block AGC."""
        peaks = np.max(np.abs(samples), axis=-1)
        target = _AGC_FULL_SCALE * 10.0 ** (-_AGC_PEAK_BACKOFF_DB / 20.0)
        return np.where(peaks > 0, target / np.maximum(peaks, 1e-300), 1.0)

    def _apply_notch(self, samples):
        """Batched complex one-pole notch (same transfer function as
        :class:`repro.dsp.notch.DigitalNotchFilter`)."""
        w0 = (2.0 * np.pi * self.notch_frequency_hz
              / self.config.adc_rate_hz)
        zero = np.exp(1j * w0)
        pole = _NOTCH_POLE_RADIUS * zero
        return sp_signal.lfilter([1.0, -zero], [1.0, -pole],
                                 samples.astype(complex), axis=-1)

    def reference_templates(self, channel: MultipathChannel | None
                            ) -> tuple[np.ndarray, ...]:
        """ADC-rate received symbol responses, one per composite template.

        ``g = (template * h)[::decimation]`` per PPM position (or for the
        single symbol template), ``h`` the channel's sim-rate impulse
        response.  They are both what :meth:`synthesize` sums and the
        matched-filter references of the correlation.  Built on the host
        (template-length convolutions) and returned as host arrays.
        """
        h = (channel.discrete_impulse_response(self.sim_rate_hz)
             if channel is not None else None)
        references = []
        for template in self._sim_templates:
            if h is not None:
                template = np.convolve(template, h, mode="full")
            references.append(template[::self.decimation])
        return tuple(references)

    def _correlate(self, samples, reference, num_symbols: int):
        """Matched-filter statistic of every symbol of every packet."""
        windows = _HELPERS.symbol_windows(
            samples, num_symbols, self.samples_per_symbol_adc,
            int(reference.shape[-1]))
        return np.einsum("psl,l->ps", windows, np.conj(reference))

    # ------------------------------------------------------------------
    # Full grid point
    # ------------------------------------------------------------------
    def simulate(self, ebn0_db: float | None, num_packets: int,
                 payload_bits_per_packet: int,
                 rng: np.random.Generator | None = None,
                 channel: MultipathChannel | None = None,
                 interferer=None) -> BatchResult:
        """Run one Monte-Carlo operating point as one batch, in row blocks.

        ``channel`` is one impulse-response realization applied to the whole
        batch; ``interferer`` is any generator from
        :mod:`repro.channel.interference` (one realization, broadcast to
        every packet).  ``ebn0_db=None`` disables noise.
        """
        require_int(num_packets, "num_packets", minimum=1)
        require_int(payload_bits_per_packet, "payload_bits_per_packet",
                    minimum=1)
        if rng is None:
            rng = np.random.default_rng()

        bits = rng.integers(0, 2, size=(num_packets, payload_bits_per_packet),
                            dtype=np.int64)
        symbols = self.modulate(bits)
        num_symbols = symbols.shape[1]
        references = self.reference_templates(channel)
        reference_energy = np.sum(np.abs(references[0]) ** 2)
        body_adc = (num_symbols - 1) * self.samples_per_symbol_adc + int(
            references[0].shape[-1])

        energy = self.energy_per_bit(symbols)
        positive = energy > 0
        if not np.any(positive):
            raise ValueError("batch transmitted zero energy; cannot set Eb/N0")
        energy = np.where(positive, energy, energy[positive].mean())

        # The IIR notch needs to settle on the interferer before the body
        # arrives (in the full stack the lead-in and preamble provide that
        # time); prepend an interferer-only pad and drop it after filtering.
        pad_adc = 0
        if self.notch_frequency_hz is not None and interferer is not None:
            pad_adc = int(np.ceil(6.0 / (1.0 - _NOTCH_POLE_RADIUS)))
        row_adc = pad_adc + body_adc

        interference = None
        if interferer is not None:
            # One host realization over the whole sim-rate span (pad, body
            # and channel tail), then decimated: decimation commutes with
            # the addition exactly.
            taps = (channel.discrete_impulse_response(self.sim_rate_hz).size
                    if channel is not None else 1)
            span = (pad_adc * self.decimation
                    + num_symbols * self.samples_per_symbol + taps - 1)
            complex_baseband = any(np.iscomplexobj(reference)
                                   for reference in references)
            interference = self._interferer_waveform(
                interferer, span, complex_baseband, rng)[::self.decimation]

        # White noise is i.i.d. per sample, so drawing it only at the
        # samples the ADC keeps is distributionally identical to drawing
        # it at the simulation rate and discarding the rest.  The level
        # still comes from the sim-rate energy.
        noise = None
        if ebn0_db is not None:
            noise = RowBlockNoise(
                (num_packets, row_adc),
                noise_std_for_ebn0(energy, float(ebn0_db))[:, None], rng)

        # Everything per packet runs one row block at a time, while the
        # block is in cache; every stage below is per row (or draws rows
        # in stream order), so the split changes no result.
        rows_per_block = max(1, _BLOCK_SAMPLES // row_adc)
        gains = np.ones(num_packets)
        decision = np.empty((num_packets, num_symbols))
        for start in range(0, num_packets, rows_per_block):
            rows = slice(start, start + rows_per_block)
            samples = self.synthesize(symbols[rows], references)
            if pad_adc:
                pad = np.zeros((samples.shape[0], pad_adc),
                               dtype=samples.dtype)
                samples = np.concatenate((pad, samples), axis=-1)
            if interference is not None:
                samples = samples + interference
            if noise is not None:
                samples = noise.add(samples)
            if self.quantize:
                gains[rows] = self._agc_gains(samples)
                samples *= gains[rows, None]
                samples = _HELPERS.quantize_uniform(
                    samples, bits=self.config.adc_bits,
                    full_scale=_AGC_FULL_SCALE)
            if self.notch_frequency_hz is not None:
                samples = self._apply_notch(samples)
            if pad_adc:
                samples = samples[..., pad_adc:]

            statistics = [self._correlate(samples, reference, num_symbols)
                          for reference in references]
            if self.position_templates is not None:
                # Binary PPM: the modulator expects late-minus-early
                # statistics.
                statistic = np.real(statistics[1] - statistics[0])
            else:
                statistic = np.real(statistics[0])
            norm = gains[rows, None] * reference_energy
            decision[rows] = statistic / np.maximum(norm, 1e-300)

        received = self.modulator.demodulate(
            decision.ravel()).reshape(bits.shape)
        errors_per_packet = np.sum(received != bits, axis=-1)
        packets_failed = int(np.count_nonzero(errors_per_packet))
        return BatchResult(
            ebn0_db=float(ebn0_db) if ebn0_db is not None else float("inf"),
            bit_errors=int(errors_per_packet.sum()),
            total_bits=int(bits.size),
            packets_sent=num_packets,
            packets_failed=packets_failed,
            errors_per_packet=errors_per_packet)

    def _interferer_waveform(self, interferer, num_samples: int,
                             complex_baseband: bool,
                             rng: np.random.Generator) -> np.ndarray:
        """One host-side interferer realization (generators are NumPy code)."""
        if accepts_rng(interferer, "waveform"):
            return interferer.waveform(num_samples, self.sim_rate_hz, rng=rng,
                                       complex_baseband=complex_baseband)
        return interferer.waveform(num_samples, self.sim_rate_hz,
                                   complex_baseband=complex_baseband)
