"""Batched full-stack receiver: the non-genie fast path.

:class:`repro.sim.batch.BatchedLinkModel` is *genie-aided* — symbol timing
and the channel response are known exactly, so it cannot reproduce the
paper's synchronization cliff, the genie-vs-full-stack BER gap, or the
energy-capture-vs-RAKE-finger trade.  Those claims live in the full
receiver chain, which ``backend="packet"`` simulates one packet at a time
through Python loops: coarse acquisition, channel estimation, RAKE
combining and Viterbi decoding dominated every full-stack sweep point.

:class:`BatchedFullStackModel` runs the *same* receiver over a whole
Monte-Carlo batch:

* the transmit/channel/impairment/noise/ADC front half consumes the
  random streams in exactly the per-packet order (seeded parity with
  ``backend="packet"`` is a hard contract, guarded by
  ``tests/sim/test_fullstack_parity.py``) while computing the waveform
  values as whole-batch array passes: batched pulse-train synthesis
  (:meth:`~repro.core.transmitter._PulsedTransmitter.transmit_batch`),
  one broadcast FFT for every packet's multipath channel
  (:func:`~repro.channel.multipath.apply_channels_batch`), batched AGC
  (:meth:`~repro.dsp.agc.AutomaticGainControl.apply_from_peak_batch`)
  and a batched ADC — the gen-2 SAR pair with pre-drawn comparator
  noise, or the gen-1 4-way time-interleaved flash
  (:meth:`~repro.adc.interleaved.TimeInterleavedADC
  .convert_presampled_batch`, slice round-robin preserved exactly).
  Configurations outside both fast paths (e.g. a closed-loop digital
  notch) keep the per-packet front-end loop, whose parity is immediate;
* everything downstream of the ADC is batched: one correlation plane for
  acquisition (:meth:`~repro.dsp.acquisition.CoarseAcquisition
  .acquire_batch`), one einsum for channel estimation
  (:meth:`~repro.dsp.channel_estimation.ChannelEstimator
  .estimate_averaged_batch`), one gather/einsum for RAKE combining
  (:func:`~repro.dsp.rake.combine_streams_batch`) and one trellis pass
  per coded length for Viterbi decoding
  (:meth:`~repro.phy.coding.ViterbiDecoder.decode_batch` via
  :meth:`~repro.phy.packet.PacketParser.parse_many`).

The full-stack fast path shares the shared-memory fan-out and
``repro.runs`` caching the genie kernel already has.  Bit decisions are
identical to the per-packet loop; intermediate floats can differ at
rounding level (batched FFT widths and einsum reduction orders), which is
why the parity suite pins *decisions* and the golden fixture pins the
batched path's own numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adc.interleaved import TimeInterleavedADC
from repro.adc.sar import QuadratureSARADC
from repro.channel.awgn import awgn, noise_std_for_ebn0
from repro.channel.interference import accepts_rng
from repro.channel.multipath import apply_channels_batch
from repro.core.metrics import BERPoint
from repro.core.receiver import Gen1Receiver, Gen2Receiver, ReceiveResult
from repro.dsp.acquisition import BatchedAcquisitionResult
from repro.dsp.channel_estimation import BatchedChannelEstimate
from repro.dsp.rake import RakeReceiver, combine_streams_batch, finger_arrays
from repro.dsp.viterbi import MLSEEqualizer, equalize_to_bits_batch
from repro.obs.recorder import active
from repro.phy.packet import HEADER_LENGTH_BITS
from repro.utils.bits import random_bits
from repro.utils.validation import require_int

__all__ = ["FullStackBatchResult", "BatchedFullStackModel"]


@dataclass(frozen=True)
class FullStackBatchResult:
    """Outcome of one batched full-stack grid point.

    Scalar aggregates mirror :class:`repro.sim.batch.BatchResult`; the
    batched records (``acquisition``, ``channel_estimates``) and the
    per-packet :class:`ReceiveResult`/:class:`PacketResult` views expose
    everything the per-packet loop would have produced.
    """

    ebn0_db: float
    bit_errors: int
    total_bits: int
    packets_sent: int
    packets_failed: int
    errors_per_packet: np.ndarray
    acquisition: BatchedAcquisitionResult = field(repr=False, default=None)
    channel_estimates: BatchedChannelEstimate = field(repr=False,
                                                      default=None)
    packet_results: tuple = field(repr=False, default=())
    receive_results: tuple = field(repr=False, default=())

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


class BatchedFullStackModel:
    """Batched TX -> channel -> full-RX chain for one transceiver.

    Parameters
    ----------
    transceiver:
        A :class:`~repro.core.transceiver.Gen1Transceiver` or
        :class:`~repro.core.transceiver.Gen2Transceiver`; its transmitter,
        receiver (including the hardware-seeded ADC instance) and
        configuration are used directly, so the batch shares every
        modelling choice with ``simulate_packet``.
    """

    def __init__(self, transceiver) -> None:
        self.transceiver = transceiver
        self.receiver = transceiver.receiver
        self.config = transceiver.config
        notch = bool(getattr(self.config, "enable_digital_notch", False))
        # Which batched front half (if any) this stack supports: the gen-2
        # direct-conversion SAR pair or the gen-1 interleaved flash.  A
        # closed-loop notch feeds back per packet, so it pins the loop.
        self._gen2_batched_front = (isinstance(self.receiver, Gen2Receiver)
                                    and isinstance(self.receiver.adc,
                                                   QuadratureSARADC)
                                    and not notch)
        self._gen1_batched_front = (isinstance(self.receiver, Gen1Receiver)
                                    and isinstance(self.receiver.adc,
                                                   TimeInterleavedADC)
                                    and not notch)

    # ------------------------------------------------------------------
    # Batched receive (shared waveforms in, per-packet results out)
    # ------------------------------------------------------------------
    def receive_batch(self, waveforms,
                      rng: np.random.Generator | None = None,
                      monitor_spectrum: bool = False) -> list[ReceiveResult]:
        """Receive a set of simulation-rate waveforms as one batch.

        Equivalent to ``[receiver.receive(w, rng=rng) for w in waveforms]``
        — same bit decisions packet for packet, with the ADC consuming the
        ``rng`` stream in the same per-packet order — but the DSP back
        half runs batched, and on the gen-1 stack (whose interleaved
        flash draws no conversion randomness) the AGC + ADC front half
        batches too.  Waveforms may have different lengths (packets carry
        random lead-ins and channel tails).
        """
        if rng is None:
            rng = np.random.default_rng()
        receiver = self.receiver
        if self._gen1_batched_front and not monitor_spectrum:
            waveform_rows = [np.asarray(waveform) for waveform in waveforms]
            samples_rows = self._gen1_samples_from_waveforms(waveform_rows)
            reports = [None] * len(samples_rows)
        else:
            samples_rows = []
            reports = []
            for waveform in waveforms:
                samples, report = receiver.frontend_samples(
                    waveform, rng=rng, monitor_spectrum=monitor_spectrum)
                samples_rows.append(np.asarray(samples))
                reports.append(report)
        results, _, _ = self._receive_samples_batch(samples_rows, reports)
        return results

    def _gen1_samples_from_waveforms(self, waveform_rows):
        """Gen-1 analog-to-codes front half, batched over packets.

        Decimate -> per-row peak AGC -> batched interleaved-flash
        conversion: the batched equivalent of looping
        :meth:`~repro.core.receiver._PulsedReceiver.frontend_samples`,
        sample-identical per packet because the rows are processed on
        their own lengths (trailing zero padding never moves a peak and
        never shifts the slice round-robin, which counts from index 0 of
        every row).  Returns the per-packet quantized ADC-rate streams.
        """
        lengths = np.asarray([row.size for row in waveform_rows],
                             dtype=np.int64)
        if lengths.size == 0:
            return []
        width = int(lengths.max())
        is_complex = any(np.iscomplexobj(row) for row in waveform_rows)
        batch = np.zeros((len(waveform_rows), width),
                         dtype=complex if is_complex else float)
        for index, row in enumerate(waveform_rows):
            batch[index, :row.size] = row
        return self._gen1_samples_from_rows(batch, lengths)

    def _receive_samples_batch(self, samples_rows, reports):
        """The batched DSP back half: ADC streams in, per-packet results
        plus the batched acquisition/estimate records out."""
        receiver = self.receiver
        config = self.config
        num_packets = len(samples_rows)
        if num_packets == 0:
            return [], None, None
        lengths = np.asarray([row.size for row in samples_rows],
                             dtype=np.int64)
        width = int(lengths.max())
        is_complex = any(np.iscomplexobj(row) for row in samples_rows)
        batch = np.zeros((num_packets, width),
                         dtype=complex if is_complex else float)
        for index, row in enumerate(samples_rows):
            batch[index, :row.size] = row

        with active().span("rx.acquisition", packets=num_packets):
            acquisition = receiver.acquisition.acquire_batch(
                batch, valid_lengths=lengths)
        results: list[ReceiveResult | None] = [None] * num_packets
        detected = np.nonzero(acquisition.detected)[0]
        for index in np.nonzero(~acquisition.detected)[0]:
            results[index] = ReceiveResult(
                acquisition=acquisition.result_for(index),
                channel_estimate=None,
                payload_bits=np.zeros(0, dtype=np.int64), crc_ok=False,
                body_bits=np.zeros(0, dtype=np.int64),
                statistics=np.zeros(0),
                interferer_report=reports[index])
        if detected.size == 0:
            return results, acquisition, None

        timing = acquisition.timing_offset_samples[detected]
        with active().span("rx.chanest", packets=int(detected.size)):
            estimates = receiver.channel_estimator.estimate_averaged_batch(
                batch[detected], timing, config.adc_rate_hz,
                num_repetitions=config.packet.preamble.num_repetitions,
                valid_lengths=lengths[detected])
        rakes = [RakeReceiver(estimates.estimate_for(slot),
                              num_fingers=getattr(config, "rake_fingers", 1),
                              policy=getattr(config, "rake_policy", "srake"))
                 for slot in range(detected.size)]
        delays, weights = finger_arrays(rakes)

        template = receiver.symbol_template
        template_energy = float(np.sum(np.abs(template) ** 2))
        normalization = np.asarray([
            max(template_energy
                * float(np.sum(np.abs(rake.combining_weights()) ** 2)),
                1e-30)
            for rake in rakes])
        period = receiver.samples_per_symbol
        body_start = timing + receiver.preamble_length_samples

        with active().span("rx.rake", packets=int(detected.size),
                           part="header"):
            header_stats = combine_streams_batch(
                batch[detected], delays, weights, template, period,
                body_start, HEADER_LENGTH_BITS,
                valid_lengths=lengths[detected]) / normalization[:, None]
        header_bits = (np.real(header_stats) > 0).astype(np.int64)

        # How much payload each packet's (possibly corrupted) header
        # implies, capped by what the capture actually holds.
        available = (lengths[detected] - body_start
                     - HEADER_LENGTH_BITS * period)
        remaining = np.asarray(
            [int(min(receiver._coded_payload_bit_count(header_bits[slot]),
                     max(int(available[slot]) // period, 0)))
             for slot in range(detected.size)], dtype=np.int64)

        payload_stats_rows: list[np.ndarray] = [
            np.zeros(0, dtype=complex)] * detected.size
        payload_start = body_start + HEADER_LENGTH_BITS * period
        for count in np.unique(remaining):
            if count <= 0:
                continue
            group = np.nonzero(remaining == count)[0]
            with active().span("rx.rake", packets=int(group.size),
                               part="payload"):
                stats = combine_streams_batch(
                    batch[detected[group]], delays[group], weights[group],
                    template, period, payload_start[group], int(count),
                    valid_lengths=lengths[detected[group]]
                ) / normalization[group, None]
            for row, slot in enumerate(group):
                payload_stats_rows[slot] = stats[row]

        use_mlse = bool(getattr(config, "use_mlse", False))
        coded_rows: list[np.ndarray] = [None] * detected.size
        soft_rows: list[np.ndarray | None] = [None] * detected.size
        statistics_rows: list[np.ndarray] = []
        mlse_slots: list[int] = []
        mlse_equalizers: list[MLSEEqualizer] = []
        for slot in range(detected.size):
            payload_stats = payload_stats_rows[slot]
            statistics_rows.append(np.concatenate((header_stats[slot],
                                                   payload_stats)))
            if use_mlse and payload_stats.size:
                isi = rakes[slot].isi_taps(
                    period,
                    max_symbol_taps=getattr(config, "mlse_max_taps", 3))
                if isi.size > 1:
                    mlse_slots.append(slot)
                    mlse_equalizers.append(
                        MLSEEqualizer(isi, alphabet=(-1.0, 1.0)))
                else:
                    coded_rows[slot] = (np.real(payload_stats)
                                        > 0).astype(np.int64)
            else:
                coded_rows[slot] = (np.real(payload_stats)
                                    > 0).astype(np.int64)
                soft_rows[slot] = np.real(payload_stats)
        if mlse_slots:
            with active().span("rx.viterbi", packets=len(mlse_slots),
                               part="mlse"):
                equalized = equalize_to_bits_batch(
                    mlse_equalizers,
                    [payload_stats_rows[slot] for slot in mlse_slots])
            for slot, coded in zip(mlse_slots, equalized):
                coded_rows[slot] = coded
        body_bits_rows = [
            np.concatenate((header_bits[slot], coded_rows[slot]))
            for slot in range(detected.size)]

        with active().span("rx.viterbi", packets=int(detected.size),
                           part="parse"):
            parses = receiver.parser.parse_many(body_bits_rows, soft_rows)
        for slot, index in enumerate(detected):
            results[index] = ReceiveResult(
                acquisition=acquisition.result_for(index),
                channel_estimate=estimates.estimate_for(slot),
                payload_bits=parses[slot].payload_bits,
                crc_ok=parses[slot].crc_ok,
                body_bits=body_bits_rows[slot],
                statistics=statistics_rows[slot],
                interferer_report=reports[index])
        return results, acquisition, estimates

    # ------------------------------------------------------------------
    # Front ends: analog chain + ADC, per-packet random-stream order
    # ------------------------------------------------------------------
    def _frontend_per_packet(self, ebn0_db, num_packets: int,
                             payload_bits_per_packet: int, rng,
                             make_channel, make_interferer, lead_in_s):
        """Reference front half: loop ``simulate_packet``'s TX/channel/
        noise/ADC flow one packet at a time (trivially stream-faithful)."""
        transceiver = self.transceiver
        receiver = self.receiver
        config = self.config
        decimation = config.decimation_factor
        payloads, true_starts, samples_rows, reports = [], [], [], []
        for _ in range(num_packets):
            channel = make_channel() if make_channel is not None else None
            interferer = (make_interferer() if make_interferer is not None
                          else None)
            payload = random_bits(payload_bits_per_packet, rng=rng)
            if lead_in_s is None:
                packet_lead_in_s = (float(rng.integers(4, 25))
                                    * config.pulse_repetition_interval_s)
            else:
                packet_lead_in_s = lead_in_s
            tx = transceiver.transmitter.transmit(
                payload, lead_in_s=packet_lead_in_s, lead_out_s=2e-8)
            waveform = transceiver._apply_channel(tx.waveform, channel,
                                                  tx.sample_rate_hz)
            waveform = transceiver._apply_impairments(waveform, rng)
            if interferer is not None:
                if accepts_rng(interferer, "add_to"):
                    waveform = interferer.add_to(waveform, tx.sample_rate_hz,
                                                 rng=rng)
                else:
                    waveform = interferer.add_to(waveform, tx.sample_rate_hz)
            if ebn0_db is not None:
                noise_std = noise_std_for_ebn0(tx.energy_per_body_bit(),
                                               ebn0_db)
                waveform = awgn(waveform, noise_std, rng=rng)
            samples, report = receiver.frontend_samples(waveform, rng=rng)
            payloads.append(payload)
            true_starts.append(tx.preamble_start_sample // decimation)
            samples_rows.append(np.asarray(samples))
            reports.append(report)
        return samples_rows, reports, payloads, true_starts

    def _phase1_draws(self, ebn0_db, num_packets: int,
                      payload_bits_per_packet: int, rng,
                      make_channel, make_interferer, lead_in_s,
                      complex_waveform, draw_noise, draw_adc_noise=None):
        """Timed wrapper over :meth:`_phase1_draws_impl` (the
        ``rx.synthesis`` telemetry stage: draws + batched TX synthesis).
        """
        with active().span("rx.synthesis", packets=int(num_packets)):
            return self._phase1_draws_impl(
                ebn0_db, num_packets, payload_bits_per_packet, rng,
                make_channel, make_interferer, lead_in_s,
                complex_waveform, draw_noise, draw_adc_noise)

    def _phase1_draws_impl(self, ebn0_db, num_packets: int,
                           payload_bits_per_packet: int, rng,
                           make_channel, make_interferer, lead_in_s,
                           complex_waveform, draw_noise,
                           draw_adc_noise=None):
        """Phase 1 of both batched front halves: every random draw, in
        exactly the per-packet order the packet oracle performs them.

        Per packet: channel and interferer realization, payload bits,
        lead-in, interferer symbols (by the ``add_to == signal +
        waveform(...)`` convention every built-in rng-consuming
        interferer follows), then the generation-specific noise draws —
        all sized from :meth:`~repro.core.transmitter._PulsedTransmitter
        .num_transmit_samples` before any waveform exists.  This draw
        order is the parity contract with ``backend="packet"``, so it
        lives in exactly one place; the generation hooks only decide
        *what* is drawn, never *when*:

        ``complex_waveform(channel)``
            whether this packet's analog waveform is complex (drives the
            interferer's ``complex_baseband`` flag and the noise shape);
        ``draw_noise(rng, num_samples, is_complex)``
            the AWGN draw(s) for one packet (skipped when ``ebn0_db`` is
            ``None``);
        ``draw_adc_noise(rng, num_adc_samples)``
            optional converter-noise draw (the gen-2 SAR comparator
            pair; gen 1 draws none).

        Returns ``(tx_batch, payloads, channels, interferers,
        interferer_waves, complex_rows, noise_draws, adc_noise)`` with
        the transmit waveforms already synthesized as one batch.
        """
        transmitter = self.transceiver.transmitter
        config = self.config
        decimation = config.decimation_factor
        sample_rate = config.simulation_rate_hz

        payloads, packets, lead_ins_s = [], [], []
        channels, interferers, interferer_waves = [], [], []
        complex_rows, noise_draws, adc_noise = [], [], []
        for _ in range(num_packets):
            channel = make_channel() if make_channel is not None else None
            interferer = (make_interferer() if make_interferer is not None
                          else None)
            payload = random_bits(payload_bits_per_packet, rng=rng)
            if lead_in_s is None:
                packet_lead_in_s = (float(rng.integers(4, 25))
                                    * config.pulse_repetition_interval_s)
            else:
                packet_lead_in_s = lead_in_s
            packet = transmitter.builder.build(payload)
            num_samples = transmitter.num_transmit_samples(
                packet, lead_in_s=packet_lead_in_s, lead_out_s=2e-8)
            is_complex = bool(complex_waveform(channel))
            interferer_wave = None
            if interferer is not None and accepts_rng(interferer, "add_to"):
                interferer_wave = interferer.waveform(
                    num_samples, sample_rate, rng=rng,
                    complex_baseband=is_complex)
            noise_draws.append(None if ebn0_db is None
                               else draw_noise(rng, num_samples, is_complex))
            if draw_adc_noise is not None:
                adc_noise.append(
                    draw_adc_noise(rng, -(-num_samples // decimation)))
            payloads.append(payload)
            packets.append(packet)
            lead_ins_s.append(packet_lead_in_s)
            channels.append(channel)
            interferers.append(interferer)
            interferer_waves.append(interferer_wave)
            complex_rows.append(is_complex)

        tx_batch = transmitter.transmit_batch(payloads, lead_ins_s,
                                              lead_out_s=2e-8,
                                              packets=packets)
        return (tx_batch, payloads, channels, interferers, interferer_waves,
                complex_rows, noise_draws, adc_noise)

    def _channel_batch(self, channels, tx_batch):
        """Phase-2 channel pass over the transmit batch, copy-safe.

        :func:`apply_channels_batch` returns its input array when no row
        has a channel; the later interference/noise adds write in place,
        so that case copies first — the (frozen) ``tx_batch`` must keep
        its clean transmit waveforms.
        """
        with active().span("rx.channel_fft",
                           packets=int(tx_batch.waveforms.shape[0])):
            batch = apply_channels_batch(channels, tx_batch.waveforms,
                                         self.config.simulation_rate_hz,
                                         valid_lengths=tx_batch.lengths)
        if batch is tx_batch.waveforms:
            batch = batch.copy()
        return batch

    def _frontend_batched_gen2(self, ebn0_db, num_packets: int,
                               payload_bits_per_packet: int, rng,
                               make_channel, make_interferer, lead_in_s):
        """Batched gen-2 front half.

        Phase 1 (:meth:`_phase1_draws`) performs every random draw in
        exactly the per-packet order — payload bits, lead-in, interferer
        symbols, the AWGN I/Q pair, SAR comparator noise — while phase 2
        computes the waveform values as whole-batch array operations:
        one batched pulse-train synthesis, one FFT pass for every
        packet's channel, one SAR search for every packet's I/Q streams.
        Post-ADC streams match the per-packet front end bit for bit
        except at exact quantizer code boundaries (probability ~0 under
        continuous noise).
        """
        transceiver = self.transceiver
        receiver = self.receiver
        config = self.config
        decimation = config.decimation_factor
        sample_rate = config.simulation_rate_hz
        sqrt2 = np.sqrt(2.0)

        def draw_noise(rng, num_samples, is_complex):
            return (rng.standard_normal(num_samples),
                    rng.standard_normal(num_samples))

        def draw_adc_noise(rng, num_adc):
            return (receiver.adc.i_adc.draw_comparator_noise(rng,
                                                             (num_adc,)),
                    receiver.adc.q_adc.draw_comparator_noise(rng,
                                                             (num_adc,)))

        (tx_batch, payloads, channels, interferers, interferer_waves,
         _complex_rows, noise_pairs, adc_noise) = self._phase1_draws(
            ebn0_db, num_packets, payload_bits_per_packet, rng,
            make_channel, make_interferer, lead_in_s,
            complex_waveform=lambda channel: True,
            draw_noise=draw_noise, draw_adc_noise=draw_adc_noise)

        lengths = tx_batch.lengths
        true_starts = [int(start) // decimation
                       for start in tx_batch.preamble_start_samples]
        batch = self._channel_batch(channels, tx_batch)

        for index in range(num_packets):
            valid = slice(0, int(lengths[index]))
            if config.has_impairments:
                batch[index, valid] = transceiver._apply_impairments(
                    batch[index, valid], rng)
            if interferer_waves[index] is not None:
                batch[index, valid] += interferer_waves[index]
            elif interferers[index] is not None:
                batch[index, valid] = interferers[index].add_to(
                    batch[index, valid], sample_rate)
            if noise_pairs[index] is not None:
                noise_std = noise_std_for_ebn0(
                    float(tx_batch.energies_per_body_bit[index]), ebn0_db)
                in_phase, quadrature = noise_pairs[index]
                batch[index, valid] += ((in_phase + 1j * quadrature)
                                        * (noise_std / sqrt2))

        # Decimate -> block AGC -> SAR pair, batched (the per-packet
        # equivalents are frontend_samples' decimate/apply_from_peak/
        # _digitize with full_scale 1.0 and 1 dB peak backoff).
        decimated = batch[:, ::decimation]
        adc_lengths = -(-lengths // decimation)
        scaled, _gains = receiver.agc.apply_from_peak_batch(
            decimated, full_scale=1.0, peak_backoff_db=1.0)

        bits = receiver.adc.bits
        adc_width = int(scaled.shape[1])

        def _stack_noise(side: int) -> np.ndarray | None:
            # Each SAR path draws (or not) independently of the other, so
            # an asymmetric pair — noisy I comparator, ideal Q — still
            # injects exactly the pre-drawn per-packet streams.
            if adc_noise[0][side] is None:
                return None
            stacked = np.zeros((bits, num_packets, adc_width))
            for index, drawn in enumerate(adc_noise):
                stacked[:, index, :drawn[side].shape[-1]] = drawn[side]
            return stacked

        samples_batch = receiver.adc.convert(scaled,
                                             noise_i=_stack_noise(0),
                                             noise_q=_stack_noise(1))
        samples_rows = [samples_batch[index, :adc_lengths[index]]
                        for index in range(num_packets)]
        return samples_rows, [None] * num_packets, payloads, true_starts

    def _frontend_batched_gen1(self, ebn0_db, num_packets: int,
                               payload_bits_per_packet: int, rng,
                               make_channel, make_interferer, lead_in_s):
        """Batched gen-1 front half (4 GHz sim-rate carrier-free chain).

        The same two-phase discipline as the gen-2 front
        (:meth:`_phase1_draws`): phase 1 makes every random draw in
        per-packet order — payload bits, lead-in, interferer symbols,
        AWGN noise (*one* real stream per packet, or an I/Q pair when a
        complex-gain channel promotes the waveform, exactly the draws
        :func:`~repro.channel.awgn.awgn` would make) — and phase 2 runs
        the waveform math batched: one pulse-train synthesis pass, one
        broadcast FFT over every packet's real multipath kernel, batched
        peak AGC and the batched 4-way interleaved-flash conversion.
        The gen-1 interleaved flash draws no conversion randomness (its
        mismatches are frozen at construction), so there is no ADC-noise
        phase.  Post-ADC streams match the per-packet front end bit for
        bit except at exact flash threshold crossings (probability ~0
        under continuous noise).
        """
        config = self.config
        sample_rate = config.simulation_rate_hz
        sqrt2 = np.sqrt(2.0)

        def complex_waveform(channel):
            # A complex-gain channel promotes this packet's real waveform
            # to complex, which changes every later dtype-sensitive step
            # (interferer tone vs complex exponential, one noise stream
            # vs an I/Q pair) — track it per packet.
            return channel is not None and np.iscomplexobj(channel.gains)

        def draw_noise(rng, num_samples, is_complex):
            if is_complex:
                return (rng.standard_normal(num_samples),
                        rng.standard_normal(num_samples))
            return rng.standard_normal(num_samples)

        (tx_batch, payloads, channels, interferers, interferer_waves,
         complex_rows, noise_draws, _adc_noise) = self._phase1_draws(
            ebn0_db, num_packets, payload_bits_per_packet, rng,
            make_channel, make_interferer, lead_in_s,
            complex_waveform=complex_waveform, draw_noise=draw_noise)

        lengths = tx_batch.lengths
        decimation = config.decimation_factor
        true_starts = [int(start) // decimation
                       for start in tx_batch.preamble_start_samples]
        batch = self._channel_batch(channels, tx_batch)
        batch_is_complex = np.iscomplexobj(batch)

        # Gen-1 has no analog impairment hook (``_apply_impairments`` is
        # the identity), so phase 2 goes straight to interference+noise.
        for index in range(num_packets):
            valid = slice(0, int(lengths[index]))
            if interferer_waves[index] is not None:
                batch[index, valid] += interferer_waves[index]
            elif interferers[index] is not None:
                if batch_is_complex and not complex_rows[index]:
                    # The batch was promoted by *other* rows' channels;
                    # this packet is still logically real (zero imag), so
                    # feed add_to the real view to keep the per-packet
                    # tone real, not a complex exponential.
                    batch[index, valid] = interferers[index].add_to(
                        np.real(batch[index, valid]), sample_rate)
                else:
                    batch[index, valid] = interferers[index].add_to(
                        batch[index, valid], sample_rate)
            if noise_draws[index] is None:
                continue
            noise_std = noise_std_for_ebn0(
                float(tx_batch.energies_per_body_bit[index]), ebn0_db)
            if complex_rows[index]:
                in_phase, quadrature = noise_draws[index]
                batch[index, valid] += ((in_phase + 1j * quadrature)
                                        * (noise_std / sqrt2))
            else:
                batch[index, valid] += noise_std * noise_draws[index]

        samples_rows = self._gen1_samples_from_rows(batch, lengths)
        return samples_rows, [None] * num_packets, payloads, true_starts

    def _gen1_samples_from_rows(self, batch, lengths):
        """Shared gen-1 decimate -> AGC -> interleaved-flash batch tail."""
        receiver = self.receiver
        decimation = self.config.decimation_factor
        decimated = batch[:, ::decimation]
        adc_lengths = -(-np.asarray(lengths, dtype=np.int64) // decimation)
        scaled, _gains = receiver.agc.apply_from_peak_batch(
            decimated, full_scale=1.0, peak_backoff_db=1.0)
        samples_batch = receiver.adc.convert_presampled_batch(np.real(scaled))
        return [samples_batch[index, :adc_lengths[index]]
                for index in range(batch.shape[0])]

    # ------------------------------------------------------------------
    # Full Monte-Carlo grid point
    # ------------------------------------------------------------------
    def simulate(self, ebn0_db: float | None, num_packets: int,
                 payload_bits_per_packet: int,
                 rng: np.random.Generator | None = None,
                 make_channel=None, make_interferer=None,
                 lead_in_s: float | None = None) -> FullStackBatchResult:
        """Run one full-stack Monte-Carlo operating point as a batch.

        The per-packet flow — payload draw, random lead-in, channel and
        interferer realization, AWGN, ADC conversion — consumes ``rng``
        (and the factories' own generators) in exactly the order
        ``Transceiver.simulate_packet`` would, so a seeded run is
        bit-decision-identical to the per-packet loop.  ``make_channel`` /
        ``make_interferer`` are no-argument callables invoked once per
        packet (``None`` for a clean link); ``lead_in_s`` pins the lead-in
        instead of drawing it, exactly like ``simulate_packet``.
        """
        require_int(num_packets, "num_packets", minimum=1)
        require_int(payload_bits_per_packet, "payload_bits_per_packet",
                    minimum=1)
        if rng is None:
            rng = np.random.default_rng()

        # Both hardware generations have a fully batched front half — the
        # gen-2 direct-conversion SAR pair and the gen-1 4 GHz
        # interleaved-flash chain; anything else (e.g. a closed-loop
        # digital notch) keeps the per-packet front-end loop, whose
        # parity is immediate.
        if self._gen2_batched_front:
            frontend = self._frontend_batched_gen2
        elif self._gen1_batched_front:
            frontend = self._frontend_batched_gen1
        else:
            frontend = self._frontend_per_packet
        samples_rows, reports, payloads, true_starts = frontend(
            ebn0_db, num_packets, payload_bits_per_packet, rng,
            make_channel, make_interferer, lead_in_s)

        receive_results, acquisition, estimates = \
            self._receive_samples_batch(samples_rows, reports)

        errors_per_packet = np.zeros(num_packets, dtype=np.int64)
        packet_results = []
        bit_errors = 0
        total_bits = 0
        packets_failed = 0
        for index, rx in enumerate(receive_results):
            result = rx.to_packet_result(payloads[index], true_starts[index])
            packet_results.append(result)
            errors_per_packet[index] = result.payload_bit_errors
            bit_errors += result.payload_bit_errors
            total_bits += result.num_payload_bits
            if not result.packet_success:
                packets_failed += 1
        return FullStackBatchResult(
            ebn0_db=float(ebn0_db) if ebn0_db is not None else float("inf"),
            bit_errors=int(bit_errors), total_bits=int(total_bits),
            packets_sent=num_packets, packets_failed=int(packets_failed),
            errors_per_packet=errors_per_packet,
            acquisition=acquisition,
            channel_estimates=estimates,
            packet_results=tuple(packet_results),
            receive_results=tuple(receive_results))
