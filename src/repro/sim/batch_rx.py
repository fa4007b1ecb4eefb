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
  ``tests/sim/test_fullstack_parity.py``) while computing the sample
  values as whole-batch array passes at the ADC rate: nothing after the
  ADC sees the simulation-rate signal, and every stage between the
  channel and the ADC's decimation is per sample, so the batch is
  synthesized only at the samples the ADC keeps.  Each packet is a BPSK
  pulse train on the PRI grid
  (:meth:`~repro.core.transmitter._PulsedTransmitter.pulse_grid`), so
  its noiseless samples are one Toeplitz matmul against the decimated
  phase of its channel-convolved pulse (:func:`pulse_train_rows`); the
  impairments, interference and noise are added there (drawn at the
  simulation rate, in stream order, and kept at the ADC samples); then
  batched AGC
  (:meth:`~repro.dsp.agc.AutomaticGainControl.apply_from_peak_batch`)
  and a batched ADC — the gen-2 SAR pair's tree walk with pre-drawn
  comparator noise, or the gen-1 4-way time-interleaved flash
  (:meth:`~repro.adc.interleaved.TimeInterleavedADC
  .convert_presampled_batch`, slice round-robin preserved exactly),
  both computing the plain searches' codes a row block at a time.  The
  converted batch, its padding zeroed, goes to the back half as it is.
  Configurations outside both fast paths (e.g. a closed-loop digital
  notch) keep the per-packet front-end loop, whose parity is immediate;
* everything downstream of the ADC is batched: one correlation plane for
  acquisition, with the CFAR median taken only for the packets the
  threshold misses (:meth:`~repro.dsp.acquisition.CoarseAcquisition
  .acquire_batch`), tap-block gathers for channel estimation
  (:meth:`~repro.dsp.channel_estimation.ChannelEstimator
  .estimate_averaged_batch`), finger-block gathers and one finger sum
  for RAKE combining (:func:`~repro.dsp.rake.combine_streams_batch`)
  and one trellis pass per coded length for Viterbi decoding
  (:meth:`~repro.phy.coding.ViterbiDecoder.decode_batch` via
  :meth:`~repro.phy.packet.PacketParser.parse_many`).

The full-stack fast path shares the process-pool chunk fan-out and
``repro.runs`` caching the genie kernel already has.  Bit decisions are
identical to the per-packet loop; intermediate floats can differ at
rounding level (the ADC-rate synthesis against the per-packet channel
FFT, einsum reduction orders), which is why the parity suite pins
*decisions* and the golden fixture pins the batched path's own numbers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.adc.interleaved import TimeInterleavedADC
from repro.adc.sar import QuadratureSARADC
from repro.channel.awgn import awgn, noise_std_for_ebn0
from repro.channel.interference import accepts_rng
# Unused here; perfbench's traced mode patches
# ``repro.sim.batch_rx.apply_channels_batch`` by name.
from repro.channel.multipath import apply_channels_batch  # noqa: F401
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

#: Rows per block of the gen-1 AGC -> ADC tail: a few MB of scaled
#: complex samples per block, few enough calls that their overhead is
#: negligible.
_GEN1_TAIL_ROWS = 8


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


@dataclass(frozen=True)
class _FrontDraws:
    """Phase 1 of a batched front half: each packet's draws, in order.

    ``lead_ins`` and ``lengths`` are simulation-rate sample counts (the
    lead-in and the whole transmission, as ``transmit`` would emit
    them); ``interference`` and ``noise`` hold only the samples the ADC
    keeps, ``noise`` one real stream or an I/Q pair per packet (``None``
    without noise); ``adc_noise`` the gen-2 SAR comparator pairs.
    """

    payloads: list
    packets: list
    channels: list
    interference: list
    noise: list
    adc_noise: list
    lead_ins: np.ndarray
    lengths: np.ndarray

    def true_starts(self, decimation: int) -> list[int]:
        """Each packet's preamble start in ADC samples."""
        return (self.lead_ins // decimation).tolist()


class _PaddedRows(Sequence):
    """Per-packet ADC streams held as one zero-padded ``(packets, width)``
    batch, with each packet's length.

    Indexing and iteration give each packet's own stream (a view of its
    row), so a front end hands the back half the batch it converted
    instead of slices the back half would pack again.
    """

    def __init__(self, batch: np.ndarray, lengths) -> None:
        self.batch = batch
        self.lengths = np.asarray(lengths, dtype=np.int64)

    @classmethod
    def converted(cls, batch: np.ndarray, lengths) -> "_PaddedRows":
        """Wrap an ADC's output batch, zeroing each row past its length
        in place (the converter turns the padding into nonzero codes)."""
        rows = cls(batch, lengths)
        for index, stop in enumerate(rows.lengths.tolist()):
            batch[index, stop:] = 0.0
        return rows

    @classmethod
    def pack(cls, rows) -> "_PaddedRows":
        """Pack separate per-packet streams into one padded batch."""
        rows = [np.asarray(row) for row in rows]
        lengths = [row.size for row in rows]
        batch = np.zeros((len(rows), max(lengths, default=0)),
                         dtype=complex if any(np.iscomplexobj(row)
                                              for row in rows) else float)
        for index, row in enumerate(rows):
            batch[index, :row.size] = row
        return cls(batch, lengths)

    def __len__(self) -> int:
        return int(self.lengths.size)

    def __getitem__(self, index: int) -> np.ndarray:
        return self.batch[index, :self.lengths[index]]


def pulse_train_rows(amplitudes, kernels, step: int) -> np.ndarray:
    """Rows of ``sum_k a[i, k] g_i[n - k * step]``, one kernel per row.

    ``amplitudes`` is ``(rows, pulses)`` real, ``kernels`` ``(rows,
    length)`` real or complex; the result is ``(rows, (pulses - 1) *
    step + length)``, the full convolution of each row's impulse train
    with its kernel.  Cut into ``step``-sample blocks, row ``i``'s output
    block ``j`` is ``sum_b a[i, j - b] G_i[b]`` over the kernel's
    blocks ``G_i[b]``, so one batched matmul of a ``(rows, pulses +
    blocks - 1, blocks)`` Toeplitz gather of the amplitudes against the
    reversed blocks builds every row (the per-row form of
    :meth:`repro.sim.batch.BatchedLinkModel.synthesize`).  A complex
    kernel is multiplied as interleaved real and imaginary parts, so
    the product is a real BLAS matmul whose output is the complex rows.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    rows, pulses = amplitudes.shape
    length = int(kernels.shape[-1])
    blocks = -(-length // step)
    padded = np.zeros((rows, pulses + 2 * (blocks - 1)))
    padded[:, blocks - 1:blocks - 1 + pulses] = amplitudes
    toeplitz = padded[:, np.arange(pulses + blocks - 1)[:, None]
                      + np.arange(blocks)]
    blocked = np.zeros((rows, blocks * step), dtype=kernels.dtype)
    blocked[:, :length] = kernels
    blocked = np.ascontiguousarray(
        blocked.reshape(rows, blocks, step)[:, ::-1])
    product = np.matmul(toeplitz, blocked.view(float))
    if np.iscomplexobj(kernels):
        product = product.view(complex)
    return product.reshape(rows, -1)[:, :(pulses - 1) * step + length]


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
            samples_rows = self._gen1_samples_from_waveforms(
                [np.asarray(waveform) for waveform in waveforms])
            reports = [None] * len(samples_rows)
        else:
            rows = []
            reports = []
            for waveform in waveforms:
                samples, report = receiver.frontend_samples(
                    waveform, rng=rng, monitor_spectrum=monitor_spectrum)
                rows.append(samples)
                reports.append(report)
            samples_rows = _PaddedRows.pack(rows)
        results, _, _ = self._receive_samples_batch(samples_rows, reports)
        return results

    def _gen1_samples_from_waveforms(self, waveform_rows):
        """Gen-1 analog-to-codes front half, batched over packets.

        Decimate each row into a zero-padded ADC-rate batch, then
        :meth:`_gen1_samples_from_adc_rows`: the batched equivalent of
        looping :meth:`~repro.core.receiver._PulsedReceiver
        .frontend_samples`, sample-identical per packet.  Returns the
        per-packet quantized ADC-rate streams (a :class:`_PaddedRows`).
        """
        if not waveform_rows:
            return _PaddedRows.pack([])
        decimation = self.config.decimation_factor
        adc_lengths = np.asarray([-(-row.size // decimation)
                                  for row in waveform_rows], dtype=np.int64)
        is_complex = any(np.iscomplexobj(row) for row in waveform_rows)
        batch = np.zeros((len(waveform_rows), int(adc_lengths.max())),
                         dtype=complex if is_complex else float)
        for index, row in enumerate(waveform_rows):
            batch[index, :adc_lengths[index]] = row[::decimation]
        return self._gen1_samples_from_adc_rows(batch, adc_lengths)

    def _receive_samples_batch(self, samples_rows: _PaddedRows, reports):
        """The batched DSP back half: ADC streams in (as the front end's
        padded batch), per-packet results plus the batched
        acquisition/estimate records out."""
        receiver = self.receiver
        config = self.config
        num_packets = len(samples_rows)
        if num_packets == 0:
            return [], None, None
        batch, lengths = samples_rows.batch, samples_rows.lengths

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

        if detected.size < num_packets:
            batch, lengths = batch[detected], lengths[detected]
        timing = acquisition.timing_offset_samples[detected]
        with active().span("rx.chanest", packets=int(detected.size)):
            estimates = receiver.channel_estimator.estimate_averaged_batch(
                batch, timing, config.adc_rate_hz,
                num_repetitions=config.packet.preamble.num_repetitions,
                valid_lengths=lengths)
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
                batch, delays, weights, template, period,
                body_start, HEADER_LENGTH_BITS,
                valid_lengths=lengths) / normalization[:, None]
        header_bits = (np.real(header_stats) > 0).astype(np.int64)

        # How much payload each packet's (possibly corrupted) header
        # implies, capped by what the capture actually holds.
        available = (lengths - body_start
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
                    batch[group], delays[group], weights[group],
                    template, period, payload_start[group], int(count),
                    valid_lengths=lengths[group]
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
            samples_rows.append(samples)
            reports.append(report)
        return (_PaddedRows.pack(samples_rows), reports, payloads,
                true_starts)

    def _phase1_draws(self, ebn0_db, num_packets: int,
                      payload_bits_per_packet: int, rng,
                      make_channel, make_interferer,
                      lead_in_s) -> _FrontDraws:
        """Phase 1 of both batched front halves: every random draw, in
        exactly the per-packet order the packet oracle performs them.

        Per packet: channel and interferer realization, payload bits,
        lead-in, interferer symbols (by the ``add_to == signal +
        waveform(...)`` convention every built-in interferer follows),
        the AWGN draws :func:`~repro.channel.awgn.awgn` would make, then
        on gen 2 the SAR comparator-noise pair — all sized from
        :meth:`~repro.core.transmitter._PulsedTransmitter
        .num_transmit_samples` before any waveform exists.  This draw
        order is the parity contract with ``backend="packet"``, so it
        lives in exactly one place.  The gen-2 waveform is complex; a
        gen-1 packet is real unless a complex-gain channel promotes it,
        which changes every later dtype-sensitive step (interferer tone
        vs complex exponential, one noise stream vs an I/Q pair).

        Interference and noise are drawn at the simulation rate, as the
        oracle draws them, and only the samples the ADC keeps (every
        ``decimation``-th) are held.
        """
        transmitter = self.transceiver.transmitter
        config = self.config
        decimation = config.decimation_factor
        sample_rate = config.simulation_rate_hz
        gen2 = self._gen2_batched_front

        def kept(samples: np.ndarray) -> np.ndarray:
            return samples[::decimation].copy()

        payloads, packets, channels, lead_ins_s, lengths = [], [], [], [], []
        interference, noise, adc_noise = [], [], []
        with active().span("rx.draws", packets=int(num_packets)):
            for _ in range(num_packets):
                channel = (make_channel() if make_channel is not None
                           else None)
                interferer = (make_interferer()
                              if make_interferer is not None else None)
                payload = random_bits(payload_bits_per_packet, rng=rng)
                if lead_in_s is None:
                    packet_lead_in_s = (float(rng.integers(4, 25))
                                        * config.pulse_repetition_interval_s)
                else:
                    packet_lead_in_s = lead_in_s
                packet = transmitter.builder.build(payload)
                num_samples = transmitter.num_transmit_samples(
                    packet, lead_in_s=packet_lead_in_s, lead_out_s=2e-8)
                is_complex = gen2 or (channel is not None
                                      and np.iscomplexobj(channel.gains))
                wave = None
                if interferer is not None:
                    rng_kwargs = ({"rng": rng}
                                  if accepts_rng(interferer, "add_to")
                                  else {})
                    wave = kept(interferer.waveform(
                        num_samples, sample_rate,
                        complex_baseband=is_complex, **rng_kwargs))
                interference.append(wave)
                noise.append(None if ebn0_db is None else tuple(
                    kept(rng.standard_normal(num_samples))
                    for _ in range(2 if is_complex else 1)))
                if gen2:
                    num_adc = -(-num_samples // decimation)
                    adc_noise.append(tuple(
                        adc.draw_comparator_noise(rng, (num_adc,))
                        for adc in (self.receiver.adc.i_adc,
                                    self.receiver.adc.q_adc)))
                payloads.append(payload)
                packets.append(packet)
                channels.append(channel)
                lead_ins_s.append(packet_lead_in_s)
                lengths.append(num_samples)
        return _FrontDraws(
            payloads=payloads, packets=packets, channels=channels,
            interference=interference, noise=noise, adc_noise=adc_noise,
            # transmit()'s lead-in rounding, per packet.
            lead_ins=np.rint(np.asarray(lead_ins_s)
                             * sample_rate).astype(np.int64),
            lengths=np.asarray(lengths, dtype=np.int64))

    def _noiseless_adc_rows(self, draws: _FrontDraws):
        """The noiseless received ADC samples of every packet, synthesized
        at the ADC rate.

        A packet is one pulse train on the PRI grid
        (:meth:`~repro.core.transmitter._PulsedTransmitter.pulse_grid`):
        amplitudes ``a_k``, pulse ``k`` at simulation sample ``lead_in +
        k * D * S`` (``D`` the decimation, ``S`` ADC samples per PRI).
        Through its channel ``h`` the simulation-rate waveform is
        ``sum_k a_k (pulse * h)[n - lead_in - k D S]``, and the ADC keeps
        ``n = m D``.  With ``r = -lead_in mod D`` every kept sample reads
        the same phase ``g = (pulse * h)[r::D]`` of the response, so the
        row is ``sum_k a_k g[m - q - k S]`` with ``q = (lead_in + r) /
        D`` (:func:`pulse_train_rows`, one ``g`` per packet).  Writing
        ``q = u S + v``, the train starts ``u`` pulses late and ``g``
        ``v`` samples late, so every row is synthesized in place from
        ADC sample 0.  The result equals decimating the
        channel-convolved transmit waveform to rounding (about 1e-15 of
        the peak), truncated like it to the packet's ``ceil(num_samples
        / D)`` ADC samples.

        Returns ``(rows, adc_lengths, energies_per_body_bit)``: the
        zero-padded ``(packets, adc_width)`` rows (complex when any
        packet's response is), each row's ADC length, and the transmit
        energies noise levels are set from.
        """
        transmitter = self.transceiver.transmitter
        decimation = self.config.decimation_factor
        sample_rate = self.config.simulation_rate_hz
        step = transmitter.samples_per_chip // decimation
        amplitudes, energies = transmitter.pulse_grid(draws.packets)
        num_packets, num_pulses = amplitudes.shape
        phases = -draws.lead_ins % decimation
        late_pulses, late_samples = np.divmod(
            (draws.lead_ins + phases) // decimation, step)
        pulse = transmitter.pulse.waveform
        references = [
            (pulse if channel is None else np.convolve(
                pulse, channel.discrete_impulse_response(sample_rate))
             )[phase::decimation]
            for channel, phase in zip(draws.channels, phases)]
        is_complex = any(np.iscomplexobj(reference)
                         for reference in references)
        kernels = np.zeros(
            (num_packets, max(int(late) + reference.size for late, reference
                              in zip(late_samples, references))),
            dtype=complex if is_complex else float)
        adc_lengths = -(-draws.lengths // decimation)
        width = int(adc_lengths.max())
        # Enough (zero) pulses that every train covers the widest row.
        trains = np.zeros((num_packets, max(
            num_pulses + int(late_pulses.max()),
            -(-(width - kernels.shape[1]) // step) + 1)))
        for index, reference in enumerate(references):
            late = int(late_samples[index])
            kernels[index, late:late + reference.size] = reference
            first = int(late_pulses[index])
            trains[index, first:first + num_pulses] = amplitudes[index]
        rows = pulse_train_rows(trains, kernels, step)[:, :width]
        for index, stop in enumerate(adc_lengths):
            # The channel tail past the packet's own buffer, which
            # transmit + channel.apply (keep_length) never captures.
            rows[index, stop:] = 0.0
        return rows, adc_lengths, energies

    def _adc_rate_front(self, draws: _FrontDraws, ebn0_db, rng):
        """Phase 2 up to the AGC: the analog chain at the kept samples.

        Noiseless rows (:meth:`_noiseless_adc_rows`), then per packet
        the same elementwise stages the oracle runs at the simulation
        rate — impairments, interference, noise — on the samples the ADC
        keeps, with bitwise the oracle's values at those samples.  Each
        packet's ``draws.interference`` and ``draws.noise`` entries are
        consumed (set to ``None``) once added.  Returns ``(rows,
        adc_lengths)``.
        """
        transceiver = self.transceiver
        decimation = self.config.decimation_factor
        # Gen 1 has no analog impairments (its hook is the identity).
        impaired = self._gen2_batched_front and self.config.has_impairments
        sqrt2 = np.sqrt(2.0)
        with active().span("rx.synthesis", packets=len(draws.packets)):
            rows, adc_lengths, energies = self._noiseless_adc_rows(draws)
        for index, noise in enumerate(draws.noise):
            valid = slice(0, int(adc_lengths[index]))
            if impaired:
                rows[index, valid] = transceiver._apply_impairments(
                    rows[index, valid], rng, decimation=decimation)
            if draws.interference[index] is not None:
                rows[index, valid] += draws.interference[index]
            # Each packet's draws are released once added, so they do not
            # all stay alive beside the rows through the ADC.
            draws.interference[index] = draws.noise[index] = None
            if noise is None:
                continue
            noise_std = noise_std_for_ebn0(float(energies[index]), ebn0_db)
            if len(noise) == 2:
                # The parts of (in_phase + 1j * quadrature) * scale, added
                # in place: the same roundings as the complex product.
                scale = noise_std / sqrt2
                row = rows[index, valid]
                row.real += noise[0] * scale
                row.imag += noise[1] * scale
            else:
                rows[index, valid] += noise_std * noise[0]
        return rows, adc_lengths

    def _frontend_batched_gen2(self, ebn0_db, num_packets: int,
                               payload_bits_per_packet: int, rng,
                               make_channel, make_interferer, lead_in_s):
        """Batched gen-2 front half.

        Phase 1 (:meth:`_phase1_draws`) performs every random draw in
        exactly the per-packet order — payload bits, lead-in, interferer
        symbols, the AWGN I/Q pair, SAR comparator noise — while phase 2
        computes the values as whole-batch array operations at the 1
        GS/s ADC rate (:meth:`_adc_rate_front`): one Toeplitz synthesis
        of every packet's channel-convolved pulse train, the elementwise
        impairments, interference and noise, then one SAR search for
        every packet's I/Q streams.  No simulation-rate waveform is
        formed.  Post-ADC streams match the per-packet front end bit for
        bit except at exact quantizer code boundaries (probability ~0
        under continuous noise).
        """
        receiver = self.receiver
        draws = self._phase1_draws(
            ebn0_db, num_packets, payload_bits_per_packet, rng,
            make_channel, make_interferer, lead_in_s)
        rows, adc_lengths = self._adc_rate_front(draws, ebn0_db, rng)

        # Block AGC -> SAR pair, batched (the per-packet equivalents are
        # frontend_samples' apply_from_peak/_digitize with full_scale 1.0
        # and 1 dB peak backoff).
        scaled, _gains = receiver.agc.apply_from_peak_batch(
            rows, full_scale=1.0, peak_backoff_db=1.0)
        bits = receiver.adc.bits
        adc_width = int(scaled.shape[1])

        def _stack_noise(side: int) -> np.ndarray | None:
            # Each SAR path draws (or not) independently of the other, so
            # an asymmetric pair — noisy I comparator, ideal Q — still
            # injects exactly the pre-drawn per-packet streams.
            if draws.adc_noise[0][side] is None:
                return None
            stacked = np.zeros((bits, num_packets, adc_width))
            for index, drawn in enumerate(draws.adc_noise):
                stacked[:, index, :drawn[side].shape[-1]] = drawn[side]
            return stacked

        samples_rows = _PaddedRows.converted(
            receiver.adc.convert(scaled, noise_i=_stack_noise(0),
                                 noise_q=_stack_noise(1)), adc_lengths)
        return (samples_rows, [None] * num_packets, draws.payloads,
                draws.true_starts(self.config.decimation_factor))

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
        the values batched at the 2 GS/s ADC rate
        (:meth:`_adc_rate_front`; gen 1 has no analog impairments), then
        batched peak AGC and the batched 4-way interleaved-flash
        conversion.  The gen-1 interleaved flash draws no conversion
        randomness (its mismatches are frozen at construction), so there
        is no ADC-noise phase.  Post-ADC streams match the per-packet
        front end bit for bit except at exact flash threshold crossings
        (probability ~0 under continuous noise).
        """
        draws = self._phase1_draws(
            ebn0_db, num_packets, payload_bits_per_packet, rng,
            make_channel, make_interferer, lead_in_s)
        rows, adc_lengths = self._adc_rate_front(draws, ebn0_db, rng)
        samples_rows = self._gen1_samples_from_adc_rows(rows, adc_lengths)
        return (samples_rows, [None] * num_packets, draws.payloads,
                draws.true_starts(self.config.decimation_factor))

    def _gen1_samples_from_adc_rows(self, rows, adc_lengths):
        """Shared gen-1 AGC -> interleaved-flash batch tail over
        zero-padded ADC-rate rows.

        The converter reads only the real part, but the AGC peak is the
        complex envelope's, so the scaled copy is complex when the rows
        are; running the tail :data:`_GEN1_TAIL_ROWS` rows at a time keeps
        that copy a few rows big.  Both stages are per row, so the split
        changes no sample.
        """
        receiver = self.receiver
        samples = np.empty(rows.shape)
        for first in range(0, rows.shape[0], _GEN1_TAIL_ROWS):
            block = slice(first, first + _GEN1_TAIL_ROWS)
            scaled, _gains = receiver.agc.apply_from_peak_batch(
                rows[block], full_scale=1.0, peak_backoff_db=1.0)
            samples[block] = receiver.adc.convert_presampled_batch(
                np.real(scaled))
        return _PaddedRows.converted(samples, adc_lengths)

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
