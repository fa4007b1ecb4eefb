"""Pulse-train generation: bits -> symbols -> a sampled pulse train.

The paper's transmitters send one or more pulses per bit ("Pulses per bit"
appears explicitly in the Fig. 3 block diagram); repeating the pulse spreads
the bit energy and lets the receiver trade data rate for SNR, which is one of
the knobs of the paper's power/QoS adaptation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.pulses.modulation import Modulator
from repro.pulses.shapes import Pulse
from repro.utils.validation import require_int, require_positive

__all__ = ["PulseTrainConfig", "PulseTrainGenerator", "PulseTrain"]


@dataclass(frozen=True)
class PulseTrainConfig:
    """Timing parameters of a pulse train.

    Attributes
    ----------
    pulse_repetition_interval_s:
        Time between consecutive pulses (the frame time).  The pulse
        repetition frequency (PRF) is its reciprocal.
    pulses_per_symbol:
        Number of identical pulses transmitted per modulation symbol.
    time_hopping_codes:
        Optional sequence of per-pulse time offsets (seconds) applied
        cyclically; models the time-hopping spreading codes classic pulsed
        UWB systems use to smooth their spectrum and separate users.
    """

    pulse_repetition_interval_s: float
    pulses_per_symbol: int = 1
    time_hopping_codes: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        require_positive(self.pulse_repetition_interval_s,
                         "pulse_repetition_interval_s")
        require_int(self.pulses_per_symbol, "pulses_per_symbol", minimum=1)
        for offset in self.time_hopping_codes:
            if offset < 0 or offset >= self.pulse_repetition_interval_s:
                raise ValueError(
                    "time-hopping offsets must lie inside one repetition interval"
                )

    @property
    def symbol_duration_s(self) -> float:
        """Duration of one modulation symbol."""
        return self.pulses_per_symbol * self.pulse_repetition_interval_s

    def symbol_rate_hz(self) -> float:
        """Symbol rate implied by the timing parameters."""
        return 1.0 / self.symbol_duration_s


@dataclass(frozen=True)
class PulseTrain:
    """A generated pulse train with bookkeeping for the receiver."""

    waveform: np.ndarray
    sample_rate_hz: float
    config: PulseTrainConfig
    symbols: np.ndarray
    pulse: Pulse

    @property
    def num_symbols(self) -> int:
        """Number of modulation symbols in the train."""
        return int(self.symbols.size)

    @property
    def duration_s(self) -> float:
        """Duration of the sampled waveform."""
        return self.waveform.size / self.sample_rate_hz

    def samples_per_symbol(self) -> int:
        """Number of samples spanned by one symbol."""
        return int(round(self.config.symbol_duration_s * self.sample_rate_hz))


class PulseTrainGenerator:
    """Generate sampled pulse trains from symbols.

    The generator places a (possibly amplitude-scaled, possibly time-shifted)
    copy of the prototype pulse at every pulse position.  It supports the
    amplitude schemes (BPSK/OOK/PAM) and binary PPM via the modulator's
    ``position_offsets``.
    """

    def __init__(self, pulse: Pulse, config: PulseTrainConfig,
                 modulator: Modulator) -> None:
        self.pulse = pulse
        self.config = config
        self.modulator = modulator
        self._samples_per_pri = int(round(
            config.pulse_repetition_interval_s * pulse.sample_rate_hz))
        if self._samples_per_pri < 1:
            raise ValueError(
                "pulse repetition interval shorter than one sample period"
            )
        if pulse.num_samples > self._samples_per_pri:
            raise ValueError(
                "pulse duration exceeds the pulse repetition interval; "
                "pulses would overlap"
            )

    @property
    def samples_per_pulse_interval(self) -> int:
        """Samples in one pulse repetition interval."""
        return self._samples_per_pri

    @property
    def samples_per_symbol(self) -> int:
        """Samples in one modulation symbol."""
        return self._samples_per_pri * self.config.pulses_per_symbol

    def generate_from_symbols(self, symbols) -> PulseTrain:
        """Build the sampled waveform for a sequence of symbols."""
        symbols = np.asarray(symbols)
        sample_rate = self.pulse.sample_rate_hz
        total_samples = symbols.size * self.samples_per_symbol
        is_complex = np.iscomplexobj(self.pulse.waveform)
        waveform = np.zeros(total_samples,
                            dtype=complex if is_complex else float)
        amplitudes = self.modulator.symbols_to_amplitudes(symbols)
        offsets = self.modulator.position_offsets
        hop = self.config.time_hopping_codes
        pulse_wave = self.pulse.waveform
        pulse_len = pulse_wave.size

        placed = (self._place_amplitude_grid(waveform, symbols, amplitudes)
                  if not hop and offsets is None else None)
        if placed is not None:
            return placed

        pulse_index = 0
        for sym_idx, symbol in enumerate(symbols):
            for rep in range(self.config.pulses_per_symbol):
                start_time = (sym_idx * self.config.symbol_duration_s
                              + rep * self.config.pulse_repetition_interval_s)
                if hop:
                    start_time += hop[pulse_index % len(hop)]
                if offsets is not None:
                    start_time += offsets[int(symbol)]
                start = int(round(start_time * sample_rate))
                stop = min(start + pulse_len, total_samples)
                if start >= total_samples:
                    pulse_index += 1
                    continue
                segment = pulse_wave[: stop - start]
                waveform[start:stop] += amplitudes[sym_idx] * segment
                pulse_index += 1

        return PulseTrain(
            waveform=waveform,
            sample_rate_hz=sample_rate,
            config=self.config,
            symbols=symbols.copy(),
            pulse=self.pulse,
        )

    def _place_amplitude_grid(self, waveform, symbols,
                              amplitudes) -> PulseTrain | None:
        """Vectorized placement for amplitude-only trains on the PRI grid.

        Valid only when every pulse start lands exactly on its nominal
        ``pulse_index * samples_per_pri`` position (the float start-time
        arithmetic of the general path is reproduced and checked, so the
        output is bit-identical to the per-pulse loop); returns ``None``
        to fall back to the loop when rounding jitter moves any start.
        """
        reps = self.config.pulses_per_symbol
        num_pulses = symbols.size * reps
        if num_pulses == 0:
            return PulseTrain(waveform=waveform,
                              sample_rate_hz=self.pulse.sample_rate_hz,
                              config=self.config, symbols=symbols.copy(),
                              pulse=self.pulse)
        start_times = (np.arange(symbols.size, dtype=float)[:, None]
                       * self.config.symbol_duration_s
                       + np.arange(reps, dtype=float)[None, :]
                       * self.config.pulse_repetition_interval_s)
        starts = np.rint(start_times.ravel()
                         * self.pulse.sample_rate_hz).astype(np.int64)
        nominal = np.arange(num_pulses, dtype=np.int64) * self._samples_per_pri
        if not np.array_equal(starts, nominal):
            return None
        shaped = waveform.reshape(num_pulses, self._samples_per_pri)
        amp = np.repeat(np.asarray(amplitudes), reps)
        shaped[:, :self.pulse.num_samples] = (amp[:, None]
                                              * self.pulse.waveform)
        return PulseTrain(waveform=waveform,
                          sample_rate_hz=self.pulse.sample_rate_hz,
                          config=self.config, symbols=symbols.copy(),
                          pulse=self.pulse)

    def generate_batch_from_symbols(self, symbols_batch) -> np.ndarray | None:
        """Vectorized waveform synthesis for a whole batch of symbol rows.

        ``symbols_batch`` is ``(num_trains, num_symbols)``; the return is
        the ``(num_trains, num_symbols * samples_per_symbol)`` sampled
        waveform batch — row ``i`` bitwise equal to
        ``generate_from_symbols(symbols_batch[i]).waveform``, because the
        placement is the same broadcast multiply
        :meth:`_place_amplitude_grid` performs, with the batch axis in
        front.  Only the amplitude-on-the-PRI-grid fast path batches:
        time hopping, position modulation, or grid rounding jitter return
        ``None`` so callers fall back to the per-train loop (exactly when
        the single-train generator would fall back too).
        """
        symbols_batch = np.asarray(symbols_batch)
        if symbols_batch.ndim != 2:
            raise ValueError("generate_batch_from_symbols expects a "
                             "(num_trains, num_symbols) batch")
        if self.config.time_hopping_codes \
                or self.modulator.position_offsets is not None:
            return None
        num_trains, num_symbols = symbols_batch.shape
        reps = self.config.pulses_per_symbol
        num_pulses = num_symbols * reps
        is_complex = np.iscomplexobj(self.pulse.waveform)
        dtype = complex if is_complex else float
        if num_pulses == 0:
            return np.zeros((num_trains, 0), dtype=dtype)
        start_times = (np.arange(num_symbols, dtype=float)[:, None]
                       * self.config.symbol_duration_s
                       + np.arange(reps, dtype=float)[None, :]
                       * self.config.pulse_repetition_interval_s)
        starts = np.rint(start_times.ravel()
                         * self.pulse.sample_rate_hz).astype(np.int64)
        nominal = np.arange(num_pulses, dtype=np.int64) * self._samples_per_pri
        if not np.array_equal(starts, nominal):
            return None
        amplitudes = np.asarray(
            self.modulator.symbols_to_amplitudes(symbols_batch))
        if amplitudes.shape != symbols_batch.shape:
            # Modulators whose amplitude map is not elementwise cannot
            # broadcast over the batch axis; fall back to the loop.
            return None
        batch = np.zeros((num_trains, num_pulses, self._samples_per_pri),
                         dtype=dtype)
        amp = np.repeat(amplitudes, reps, axis=1)
        batch[:, :, :self.pulse.num_samples] = (amp[:, :, None]
                                                * self.pulse.waveform)
        return batch.reshape(num_trains, num_pulses * self._samples_per_pri)

    def generate_from_bits(self, bits) -> PulseTrain:
        """Modulate bits and build the corresponding pulse train."""
        symbols = self.modulator.modulate(bits)
        return self.generate_from_symbols(symbols)

    def template(self) -> np.ndarray:
        """Return the matched-filter template for one pulse (unit energy)."""
        wave = self.pulse.waveform
        energy = np.sum(np.abs(wave) ** 2)
        if energy == 0:
            return wave.copy()
        return wave / np.sqrt(energy)

    def data_rate_bps(self) -> float:
        """Information rate implied by the modulator and timing."""
        return (self.modulator.bits_per_symbol
                * self.config.symbol_rate_hz())
