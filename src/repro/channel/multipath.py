"""Tapped-delay-line multipath channel.

A :class:`MultipathChannel` is an arbitrary set of (delay, complex gain)
rays.  It can be applied to a sampled waveform (continuous-time delays are
rounded or interpolated onto the sample grid), and it exposes the statistics
the paper cares about: RMS delay spread, excess delay, and the discrete
impulse response the digital back end has to estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft
from scipy import signal as sp_signal

from repro.utils.validation import require_positive

__all__ = [
    "MultipathChannel",
    "apply_channels_batch",
    "two_ray_channel",
    "exponential_decay_channel",
]


@dataclass
class MultipathChannel:
    """A multipath channel as a list of discrete rays.

    Attributes
    ----------
    delays_s:
        Arrival time of each ray in seconds (non-negative).
    gains:
        Complex gain of each ray.  Real-valued gains model the carrier-free
        (gen-1) baseband channel; complex gains model the complex-baseband
        equivalent channel of the gen-2 system.
    name:
        Label used in reports.
    """

    delays_s: np.ndarray
    gains: np.ndarray
    name: str = "multipath"

    def __post_init__(self) -> None:
        self.delays_s = np.asarray(self.delays_s, dtype=float).ravel()
        self.gains = np.asarray(self.gains).ravel()
        if self.delays_s.size != self.gains.size:
            raise ValueError("delays_s and gains must have the same length")
        if self.delays_s.size == 0:
            raise ValueError("channel must have at least one ray")
        if not np.all(np.isfinite(self.delays_s)):
            raise ValueError("delays_s must be finite")
        if not np.all(np.isfinite(self.gains)):
            raise ValueError("gains must be finite")
        if np.any(self.delays_s < 0):
            raise ValueError("ray delays must be non-negative")
        order = np.argsort(self.delays_s)
        self.delays_s = self.delays_s[order]
        self.gains = self.gains[order]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def num_rays(self) -> int:
        """Number of discrete rays in the channel."""
        return int(self.delays_s.size)

    def total_power(self) -> float:
        """Sum of squared ray magnitudes."""
        return float(np.sum(np.abs(self.gains) ** 2))

    def mean_excess_delay_s(self) -> float:
        """Power-weighted mean of the ray delays."""
        powers = np.abs(self.gains) ** 2
        total = np.sum(powers)
        if total == 0:
            return 0.0
        return float(np.sum(powers * self.delays_s) / total)

    def rms_delay_spread_s(self) -> float:
        """Power-weighted RMS spread of the ray delays.

        This is the statistic the paper quotes as "on the order of 20 ns"
        for the indoor UWB channel.
        """
        powers = np.abs(self.gains) ** 2
        total = np.sum(powers)
        if total == 0:
            return 0.0
        mean = np.sum(powers * self.delays_s) / total
        # Centered form: the textbook E[t^2] - E[t]^2 cancels
        # catastrophically when the spread is tiny next to the mean delay
        # (identical ~80 ns delays leave O(1e-15 s) of float64 noise).
        second_centered = np.sum(powers * (self.delays_s - mean) ** 2) / total
        return float(np.sqrt(max(second_centered, 0.0)))

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def normalized(self) -> "MultipathChannel":
        """Return a copy with unit total power."""
        power = self.total_power()
        if power == 0:
            raise ValueError("cannot normalize a zero-power channel")
        return MultipathChannel(self.delays_s.copy(),
                                self.gains / np.sqrt(power),
                                name=self.name)

    def discrete_impulse_response(self, sample_rate_hz: float,
                                  num_taps: int | None = None) -> np.ndarray:
        """Return the channel as a sampled FIR impulse response.

        Each ray is accumulated into the nearest sample bin.  ``num_taps``
        defaults to just enough taps to hold the longest delay.
        """
        require_positive(sample_rate_hz, "sample_rate_hz")
        max_delay_samples = int(np.ceil(np.max(self.delays_s) * sample_rate_hz))
        if num_taps is None:
            num_taps = max_delay_samples + 1
        if num_taps < max_delay_samples + 1:
            raise ValueError("num_taps too small to hold the longest ray delay")
        is_complex = np.iscomplexobj(self.gains)
        h = np.zeros(num_taps, dtype=complex if is_complex else float)
        # Unbuffered np.add.at accumulates rays in array order, which is
        # exactly the historical per-ray loop (bit-identical results when
        # several rays share a bin); np.rint matches round()'s half-even.
        indices = np.rint(self.delays_s * sample_rate_hz).astype(np.int64)
        np.add.at(h, indices, self.gains)
        return h

    def apply(self, signal, sample_rate_hz: float,
              keep_length: bool = True) -> np.ndarray:
        """Convolve a sampled waveform with the channel impulse response.

        With ``keep_length`` the output is truncated to the input length
        (what a fixed-length receive buffer would capture); otherwise the
        full convolution tail is returned.  This is the per-packet wrapper
        around :meth:`apply_batch`.
        """
        signal = np.asarray(signal)
        return self.apply_batch(signal[np.newaxis, :], sample_rate_hz,
                                keep_length=keep_length)[0]

    def apply_batch(self, signals, sample_rate_hz: float,
                    keep_length: bool = True) -> np.ndarray:
        """Convolve a batch of waveforms with the channel in one FFT pass.

        ``signals`` has shape ``(..., num_samples)``; the channel is applied
        along the last axis to every waveform in the batch, so a whole
        Monte-Carlo batch goes through the channel without a Python loop.
        With ``keep_length`` the output keeps the input sample count,
        otherwise the convolution tail is returned too.
        """
        signals = np.asarray(signals)
        if signals.ndim < 2:
            raise ValueError("apply_batch expects a (..., num_samples) batch; "
                             "use apply() for a single waveform")
        h = self.discrete_impulse_response(sample_rate_hz)
        if np.iscomplexobj(signals) or np.iscomplexobj(h):
            signals = signals.astype(complex)
            h = h.astype(complex)
        h = h.reshape((1,) * (signals.ndim - 1) + h.shape)
        out = sp_signal.fftconvolve(signals, h, mode="full", axes=-1)
        if keep_length:
            return out[..., : signals.shape[-1]]
        return out


def apply_channels_batch(channels, signals, sample_rate_hz: float,
                         valid_lengths=None) -> np.ndarray:
    """Apply one channel per row of a padded waveform batch.

    Where :meth:`MultipathChannel.apply_batch` pushes many waveforms
    through a *single* channel, this is the Monte-Carlo front-end shape:
    ``signals`` is a zero-padded ``(packets, num_samples)`` batch and
    ``channels`` holds one :class:`MultipathChannel` (or ``None`` for a
    clean link) per row.  Every per-row impulse response is assembled on
    the host (O(taps)), zero-padded to a common tap count, and the whole
    batch convolves in broadcast overlap-add FFT passes.  Rows whose
    channel is ``None`` pass through bitwise untouched, exactly like the
    per-packet flow that skips ``channel.apply`` for them.

    ``valid_lengths`` gives each row's real sample count; convolved rows
    are zeroed beyond it, dropping the convolution energy that leaked
    into the padding region (samples a per-packet receive buffer of that
    length would never have captured).  Rows without a channel are
    passed through untouched — including their padding, which the
    zero-padded batches this function is built for already keep clean —
    and when *no* row has a channel the input array itself is returned
    (no copy).  The output dtype is complex when the signals or any ray
    gain are complex, real otherwise (so the carrier-free gen-1 path
    keeps its real-FFT convolution).

    The batch convolves in row chunks sized to stay cache-resident.
    Overlap-add sums each output sample from other FFT terms than a
    whole-row transform or the per-packet :meth:`MultipathChannel.apply`
    would, so results agree with those to rounding (about 1e-15 of the
    peak), not bitwise; every row's block and FFT length are fixed by the
    batch's common tap count alone, so the row chunking changes nothing.
    """
    signals = np.asarray(signals)
    if signals.ndim != 2:
        raise ValueError("apply_channels_batch expects a (packets, "
                         "num_samples) batch")
    channels = list(channels)
    if len(channels) != signals.shape[0]:
        raise ValueError("need exactly one channel (or None) per batch row; "
                         f"got {len(channels)} channels for "
                         f"{signals.shape[0]} rows")
    width = int(signals.shape[1])
    with_channel = [index for index, channel in enumerate(channels)
                    if channel is not None]
    if not with_channel:
        return signals
    responses = [channels[index].discrete_impulse_response(sample_rate_hz)
                 for index in with_channel]
    is_complex = (np.iscomplexobj(signals)
                  or any(np.iscomplexobj(response) for response in responses))
    taps_width = max(response.size for response in responses)
    kernels = np.zeros((len(with_channel), taps_width),
                       dtype=complex if is_complex else float)
    for row, response in enumerate(responses):
        kernels[row, :response.size] = response
    lengths = (None if valid_lengths is None
               else np.asarray(valid_lengths, dtype=np.int64))

    # Convolved rows are rewritten wholesale, so the output starts empty
    # and only rows *without* a channel copy over from the input (the
    # input batch itself is never written to).
    out = np.empty((signals.shape[0], width),
                   dtype=complex if is_complex else signals.dtype)
    in_channel = set(with_channel)
    for index in range(signals.shape[0]):
        if index not in in_channel:
            out[index] = signals[index]
    # Row chunks of about 2**19 samples keep each pass cache-resident.
    chunk = max(1, (1 << 19) // max(width, 1))
    for start in range(0, len(with_channel), chunk):
        rows = with_channel[start:start + chunk]
        out[rows] = _overlap_add(signals[rows],
                                 kernels[start:start + chunk], width)
    if lengths is not None:
        for index in with_channel:
            out[index, lengths[index]:] = 0.0
    return out


def _overlap_add(signals, kernels, width: int) -> np.ndarray:
    """First ``width`` samples of ``signals[r] * kernels[r]`` per row.

    Overlap-add: every row is cut into blocks that, with the kernel's
    ``taps - 1`` tail, fill one power-of-two FFT of about eight kernel
    lengths, so the transform work grows with the row, not with a
    whole-row FFT size.  Real rows (the carrier-free gen-1 waveforms)
    take one ``rfft`` per block, shared by the kernel's real and imaginary
    parts, and one ``irfft`` per part.
    """
    rows, taps = kernels.shape
    fft_size = 1 << int(8 * taps - 1).bit_length()
    block = fft_size - taps + 1
    num_blocks = max(1, -(-width // block))
    # Zero-padded frames, one per block, each a whole FFT long.
    frames = np.zeros((rows, num_blocks, fft_size), dtype=signals.dtype)
    full = (num_blocks - 1) * block
    frames[:, :-1, :block] = signals[:, :full].reshape(rows, -1, block)
    frames[:, -1, :width - full] = signals[:, full:width]

    def assemble(pieces: np.ndarray) -> np.ndarray:
        # Block b's output starts at b * block; its last taps - 1
        # samples overlap the start of block b + 1.
        pieces[:, 1:, :taps - 1] += pieces[:, :-1, block:]
        return pieces[:, :, :block].reshape(rows, -1)[:, :width]

    if np.iscomplexobj(signals):
        spectrum = sp_fft.fft(frames, axis=-1, overwrite_x=True)
        spectrum *= sp_fft.fft(kernels, fft_size, axis=-1)[:, np.newaxis]
        return assemble(sp_fft.ifft(spectrum, axis=-1, overwrite_x=True))
    spectrum = sp_fft.rfft(frames, axis=-1)

    def real_part_of(kernel_part: np.ndarray) -> np.ndarray:
        response = sp_fft.rfft(kernel_part, fft_size, axis=-1)
        return assemble(sp_fft.irfft(spectrum * response[:, np.newaxis],
                                     fft_size, axis=-1, overwrite_x=True))

    if not np.iscomplexobj(kernels):
        return real_part_of(kernels)
    out = np.empty((rows, width), dtype=complex)
    out.real = real_part_of(kernels.real)
    out.imag = real_part_of(kernels.imag)
    return out


def two_ray_channel(delay_s: float, relative_gain_db: float = -3.0,
                    name: str = "two_ray") -> MultipathChannel:
    """A simple line-of-sight plus single-echo channel."""
    require_positive(delay_s, "delay_s")
    echo_gain = 10.0 ** (relative_gain_db / 20.0)
    return MultipathChannel(np.array([0.0, delay_s]),
                            np.array([1.0, echo_gain]), name=name)


def exponential_decay_channel(rms_delay_spread_s: float,
                              ray_spacing_s: float,
                              num_rays: int | None = None,
                              rng: np.random.Generator | None = None,
                              complex_gains: bool = True,
                              name: str = "exp_decay") -> MultipathChannel:
    """A uniformly spaced exponential power-delay-profile channel.

    The tap powers decay as ``exp(-t / rms_delay_spread_s)`` which gives an
    RMS delay spread approximately equal to ``rms_delay_spread_s`` when the
    profile extends over several time constants.  Ray phases (or signs, when
    ``complex_gains`` is False) are random.
    """
    require_positive(rms_delay_spread_s, "rms_delay_spread_s")
    require_positive(ray_spacing_s, "ray_spacing_s")
    if rng is None:
        rng = np.random.default_rng()
    if num_rays is None:
        num_rays = max(int(np.ceil(6.0 * rms_delay_spread_s / ray_spacing_s)), 2)
    delays = np.arange(num_rays) * ray_spacing_s
    powers = np.exp(-delays / rms_delay_spread_s)
    amplitudes = np.sqrt(powers) * rng.rayleigh(scale=1.0 / np.sqrt(2.0),
                                                size=num_rays)
    if complex_gains:
        phases = rng.uniform(0.0, 2.0 * np.pi, size=num_rays)
        gains = amplitudes * np.exp(1j * phases)
    else:
        signs = rng.choice([-1.0, 1.0], size=num_rays)
        gains = amplitudes * signs
    channel = MultipathChannel(delays, gains, name=name)
    return channel.normalized()
