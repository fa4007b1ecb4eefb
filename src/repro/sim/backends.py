"""Array helpers of the genie batch kernel.

:class:`NumpyBackend` holds the two waveform-scale helpers that
:class:`repro.sim.batch.BatchedLinkModel` calls through one shared
instance: the zero-copy symbol windows of its Toeplitz synthesis and
matched filter, and the uniform ADC quantizer.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.adc.quantizer import UniformQuantizer

__all__ = ["NumpyBackend"]


# A holder class: perfbench patches its methods and reads samples at args[1].
class NumpyBackend:
    """The genie kernel's symbol-window and quantizer helpers."""

    def symbol_windows(self, samples, count: int, step: int, length: int):
        """Windows on a regular symbol grid: ``(..., n) -> (..., count, length)``.

        Window ``k`` covers ``samples[..., k * step:k * step + length]``;
        windows overlap when ``length > step``.  Every window must fit in
        ``n`` (callers pad the sample batch).  The result is one read-only
        strided view of ``samples``, so no sample is copied; it is built
        with ``as_strided`` directly (after checking the bounds) because
        ``sliding_window_view`` costs more per call than the small batches
        of a service chunk spend on the windows.
        """
        samples = np.asarray(samples)
        if count < 1 or (count - 1) * step + length > samples.shape[-1]:
            raise ValueError(f"{count} windows of {length} samples at step "
                             f"{step} do not fit in {samples.shape[-1]}")
        *lead, inner = samples.strides
        return as_strided(samples, samples.shape[:-1] + (count, length),
                          (*lead, step * inner, inner), writeable=False)

    def quantize_uniform(self, samples, bits: int, full_scale: float):
        """Mid-rise uniform quantization with saturation (the batch ADC),
        delegated to :class:`repro.adc.quantizer.UniformQuantizer`."""
        return _uniform_quantizer(bits, full_scale).quantize(samples)


# Typed, so that a bool never reuses the quantizer of the int it equals.
@functools.lru_cache(maxsize=16, typed=True)
def _uniform_quantizer(bits: int, full_scale: float) -> UniformQuantizer:
    """The validated quantizer of one ``(bits, full_scale)``, built once
    rather than once per row block."""
    return UniformQuantizer(bits=bits, full_scale=full_scale)
