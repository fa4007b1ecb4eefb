"""Pluggable array backends for the batched Monte-Carlo kernel.

The vectorized kernel (:class:`repro.sim.batch.BatchedLinkModel`) is a
pipeline of plain ``ndarray`` operations — array creation, broadcasting,
FFT convolution, ``einsum``, random draws.  An :class:`ArrayBackend`
bundles exactly that surface behind one object.  :class:`NumpyBackend`
is the reference implementation: it delegates straight to
``numpy``/``scipy``, and the golden fixtures pin its results bit for
bit.

The seam stays open for accelerators: subclass :class:`ArrayBackend`
(set ``xp`` to an array-API-style module, provide ``random_source``,
override the helpers whose tuned form differs), then
:func:`register_backend` it so worker processes can resolve it by name.
A backend whose library is missing should raise ``ImportError`` from its
constructor: explicit selection then fails loudly, while resolving it
from the ``REPRO_ARRAY_BACKEND`` environment variable falls back to
NumPy with a warning, so the same script runs everywhere::

    from repro.sim import SweepEngine, register_backend
    register_backend(MyDeviceBackend)
    engine = SweepEngine(array_backend="my-device")
"""

from __future__ import annotations

import os
import threading
import warnings

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view
from scipy import signal as sp_signal

from repro.adc.quantizer import UniformQuantizer

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "available_backends",
    "get_backend",
    "reference_backend",
    "register_backend",
    "BACKEND_ENV_VAR",
]

BACKEND_ENV_VAR = "REPRO_ARRAY_BACKEND"


class ArrayBackend:
    """The array namespace and helper operations the batched kernel uses.

    Subclasses set :attr:`xp` to an array-API-style module (``numpy``,
    or a device array library) and override the helpers whose accelerated
    form differs from the generic implementation.  The generic
    implementations below are written against ``self.xp`` only, so a
    minimal subclass just provides ``xp`` plus host transfer.

    Attributes
    ----------
    name:
        Registry name (``"numpy"`` or a registered one), also what
        :class:`repro.sim.SweepEngine` records in config digests.
    xp:
        The backend's array namespace module.
    """

    name = "abstract"
    xp: object = None

    # -- availability ---------------------------------------------------
    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend's array library is importable here."""
        return False

    # -- transfers ------------------------------------------------------
    def asarray(self, array, dtype=None):
        """Put ``array`` on this backend's device (no copy when already there)."""
        if dtype is None:
            return self.xp.asarray(array)
        return self.xp.asarray(array, dtype=dtype)

    def to_numpy(self, array) -> np.ndarray:
        """Fetch ``array`` back to host memory as a ``numpy.ndarray``."""
        return np.asarray(array)

    # -- signal processing ----------------------------------------------
    def fftconvolve_full(self, signals, kernel):
        """Full linear convolution along the last axis (FFT based).

        ``signals`` is ``(..., n)``; ``kernel`` broadcasts against the
        leading axes (typically shape ``(1, ..., taps)``).  The generic
        implementation multiplies in the frequency domain with
        ``self.xp.fft``; subclasses may substitute a tuned library call.
        """
        xp = self.xp
        n = int(signals.shape[-1]) + int(kernel.shape[-1]) - 1
        if xp.iscomplexobj(signals) or xp.iscomplexobj(kernel):
            spectrum = (xp.fft.fft(signals, n=n, axis=-1)
                        * xp.fft.fft(kernel, n=n, axis=-1))
            return xp.fft.ifft(spectrum, n=n, axis=-1)
        spectrum = (xp.fft.rfft(signals, n=n, axis=-1)
                    * xp.fft.rfft(kernel, n=n, axis=-1))
        return xp.fft.irfft(spectrum, n=n, axis=-1)

    def lfilter(self, b, a, samples):
        """IIR filter along the last axis (the batched notch).

        The generic implementation round-trips through the host and
        ``scipy.signal.lfilter`` — recursive filters are a poor fit for
        accelerator vectorization, and the notch runs once per batch.
        """
        host = sp_signal.lfilter(b, a, self.to_numpy(samples), axis=-1)
        return self.asarray(host)

    def symbol_windows(self, samples, count: int, step: int, length: int):
        """Windows on a regular symbol grid: ``(..., n) -> (..., count, length)``.

        Window ``k`` covers ``samples[..., k * step:k * step + length]``;
        windows overlap when ``length > step``.  Every window must fit in
        ``n`` (callers pad the sample batch).  The generic implementation
        gathers the windows into a new array with advanced indexing, which
        every array library supports; NumPy overrides it with a zero-copy
        strided view.
        """
        index = (self.asarray(np.arange(count, dtype=np.int64) * step)[:, None]
                 + self.asarray(np.arange(length, dtype=np.int64))[None, :])
        return samples[..., index]

    def gather_windows(self, samples, starts, length: int):
        """Gather per-row windows: ``(..., n)`` x ``(..., k)`` -> ``(..., k, length)``.

        Unlike :meth:`symbol_windows` (one regular grid shared by the
        whole batch), every batch row brings its own window start indices
        — what the batched full-stack receiver needs, where each packet's
        acquisition timing shifts its channel-estimation and RAKE windows.
        ``starts`` is a host integer array broadcastable against the
        leading axes of ``samples``; every ``start + length`` must fit in
        ``n`` (callers pad the sample batch).
        """
        xp = self.xp
        starts_dev = self.asarray(np.asarray(starts, dtype=np.int64))
        index = (starts_dev[..., None]
                 + self.asarray(np.arange(length, dtype=np.int64)))
        return xp.take_along_axis(samples[..., None, :], index, axis=-1)

    def interleave_streams(self, parts, width: int):
        """Round-robin merge of per-slice streams along the last axis.

        The inverse of the strided de-interleave ``samples[..., k::N]``:
        given ``N`` arrays ``parts`` (slice ``k`` holding the samples at
        positions ``k, k + N, k + 2N, ...``), produce the ``(..., width)``
        aggregate stream with ``out[..., k::N] == parts[k]``.  Slice
        lengths may differ by one when ``width`` is not a multiple of
        ``N`` (exactly the ``range(k, width, N)`` counts).  This is the
        primitive the batched time-interleaved ADC uses to reassemble its
        converted slice streams.  The generic implementation stacks and
        reshapes (pure array ops, so it runs on any backend); NumPy
        overrides it with a strided in-place scatter.
        """
        xp = self.xp
        num_slices = len(parts)
        if num_slices == 0:
            raise ValueError("interleave_streams needs at least one stream")
        if num_slices == 1:
            return parts[0][..., :width]
        full = -(-width // num_slices)
        padded = []
        for part in parts:
            short = full - int(part.shape[-1])
            if short:
                pad = xp.zeros(part.shape[:-1] + (short,), dtype=part.dtype)
                part = xp.concatenate((part, pad), axis=-1)
            padded.append(part)
        stacked = xp.stack(padded, axis=-1)
        merged = stacked.reshape(stacked.shape[:-2] + (full * num_slices,))
        return merged[..., :width]

    def quantize_uniform(self, samples, bits: int, full_scale: float):
        """Mid-rise uniform quantization with saturation (the batch ADC).

        Mirrors :class:`repro.adc.quantizer.UniformQuantizer` — complex
        input is quantized component-wise.  NumPy overrides this to call
        the quantizer class itself, keeping the reference path
        bit-identical by construction.
        """
        xp = self.xp
        num_levels = 1 << int(bits)
        step = 2.0 * float(full_scale) / num_levels

        def _component(x):
            codes = xp.clip(xp.floor((x + full_scale) / step),
                            0, num_levels - 1)
            return (codes + 0.5) * step - full_scale

        if xp.iscomplexobj(samples):
            return _component(samples.real) + 1j * _component(samples.imag)
        return _component(samples)

    # -- randomness -----------------------------------------------------
    def random_source(self, rng: np.random.Generator | None):
        """A draw source (``integers`` / ``standard_normal``) for this device.

        ``rng`` is the caller's host :class:`numpy.random.Generator`; the
        NumPy backend returns it unchanged (bit-identical streams), while
        accelerator backends seed a device generator from it.
        """
        raise NotImplementedError


class NumpyBackend(ArrayBackend):
    """Reference backend: plain ``numpy`` + ``scipy``.

    The golden fixtures pin its results bit for bit."""

    name = "numpy"
    xp = np

    @classmethod
    def is_available(cls) -> bool:
        """Always true — NumPy is a hard dependency."""
        return True

    def asarray(self, array, dtype=None):
        """Identity-preserving ``numpy.asarray``."""
        return np.asarray(array) if dtype is None else np.asarray(array,
                                                                  dtype=dtype)

    def to_numpy(self, array) -> np.ndarray:
        """Already host memory; returns the array itself."""
        return np.asarray(array)

    def fftconvolve_full(self, signals, kernel):
        """``scipy.signal.fftconvolve(..., mode="full", axes=-1)``."""
        return sp_signal.fftconvolve(signals, kernel, mode="full", axes=-1)

    def lfilter(self, b, a, samples):
        """``scipy.signal.lfilter`` along the last axis, in place on host."""
        return sp_signal.lfilter(b, a, samples, axis=-1)

    def symbol_windows(self, samples, count: int, step: int, length: int):
        """Zero-copy windows: one read-only strided view of ``samples``.

        The view is every ``step``-th sliding window, so no sample is
        copied; it is built with ``as_strided`` directly (after checking
        the bounds) because ``sliding_window_view`` costs more per call
        than the small batches of a service chunk spend on the windows."""
        samples = np.asarray(samples)
        if count < 1 or (count - 1) * step + length > samples.shape[-1]:
            raise ValueError(f"{count} windows of {length} samples at step "
                             f"{step} do not fit in {samples.shape[-1]}")
        *lead, inner = samples.strides
        return as_strided(samples, samples.shape[:-1] + (count, length),
                          (*lead, step * inner, inner), writeable=False)

    def gather_windows(self, samples, starts, length: int):
        """Strided-view gather (~4x faster than ``take_along_axis``).

        The win matters for the batched channel estimator's large
        window gathers; ``samples`` must carry a leading batch axis
        matching ``starts``' first axis.
        """
        samples = np.asarray(samples)
        starts = np.asarray(starts, dtype=np.int64)
        view = sliding_window_view(samples, length, axis=-1)
        batch_index = np.arange(samples.shape[0])
        batch_index = batch_index.reshape((-1,) + (1,) * (starts.ndim - 1))
        return view[batch_index, starts]

    def interleave_streams(self, parts, width: int):
        """Strided scatter into a preallocated output (no stacked temp)."""
        parts = [np.asarray(part) for part in parts]
        num_slices = len(parts)
        if num_slices == 0:
            raise ValueError("interleave_streams needs at least one stream")
        if num_slices == 1:
            return parts[0][..., :width]
        out = np.empty(parts[0].shape[:-1] + (width,),
                       dtype=np.result_type(*parts))
        for index, part in enumerate(parts):
            out[..., index::num_slices] = part[
                ..., :len(range(index, width, num_slices))]
        return out

    def quantize_uniform(self, samples, bits: int, full_scale: float):
        """Delegate to the reference :class:`UniformQuantizer`."""
        return UniformQuantizer(bits=bits,
                                full_scale=full_scale).quantize(samples)

    def random_source(self, rng: np.random.Generator | None):
        """The caller's generator itself (or a fresh default one)."""
        return rng if rng is not None else np.random.default_rng()


_REGISTRY: dict[str, type[ArrayBackend]] = {
    NumpyBackend.name: NumpyBackend,
}
_INSTANCES: dict[str, ArrayBackend] = {}
_LOCK = threading.Lock()


def register_backend(backend_class: type[ArrayBackend],
                     overwrite: bool = False) -> None:
    """Register a custom :class:`ArrayBackend` subclass by its ``name``.

    Registration makes the backend resolvable by name in worker
    processes (parallel sweeps ship the backend *name*, not the object).
    ``overwrite`` must be true to replace an existing registration.
    """
    if not (isinstance(backend_class, type)
            and issubclass(backend_class, ArrayBackend)):
        raise TypeError("register_backend expects an ArrayBackend subclass")
    name = backend_class.name
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"array backend {name!r} is already registered; "
                         "pass overwrite=True to replace it")
    with _LOCK:
        _REGISTRY[name] = backend_class
        _INSTANCES.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Names of the registered backends usable on this machine, in
    registration order (``"numpy"`` always first)."""
    return tuple(name for name, cls in _REGISTRY.items()
                 if cls.is_available())


def reference_backend() -> ArrayBackend:
    """The NumPy reference backend instance.

    This is what array-accepting library functions (``awgn``,
    ``MultipathChannel.apply_batch``, ...) default to when no backend is
    passed — deliberately *not* the ``REPRO_ARRAY_BACKEND`` environment
    variable, so the per-packet reference stack stays bit-reproducible
    whatever the environment says; only the batch kernel/engine layer
    opts into ambient selection via :func:`get_backend` with ``None``.
    """
    return _resolve_name("numpy", strict=True)


def _resolve_name(name: str, strict: bool) -> ArrayBackend:
    key = name.strip().lower()
    with _LOCK:
        instance = _INSTANCES.get(key)
    if instance is not None:
        return instance
    if key not in _REGISTRY:
        raise ValueError(f"unknown array backend {name!r}; registered: "
                         f"{', '.join(sorted(_REGISTRY))}")
    try:
        instance = _REGISTRY[key]()
    except ImportError:
        if strict:
            raise
        warnings.warn(
            f"array backend {key!r} is not available on this machine; "
            "falling back to the NumPy reference backend", stacklevel=3)
        return _resolve_name("numpy", strict=True)
    with _LOCK:
        _INSTANCES.setdefault(key, instance)
    return instance


def get_backend(backend=None, strict: bool = True) -> ArrayBackend:
    """Resolve an array backend specification to a live instance.

    Parameters
    ----------
    backend:
        ``None`` (consult the ``REPRO_ARRAY_BACKEND`` environment
        variable, default ``"numpy"``), a registered name, or an
        :class:`ArrayBackend` instance — returned as-is *and* cached
        under its ``name`` so later lookups by name (e.g. in forked
        worker processes) resolve to that same instance; spawn-based
        platforms should :func:`register_backend` the class instead.
    strict:
        When the backend's library is missing: ``True`` raises the
        underlying ``ImportError``; ``False`` warns and falls back to
        NumPy.  Environment-variable resolution is never strict, so an
        exported ``REPRO_ARRAY_BACKEND`` naming an accelerator cannot
        break a machine without it.
    """
    if isinstance(backend, ArrayBackend):
        with _LOCK:
            _INSTANCES.setdefault(backend.name.strip().lower(), backend)
        return backend
    if backend is None:
        name = os.environ.get(BACKEND_ENV_VAR, "").strip()
        if not name:
            return _resolve_name("numpy", strict=True)
        try:
            return _resolve_name(name, strict=False)
        except ValueError:
            warnings.warn(
                f"{BACKEND_ENV_VAR}={name!r} names no registered array "
                "backend; falling back to the NumPy reference backend",
                stacklevel=2)
            return _resolve_name("numpy", strict=True)
    if isinstance(backend, str):
        return _resolve_name(backend, strict=strict)
    raise TypeError("backend must be None, a backend name, or an "
                    f"ArrayBackend instance, not {type(backend).__name__}")
