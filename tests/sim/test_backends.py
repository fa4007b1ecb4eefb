"""Tests for the pluggable array-backend layer (repro.sim.backends)."""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.adc.quantizer import UniformQuantizer
from repro.sim import (
    ArrayBackend,
    BatchedLinkModel,
    NumpyBackend,
    SweepEngine,
    available_backends,
    get_backend,
    register_backend,
    sweep_grid,
)
from repro.sim.backends import BACKEND_ENV_VAR, _INSTANCES, _REGISTRY


class GenericNumpyBackend(ArrayBackend):
    """NumPy with every *generic* base-class helper (the code paths an
    accelerator backend inherits): FFT-based convolution instead of
    scipy, gather-based symbol windows instead of strided views, the xp
    quantizer mirror.
    Registered by the ``mirror_backend`` fixture as an accelerator
    stand-in that needs no accelerator."""

    name = "mirror"
    xp = np

    @classmethod
    def is_available(cls):
        return True

    def random_source(self, rng):
        return rng if rng is not None else np.random.default_rng()


class MissingLibraryBackend(GenericNumpyBackend):
    """An accelerator whose library is not installed: constructing it
    raises ``ImportError``, exactly like an import-gated backend would."""

    name = "missing-lib"

    def __init__(self):
        raise ImportError("the 'missing-lib' array backend needs a library "
                          "this machine does not have")


@pytest.fixture
def missing_backend():
    """Temporarily register the backend whose constructor raises."""
    register_backend(MissingLibraryBackend)
    try:
        yield MissingLibraryBackend.name
    finally:
        _REGISTRY.pop(MissingLibraryBackend.name, None)
        _INSTANCES.pop(MissingLibraryBackend.name, None)


@pytest.fixture
def mirror_backend():
    """Temporarily register the generic-path stand-in backend."""
    register_backend(GenericNumpyBackend)
    try:
        yield GenericNumpyBackend.name
    finally:
        _REGISTRY.pop(GenericNumpyBackend.name, None)
        _INSTANCES.pop(GenericNumpyBackend.name, None)


class TestResolution:
    def test_numpy_always_available_and_default(self):
        assert available_backends()[0] == "numpy"
        assert get_backend(None).name == "numpy"
        assert get_backend("numpy") is get_backend("NumPy")  # cached, cased
        assert isinstance(get_backend("numpy"), NumpyBackend)

    def test_instance_passthrough(self):
        backend = NumpyBackend()
        assert get_backend(backend) is backend

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            get_backend("tensorflow")
        with pytest.raises(ValueError, match="numpy"):
            get_backend("tensorflow")

    def test_bad_spec_type_raises(self):
        with pytest.raises(TypeError, match="backend must be"):
            get_backend(42)

    def test_missing_accelerator_strict_raises_lenient_falls_back(
            self, missing_backend):
        with pytest.raises(ImportError, match=missing_backend):
            get_backend(missing_backend)
        with pytest.warns(UserWarning, match="falling back"):
            assert get_backend(missing_backend, strict=False).name == "numpy"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert get_backend(None).name == "numpy"

    def test_env_var_unknown_name_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "quantum")
        with pytest.warns(UserWarning, match="names no registered"):
            assert get_backend(None).name == "numpy"

    def test_env_var_unavailable_backend_warns_not_raises(
            self, monkeypatch, missing_backend):
        monkeypatch.setenv(BACKEND_ENV_VAR, missing_backend)
        with pytest.warns(UserWarning, match="falling back"):
            assert get_backend(None).name == "numpy"

    def test_register_backend_rules(self, mirror_backend):
        assert get_backend(mirror_backend).name == "mirror"
        with pytest.raises(ValueError, match="already registered"):
            register_backend(GenericNumpyBackend)
        register_backend(GenericNumpyBackend, overwrite=True)
        with pytest.raises(TypeError):
            register_backend(object)


class TestBackendHelpers:
    """The generic helper implementations must agree with the tuned
    NumPy overrides — this is what keeps accelerator results honest."""

    def setup_method(self):
        self.reference = NumpyBackend()
        self.generic = GenericNumpyBackend()

    def test_fftconvolve_full_matches_scipy(self, rng):
        for dtype in (float, complex):
            signals = rng.standard_normal((4, 64)).astype(dtype)
            if dtype is complex:
                signals = signals + 1j * rng.standard_normal((4, 64))
            kernel = rng.standard_normal(9).astype(dtype).reshape(1, 9)
            expected = sp_signal.fftconvolve(signals, kernel, mode="full",
                                             axes=-1)
            np.testing.assert_allclose(
                self.generic.fftconvolve_full(signals, kernel), expected,
                atol=1e-12)
            np.testing.assert_array_equal(
                self.reference.fftconvolve_full(signals, kernel), expected)

    def test_symbol_windows_gather_matches_strided_view(self, rng):
        samples = rng.standard_normal((3, 50))
        expected = self.reference.symbol_windows(samples, 3, 7, 8)
        np.testing.assert_array_equal(
            self.generic.symbol_windows(samples, 3, 7, 8), expected)
        assert expected.shape == (3, 3, 8)

    @pytest.mark.parametrize("count, step, length", [
        (6, 8, 8),    # back to back (awgn: reference as long as a symbol)
        (6, 8, 5),    # gaps between windows
        (6, 8, 19),   # overlapping (cm1: reference carries a channel tail)
        (1, 8, 12),   # a single window
    ])
    def test_symbol_windows_are_a_view_equal_to_the_gather(
            self, rng, count, step, length):
        samples = (rng.standard_normal((2, 3, (count - 1) * step + length))
                   + 1j * rng.standard_normal((2, 3, (count - 1) * step
                                                + length)))
        windows = self.reference.symbol_windows(samples, count, step, length)
        assert np.shares_memory(windows, samples)
        assert windows.shape == (2, 3, count, length)
        np.testing.assert_array_equal(
            windows, self.generic.symbol_windows(samples, count, step, length))
        for k in range(count):
            np.testing.assert_array_equal(
                windows[..., k, :], samples[..., k * step:k * step + length])

    def test_symbol_windows_over_the_correlators_padded_tail(self, rng):
        # A zero-padded batch whose last (overlapping) window reaches
        # into the pad: the view must read it exactly like the gather.
        samples = rng.standard_normal((4, 40))
        count, step, length = 5, 8, 13
        padded = np.pad(samples, [(0, 0), (0, (count - 1) * step + length
                                           - samples.shape[-1])])
        windows = self.reference.symbol_windows(padded, count, step, length)
        assert np.shares_memory(windows, padded)
        np.testing.assert_array_equal(
            windows, self.generic.symbol_windows(padded, count, step, length))
        np.testing.assert_array_equal(windows[:, -1, 8:], 0.0)
        np.testing.assert_array_equal(windows[:, -1, :8], samples[:, 32:])

    def test_symbol_windows_that_do_not_fit_are_rejected(self, rng):
        samples = rng.standard_normal((2, 40))
        with pytest.raises(ValueError, match="do not fit"):
            self.reference.symbol_windows(samples, 5, 8, 9)
        assert self.reference.symbol_windows(samples, 5, 8, 8).shape == (
            2, 5, 8)

    def test_quantize_uniform_matches_reference_quantizer(self, rng):
        samples = rng.uniform(-1.5, 1.5, size=(2, 128))
        quantizer = UniformQuantizer(bits=3, full_scale=1.0)
        np.testing.assert_array_equal(
            self.generic.quantize_uniform(samples, bits=3, full_scale=1.0),
            quantizer.quantize(samples))
        complex_samples = samples[0] + 1j * samples[1]
        np.testing.assert_array_equal(
            self.generic.quantize_uniform(complex_samples, bits=3,
                                          full_scale=1.0),
            quantizer.quantize(complex_samples))

    def test_lfilter_generic_round_trip_matches_scipy(self, rng):
        samples = rng.standard_normal((2, 40)).astype(complex)
        b, a = [1.0, -0.9], [1.0, -0.5]
        np.testing.assert_allclose(
            self.generic.lfilter(b, a, samples),
            sp_signal.lfilter(b, a, samples, axis=-1))

    def test_numpy_random_source_is_the_generator_itself(self):
        generator = np.random.default_rng(3)
        assert self.reference.random_source(generator) is generator

    def test_interleave_streams_generic_matches_numpy_override(self, rng):
        """The round-robin merge (batched interleaved-ADC reassembly):
        generic stack/reshape vs the NumPy strided scatter, including
        widths not divisible by the slice count and leading batch axes."""
        for num_slices in (1, 2, 3, 4, 5):
            for width in (1, 7, 12, 40, 41, 43):
                if width < num_slices:
                    continue
                parts = [rng.standard_normal(
                    (3, len(range(k, width, num_slices))))
                    for k in range(num_slices)]
                expected = np.empty((3, width))
                for k, part in enumerate(parts):
                    expected[:, k::num_slices] = part
                np.testing.assert_array_equal(
                    self.reference.interleave_streams(parts, width),
                    expected)
                np.testing.assert_array_equal(
                    self.generic.interleave_streams(parts, width), expected)

    def test_interleave_streams_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            self.reference.interleave_streams([], 4)
        with pytest.raises(ValueError, match="at least one"):
            self.generic.interleave_streams([], 4)


class TestBackendParity:
    """NumPy vs generic-path agreement on measured BER.

    The ``mirror`` stand-in runs the generic code paths an accelerator
    backend inherits, with NumPy's RNG, so its counts are asserted
    exactly — on any machine.
    """

    GRID_KWARGS = dict(scenarios=("awgn", "two_ray"),
                       modulations=("bpsk", "ook"))

    def _run(self, array_backend, quantize=True):
        engine = SweepEngine(seed=21, quantize=quantize,
                             array_backend=array_backend)
        grid = sweep_grid([4.0, 8.0], **self.GRID_KWARGS)
        return engine.run(grid, num_packets=40, payload_bits_per_packet=50)

    def test_mirror_backend_generic_paths_match_reference(self,
                                                          mirror_backend):
        reference = self._run("numpy")
        mirrored = self._run(mirror_backend)
        for (point, expected), (_, got) in zip(reference.entries,
                                               mirrored.entries):
            # Same host RNG, same math to within FFT rounding: the
            # decision statistics may differ by ~1e-15, the error counts
            # must not.
            assert got == expected, f"mirror backend diverged at {point}"


class TestEngineIntegration:
    def test_engine_resolves_and_records_backend_name(self):
        assert SweepEngine().array_backend == "numpy"
        assert SweepEngine(array_backend=NumpyBackend()).array_backend \
            == "numpy"

    def test_engine_rejects_unknown_array_backend(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            SweepEngine(array_backend="metal")

    def test_config_digest_stable_for_numpy_but_not_others(self,
                                                           mirror_backend):
        # The NumPy digest must not move with the backend abstraction —
        # existing repro.runs caches stay valid.
        reference = SweepEngine(seed=1).config_digest()
        assert reference == SweepEngine(seed=1,
                                        array_backend="numpy").config_digest()
        assert reference != SweepEngine(
            seed=1, array_backend=mirror_backend).config_digest()

    def test_batch_model_accepts_backend_name_and_instance(self):
        from repro.core.config import Gen2Config
        config = Gen2Config.fast_test_config()
        by_name = BatchedLinkModel(config, backend="numpy")
        by_instance = BatchedLinkModel(config, backend=NumpyBackend())
        assert by_name.backend.name == by_instance.backend.name == "numpy"

    def test_transceiver_batch_model_forwards_backend(self):
        from repro.core.config import Gen2Config
        from repro.core.transceiver import Gen2Transceiver
        transceiver = Gen2Transceiver(Gen2Config.fast_test_config())
        model = transceiver.batch_model(array_backend="numpy")
        assert model.backend.name == "numpy"

    def test_env_var_engine_construction(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert SweepEngine().array_backend == "numpy"


class UnregisteredBackend(GenericNumpyBackend):
    """An ArrayBackend instance handed straight to the engine, never
    registered — get_backend must cache it so workers resolve it by name."""

    name = "unregistered-instance"


class TestInstanceBackends:
    @pytest.fixture
    def instance_backend(self):
        backend = UnregisteredBackend()
        try:
            yield backend
        finally:
            _INSTANCES.pop(backend.name, None)

    def test_engine_accepts_unregistered_instance(self, instance_backend,
                                                  small_sweep_grid):
        engine = SweepEngine(seed=3, array_backend=instance_backend)
        assert engine.array_backend == instance_backend.name
        result = engine.run(small_sweep_grid, num_packets=4)
        assert len(result.entries) == len(small_sweep_grid)

    def test_instance_resolves_by_name_after_use(self, instance_backend):
        assert get_backend(instance_backend) is instance_backend
        assert get_backend(instance_backend.name) is instance_backend

    def test_forked_workers_resolve_the_instance(self, instance_backend,
                                                 small_sweep_grid):
        engine = SweepEngine(seed=3, array_backend=instance_backend,
                             max_workers=2)
        parallel = engine.run(small_sweep_grid, num_packets=4)
        serial = SweepEngine(seed=3,
                             array_backend=instance_backend).run(
            small_sweep_grid, num_packets=4)
        assert parallel == serial
