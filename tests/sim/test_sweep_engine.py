"""Tests for the batched sweep engine and the scenario registry."""

import numpy as np
import pytest

from repro.core.metrics import BERCurve, theoretical_bpsk_ber
from repro.sim import (
    SCENARIOS,
    Scenario,
    ScenarioRegistry,
    SweepEngine,
    SweepPoint,
    default_registry,
    sweep_grid,
)


class TestSweepGrid:
    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError, match="'ebn0_values_db' is empty"):
            sweep_grid([])
        with pytest.raises(ValueError, match="'scenarios' is empty"):
            sweep_grid([4.0], scenarios=())
        with pytest.raises(ValueError, match="'modulations' is empty"):
            sweep_grid([4.0], modulations=())
        with pytest.raises(ValueError, match="'adc_bits' is empty"):
            sweep_grid([4.0], adc_bits=())

    def test_rejects_non_finite_ebn0(self):
        with pytest.raises(ValueError, match="must be finite"):
            sweep_grid([0.0, float("nan")])
        with pytest.raises(ValueError, match="must be finite"):
            sweep_grid([float("inf")])
        with pytest.raises(ValueError, match="must be finite"):
            sweep_grid(np.array([2.0, -np.inf]))

    def test_point_codec_rejects_nan_ebn0(self):
        # json.loads parses NaN; such a point would simulate no noise.
        with pytest.raises(ValueError, match="NaN"):
            SweepPoint.from_dict({"ebn0_db": float("nan")})
        assert SweepPoint.from_dict({"ebn0_db": 4}) == SweepPoint(4.0)

    @pytest.mark.parametrize("ebn0_db", [float("inf"), float("-inf")])
    def test_point_codec_rejects_infinite_ebn0(self, ebn0_db):
        # json.loads parses +-Infinity; -inf would simulate NaN decisions
        # and +inf would write a non-standard token into journals.
        with pytest.raises(ValueError, match="must be finite"):
            SweepPoint.from_dict({"ebn0_db": ebn0_db})

    @pytest.mark.parametrize("ebn0_db", [float("nan"), float("inf"),
                                         float("-inf")])
    def test_point_rejects_non_finite_ebn0_at_construction(self, ebn0_db):
        # Before, a directly built point failed late, inside its chunk.
        with pytest.raises(ValueError, match="must be finite"):
            SweepPoint(ebn0_db)

    def test_negative_zero_is_the_zero_point(self):
        zero, negative = SweepPoint(0.0), SweepPoint(-0.0)
        assert zero == negative and hash(zero) == hash(negative)
        assert str(negative.ebn0_db) == "0.0"
        assert negative.to_dict() == zero.to_dict()
        assert SweepPoint.from_dict({"ebn0_db": -0.0}) == zero
        assert (SweepEngine.point_digest(negative)
                == SweepEngine.point_digest(zero))

    def test_negative_zero_measures_like_zero_in_one_call(self):
        # Equal points share a stream: measured together or alone, -0.0
        # and 0.0 give the 0.0 dB measurement (before, the pair came back
        # with the first one's stream while each alone differed).
        engine = SweepEngine(generation="gen2", seed=3)
        alone = [engine.measure_points([(SweepPoint(value), 64, 0)])[0]
                 for value in (-0.0, 0.0)]
        together = engine.measure_points([(SweepPoint(-0.0), 64, 0),
                                          (SweepPoint(0.0), 64, 0)])
        assert together == alone == [alone[1], alone[1]]

    def test_point_stores_a_float(self):
        point = SweepPoint(np.float32(4.5))
        assert type(point.ebn0_db) is float and point == SweepPoint(4.5)
        assert type(SweepPoint(4).ebn0_db) is float

    def test_cartesian_product_size_and_order(self):
        grid = sweep_grid([0.0, 4.0], scenarios=("awgn", "two_ray"),
                          modulations=("bpsk", "ook"), adc_bits=(1, 5))
        assert len(grid) == 2 * 2 * 2 * 2
        # Eb/N0 varies fastest: consecutive points belong to the same curve.
        assert grid[0].curve_key() == grid[1].curve_key()
        assert grid[0].ebn0_db == 0.0
        assert grid[1].ebn0_db == 4.0

    def test_points_are_hashable_records(self):
        point = SweepPoint(ebn0_db=4.0, scenario="awgn")
        assert point == SweepPoint(ebn0_db=4.0, scenario="awgn")
        assert {point: 1}[SweepPoint(ebn0_db=4.0, scenario="awgn")] == 1


class TestScenarioRegistry:
    def test_builtin_names_present(self):
        for name in ("awgn", "two_ray", "cm1", "cm3", "narrowband",
                     "gen1_baseline", "gen2_baseline"):
            assert name in SCENARIOS
            assert SCENARIOS.get(name).name == name

    def test_unknown_name_lists_known_scenarios(self):
        with pytest.raises(KeyError, match="unknown scenario 'nope'"):
            SCENARIOS.get("nope")
        with pytest.raises(KeyError, match="awgn"):
            SCENARIOS.get("nope")

    def test_register_and_overwrite_rules(self):
        registry = ScenarioRegistry()
        scenario = Scenario(name="custom", description="test")
        registry.register(scenario)
        assert registry.get("custom") is scenario
        with pytest.raises(ValueError, match="already registered"):
            registry.register(Scenario(name="custom"))
        replacement = Scenario(name="custom", description="v2")
        registry.register(replacement, overwrite=True)
        assert registry.get("custom").description == "v2"

    def test_register_rejects_non_scenarios(self):
        with pytest.raises(TypeError):
            ScenarioRegistry().register("awgn")

    def test_default_registry_is_fresh_copy(self):
        registry = default_registry()
        registry.register(Scenario(name="only_here"))
        assert "only_here" not in SCENARIOS

    def test_channel_factories_draw_realizations(self, rng):
        channel = SCENARIOS.get("cm3").make_channel(rng)
        assert channel is not None
        assert channel.num_rays > 1
        assert SCENARIOS.get("awgn").make_channel(rng) is None

    def test_engine_raises_for_unknown_scenario(self, engine_factory):
        engine = engine_factory()
        with pytest.raises(KeyError, match="unknown scenario"):
            engine.run([SweepPoint(ebn0_db=4.0, scenario="missing")],
                       num_packets=1)


class TestSeededDeterminism:
    def test_same_seed_identical_curve(self, engine_factory):
        curves = [engine_factory(seed=5).ber_curve([2.0, 6.0], num_packets=8)
                  for _ in range(2)]
        assert isinstance(curves[0], BERCurve)
        assert curves[0] == curves[1]

    def test_different_seeds_differ(self, engine_factory):
        low = [engine_factory(seed=seed).ber_curve([2.0], num_packets=8)
               for seed in (1, 2)]
        # At 2 dB the BER is high enough that identical error counts from
        # independent streams would be a seeding bug, not a coincidence.
        assert low[0].points[0].bit_errors != low[1].points[0].bit_errors

    def test_parallel_matches_serial(self, engine_factory, small_sweep_grid):
        serial = engine_factory(seed=9).run(small_sweep_grid, num_packets=8)
        parallel = engine_factory(seed=9).run(
            small_sweep_grid, num_packets=8, max_workers=2)
        assert serial == parallel

    def test_reordered_grid_gives_identical_per_point_results(
            self, engine_factory, small_sweep_grid):
        """Streams are keyed on point content, so sharding or reordering a
        grid must not change any point's measurement."""
        forward = engine_factory(seed=5).run(small_sweep_grid, num_packets=8)
        reverse = engine_factory(seed=5).run(
            tuple(reversed(small_sweep_grid)), num_packets=8)
        assert dict(forward.entries) == dict(reverse.entries)


class TestBatchedVersusPerPacket:
    def test_agreement_past_synchronization_cliff(self, engine_factory):
        """Batched and per-packet BER agree within Monte-Carlo tolerance at
        equal seeds, at operating points where the full stack's
        acquisition/header overhead is reliable."""
        num_packets, payload = 48, 64
        batch = engine_factory(seed=11).ber_curve(
            [9.0, 10.0], num_packets=num_packets,
            payload_bits_per_packet=payload)
        packet = engine_factory(seed=11, backend="packet").ber_curve(
            [9.0, 10.0], num_packets=num_packets,
            payload_bits_per_packet=payload)
        for fast, full in zip(batch.points, packet.points):
            # Binomial 3-sigma around the pooled estimate, plus one packet's
            # worth of slack for the full stack's rare all-or-nothing
            # header failures (a batch of 48 is small enough that a single
            # such packet moves the BER by payload/total).
            total = fast.total_bits + full.total_bits
            pooled = (fast.bit_errors + full.bit_errors) / total
            sigma = np.sqrt(max(pooled * (1 - pooled), 1e-9) / full.total_bits)
            tolerance = 3.0 * sigma + payload / full.total_bits
            assert abs(fast.ber - full.ber) <= tolerance

    def test_packet_backend_rejects_non_bpsk(self, engine_factory):
        engine = engine_factory(backend="packet")
        with pytest.raises(ValueError, match="BPSK-only"):
            engine.run([SweepPoint(ebn0_db=8.0, modulation="ook")],
                       num_packets=1)

    @pytest.mark.parametrize("backend", ["packet", "fullstack"])
    def test_full_stack_backends_reject_non_bpsk_before_simulating(
            self, engine_factory, backend):
        """The BPSK-only error fires when the grid is submitted — before
        any point is measured — with an actionable message, from every
        grid entry point.  (Historically it surfaced deep inside
        measure_point, after the BPSK prefix of the grid had already been
        simulated.)"""
        engine = engine_factory(backend=backend)
        grid = [SweepPoint(ebn0_db=8.0, modulation="bpsk"),
                SweepPoint(ebn0_db=8.0, modulation="ook"),
                SweepPoint(ebn0_db=8.0, modulation="pam4")]
        seen = []
        with pytest.raises(ValueError) as excinfo:
            engine.run(grid, num_packets=1,
                       on_result=lambda point, measurement:
                       seen.append(point))
        message = str(excinfo.value)
        assert "BPSK-only" in message
        assert backend in message
        assert "ook" in message and "pam4" in message
        assert "backend='batch'" in message
        assert seen == [], "validation must precede any simulation"
        with pytest.raises(ValueError, match="BPSK-only"):
            engine.measure_points([(grid[1], 1, 0)])

    def test_batch_backend_accepts_non_bpsk_grids(self, engine_factory):
        engine = engine_factory(backend="batch")
        result = engine.run([SweepPoint(ebn0_db=8.0, modulation="ook")],
                            num_packets=2, payload_bits_per_packet=8)
        assert result.entries[0][1].total_bits == 16


class TestBatchedKernel:
    def test_tracks_theory_without_quantization(self, engine_factory):
        engine = engine_factory(seed=3, quantize=False)
        point = engine.ber_curve([4.0], num_packets=50,
                                 payload_bits_per_packet=100).points[0]
        theory = float(theoretical_bpsk_ber(4.0))
        sigma = np.sqrt(theory * (1 - theory) / point.total_bits)
        assert abs(point.ber - theory) <= 3.0 * sigma

    def test_bpsk_beats_ook_on_the_grid(self, engine_factory):
        grid = sweep_grid([6.0], modulations=("bpsk", "ook"))
        result = engine_factory(seed=4, quantize=False).run(
            grid, num_packets=40, payload_bits_per_packet=100)
        bpsk = result.curve(modulation="bpsk").points[0].ber
        ook = result.curve(modulation="ook").points[0].ber
        assert bpsk < ook

    def test_adc_bits_axis_overrides_config(self, engine_factory):
        grid = sweep_grid([2.0], adc_bits=(1, 5))
        result = engine_factory(seed=6).run(grid, num_packets=24,
                                            payload_bits_per_packet=64)
        coarse = result.curve(adc_bits=1).points[0]
        fine = result.curve(adc_bits=5).points[0]
        assert coarse.total_bits == fine.total_bits == 24 * 64
        # 1-bit quantization costs BER at low Eb/N0.
        assert coarse.ber >= fine.ber

    def test_multipath_scenario_runs_and_degrades(self, engine_factory):
        grid = sweep_grid([6.0], scenarios=("awgn", "exp_decay"))
        result = engine_factory(seed=8).run(grid, num_packets=24,
                                            payload_bits_per_packet=64)
        awgn_ber = result.curve(scenario="awgn").points[0].ber
        multipath_ber = result.curve(scenario="exp_decay").points[0].ber
        assert multipath_ber >= awgn_ber

    def test_curve_labels(self, engine_factory):
        grid = sweep_grid([6.0], modulations=("bpsk",), adc_bits=(3,))
        result = engine_factory(seed=1).run(grid, num_packets=4)
        assert set(result.curves()) == {"awgn/bpsk/adc3"}

    def test_curve_raises_on_unmatched_key(self, engine_factory):
        result = engine_factory(seed=1).run(sweep_grid([6.0]), num_packets=4)
        with pytest.raises(KeyError, match="no swept points match"):
            result.curve(scenario="cm1")
        with pytest.raises(KeyError, match="awgn/bpsk"):
            result.curve(adc_bits=3)

    def test_invalid_engine_arguments(self):
        with pytest.raises(ValueError, match="generation"):
            SweepEngine(generation="gen3")
        with pytest.raises(ValueError, match="backend"):
            SweepEngine(backend="gpu")

    @pytest.mark.parametrize("seed", [1.5, True, -1])
    def test_rejects_non_integral_or_negative_seed(self, seed):
        # A truncated float would share another seed's digest and cache;
        # a negative seed could only fail chunk by chunk.
        with pytest.raises((TypeError, ValueError), match="seed"):
            SweepEngine(seed=seed)

    @pytest.mark.parametrize("value", ["yes", "", 1, 0, None, np.True_])
    def test_collect_errors_per_packet_must_be_a_bool(self, value):
        # A truthy string used to collect error vectors; the flag is
        # checked like the constructor's quantize, before anything runs.
        with pytest.raises(TypeError, match="collect_errors_per_packet "
                                            "must be true or false"):
            SweepEngine(seed=1).run(sweep_grid([6.0]), num_packets=1,
                                    collect_errors_per_packet=value)


class TestRunStoreHooks:
    """The identity/callback hooks the repro.runs subsystem builds on."""

    def test_duplicate_points_warn(self, engine_factory):
        point = SweepPoint(ebn0_db=6.0)
        with pytest.warns(UserWarning, match="duplicated point"):
            result = engine_factory(seed=2).run([point, point],
                                                num_packets=2)
        # Duplicates share one stream: identical measurements, as warned.
        assert result.entries[0][1] == result.entries[1][1]

    def test_distinct_points_do_not_warn(self, engine_factory,
                                         small_sweep_grid):
        import warnings as warnings_module
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            engine_factory(seed=2).run(small_sweep_grid, num_packets=1)

    def test_on_result_callback_sees_every_point_in_order(
            self, engine_factory, small_sweep_grid):
        seen = []
        result = engine_factory(seed=3).run(
            small_sweep_grid, num_packets=4,
            on_result=lambda point, measurement: seen.append(
                (point, measurement)))
        assert seen == result.entries

    def test_measure_points_matches_run(self, engine_factory,
                                        small_sweep_grid):
        engine = engine_factory(seed=7)
        result = engine.run(small_sweep_grid, num_packets=6,
                            payload_bits_per_packet=32)
        for point, measurement in result.entries:
            assert engine.measure_points(
                [(point, 6, 0)], payload_bits_per_packet=32,
                chunk_packets=6) == [measurement]

    def test_packet_offset_chunks_are_independent(self, engine_factory):
        engine = engine_factory(seed=7)
        point = SweepPoint(ebn0_db=2.0)
        base, tail = engine.measure_points([(point, 8, 0), (point, 8, 8)],
                                          chunk_packets=8)
        # Deterministic per offset, but a different stream from offset 0.
        assert engine.measure_points([(point, 8, 8)],
                                     chunk_packets=8) == [tail]
        assert tail.bit_errors != base.bit_errors
        with pytest.raises(ValueError, match="packet_offset"):
            engine.measure_points([(point, 1, -1)])

    def test_point_digest_tracks_content_not_position(self):
        point = SweepPoint(ebn0_db=4.0, scenario="cm1", adc_bits=3)
        same = SweepPoint(ebn0_db=4.0, scenario="cm1", adc_bits=3)
        assert SweepEngine.point_digest(point) == \
            SweepEngine.point_digest(same)
        assert SweepEngine.point_digest(point) != SweepEngine.point_digest(
            SweepPoint(ebn0_db=4.0, scenario="cm1", adc_bits=4))

    def test_config_digest_covers_engine_identity(self):
        from repro.core.config import Gen2Config
        reference = SweepEngine(seed=1).config_digest()
        assert reference == SweepEngine(seed=1).config_digest()
        assert reference != SweepEngine(seed=2).config_digest()
        assert reference != SweepEngine(seed=1,
                                        generation="gen1").config_digest()
        assert reference != SweepEngine(seed=1,
                                        quantize=False).config_digest()
        assert reference != SweepEngine(
            seed=1, config=Gen2Config.fast_test_config()).config_digest()
