"""Tests for the multipath channel models (tapped delay line and 802.15.3a S-V)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.multipath import (
    MultipathChannel,
    apply_channels_batch,
    exponential_decay_channel,
    two_ray_channel,
)
import repro.channel.saleh_valenzuela as saleh_valenzuela
from repro.channel.saleh_valenzuela import (
    CHANNEL_MODELS,
    CM1,
    CM3,
    CM4,
    SalehValenzuelaChannelGenerator,
    generate_channel,
)


class TestMultipathChannel:
    def test_single_ray_passthrough(self):
        channel = MultipathChannel([0.0], [1.0])
        x = np.arange(10, dtype=float)
        assert np.allclose(channel.apply(x, 1e9), x)

    def test_rays_sorted_by_delay(self):
        channel = MultipathChannel([5e-9, 1e-9], [0.5, 1.0])
        assert channel.delays_s[0] == pytest.approx(1e-9)
        assert channel.gains[0] == pytest.approx(1.0)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            MultipathChannel([0.0, 1e-9], [1.0])

    def test_negative_delay_raises(self):
        with pytest.raises(ValueError):
            MultipathChannel([-1e-9], [1.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            MultipathChannel([], [])

    @pytest.mark.parametrize("delays, gains, field", [
        ([0.0, np.nan], [1.0, 0.5], "delays_s"),
        ([0.0, np.inf], [1.0, 0.5], "delays_s"),
        ([0.0, 1e-9], [1.0, np.nan], "gains"),
        ([0.0, 1e-9], [1.0, np.inf], "gains"),
        ([0.0, 1e-9], [1.0, complex(np.nan, 0.0)], "gains"),
        ([0.0, 1e-9], [1.0, complex(0.5, np.inf)], "gains"),
    ])
    def test_non_finite_taps_raise(self, delays, gains, field):
        with pytest.raises(ValueError, match=field):
            MultipathChannel(delays, gains)

    def test_total_power(self):
        channel = MultipathChannel([0.0, 1e-9], [1.0, 0.5])
        assert channel.total_power() == pytest.approx(1.25)

    def test_normalized_unit_power(self):
        channel = MultipathChannel([0.0, 2e-9], [2.0, 1.0]).normalized()
        assert channel.total_power() == pytest.approx(1.0)

    def test_rms_delay_spread_two_equal_rays(self):
        # Two equal-power rays separated by tau have RMS spread tau/2.
        tau = 10e-9
        channel = MultipathChannel([0.0, tau], [1.0, 1.0])
        assert channel.rms_delay_spread_s() == pytest.approx(tau / 2)

    def test_single_ray_zero_spread(self):
        assert MultipathChannel([3e-9], [1.0]).rms_delay_spread_s() == 0.0

    def test_mean_excess_delay(self):
        channel = MultipathChannel([0.0, 10e-9], [1.0, 1.0])
        assert channel.mean_excess_delay_s() == pytest.approx(5e-9)

    def test_discrete_impulse_response_positions(self):
        channel = MultipathChannel([0.0, 4e-9], [1.0, -0.5])
        h = channel.discrete_impulse_response(1e9)
        assert h[0] == pytest.approx(1.0)
        assert h[4] == pytest.approx(-0.5)

    def test_impulse_response_num_taps_too_small(self):
        channel = MultipathChannel([0.0, 10e-9], [1.0, 0.5])
        with pytest.raises(ValueError):
            channel.discrete_impulse_response(1e9, num_taps=5)

    def test_apply_keeps_length(self):
        channel = two_ray_channel(5e-9)
        x = np.random.default_rng(0).standard_normal(100)
        assert channel.apply(x, 1e9).size == x.size

    def test_apply_full_convolution(self):
        channel = two_ray_channel(5e-9)
        x = np.ones(10)
        out = channel.apply(x, 1e9, keep_length=False)
        assert out.size == 10 + 5

    def test_energy_conservation_normalized_channel(self):
        # A unit-power channel approximately preserves average signal energy
        # for a long white input.
        rng = np.random.default_rng(1)
        channel = exponential_decay_channel(10e-9, 1e-9, rng=rng).normalized()
        x = rng.standard_normal(20000)
        y = channel.apply(x, 1e9, keep_length=False)
        assert np.sum(np.abs(y) ** 2) == pytest.approx(np.sum(x ** 2), rel=0.1)

    def test_apply_channels_batch_matches_per_row_apply(self):
        rng = np.random.default_rng(11)
        signals = rng.normal(size=(6, 512))
        channels = [
            exponential_decay_channel(20e-9, 2e-9, complex_gains=False,
                                      rng=np.random.default_rng(index))
            if index % 3 else None
            for index in range(6)]
        lengths = rng.integers(400, 512, size=6)
        out = apply_channels_batch(channels, signals, 4e9,
                                   valid_lengths=lengths)
        for row, channel in enumerate(channels):
            if channel is None:
                np.testing.assert_array_equal(out[row], signals[row])
                continue
            expected = channel.apply(signals[row], 4e9)
            np.testing.assert_allclose(out[row, :lengths[row]],
                                       expected[:lengths[row]], atol=1e-12)
            assert not np.any(out[row, lengths[row]:])

    @given(st.floats(min_value=1e-9, max_value=50e-9),
           st.floats(min_value=-20.0, max_value=0.0))
    @settings(max_examples=30)
    def test_two_ray_spread_bounded_by_delay(self, delay, gain_db):
        channel = two_ray_channel(delay, gain_db)
        assert 0 <= channel.rms_delay_spread_s() <= delay / 2 + 1e-15


class TestExponentialChannel:
    def test_rms_delay_spread_close_to_target(self):
        rng = np.random.default_rng(42)
        spreads = [exponential_decay_channel(20e-9, 2e-9, rng=rng)
                   .rms_delay_spread_s() for _ in range(30)]
        assert np.mean(spreads) == pytest.approx(20e-9, rel=0.4)

    def test_unit_power(self):
        channel = exponential_decay_channel(20e-9, 2e-9,
                                            rng=np.random.default_rng(0))
        assert channel.total_power() == pytest.approx(1.0)

    def test_real_gains_option(self):
        channel = exponential_decay_channel(20e-9, 2e-9, complex_gains=False,
                                            rng=np.random.default_rng(0))
        assert not np.iscomplexobj(channel.gains)


class TestSalehValenzuela:
    def test_all_models_defined(self):
        assert set(CHANNEL_MODELS) == {"CM1", "CM2", "CM3", "CM4"}

    def test_realization_unit_power(self):
        generator = SalehValenzuelaChannelGenerator(
            CM1, rng=np.random.default_rng(0))
        channel = generator.realize()
        assert channel.total_power() == pytest.approx(1.0)

    def test_realization_has_many_rays(self):
        channel = generate_channel("CM3", rng=np.random.default_rng(1))
        assert channel.num_rays > 20

    def test_cm4_spread_larger_than_cm1(self):
        rng = np.random.default_rng(7)
        gen1 = SalehValenzuelaChannelGenerator(CM1, rng=rng)
        gen4 = SalehValenzuelaChannelGenerator(CM4, rng=rng)
        spread1 = gen1.average_rms_delay_spread_s(num_realizations=15)
        spread4 = gen4.average_rms_delay_spread_s(num_realizations=15)
        assert spread4 > spread1

    def test_cm3_spread_order_of_20ns(self):
        # The paper's "rms delay spread of the channel on the order of 20 ns"
        # is bracketed by CM3/CM4.
        rng = np.random.default_rng(3)
        gen = SalehValenzuelaChannelGenerator(CM3, rng=rng)
        spread = gen.average_rms_delay_spread_s(num_realizations=20)
        assert 5e-9 < spread < 40e-9

    @pytest.mark.parametrize("count, error", [
        (0, ValueError), (-3, ValueError), (2.5, TypeError), (True, TypeError),
    ])
    def test_average_spread_rejects_a_bad_realization_count(self, count,
                                                             error):
        generator = SalehValenzuelaChannelGenerator(
            CM1, rng=np.random.default_rng(4))
        with pytest.raises(error, match="num_realizations"):
            generator.average_rms_delay_spread_s(count)

    def test_complex_gains_flag(self):
        channel = generate_channel("CM1", rng=np.random.default_rng(2),
                                   complex_gains=True)
        assert np.iscomplexobj(channel.gains)

    def test_unknown_model_raises(self):
        with pytest.raises(ValueError):
            generate_channel("CM9")

    def test_delays_within_horizon(self):
        generator = SalehValenzuelaChannelGenerator(
            CM1, rng=np.random.default_rng(6), max_excess_delay_ns=60.0)
        channel = generator.realize()
        assert np.max(channel.delays_s) <= 60e-9 + 1e-12


def reference_realize(generator):
    """The scalar S-V draw loop the generator must reproduce bit for bit:
    one exponential per arrival gap, then per ray one ``normal`` and one
    ``uniform`` (or polarity ``choice``), in this order."""
    p = generator.parameters
    rng = generator.rng
    horizon = generator.max_excess_delay_ns

    def arrivals(rate_per_ns, horizon_ns):
        times = []
        t = 0.0
        while True:
            t += rng.exponential(1.0 / rate_per_ns)
            if t > horizon_ns:
                break
            times.append(t)
        return np.asarray(times)

    cluster_times = np.concatenate(
        ([0.0], arrivals(p.cluster_rate_per_ns, horizon)))
    shadow_sigma = np.sqrt(p.cluster_shadowing_db ** 2
                           + p.ray_shadowing_db ** 2)
    cluster_of_ray, ray_of_ray, shadow_linear, phases_or_signs = \
        [], [], [], []
    for cluster_time in cluster_times:
        ray_times = np.concatenate(
            ([0.0], arrivals(p.ray_rate_per_ns, horizon - cluster_time)))
        for ray_time in ray_times:
            shadow_db = rng.normal(0.0, shadow_sigma)
            shadow_linear.append(10.0 ** (shadow_db / 10.0))
            phases_or_signs.append(
                rng.uniform(0.0, 2.0 * np.pi) if generator.complex_gains
                else rng.choice([-1.0, 1.0]))
            cluster_of_ray.append(cluster_time)
            ray_of_ray.append(ray_time)
    cluster_arr = np.asarray(cluster_of_ray)
    ray_arr = np.asarray(ray_of_ray)
    mean_power = (np.exp(-cluster_arr / p.cluster_decay_ns)
                  * np.exp(-ray_arr / p.ray_decay_ns))
    amplitude = np.sqrt(mean_power * np.asarray(shadow_linear))
    if generator.complex_gains:
        gains = amplitude * np.exp(1j * np.asarray(phases_or_signs))
    else:
        gains = amplitude * np.asarray(phases_or_signs)
    return MultipathChannel((cluster_arr + ray_arr) * 1e-9, gains,
                            name=p.name).normalized()


class TestSalehValenzuelaStream:
    """``realize`` draws its arrival runs as rewound blocks; every delay,
    gain and the generator's final state must equal the scalar loop's."""

    def assert_matches_reference(self, model, complex_gains, seeds):
        for seed in seeds:
            fast = SalehValenzuelaChannelGenerator(
                CHANNEL_MODELS[model], rng=np.random.default_rng(seed),
                complex_gains=complex_gains)
            slow = SalehValenzuelaChannelGenerator(
                CHANNEL_MODELS[model], rng=np.random.default_rng(seed),
                complex_gains=complex_gains)
            for _ in range(3):
                got, want = fast.realize(), reference_realize(slow)
                assert got.gains.dtype == want.gains.dtype
                np.testing.assert_array_equal(got.delays_s, want.delays_s)
                np.testing.assert_array_equal(got.gains, want.gains)
            assert (fast.rng.bit_generator.state
                    == slow.rng.bit_generator.state)

    @pytest.mark.parametrize("model", sorted(CHANNEL_MODELS))
    @pytest.mark.parametrize("complex_gains", [True, False])
    def test_bit_identical_to_scalar_draws(self, model, complex_gains):
        self.assert_matches_reference(model, complex_gains, range(4))

    @pytest.mark.parametrize("model", ["CM1", "CM2"])
    def test_refilled_blocks_stay_bit_identical(self, model, monkeypatch):
        # A one-gap first block never passes the horizon, so every arrival
        # run goes through the doubling refill.
        monkeypatch.setattr(saleh_valenzuela, "_arrival_block",
                            lambda expected: 1)
        self.assert_matches_reference(model, True, range(2))

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"),
                                         -1.0, 0.0])
    def test_rejects_a_horizon_that_cannot_end_or_is_empty(self, horizon):
        with pytest.raises(ValueError, match="max_excess_delay_ns"):
            SalehValenzuelaChannelGenerator(CM1, max_excess_delay_ns=horizon)

    @pytest.mark.parametrize("model", sorted(CHANNEL_MODELS))
    def test_ensemble_rms_delay_spread_near_nominal(self, model):
        # The 802.15.3a report's nominal spreads are ensemble means of the
        # same model; 200 draws pin the mean to about 1%, so a 10% band
        # catches a broken stream without flagging the model's own bias
        # (CM1 reads +8%, CM3 -5% at this seed).
        parameters = CHANNEL_MODELS[model]
        generator = SalehValenzuelaChannelGenerator(
            parameters, rng=np.random.default_rng(1), complex_gains=True)
        spread_ns = generator.average_rms_delay_spread_s(200) * 1e9
        assert spread_ns == pytest.approx(
            parameters.nominal_rms_delay_spread_ns, rel=0.10)
