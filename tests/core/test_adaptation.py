"""Tests for the power/QoS/data-rate adaptation controller."""

import pytest

from repro.core.adaptation import AdaptationController, ChannelConditions
from repro.core.config import Gen2Config


class TestChannelConditions:
    def test_invalid_delay_spread(self):
        with pytest.raises(ValueError):
            ChannelConditions(snr_db=10.0, rms_delay_spread_s=-1.0)


class TestAdaptationController:
    def _controller(self):
        return AdaptationController(Gen2Config())

    def test_mode_table_rates_decrease_with_robustness(self):
        controller = self._controller()
        modes = controller.available_modes(ChannelConditions(snr_db=20.0))
        rates = [m.data_rate_bps for m in modes]
        assert rates == sorted(rates, reverse=True)

    def test_full_rate_at_high_snr(self):
        controller = self._controller()
        mode = controller.select_max_throughput(ChannelConditions(snr_db=20.0))
        assert mode.data_rate_bps == pytest.approx(100e6)

    def test_robust_mode_at_low_snr(self):
        controller = self._controller()
        mode = controller.select_max_throughput(ChannelConditions(snr_db=3.0))
        assert mode.pulses_per_bit >= 8
        assert mode.data_rate_bps < 20e6

    def test_infeasible_snr_falls_back_to_most_robust(self):
        controller = self._controller()
        mode = controller.select_max_throughput(ChannelConditions(snr_db=-10.0))
        assert mode.name == "robust"

    def test_interferer_raises_adc_bits_floor(self):
        # The paper: 1-bit suffices in noise, 4-bit needed with an interferer.
        controller = AdaptationController(Gen2Config(adc_bits=1))
        clean = controller.select_max_throughput(
            ChannelConditions(snr_db=20.0, interferer_detected=False))
        jammed = controller.select_max_throughput(
            ChannelConditions(snr_db=20.0, interferer_detected=True))
        assert clean.adc_bits == 1
        assert jammed.adc_bits >= 4
        assert jammed.notch_enabled

    def test_long_delay_spread_forces_mlse(self):
        controller = self._controller()
        mode = controller.select_max_throughput(
            ChannelConditions(snr_db=20.0, rms_delay_spread_s=30e-9))
        assert mode.use_mlse

    def test_power_increases_with_robustness_features(self):
        controller = self._controller()
        modes = controller.available_modes(ChannelConditions(snr_db=20.0))
        full = next(m for m in modes if m.name == "full_rate")
        robust = next(m for m in modes if m.name == "robust")
        assert robust.rake_fingers > full.rake_fingers
        assert robust.power_w > full.power_w

    def test_rate_power_frontier_sorted(self):
        controller = self._controller()
        frontier = controller.rate_power_frontier(ChannelConditions(snr_db=20.0))
        rates = [r for r, _ in frontier]
        assert rates == sorted(rates)
        assert len(frontier) == 5
