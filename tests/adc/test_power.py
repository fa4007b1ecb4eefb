"""Tests for the ADC power models."""

import pytest

from repro.adc.power import ADCPowerModel, walden_power_w


class TestWaldenPower:
    def test_power_scales_exponentially_with_bits(self):
        p4 = walden_power_w(4, 1e9)
        p5 = walden_power_w(5, 1e9)
        assert p5 / p4 == pytest.approx(2.0)

    def test_power_scales_linearly_with_rate(self):
        assert walden_power_w(5, 2e9) == pytest.approx(2 * walden_power_w(5, 1e9))

    def test_power_is_fom_times_steps_times_rate(self):
        power = walden_power_w(6, 500e6, fom_j_per_step=3e-12)
        assert power == pytest.approx(3e-12 * 2 ** 6 * 500e6)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            walden_power_w(0, 1e9)


class TestADCPowerModel:
    def test_flash_power_grows_exponentially(self):
        model = ADCPowerModel()
        p4 = model.flash_power_w(4, 2e9)
        p6 = model.flash_power_w(6, 2e9)
        assert p6 > 3 * p4

    def test_sar_cheaper_than_flash_at_same_point(self):
        model = ADCPowerModel()
        assert model.sar_power_w(5, 500e6) < model.flash_power_w(5, 500e6)

    def test_gen1_vs_gen2_adc_power(self):
        # The gen-1 2 GSPS 4-way flash should burn much more than the gen-2
        # pair of 5-bit SARs at 500 MSps.
        model = ADCPowerModel()
        gen1 = model.flash_power_w(4, 2e9, num_interleaved=4)
        gen2 = 2 * model.sar_power_w(5, 500e6)
        assert gen1 > 2 * gen2

    def test_interleaving_adds_overhead(self):
        model = ADCPowerModel(overhead_w=2e-3)
        single = model.flash_power_w(4, 2e9, num_interleaved=1)
        four_way = model.flash_power_w(4, 2e9, num_interleaved=4)
        assert four_way - single == pytest.approx(3 * 2e-3)
