"""Tests for the power models and system budgets."""

import pytest

from repro.power.budget import PowerBudget, gen1_power_budget, gen2_power_budget
from repro.power.models import (
    BlockPower,
    DigitalBackEndPowerModel,
    DigitalBlockPower,
    RFFrontEndPowerModel,
    adc_block_power,
)


class TestDigitalBlockPower:
    def test_power_scales_with_clock(self):
        block = DigitalBlockPower(name="x", gate_count=10_000)
        assert block.power_w(200e6) == pytest.approx(2 * block.power_w(100e6))

    def test_power_scales_with_gates(self):
        small = DigitalBlockPower(name="x", gate_count=1_000)
        large = DigitalBlockPower(name="x", gate_count=10_000)
        assert large.power_w(100e6) == pytest.approx(10 * small.power_w(100e6))

    def test_invalid_activity(self):
        with pytest.raises(ValueError):
            DigitalBlockPower(name="x", gate_count=100, activity=1.5)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            BlockPower(name="x", power_w=-1.0)


class TestDigitalBackEndModel:
    def test_breakdown_has_expected_blocks(self):
        model = DigitalBackEndPowerModel(adc_bits=5, backend_clock_hz=125e6)
        names = {b.name for b in model.breakdown()}
        assert {"correlators", "rake", "viterbi", "channel_estimator",
                "control", "spectral_monitor"} <= names

    def test_more_fingers_more_power(self):
        model = DigitalBackEndPowerModel(adc_bits=5, backend_clock_hz=125e6)
        low = model.total_power_w(num_rake_fingers=1)
        high = model.total_power_w(num_rake_fingers=8)
        assert high > low

    def test_adc_bits_scale_datapath_power(self):
        narrow = DigitalBackEndPowerModel(adc_bits=1, backend_clock_hz=125e6)
        wide = DigitalBackEndPowerModel(adc_bits=5, backend_clock_hz=125e6)
        assert wide.total_power_w() > narrow.total_power_w()

    def test_spectral_monitor_optional(self):
        model = DigitalBackEndPowerModel(adc_bits=5, backend_clock_hz=125e6)
        with_monitor = model.total_power_w(spectral_monitoring=True)
        without = model.total_power_w(spectral_monitoring=False)
        assert with_monitor > without


class TestRFFrontEndModel:
    def test_direct_conversion_has_mixer_and_synth(self):
        model = RFFrontEndPowerModel()
        names = {b.name for b in model.receive_blocks(direct_conversion=True)}
        assert "mixer" in names
        assert "synthesizer" in names

    def test_gen1_has_no_mixer(self):
        model = RFFrontEndPowerModel()
        names = {b.name for b in model.receive_blocks(direct_conversion=False)}
        assert "mixer" not in names
        assert "pll" in names


class TestADCBlockPower:
    def test_flash_and_sar(self):
        flash = adc_block_power("flash", 4, 2e9, num_interleaved=4)
        sar = adc_block_power("sar", 5, 500e6, num_converters=2)
        assert flash.power_w > sar.power_w

    def test_unknown_architecture(self):
        with pytest.raises(ValueError):
            adc_block_power("pipeline", 5, 1e9)


class TestPowerBudgets:
    def test_gen1_adc_plus_digital_majority(self):
        # The paper: "more than half of the system power [is] dissipated in
        # the digital back end and the ADC".
        budget = gen1_power_budget()
        assert budget.adc_plus_digital_fraction() > 0.5

    def test_gen2_adc_plus_digital_majority(self):
        budget = gen2_power_budget()
        assert budget.adc_plus_digital_fraction() > 0.5

    def test_group_fractions_sum_to_one(self):
        budget = gen2_power_budget()
        total = (budget.group_fraction("rf") + budget.group_fraction("adc")
                 + budget.group_fraction("digital"))
        assert total == pytest.approx(1.0)

    def test_table_sorted_by_power(self):
        rows = gen2_power_budget().as_table()
        powers = [row[2] for row in rows]
        assert powers == sorted(powers, reverse=True)

    def test_gen2_power_increases_with_fingers(self):
        low = gen2_power_budget(num_rake_fingers=1).total_w()
        high = gen2_power_budget(num_rake_fingers=8).total_w()
        assert high > low

    def test_gen1_total_in_plausible_range(self):
        # A 0.18 um transceiver of this class burns tens to hundreds of mW.
        total = gen1_power_budget().total_w()
        assert 0.02 < total < 2.0

    @pytest.mark.parametrize("build", [gen1_power_budget, gen2_power_budget])
    def test_groups_partition_the_total(self, build):
        budget = build()
        groups = ("rf", "adc", "digital")
        assert set(budget.groups.values()) == set(groups)
        assert sum(budget.group_power_w(g) for g in groups) == \
            pytest.approx(budget.total_w())
        assert budget.group_power_w("no_such_group") == 0.0

    @pytest.mark.parametrize("build", [gen1_power_budget, gen2_power_budget])
    def test_table_rows_name_every_block_once(self, build):
        budget = build()
        rows = budget.as_table()
        assert sorted(row[0] for row in rows) == \
            sorted(block.name for block in budget.blocks)
        assert sum(row[3] for row in rows) == pytest.approx(1.0)
        for name, group, power_w, fraction in rows:
            assert group == budget.groups[name]
            assert fraction == pytest.approx(power_w / budget.total_w())

    @pytest.mark.parametrize("build", [gen1_power_budget, gen2_power_budget])
    @pytest.mark.parametrize("kwargs, error", [
        (dict(adc_bits=0), ValueError), (dict(adc_bits=4.0), TypeError),
        (dict(adc_rate_hz=0.0), ValueError),
        (dict(backend_parallelism=0), ValueError),
        (dict(backend_parallelism=1.5), TypeError)])
    def test_invalid_configuration_raises(self, build, kwargs, error):
        with pytest.raises(error, match=next(iter(kwargs))):
            build(**kwargs)

    def test_empty_budget_fraction_zero(self):
        budget = PowerBudget(name="empty")
        assert budget.adc_plus_digital_fraction() == 0.0
        assert budget.total_w() == 0.0
