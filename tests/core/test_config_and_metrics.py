"""Tests for the transceiver configurations, metrics, and the band plan."""

import numpy as np
import pytest

from repro.constants import (
    BandPlan,
    DEFAULT_BAND_PLAN,
    FCC_UWB_HIGH_HZ,
    FCC_UWB_LOW_HZ,
    GEN2_NUM_CHANNELS,
)
from repro.core.config import Gen1Config, Gen2Config
from repro.core.metrics import (
    BERCurve,
    BERPoint,
    PacketResult,
    count_payload_errors,
    qfunc,
    theoretical_bpsk_ber,
    theoretical_ook_ber,
)


class TestBandPlan:
    def test_fourteen_channels(self):
        assert DEFAULT_BAND_PLAN.num_channels == GEN2_NUM_CHANNELS == 14

    def test_center_frequencies_inside_fcc_band(self):
        for channel in range(14):
            low, high = DEFAULT_BAND_PLAN.channel_edges(channel)
            assert low >= FCC_UWB_LOW_HZ - 1.0
            assert high <= FCC_UWB_HIGH_HZ + 1.0

    def test_first_channel_center(self):
        assert DEFAULT_BAND_PLAN.center_frequency(0) == pytest.approx(3.35e9)

    def test_channel_spacing(self):
        centers = [DEFAULT_BAND_PLAN.center_frequency(channel)
                   for channel in range(DEFAULT_BAND_PLAN.num_channels)]
        spacings = np.diff(centers)
        assert np.allclose(spacings, 500e6)

    def test_fits_in_fcc_band(self):
        assert DEFAULT_BAND_PLAN.fits_in_fcc_band()

    def test_invalid_channel_raises(self):
        with pytest.raises(ValueError):
            DEFAULT_BAND_PLAN.center_frequency(14)

    @pytest.mark.parametrize("channel", [0, 6, 13])
    def test_channel_edges_are_one_bandwidth_around_the_center(self, channel):
        low, high = DEFAULT_BAND_PLAN.channel_edges(channel)
        assert high - low == pytest.approx(500e6)
        assert (low + high) / 2 == pytest.approx(
            DEFAULT_BAND_PLAN.center_frequency(channel))
        assert low == pytest.approx(FCC_UWB_LOW_HZ + channel * 500e6)

    @pytest.mark.parametrize("plan", [
        BandPlan(num_channels=16),
        BandPlan(band_low_hz=3.0e9),
        BandPlan(num_channels=8, channel_bandwidth_hz=1e9)],
        ids=["past_the_top", "below_the_bottom", "wide_channels"])
    def test_plan_outside_the_fcc_band_does_not_fit(self, plan):
        assert not plan.fits_in_fcc_band()

    @pytest.mark.parametrize("channel", [-1, 14])
    def test_channel_edges_reject_a_channel_outside_the_plan(self, channel):
        with pytest.raises(ValueError, match="channel"):
            DEFAULT_BAND_PLAN.channel_edges(channel)

    def test_custom_plan(self):
        plan = BandPlan(num_channels=3, channel_bandwidth_hz=1e9,
                        band_low_hz=3.1e9, band_high_hz=10.6e9)
        assert plan.center_frequency(2) == pytest.approx(3.1e9 + 2.5e9)


class TestGen1Config:
    def test_default_data_rate_matches_paper(self):
        config = Gen1Config()
        # 104 pulses per bit at 50 ns PRI -> 192.3 kbps, the paper's 193 kbps.
        assert config.data_rate_bps == pytest.approx(192.3e3, rel=0.01)

    def test_adc_matches_paper(self):
        config = Gen1Config()
        assert config.adc_rate_hz == pytest.approx(2e9)
        assert config.adc_interleave_factor == 4

    def test_decimation_factor(self):
        assert Gen1Config().decimation_factor == 2

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            Gen1Config(simulation_rate_hz=1e9, adc_rate_hz=2e9)
        with pytest.raises(ValueError):
            Gen1Config(simulation_rate_hz=3e9, adc_rate_hz=2e9)

    def test_pri_must_be_integer_samples(self):
        with pytest.raises(ValueError):
            Gen1Config(pulse_repetition_interval_s=50.3e-9)

    def test_with_changes(self):
        config = Gen1Config().with_changes(pulses_per_bit=52)
        assert config.pulses_per_bit == 52
        assert config.adc_bits == Gen1Config().adc_bits

    def test_fast_config_valid(self):
        config = Gen1Config.fast_test_config()
        assert config.data_rate_bps > 1e6

    def test_preamble_duration(self):
        config = Gen1Config()
        expected = config.packet.preamble.total_symbols * 50e-9
        assert config.preamble_duration_s == pytest.approx(expected)


class TestGen2Config:
    def test_default_data_rate_is_100mbps(self):
        assert Gen2Config().data_rate_bps == pytest.approx(100e6)

    def test_adc_matches_paper(self):
        config = Gen2Config()
        assert config.adc_bits == 5
        assert config.channel_estimate_bits == 4

    def test_channel_index_bounds(self):
        with pytest.raises(ValueError):
            Gen2Config(channel_index=14)

    def test_pulses_per_bit_lowers_rate(self):
        config = Gen2Config(pulses_per_bit=4)
        assert config.data_rate_bps == pytest.approx(25e6)

    def test_fast_config_valid(self):
        config = Gen2Config.fast_test_config()
        assert config.samples_per_pri_adc >= 4

    @pytest.mark.parametrize("config_class", [Gen1Config, Gen2Config])
    def test_bit_duration_is_pulses_times_pri(self, config_class):
        config = config_class(pulses_per_bit=4)
        assert config.bit_duration_s == pytest.approx(
            4 * config.pulse_repetition_interval_s)
        assert config.data_rate_bps * config.bit_duration_s == \
            pytest.approx(1.0)

    def test_preamble_duration_near_20us_for_default(self):
        # 127-chip sequence x 8 repetitions x 10 ns = 10.2 us, within the
        # paper's ~20 us preamble budget.
        config = Gen2Config()
        assert config.preamble_duration_s < 20e-6


class TestMetrics:
    def test_qfunc_values(self):
        assert qfunc(0.0) == pytest.approx(0.5)
        assert qfunc(3.0) == pytest.approx(0.00135, rel=0.01)

    def test_bpsk_ber_at_known_point(self):
        # BPSK at 9.6 dB Eb/N0 has BER ~1e-5.
        assert theoretical_bpsk_ber(9.6) == pytest.approx(1e-5, rel=0.3)

    def test_ook_worse_than_bpsk(self):
        assert theoretical_ook_ber(8.0) > theoretical_bpsk_ber(8.0)

    def test_packet_result_properties(self):
        result = PacketResult(detected=True, crc_ok=True, payload_bit_errors=2,
                              num_payload_bits=100, timing_error_samples=1,
                              acquisition_time_s=1e-6,
                              peak_acquisition_metric=0.8)
        assert result.packet_success

    def test_packet_result_failure(self):
        result = PacketResult(detected=False, crc_ok=False,
                              payload_bit_errors=0, num_payload_bits=0,
                              timing_error_samples=0, acquisition_time_s=0.0,
                              peak_acquisition_metric=0.1)
        assert not result.packet_success

    def test_ber_point(self):
        point = BERPoint(ebn0_db=10.0, bit_errors=5, total_bits=1000,
                         packets_sent=10, packets_failed=2)
        assert point.ber == pytest.approx(0.005)
        assert point.per == pytest.approx(0.2)

    @pytest.mark.parametrize("counts, ber, per", [
        (dict(bit_errors=0, total_bits=0, packets_sent=0, packets_failed=0),
         1.0, 1.0),
        (dict(bit_errors=0, total_bits=0, packets_sent=4, packets_failed=1),
         1.0, 0.25),
        (dict(bit_errors=3, total_bits=30, packets_sent=0, packets_failed=0),
         0.1, 1.0)])
    def test_empty_measurements_read_as_total_failure(self, counts, ber, per):
        point = BERPoint(ebn0_db=1.0, **counts)
        assert (point.ber, point.per) == (pytest.approx(ber),
                                          pytest.approx(per))

    def test_merge_adds_the_counts(self):
        a = BERPoint(ebn0_db=4.0, bit_errors=3, total_bits=100,
                     packets_sent=2, packets_failed=1)
        b = BERPoint(ebn0_db=4.0, bit_errors=1, total_bits=300,
                     packets_sent=6, packets_failed=0)
        assert a.merge(b) == BERPoint(ebn0_db=4.0, bit_errors=4,
                                      total_bits=400, packets_sent=8,
                                      packets_failed=1)
        assert a.merge(b).ber == pytest.approx(0.01)

    @pytest.mark.parametrize("other, error", [
        (BERPoint(ebn0_db=5.0, bit_errors=0, total_bits=1, packets_sent=1,
                  packets_failed=0), ValueError),
        ({"ebn0_db": 4.0}, TypeError)])
    def test_merge_refuses_another_operating_point(self, other, error):
        point = BERPoint(ebn0_db=4.0, bit_errors=0, total_bits=1,
                         packets_sent=1, packets_failed=0)
        with pytest.raises(error):
            point.merge(other)

    def test_dict_roundtrip(self):
        point = BERPoint(ebn0_db=2.5, bit_errors=7, total_bits=640,
                         packets_sent=5, packets_failed=2)
        data = point.to_dict()
        assert data == {"ebn0_db": 2.5, "bit_errors": 7, "total_bits": 640,
                        "packets_sent": 5, "packets_failed": 2}
        assert BERPoint.from_dict(data) == point

    @pytest.mark.parametrize("change", [
        {"bit_errors": None}, {"total_bits": "many"}, {"ebn0_db": "nan"},
        {"ebn0_db": float("inf")}, {"packets_sent": -1},
        {"bit_errors": 641}, {"packets_failed": 6}],
        ids=["missing", "non_numeric", "nan_ebn0", "inf_ebn0",
             "negative_count", "more_errors_than_bits",
             "more_failures_than_packets"])
    def test_from_dict_rejects_a_malformed_record(self, change):
        data = {"ebn0_db": 2.5, "bit_errors": 7, "total_bits": 640,
                "packets_sent": 5, "packets_failed": 2}
        data.update(change)
        data = {key: value for key, value in data.items()
                if value is not None}
        with pytest.raises(ValueError, match="malformed BER point record"):
            BERPoint.from_dict(data)

    def test_count_payload_errors_length_mismatch(self):
        assert count_payload_errors([1, 1, 1, 1], [1, 1]) == 2
        assert count_payload_errors([1, 0, 1], [1, 1, 1]) == 1
        assert count_payload_errors([], []) == 0

    def test_ber_curve_values_and_rows_keep_insertion_order(self):
        curve = BERCurve(label="test")
        curve.add(BERPoint(ebn0_db=6.0, bit_errors=2, total_bits=1000,
                           packets_sent=10, packets_failed=1))
        curve.add(BERPoint(ebn0_db=2.0, bit_errors=50, total_bits=1000,
                           packets_sent=10, packets_failed=4))
        assert curve.ber_values().tolist() == pytest.approx([0.002, 0.05])
        assert curve.as_rows() == [(6.0, pytest.approx(0.002), 0.1),
                                   (2.0, pytest.approx(0.05), 0.4)]
