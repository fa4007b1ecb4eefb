"""Unit tests for the link simulator's acquisition statistics container."""

import math

from repro.core.link import AcquisitionStatistics


class TestAcquisitionStatisticsEmpty:
    def test_no_packets_reports_nan_not_zero(self):
        """"No data" must be distinguishable from "never detects" /
        "perfect timing"."""
        stats = AcquisitionStatistics()
        assert math.isnan(stats.detection_probability)
        assert math.isnan(stats.mean_search_time_s)
        assert math.isnan(stats.rms_timing_error_samples)

    def test_all_misses_still_reports_nan_latencies(self):
        stats = AcquisitionStatistics()
        stats.record(detected=False, timing_error_samples=0,
                     search_time_s=0.0)
        stats.record(detected=False, timing_error_samples=0,
                     search_time_s=0.0)
        # Detection probability is now a real measurement (0 of 2) ...
        assert stats.detection_probability == 0.0
        # ... but there are still no detected packets to time.
        assert math.isnan(stats.mean_search_time_s)
        assert math.isnan(stats.rms_timing_error_samples)


class TestAcquisitionStatisticsRecording:
    def test_detections_populate_all_statistics(self):
        stats = AcquisitionStatistics()
        stats.record(detected=True, timing_error_samples=3,
                     search_time_s=2e-6)
        stats.record(detected=True, timing_error_samples=-4,
                     search_time_s=4e-6)
        stats.record(detected=False, timing_error_samples=0,
                     search_time_s=0.0)
        assert stats.attempts == 3
        assert stats.detections == 2
        assert stats.detection_probability == 2 / 3
        assert stats.mean_search_time_s == 3e-6
        expected_rms = math.sqrt((3 ** 2 + 4 ** 2) / 2)
        assert stats.rms_timing_error_samples == expected_rms

    def test_missed_packets_do_not_pollute_timing(self):
        stats = AcquisitionStatistics()
        stats.record(detected=False, timing_error_samples=999,
                     search_time_s=1.0)
        assert stats.timing_errors_samples == []
        assert stats.search_times_s == []
