"""Physical constants, regulatory limits, and band-plan definitions.

This module encodes the numbers the paper quotes verbatim:

* the FCC UWB band (3.1--10.6 GHz) and its -41.3 dBm/MHz EIRP limit,
* the 14-channel (sub-band) plan of 500 MHz-bandwidth pulses,
* the multipath environment (about 20 ns RMS delay spread),
* the acquisition/preamble targets (about 20 us preamble, < 70 us sync),
* the headline data rates of the two transceiver generations.

Everything here is a plain module-level constant or a small frozen dataclass
so the rest of the library never hard-codes magic numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Physical constants
# ---------------------------------------------------------------------------

SPEED_OF_LIGHT = 299_792_458.0
"""Speed of light in vacuum [m/s]."""

BOLTZMANN = 1.380_649e-23
"""Boltzmann constant [J/K]."""

ROOM_TEMPERATURE_K = 290.0
"""Standard noise reference temperature [K]."""

THERMAL_NOISE_DBM_PER_HZ = -173.975
"""Thermal noise floor kT at 290 K expressed in dBm/Hz."""

# ---------------------------------------------------------------------------
# FCC UWB regulatory parameters (Section 1 of the paper)
# ---------------------------------------------------------------------------

FCC_UWB_LOW_HZ = 3.1e9
"""Lower edge of the FCC-approved UWB communication band [Hz]."""

FCC_UWB_HIGH_HZ = 10.6e9
"""Upper edge of the FCC-approved UWB communication band [Hz]."""

FCC_EIRP_LIMIT_DBM_PER_MHZ = -41.3
"""Maximum effective isotropic radiated power spectral density [dBm/MHz]."""

FCC_MIN_UWB_BANDWIDTH_HZ = 500e6
"""Minimum -10 dB bandwidth for a signal to qualify as UWB [Hz]."""

# FCC Part 15 indoor mask, out-of-band segments [dBm/MHz].
# Each tuple is (f_low_Hz, f_high_Hz, limit_dBm_per_MHz).
FCC_INDOOR_MASK_SEGMENTS = (
    (0.0, 0.96e9, -41.3),
    (0.96e9, 1.61e9, -75.3),
    (1.61e9, 1.99e9, -53.3),
    (1.99e9, 3.1e9, -51.3),
    (3.1e9, 10.6e9, -41.3),
    (10.6e9, 1.0e12, -51.3),
)

# ---------------------------------------------------------------------------
# Gen-2 (3.1-10.6 GHz) system parameters (Section 3)
# ---------------------------------------------------------------------------

GEN2_NUM_CHANNELS = 14
"""Number of 500 MHz sub-bands (channels) in the 3.1-10.6 GHz plan."""

GEN2_CHANNEL_BANDWIDTH_HZ = 500e6
"""Bandwidth of each pulsed sub-band [Hz]."""

GEN2_TARGET_DATA_RATE_BPS = 100e6
"""Target data rate of the second-generation system [bit/s]."""

GEN2_ADC_BITS = 5
"""Resolution of each of the two SAR ADCs (I and Q paths)."""

GEN2_ADC_RATE_HZ = 500e6
"""Nominal per-ADC sampling rate; the paper requires > 500 MSps."""

GEN2_CHANNEL_ESTIMATE_BITS = 4
"""Precision (bits) of the channel impulse-response estimate."""

# ---------------------------------------------------------------------------
# Gen-1 (baseband pulsed) system parameters (Section 2)
# ---------------------------------------------------------------------------

GEN1_ADC_RATE_HZ = 2e9
"""Aggregate sampling rate of the 4-way time-interleaved flash ADC [Sps]."""

GEN1_ADC_INTERLEAVE_FACTOR = 4
"""Number of time-interleaved flash ADC slices."""

GEN1_ADC_BITS = 4
"""Per-slice flash ADC resolution used in the gen-1 receiver."""

GEN1_DEMONSTRATED_RATE_BPS = 193e3
"""Demonstrated wireless link data rate of the gen-1 chip [bit/s]."""

GEN1_SYNC_TIME_LIMIT_S = 70e-6
"""Upper bound on gen-1 packet synchronization time reported in the paper."""

GEN1_TECHNOLOGY = "0.18um CMOS"
GEN1_SUPPLY_V = 1.8
GEN1_DIE_AREA_MM2 = 4.3 * 2.9

# ---------------------------------------------------------------------------
# Channel / acquisition targets (Section 1)
# ---------------------------------------------------------------------------

TYPICAL_RMS_DELAY_SPREAD_S = 20e-9
"""RMS delay spread of the indoor UWB channel assumed by the paper [s]."""

TARGET_PREAMBLE_DURATION_S = 20e-6
"""Preamble-duration target comparable with contemporary wireless systems."""

MIN_ADC_RATE_HZ = 500e6
"""Minimum ADC sampling rate called out in the system considerations."""

# ---------------------------------------------------------------------------
# Antenna (Fig. 2)
# ---------------------------------------------------------------------------

ANTENNA_LENGTH_M = 0.042
"""Long dimension of the planar elliptical antenna [m]."""

ANTENNA_WIDTH_M = 0.027
"""Short dimension of the planar elliptical antenna [m]."""

# ---------------------------------------------------------------------------
# Fig. 4 prototype pulse parameters
# ---------------------------------------------------------------------------

FIG4_CARRIER_HZ = 5e9
"""Carrier frequency of the pulse shown in Fig. 4 [Hz]."""

FIG4_BANDWIDTH_HZ = 500e6
"""Bandwidth of the pulse shown in Fig. 4 [Hz]."""

FIG4_AMPLITUDE_V = 0.150
"""Peak amplitude of the Fig. 4 waveform [V]."""

FIG4_TIME_PER_DIV_S = 580e-12
"""Oscilloscope time base of Fig. 4 [s/div]."""

FIG4_NUM_DIVS = 10
"""Number of horizontal divisions in a standard oscilloscope capture."""


@dataclass(frozen=True)
class BandPlan:
    """The gen-2 channelization of the 3.1-10.6 GHz band.

    The paper states the signal is "a sequence of 500 MHz bandwidth pulses
    that are upconverted to one of 14 channels (sub-bands) in the 3.1-10.6
    GHz band".  With 14 channels of 500 MHz each the plan occupies 7 GHz,
    i.e. edge-to-edge coverage of 3.1-10.1 GHz with centre frequencies
    starting at 3.35 GHz in 500 MHz steps (the MB-OFDM/802.15.3a band plan
    uses a 528 MHz raster; the paper's raster is 500 MHz).
    """

    num_channels: int = GEN2_NUM_CHANNELS
    channel_bandwidth_hz: float = GEN2_CHANNEL_BANDWIDTH_HZ
    band_low_hz: float = FCC_UWB_LOW_HZ
    band_high_hz: float = FCC_UWB_HIGH_HZ

    def center_frequency(self, channel: int) -> float:
        """Return the centre frequency [Hz] of ``channel`` (0-based)."""
        if not 0 <= channel < self.num_channels:
            raise ValueError(
                f"channel must be in [0, {self.num_channels}), got {channel}"
            )
        first_center = self.band_low_hz + self.channel_bandwidth_hz / 2.0
        return first_center + channel * self.channel_bandwidth_hz

    def channel_edges(self, channel: int) -> tuple[float, float]:
        """Return the (low, high) band edges [Hz] of ``channel``."""
        fc = self.center_frequency(channel)
        half = self.channel_bandwidth_hz / 2.0
        return fc - half, fc + half

    def fits_in_fcc_band(self) -> bool:
        """True when every channel lies inside the FCC 3.1-10.6 GHz band."""
        low, _ = self.channel_edges(0)
        _, high = self.channel_edges(self.num_channels - 1)
        return low >= FCC_UWB_LOW_HZ and high <= FCC_UWB_HIGH_HZ


DEFAULT_BAND_PLAN = BandPlan()
"""Module-level singleton of the paper's 14-channel plan."""
