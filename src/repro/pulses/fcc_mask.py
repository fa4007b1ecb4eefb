"""FCC Part-15 UWB spectral mask and compliance checking.

The paper's very first system constraint is the FCC limit of
-41.3 dBm/MHz EIRP between 3.1 and 10.6 GHz.  This module provides the full
indoor mask as a function of frequency, a PSD-vs-mask compliance check, and a
helper that scales a transmit waveform to the maximum power the mask allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    FCC_EIRP_LIMIT_DBM_PER_MHZ,
    FCC_INDOOR_MASK_SEGMENTS,
    FCC_UWB_HIGH_HZ,
    FCC_UWB_LOW_HZ,
)
from repro.utils import dsp
from repro.utils.db import linear_to_db, watts_to_dbm

__all__ = [
    "fcc_indoor_mask_dbm_per_mhz",
    "MaskComplianceReport",
    "check_mask_compliance",
    "max_compliant_scale",
    "psd_dbm_per_mhz",
]


def fcc_indoor_mask_dbm_per_mhz(frequency_hz) -> np.ndarray:
    """Return the FCC indoor UWB mask [dBm/MHz] at the given frequencies."""
    freq = np.atleast_1d(np.asarray(frequency_hz, dtype=float))
    mask = np.full(freq.shape, FCC_EIRP_LIMIT_DBM_PER_MHZ)
    for low, high, limit in FCC_INDOOR_MASK_SEGMENTS:
        in_segment = (freq >= low) & (freq < high)
        mask[in_segment] = limit
    mask[freq >= FCC_INDOOR_MASK_SEGMENTS[-1][0]] = FCC_INDOOR_MASK_SEGMENTS[-1][2]
    if np.isscalar(frequency_hz):
        return float(mask[0])
    return mask


def psd_dbm_per_mhz(waveform, sample_rate_hz: float,
                    impedance_ohm: float = 50.0,
                    nperseg: int | None = None):
    """Estimate the PSD of a voltage waveform in dBm/MHz.

    Returns ``(frequencies_hz, psd_dbm_per_mhz)``.  The waveform is treated
    as a voltage across ``impedance_ohm``; for complex baseband input the
    frequencies are offsets from the carrier.
    """
    freqs, psd_v2_per_hz = dsp.estimate_psd(waveform, sample_rate_hz,
                                            nperseg=nperseg)
    psd_w_per_hz = psd_v2_per_hz / impedance_ohm
    psd_w_per_mhz = psd_w_per_hz * 1e6
    return freqs, watts_to_dbm(psd_w_per_mhz)


@dataclass(frozen=True)
class MaskComplianceReport:
    """Result of comparing a transmit PSD against the FCC mask."""

    compliant: bool
    worst_margin_db: float
    worst_frequency_hz: float
    frequencies_hz: np.ndarray
    psd_dbm_per_mhz: np.ndarray
    mask_dbm_per_mhz: np.ndarray


def check_mask_compliance(waveform, sample_rate_hz: float,
                          carrier_hz: float = 0.0,
                          impedance_ohm: float = 50.0,
                          nperseg: int | None = None) -> MaskComplianceReport:
    """Check a transmit waveform against the FCC indoor mask.

    ``carrier_hz`` shifts the analysis frequencies when ``waveform`` is a
    complex baseband signal (pass 0 for an already-passband real waveform).
    Only non-negative absolute frequencies are evaluated.
    """
    freqs, psd = psd_dbm_per_mhz(waveform, sample_rate_hz,
                                 impedance_ohm=impedance_ohm, nperseg=nperseg)
    freqs = np.asarray(freqs, dtype=float) + carrier_hz
    keep = freqs >= 0
    freqs = freqs[keep]
    psd = np.asarray(psd, dtype=float)[keep]
    mask = fcc_indoor_mask_dbm_per_mhz(freqs)
    margin = mask - psd
    worst_idx = int(np.argmin(margin))
    return MaskComplianceReport(
        compliant=bool(np.all(margin >= 0.0)),
        worst_margin_db=float(margin[worst_idx]),
        worst_frequency_hz=float(freqs[worst_idx]),
        frequencies_hz=freqs,
        psd_dbm_per_mhz=psd,
        mask_dbm_per_mhz=np.asarray(mask, dtype=float),
    )


def max_compliant_scale(waveform, sample_rate_hz: float,
                        carrier_hz: float = 0.0,
                        impedance_ohm: float = 50.0,
                        backoff_db: float = 0.5,
                        nperseg: int | None = None) -> float:
    """Return the largest amplitude scale that keeps the waveform under the mask.

    The scale is computed from the worst-case margin of the unscaled waveform
    and reduced by ``backoff_db`` of headroom (scaling amplitude by ``a``
    moves the PSD by ``20*log10(a)`` dB).
    """
    report = check_mask_compliance(waveform, sample_rate_hz,
                                   carrier_hz=carrier_hz,
                                   impedance_ohm=impedance_ohm,
                                   nperseg=nperseg)
    allowed_db = report.worst_margin_db - backoff_db
    return float(10.0 ** (allowed_db / 20.0))


def in_band_average_psd_dbm_per_mhz(waveform, sample_rate_hz: float,
                                    carrier_hz: float = 0.0,
                                    impedance_ohm: float = 50.0) -> float:
    """Average PSD (dBm/MHz) inside the 3.1-10.6 GHz FCC band."""
    freqs, psd = psd_dbm_per_mhz(waveform, sample_rate_hz,
                                 impedance_ohm=impedance_ohm)
    freqs = np.asarray(freqs) + carrier_hz
    band = (freqs >= FCC_UWB_LOW_HZ) & (freqs <= FCC_UWB_HIGH_HZ)
    if not np.any(band):
        raise ValueError("waveform has no content in the 3.1-10.6 GHz band")
    linear = 10.0 ** (np.asarray(psd)[band] / 10.0)
    return float(linear_to_db(np.mean(linear)))


__all__.append("in_band_average_psd_dbm_per_mhz")
