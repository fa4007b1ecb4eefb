"""The FCC-limited transmit power of a UWB link.

The paper's systems target "high data rates over short distances" under the
FCC's flat -41.3 dBm/MHz EIRP limit; :func:`max_transmit_power_dbm`
integrates that limit over a channel's bandwidth.
"""

from __future__ import annotations

import numpy as np

from repro.constants import FCC_EIRP_LIMIT_DBM_PER_MHZ
from repro.utils.validation import require_positive

__all__ = [
    "max_transmit_power_dbm",
]


def max_transmit_power_dbm(bandwidth_hz: float,
                           psd_limit_dbm_per_mhz: float = FCC_EIRP_LIMIT_DBM_PER_MHZ
                           ) -> float:
    """Maximum total transmit power allowed by a flat PSD limit.

    A 500 MHz channel at -41.3 dBm/MHz integrates to about -14.3 dBm, the
    familiar UWB transmit-power budget.
    """
    require_positive(bandwidth_hz, "bandwidth_hz")
    return float(psd_limit_dbm_per_mhz + 10.0 * np.log10(bandwidth_hz / 1e6))
