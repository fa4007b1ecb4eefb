"""Channel models: AWGN, multipath (802.15.3a S-V), interference and the
FCC transmit-power limit."""

from repro.channel.awgn import (
    RowBlockNoise,
    awgn,
    noise_std_for_ebn0,
)
from repro.channel.interference import (
    MultiToneInterferer,
    ToneInterferer,
    interferer_amplitude_for_sir,
)
from repro.channel.multipath import (
    MultipathChannel,
    exponential_decay_channel,
    two_ray_channel,
)
from repro.channel.pathloss import (
    max_transmit_power_dbm,
)
from repro.channel.saleh_valenzuela import (
    CHANNEL_MODELS,
    CM1,
    CM2,
    CM3,
    CM4,
    SalehValenzuelaChannelGenerator,
    SalehValenzuelaParameters,
    generate_channel,
)

__all__ = [
    "RowBlockNoise",
    "awgn",
    "noise_std_for_ebn0",
    "MultiToneInterferer",
    "ToneInterferer",
    "interferer_amplitude_for_sir",
    "MultipathChannel",
    "exponential_decay_channel",
    "two_ray_channel",
    "max_transmit_power_dbm",
    "CHANNEL_MODELS",
    "CM1",
    "CM2",
    "CM3",
    "CM4",
    "SalehValenzuelaChannelGenerator",
    "SalehValenzuelaParameters",
    "generate_channel",
]
