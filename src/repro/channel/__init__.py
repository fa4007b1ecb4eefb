"""Channel models: AWGN, multipath (802.15.3a S-V), interference, path loss."""

from repro.channel.awgn import (
    AWGNChannel,
    RowBlockNoise,
    awgn,
    noise_std_for_ebn0,
    noise_std_for_snr,
)
from repro.channel.interference import (
    ModulatedInterferer,
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
    LinkBudget,
    free_space_path_loss_db,
    log_distance_path_loss_db,
    max_transmit_power_dbm,
    thermal_noise_power_dbm,
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
    "AWGNChannel",
    "RowBlockNoise",
    "awgn",
    "noise_std_for_ebn0",
    "noise_std_for_snr",
    "ModulatedInterferer",
    "MultiToneInterferer",
    "ToneInterferer",
    "interferer_amplitude_for_sir",
    "MultipathChannel",
    "exponential_decay_channel",
    "two_ray_channel",
    "LinkBudget",
    "free_space_path_loss_db",
    "log_distance_path_loss_db",
    "max_transmit_power_dbm",
    "thermal_noise_power_dbm",
    "CHANNEL_MODELS",
    "CM1",
    "CM2",
    "CM3",
    "CM4",
    "SalehValenzuelaChannelGenerator",
    "SalehValenzuelaParameters",
    "generate_channel",
]
