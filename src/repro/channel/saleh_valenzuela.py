"""IEEE 802.15.3a Saleh-Valenzuela UWB channel model (CM1-CM4).

The paper assumes an indoor UWB channel with an RMS delay spread "on the
order of 20 ns".  The standard statistical model for exactly this
environment is the IEEE 802.15.3a modified Saleh-Valenzuela model, whose
four parameter sets cover line-of-sight 0-4 m (CM1) up to an extreme NLOS
environment with 25 ns RMS delay spread (CM4).  CM3 (4-10 m NLOS, ~15 ns)
and CM4 bracket the paper's 20 ns figure.

The model generates clusters with Poisson arrivals (rate ``cluster_rate``),
rays within each cluster with Poisson arrivals (rate ``ray_rate``), cluster
powers decaying with constant ``cluster_decay`` and ray powers decaying with
constant ``ray_decay``, log-normal shadowing on each ray, and equiprobable
polarity inversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.multipath import MultipathChannel
from repro.utils.validation import require_int, require_positive

__all__ = [
    "SalehValenzuelaParameters",
    "CM1",
    "CM2",
    "CM3",
    "CM4",
    "CHANNEL_MODELS",
    "SalehValenzuelaChannelGenerator",
    "generate_channel",
]


@dataclass(frozen=True)
class SalehValenzuelaParameters:
    """Parameter set of the 802.15.3a modified S-V model.

    Rates are in 1/ns and decay constants in ns, matching the units used in
    the IEEE 802.15.3a final report; conversions to seconds happen inside
    the generator.
    """

    name: str
    cluster_rate_per_ns: float      # Lambda
    ray_rate_per_ns: float          # lambda
    cluster_decay_ns: float         # Gamma
    ray_decay_ns: float             # gamma
    cluster_shadowing_db: float     # sigma_1
    ray_shadowing_db: float         # sigma_2
    lognormal_shadowing_db: float   # sigma_x
    nominal_rms_delay_spread_ns: float

    def __post_init__(self) -> None:
        require_positive(self.cluster_rate_per_ns, "cluster_rate_per_ns")
        require_positive(self.ray_rate_per_ns, "ray_rate_per_ns")
        require_positive(self.cluster_decay_ns, "cluster_decay_ns")
        require_positive(self.ray_decay_ns, "ray_decay_ns")


# Parameter values from the IEEE 802.15.3a channel modeling sub-committee
# final report (Foerster et al., 2003).
CM1 = SalehValenzuelaParameters(
    name="CM1", cluster_rate_per_ns=0.0233, ray_rate_per_ns=2.5,
    cluster_decay_ns=7.1, ray_decay_ns=4.3,
    cluster_shadowing_db=3.3941, ray_shadowing_db=3.3941,
    lognormal_shadowing_db=3.0, nominal_rms_delay_spread_ns=5.0)

CM2 = SalehValenzuelaParameters(
    name="CM2", cluster_rate_per_ns=0.4, ray_rate_per_ns=0.5,
    cluster_decay_ns=5.5, ray_decay_ns=6.7,
    cluster_shadowing_db=3.3941, ray_shadowing_db=3.3941,
    lognormal_shadowing_db=3.0, nominal_rms_delay_spread_ns=8.0)

CM3 = SalehValenzuelaParameters(
    name="CM3", cluster_rate_per_ns=0.0667, ray_rate_per_ns=2.1,
    cluster_decay_ns=14.0, ray_decay_ns=7.9,
    cluster_shadowing_db=3.3941, ray_shadowing_db=3.3941,
    lognormal_shadowing_db=3.0, nominal_rms_delay_spread_ns=15.0)

CM4 = SalehValenzuelaParameters(
    name="CM4", cluster_rate_per_ns=0.0667, ray_rate_per_ns=2.1,
    cluster_decay_ns=24.0, ray_decay_ns=12.0,
    cluster_shadowing_db=3.3941, ray_shadowing_db=3.3941,
    lognormal_shadowing_db=3.0, nominal_rms_delay_spread_ns=25.0)

CHANNEL_MODELS = {"CM1": CM1, "CM2": CM2, "CM3": CM3, "CM4": CM4}


def _arrival_block(expected: float) -> int:
    """Gaps drawn in an arrival run's first block: the mean count plus
    four standard deviations and a margin, so a refill is all but never
    needed."""
    return int(expected + 4.0 * np.sqrt(expected)) + 8


# ``rng.integers(2)`` draws the index ``rng.choice([-1.0, 1.0])`` draws,
# from the same stream words, at half the cost.
_POLARITIES = (-1.0, 1.0)


class SalehValenzuelaChannelGenerator:
    """Random UWB channel realizations from a parameter set."""

    def __init__(self, parameters: SalehValenzuelaParameters,
                 rng: np.random.Generator | None = None,
                 max_excess_delay_ns: float | None = None,
                 complex_gains: bool = False) -> None:
        self.parameters = parameters
        self.rng = rng if rng is not None else np.random.default_rng()
        # Truncate the profile where ray power has decayed ~40 dB.
        if max_excess_delay_ns is None:
            max_excess_delay_ns = 10.0 * max(parameters.cluster_decay_ns,
                                             parameters.ray_decay_ns)
        # A NaN or infinite horizon would never end the arrival runs.
        self.max_excess_delay_ns = require_positive(max_excess_delay_ns,
                                                    "max_excess_delay_ns")
        self.complex_gains = complex_gains

    def _poisson_arrivals(self, rate_per_ns: float,
                          horizon_ns: float) -> np.ndarray:
        """Arrival times of a Poisson process on [0, horizon].

        Bit for bit the scalar recursion ``t += exponential(1 / rate)``
        until ``t > horizon``: the gaps are drawn as one block and
        ``np.cumsum`` adds them in sequence, which is exactly the scalar
        sum.  The block over-draws, and the ziggurat sampler eats a
        variable number of raw words per value, so the generator is
        rewound and exactly ``count + 1`` gaps are drawn again: the stream
        then stands where the scalar loop left it.  A block that never
        passes the horizon is drawn again twice as long.
        """
        rng = self.rng
        scale = 1.0 / rate_per_ns
        state = rng.bit_generator.state
        size = _arrival_block(rate_per_ns * horizon_ns)
        while True:
            times = np.cumsum(rng.exponential(scale, size=size))
            count = int(np.argmax(times > horizon_ns))
            rng.bit_generator.state = state
            if times[count] > horizon_ns:
                break
            size *= 2
        rng.exponential(scale, size=count + 1)
        return times[:count]

    def realize(self, name_suffix: str = "") -> MultipathChannel:
        """Draw one channel realization (unit total power)."""
        p = self.parameters
        horizon = self.max_excess_delay_ns

        cluster_times = np.concatenate((
            [0.0], self._poisson_arrivals(p.cluster_rate_per_ns, horizon)))

        # Seeded streams are part of the published-results contract, so
        # every draw keeps the historical order: a cluster's ray arrivals
        # (one rewound block, see ``_poisson_arrivals``), then per ray one
        # shadowing normal and one phase uniform (or polarity choice).
        # ``sigma * standard_normal()`` and ``2 pi * random()`` are the
        # doubles ``normal(0, sigma)`` and ``uniform(0, 2 pi)`` return
        # (NumPy computes ``0 + sigma * g`` and ``0 + 2 pi * u``), minus
        # their argument handling.  The power law stays scalar — its
        # vectorized ``**`` is NOT bit-identical to the scalar form — while
        # the exponential decay and the phasors are vectorized over the
        # whole realization, where numpy's array exp IS bit-identical to
        # its scalar exp.
        shadow_sigma = float(np.sqrt(p.cluster_shadowing_db ** 2
                                     + p.ray_shadowing_db ** 2))
        two_pi = 2.0 * np.pi
        rng = self.rng
        normal, uniform = rng.standard_normal, rng.random
        ray_times_parts: list[np.ndarray] = []
        shadow_parts: list[np.ndarray] = []
        phase_parts: list[np.ndarray] = []
        for cluster_time in cluster_times:
            ray_times = np.concatenate((
                [0.0],
                self._poisson_arrivals(p.ray_rate_per_ns,
                                       horizon - cluster_time)))
            shadow_linear = np.empty(ray_times.size)
            phases_or_signs = np.empty(ray_times.size)
            for ray in range(ray_times.size):
                shadow_linear[ray] = 10.0 ** (shadow_sigma * normal() / 10.0)
                phases_or_signs[ray] = (
                    two_pi * uniform() if self.complex_gains
                    else _POLARITIES[rng.integers(2)])
            ray_times_parts.append(ray_times)
            shadow_parts.append(shadow_linear)
            phase_parts.append(phases_or_signs)

        ray_arr = np.concatenate(ray_times_parts)
        cluster_arr = np.repeat(cluster_times, [part.size
                                                for part in ray_times_parts])
        mean_power = (np.exp(-cluster_arr / p.cluster_decay_ns)
                      * np.exp(-ray_arr / p.ray_decay_ns))
        amplitude = np.sqrt(mean_power * np.concatenate(shadow_parts))
        phases_or_signs = np.concatenate(phase_parts)
        if self.complex_gains:
            gains_arr = amplitude * np.exp(1j * phases_or_signs)
        else:
            gains_arr = amplitude * phases_or_signs
        delays_s = (cluster_arr + ray_arr) * 1e-9
        channel = MultipathChannel(
            delays_s, gains_arr,
            name=f"{p.name}{name_suffix}")
        return channel.normalized()

    def average_rms_delay_spread_s(self, num_realizations: int = 20) -> float:
        """Monte-Carlo estimate of the model's mean RMS delay spread."""
        require_int(num_realizations, "num_realizations", minimum=1)
        spreads = [self.realize().rms_delay_spread_s()
                   for _ in range(num_realizations)]
        return float(np.mean(spreads))


def generate_channel(model: str = "CM3",
                     rng: np.random.Generator | None = None,
                     complex_gains: bool = False) -> MultipathChannel:
    """Convenience wrapper: one realization of a named 802.15.3a model."""
    key = model.upper()
    if key not in CHANNEL_MODELS:
        raise ValueError(
            f"unknown channel model {model!r}; choose from {sorted(CHANNEL_MODELS)}")
    generator = SalehValenzuelaChannelGenerator(CHANNEL_MODELS[key], rng=rng,
                                                complex_gains=complex_gains)
    return generator.realize()
