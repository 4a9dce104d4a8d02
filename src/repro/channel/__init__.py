"""Indoor multipath backscatter channel simulation."""

from repro.channel.link import (
    above_noise_floor,
    gain_to_rssi_dbm,
    harvest_mask,
    rssi_dbm_to_amplitude,
)
from repro.channel.model import BodyTrack, MultipathChannel, PathComponent
from repro.channel.params import SPEED_OF_LIGHT, ChannelParams
from repro.channel.vectorized import as_traj, pairwise_distance

__all__ = [
    "SPEED_OF_LIGHT",
    "BodyTrack",
    "ChannelParams",
    "MultipathChannel",
    "PathComponent",
    "above_noise_floor",
    "as_traj",
    "gain_to_rssi_dbm",
    "harvest_mask",
    "pairwise_distance",
    "rssi_dbm_to_amplitude",
]
