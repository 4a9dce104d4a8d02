"""Signal preprocessing: calibration, MUSIC, periodogram, frames."""

from repro.dsp.angles import (
    circular_distance,
    circular_mean,
    circular_median,
    fold_double,
    grouped_circular_median,
    wrap_2pi,
    wrap_pm_pi,
)
from repro.dsp.calibration import PhaseCalibrator, uncalibrated
from repro.dsp.correlation import spatial_covariance, spatial_covariance_stack
from repro.dsp.doppler import snapshot_doppler
from repro.dsp.features import CHANNEL_SETS, M2AIFeaturizer
from repro.dsp.frames import (
    FeatureFrames,
    build_spectrum_frames,
    build_spectrum_frames_many,
    normalize_pseudospectrum,
    power_to_db,
    tag_music_spectra,
)
from repro.dsp.localization import (
    BearingEstimate,
    bearing_ray,
    estimate_bearing,
    localize_tag,
    triangulate,
)
from repro.dsp.music import (
    DEFAULT_ANGLES_DEG,
    PHASE_MULTIPLIER,
    STEERING_CACHE_MAXSIZE,
    MusicResult,
    cached_steering_matrix,
    clear_steering_cache,
    estimate_n_sources,
    masked_pseudospectrum,
    masked_spectra_batch,
    music_pseudospectrum,
    music_spectra_batch,
    steering_cache_info,
    steering_matrix,
)
from repro.dsp.periodogram import (
    periodogram_psd,
    spatial_periodogram,
    spatial_periodogram_batch,
    total_power,
)
from repro.dsp.snapshots import (
    TagSnapshots,
    build_snapshots,
    build_snapshots_many,
)

__all__ = [
    "DEFAULT_ANGLES_DEG",
    "BearingEstimate",
    "CHANNEL_SETS",
    "PHASE_MULTIPLIER",
    "FeatureFrames",
    "M2AIFeaturizer",
    "MusicResult",
    "PhaseCalibrator",
    "STEERING_CACHE_MAXSIZE",
    "TagSnapshots",
    "bearing_ray",
    "build_snapshots",
    "build_snapshots_many",
    "build_spectrum_frames",
    "build_spectrum_frames_many",
    "cached_steering_matrix",
    "circular_distance",
    "circular_mean",
    "circular_median",
    "clear_steering_cache",
    "estimate_bearing",
    "estimate_n_sources",
    "fold_double",
    "grouped_circular_median",
    "localize_tag",
    "masked_pseudospectrum",
    "masked_spectra_batch",
    "music_pseudospectrum",
    "music_spectra_batch",
    "normalize_pseudospectrum",
    "periodogram_psd",
    "power_to_db",
    "snapshot_doppler",
    "spatial_covariance",
    "spatial_covariance_stack",
    "spatial_periodogram",
    "spatial_periodogram_batch",
    "steering_cache_info",
    "steering_matrix",
    "tag_music_spectra",
    "total_power",
    "triangulate",
    "uncalibrated",
    "wrap_2pi",
    "wrap_pm_pi",
]
