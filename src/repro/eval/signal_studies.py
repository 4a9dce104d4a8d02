"""Signal-level studies: Fig. 2 (AoA spectra) and Fig. 3 (hopping offsets).

These experiments exercise the substrate without any learning:

* Fig. 2 shows how the pseudospectrum of a stationary tag is stable,
  how a moving person reshapes it (blocks one peak, shifts another),
  and how more tags mean more observable paths.
* Fig. 3 shows that the per-channel phase offset of a stationary tag
  is linear in the carrier frequency — the property the calibrator's
  extrapolation relies on.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.angles import fold_double, grouped_circular_median
from repro.dsp.calibration import PhaseCalibrator
from repro.dsp.frames import tag_music_spectra
from repro.eval.reporting import ExperimentResult, ExperimentRow, declares
from repro.geometry.room import make_laboratory
from repro.geometry.vec import Vec2
from repro.hardware.antenna import UniformLinearArray
from repro.hardware.reader import Reader, ReaderConfig
from repro.hardware.scene import Scene, TagTrack, stationary_scene
from repro.hardware.tag import make_tag
from repro.channel.model import BodyTrack


def _spectra_for_tag(reader: Reader, scene: Scene, duration_s: float, tag: int = 0):
    """Calibrate against the scene frozen at t=0, then frame spectra."""
    cal_log = reader.inventory(scene.frozen(), 20.0)
    calibrator = PhaseCalibrator.fit(cal_log)
    log = reader.inventory(scene, duration_s)
    psi = calibrator.calibrate(log)
    return tag_music_spectra(log, psi, tag)


def _fig02_budget(quick: bool = True, seed: int = 0) -> dict:
    """Fig. 2 renders fixed 4 s scenes in either mode: no corpus, no training."""
    return {"duration_s": 4.0}


def _fig03_budget(quick: bool = True, seed: int = 0) -> dict:
    """Fig. 3 renders one stationary inventory: no corpus, no training."""
    return {"duration_s": 24.0 if quick else 60.0}


@declares(_fig02_budget)
def run_fig02(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 2: pseudospectrum behaviour from one tag to a crowded room."""
    duration = _fig02_budget(quick, seed)["duration_s"]
    room = make_laboratory()
    array = UniformLinearArray(center=Vec2(room.bounds.width / 2.0, 0.3))
    rng = np.random.default_rng(seed)
    n_slots = int(round(duration / 0.025))

    # (a) Stationary tag alone: stable multi-peak spectrum.
    reader_a = Reader(ReaderConfig(array=array), room, seed=seed + 1)
    tag_pos = (room.bounds.width / 2.0 + 1.2, 4.0)
    scene_a = stationary_scene([(make_tag("fig2-a", rng), tag_pos)])
    spectra_a = _spectra_for_tag(reader_a, scene_a, duration)
    top_angles = [s.peaks(1)[0][0] for s in spectra_a]
    angle_std = float(np.std(top_angles))
    n_paths_single = float(np.mean([s.n_sources for s in spectra_a]))

    # (b) Same tag with a person walking through the direct path.
    reader_b = Reader(ReaderConfig(array=array), room, seed=seed + 1)
    walker_x = np.linspace(
        room.bounds.width / 2.0 - 1.5, room.bounds.width / 2.0 + 2.5, n_slots
    )
    walker = BodyTrack(
        positions=np.stack([walker_x, np.full(n_slots, 2.0)], axis=1), radius=0.2
    )
    scene_b = Scene(
        tag_tracks=(TagTrack(tag=make_tag("fig2-a", rng), positions=np.asarray(tag_pos)),),
        bodies=(walker,),
    )
    spectra_b = _spectra_for_tag(reader_b, scene_b, duration)
    peak_powers = np.array([s.peaks(1)[0][1] for s in spectra_b])
    power_swing_db = float(
        10.0 * np.log10(peak_powers.max() / max(peak_powers.min(), 1e-12))
    )
    peak_angles_b = np.array([s.peaks(1)[0][0] for s in spectra_b])
    angle_swing = float(peak_angles_b.max() - peak_angles_b.min())

    rows = [
        ExperimentRow("stationary: top-peak angle std (deg)", None, angle_std, unit="deg"),
        ExperimentRow(
            "stationary: mean resolved paths/frame", None, n_paths_single, unit="paths"
        ),
        ExperimentRow(
            "moving blocker: peak power swing (dB)", None, power_swing_db, unit="dB"
        ),
        ExperimentRow(
            "moving blocker: peak angle swing (deg)", None, angle_swing, unit="deg"
        ),
    ]
    return ExperimentResult(
        experiment_id="fig02",
        title="AoA spectra: single object to multiple objects",
        rows=rows,
        notes=(
            "Paper (qualitative): a stationary tag keeps the same peaks; a "
            "moving person attenuates the blocked path and shifts others. "
            "Shape check: blocker-induced swings dwarf the stationary "
            f"stability ({power_swing_db:.1f} dB swing vs {angle_std:.1f} deg "
            "static angle std)."
        ),
    )


@declares(_fig03_budget)
def run_fig03(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 3: phase-vs-frequency linearity of a stationary tag."""
    room = make_laboratory()
    array = UniformLinearArray(center=Vec2(room.bounds.width / 2.0, 0.3))
    rng = np.random.default_rng(seed)
    reader = Reader(ReaderConfig(array=array), room, seed=seed + 5)
    scene = stationary_scene([(make_tag("fig3", rng), (room.bounds.width / 2.0 + 1.0, 4.0))])
    duration = _fig03_budget(quick, seed)["duration_s"]
    log = reader.inventory(scene, duration)

    psi = fold_double(log.phase_rad)
    antenna = 0
    mask = log.antenna == antenna
    channels, medians = grouped_circular_median(psi[mask], log.channel[mask])
    freqs_mhz = log.meta.frequencies_hz[channels] / 1e6
    order = np.argsort(freqs_mhz)
    unwrapped = np.unwrap(medians[order])
    slope, intercept = np.polyfit(freqs_mhz[order], unwrapped, 1)
    fitted = slope * freqs_mhz[order] + intercept
    ss_res = float(np.sum((unwrapped - fitted) ** 2))
    ss_tot = float(np.sum((unwrapped - unwrapped.mean()) ** 2))
    r_squared = 1.0 - ss_res / max(ss_tot, 1e-12)

    rows = [
        ExperimentRow("phase-frequency linearity R^2", 1.0, r_squared, unit="R^2"),
        ExperimentRow(
            "fitted slope magnitude (rad/MHz)", None, abs(float(slope)), unit="rad/MHz"
        ),
        ExperimentRow("channels observed", None, float(len(channels)), unit="count"),
    ]
    return ExperimentResult(
        experiment_id="fig03",
        title="Phase jumping caused by frequency hopping",
        rows=rows,
        notes=(
            "Paper: 'the phase and frequency relation follows the linear "
            "model'. R^2 close to 1 confirms the linear structure our "
            "calibrator's extrapolation assumes."
        ),
    )
