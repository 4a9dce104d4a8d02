"""AoA spectrum demo: reproduce the intuition of Fig. 2 as ASCII art.

Three scenes, matching the paper's motivating figure:

(a) one stationary tag — the multipath pseudospectrum holds steady;
(b) the same tag while another person walks through the scene — the
    blocked path collapses and neighbouring peaks shift;
(c) six tags on two moving people — many interleaved paths.

Usage::

    python examples/aoa_spectrum_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.channel.model import BodyTrack
from repro.dsp.calibration import PhaseCalibrator
from repro.dsp.frames import normalize_pseudospectrum, tag_music_spectra
from repro.geometry import Vec2, make_laboratory
from repro.hardware import Reader, ReaderConfig, Scene, TagTrack, UniformLinearArray
from repro.hardware.scene import stationary_scene
from repro.hardware.tag import make_tag
from repro.motion import SCENARIOS, build_instance


def ascii_spectrum(spectrum: np.ndarray, angles: np.ndarray, width: int = 60) -> str:
    """Down-sample a pseudospectrum into a one-line bar strip."""
    normalized = normalize_pseudospectrum(spectrum)
    bins = np.array_split(normalized, width)
    glyphs = " .:-=+*#%@"
    line = "".join(
        glyphs[min(int(np.max(b) * (len(glyphs) - 1)), len(glyphs) - 1)] for b in bins
    )
    return f"0deg |{line}| 180deg"


def frame_spectra(reader: Reader, scene: Scene, duration: float, tag: int = 0):
    n_cal = int(round(20.0 / reader.config.slot_s))
    frozen = _freeze(scene, n_cal)
    calibrator = PhaseCalibrator.fit(reader.inventory(frozen, 20.0))
    log = reader.inventory(scene, duration)
    psi = calibrator.calibrate(log)
    return tag_music_spectra(log, psi, tag)


def _freeze(scene: Scene, n_slots: int) -> Scene:
    tracks = []
    for track in scene.tag_tracks:
        pos = track.positions
        start = pos[0] if pos.ndim == 2 else pos
        tracks.append(
            TagTrack(tag=track.tag, positions=np.asarray(start), carrier=track.carrier)
        )
    bodies = tuple(
        BodyTrack(positions=np.tile(b.positions[0], (n_slots, 1)), radius=b.radius)
        for b in scene.bodies
    )
    return Scene(tag_tracks=tuple(tracks), bodies=bodies)


def main() -> None:
    room = make_laboratory()
    array = UniformLinearArray(center=Vec2(room.bounds.width / 2.0, 0.3))
    rng = np.random.default_rng(0)
    duration = 4.0
    n_slots = int(round(duration / 0.025))

    print("(a) Stationary tag, nobody moving — spectrum is stable:")
    reader = Reader(ReaderConfig(array=array), room, seed=1)
    tag_pos = (room.bounds.width / 2.0 + 1.2, 4.0)
    scene = stationary_scene([(make_tag("demo-a", rng), tag_pos)])
    for i, result in enumerate(frame_spectra(reader, scene, duration)):
        peaks = ", ".join(f"{a:.0f}deg" for a, _p in result.peaks(3))
        print(f"  t={i * 0.4:.1f}s {ascii_spectrum(result.spectrum, result.angles_deg)}"
              f"  peaks: {peaks}")

    print("\n(b) Same tag while a person walks through the direct path:")
    reader = Reader(ReaderConfig(array=array), room, seed=1)
    walker_x = np.linspace(
        room.bounds.width / 2.0 - 1.5, room.bounds.width / 2.0 + 2.5, n_slots
    )
    walker = BodyTrack(
        positions=np.stack([walker_x, np.full(n_slots, 2.0)], axis=1), radius=0.2
    )
    scene_b = Scene(
        tag_tracks=(TagTrack(tag=make_tag("demo-a", rng), positions=np.asarray(tag_pos)),),
        bodies=(walker,),
    )
    for i, result in enumerate(frame_spectra(reader, scene_b, duration)):
        peaks = ", ".join(f"{a:.0f}deg" for a, _p in result.peaks(3))
        print(f"  t={i * 0.4:.1f}s {ascii_spectrum(result.spectrum, result.angles_deg)}"
              f"  peaks: {peaks}")

    print("\n(c) Six tags on two moving people (scenario A06, both walking):")
    reader = Reader(ReaderConfig(array=array), room, seed=2)
    instance = build_instance(
        SCENARIOS["A06"], array, room, duration, reader.config.slot_s, rng
    )
    for tag_index in range(0, 6, 2):
        spectra = frame_spectra(reader, instance.scene, duration, tag=tag_index)
        result = spectra[len(spectra) // 2]
        epc = instance.scene.tag_tracks[tag_index].tag.epc
        print(f"  {epc:16s} {ascii_spectrum(result.spectrum, result.angles_deg)}")


if __name__ == "__main__":
    main()
