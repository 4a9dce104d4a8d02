"""Phase calibration demo: the Fig. 3 effect and the Eq. 1 fix.

Shows (1) how frequency hopping scatters the reported phase of a
*stationary* tag across channels, (2) that the per-channel offsets are
linear in the carrier frequency, and (3) that calibration collapses
the runtime phase stream back onto a single consistent value.

Usage::

    python examples/phase_calibration_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.dsp.angles import (
    circular_median,
    fold_double,
    grouped_circular_median,
    wrap_pm_pi,
)
from repro.dsp.calibration import PhaseCalibrator
from repro.geometry import Vec2, make_laboratory
from repro.hardware import Reader, ReaderConfig, UniformLinearArray
from repro.hardware.scene import stationary_scene
from repro.hardware.tag import make_tag


def main() -> None:
    room = make_laboratory()
    array = UniformLinearArray(center=Vec2(room.bounds.width / 2.0, 0.3))
    reader = Reader(ReaderConfig(array=array), room, seed=42)
    rng = np.random.default_rng(0)
    scene = stationary_scene(
        [(make_tag("demo", rng), (room.bounds.width / 2.0 + 1.0, 4.0))]
    )

    print("Collecting 60 s from a stationary tag (the Fig. 3 protocol) ...")
    log = reader.inventory(scene, 60.0)
    psi = fold_double(log.phase_rad)
    mask = log.antenna == 0
    channels, medians = grouped_circular_median(psi[mask], log.channel[mask])
    freqs = log.meta.frequencies_hz[channels] / 1e6

    print("\nPer-channel median phase of a MOTIONLESS tag (antenna 0):")
    print(f"  spread across channels: {np.ptp(medians):.2f} rad "
          f"(a motionless tag should be constant!)")
    order = np.argsort(freqs)
    unwrapped = np.unwrap(medians[order])
    slope, intercept = np.polyfit(freqs[order], unwrapped, 1)
    fitted = slope * freqs[order] + intercept
    r2 = 1.0 - np.sum((unwrapped - fitted) ** 2) / np.sum(
        (unwrapped - unwrapped.mean()) ** 2
    )
    print(f"  linear fit: slope {slope:+.3f} rad/MHz, R^2 = {r2:.4f} "
          "(the paper's Fig. 3 linearity)")

    print("\nFitting the Eq. 1 calibration table from a 20 s bootstrap ...")
    calibrator = PhaseCalibrator.fit(reader.inventory(scene, 20.0))
    runtime = reader.inventory(scene, 10.0)
    raw = fold_double(runtime.phase_rad)
    calibrated = calibrator.calibrate(runtime)

    for label, values in (("raw", raw), ("calibrated", calibrated)):
        a0 = values[runtime.antenna == 0]
        centre = circular_median(a0)
        spread = np.std(wrap_pm_pi(a0 - centre))
        print(f"  {label:>10}: circular std across hops = {spread:.3f} rad")
    print("\nCalibration collapses the hop-induced scatter by an order of "
          "magnitude — without it the learner sees noise (Fig. 10).")


if __name__ == "__main__":
    main()
