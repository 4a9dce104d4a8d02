"""M2AI: Multipath-aware Multi-object Activity Identification.

A full-system reproduction of Fan et al., "Multiple Object Activity
Identification using RFIDs: A Multipath-Aware Deep Learning Solution"
(IEEE ICDCS 2018), including the RFID backscatter substrate the paper
runs on.

Package map:

* :mod:`repro.geometry`  — planar geometry and rooms
* :mod:`repro.channel`   — image-source multipath backscatter channel
* :mod:`repro.hardware`  — tags, antenna array, hopping, reader, LLRP
* :mod:`repro.motion`    — body kinematics and the 12 activity scenarios
* :mod:`repro.dsp`       — calibration, MUSIC, periodogram, frames
* :mod:`repro.nn`        — from-scratch numpy deep-learning framework
* :mod:`repro.ml`        — the ten classical baselines + HMM + metrics
* :mod:`repro.core`      — the M2AI network, trainer, pipeline
* :mod:`repro.data`      — synthetic dataset generation
* :mod:`repro.eval`      — one driver per paper table/figure

Quickstart::

    from repro.data import SyntheticDatasetGenerator, tiny_generation
    from repro.core import M2AIPipeline

    dataset = SyntheticDatasetGenerator(tiny_generation()).generate()
    train, test = dataset.split(0.2)
    train, val = train.split(0.2)  # pick the epoch on val, never on test
    pipeline = M2AIPipeline().fit(train, val=val)
    print(pipeline.evaluate(test).accuracy)
"""

from repro.core import M2AIConfig, M2AIPipeline
from repro.data import GenerationConfig, SyntheticDatasetGenerator

__version__ = "1.0.0"

__all__ = [
    "GenerationConfig",
    "M2AIConfig",
    "M2AIPipeline",
    "SyntheticDatasetGenerator",
    "__version__",
]
