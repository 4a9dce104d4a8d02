"""Fleet-serving test fixtures.

Reuses the runtime suite's stub pipeline and synthetic log factory;
adds the identifier factory every fleet/shard constructor wants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.streaming import StreamingIdentifier

from ..runtime.conftest import (  # noqa: F401 - re-exported for tests
    FailingPipeline,
    FakeClock,
    StubPipeline,
    make_log,
)

@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


_SHARED_STUB = StubPipeline()


def make_identifier() -> StreamingIdentifier:
    """Module-level factory over one shared stub pipeline."""
    return StreamingIdentifier(pipeline=_SHARED_STUB, window_s=2.4, min_reads=5)


def make_factory(pipeline=None, window_s: float = 2.4, min_reads: int = 5):
    """A closure factory over its own stub pipeline (or ``pipeline``)."""
    pipe = pipeline if pipeline is not None else StubPipeline()

    def factory() -> StreamingIdentifier:
        return StreamingIdentifier(
            pipeline=pipe, window_s=window_s, min_reads=min_reads
        )

    return factory


def poison_log(log, fraction: float = 1.0, seed: int = 0):
    """Return a copy of ``log`` with NaN phases on a read fraction."""
    rng = np.random.default_rng(seed)
    phase = np.array(log.phase_rad, dtype=np.float64, copy=True)
    n = len(phase)
    k = max(1, int(round(fraction * n)))
    idx = rng.choice(n, size=k, replace=False)
    phase[idx] = np.nan
    from dataclasses import replace

    return replace(log, phase_rad=phase)
