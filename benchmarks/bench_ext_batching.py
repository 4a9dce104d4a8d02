"""Extension: per-dwell vs pooled calls of one DSP kernel (streaming hot path)."""

from repro.eval import run_ext_batching


def test_ext_batching_speedup(run_experiment):
    result = run_experiment(run_ext_batching)
    measured = result.measured_by_name()
    # One pooled kernel call must beat a batch-of-one call per dwell
    # (the driver itself asserts rtol=1e-12 equivalence).
    assert measured["MUSIC speedup"] > 1.0
    assert measured["periodogram speedup"] > 1.0
