"""Extension: the fault sweep served through the supervised runtime."""

from repro.eval import run_ext_resilience
from repro.eval.robustness import DEFAULT_FAULT_KINDS, DEFAULT_SEVERITIES


def test_ext_resilience_supervised_sweep(run_experiment):
    result = run_experiment(run_ext_resilience)
    measured = result.measured_by_name()

    # Full kind x severity grid, with a decided-rate row per cell.
    for kind in DEFAULT_FAULT_KINDS:
        for severity in DEFAULT_SEVERITIES:
            decided = measured[f"{kind} s={severity:.1f} decided"]
            assert 0.0 <= decided <= 1.0

    # Clean serving must actually decide (the baseline is healthy).
    assert all(
        measured[f"{kind} s=0.0 decided"] == 1.0 for kind in DEFAULT_FAULT_KINDS
    )

    # Transport at severity 0.9 recovers at least some windows through
    # retries, and the predict breaker demonstrably completed a
    # closed -> open -> half-open -> closed cycle.  run_ext_resilience
    # itself raises if any exception escaped the supervisor.
    assert measured["transport s=0.9 delivered rate"] > 0.0
    assert measured["breaker full cycle observed"] == 1.0
