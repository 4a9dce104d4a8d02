"""Extension: multi-tenant fleet serving (isolation + controls)."""

from repro.eval import run_ext_serving

from repro.eval.serving import HEALTHY_UNCHANGED_FLOOR, LATENCY_P95_TOLERANCE


def test_ext_serving_contracts(run_experiment):
    result = run_experiment(run_ext_serving)
    measured = result.measured_by_name()
    # The driver already raises on a violated contract; re-assert the
    # headline numbers here so the bench output records them.
    assert measured["healthy decisions unchanged"] >= HEALTHY_UNCHANGED_FLOOR
    assert measured["healthy p95 latency ratio"] <= LATENCY_P95_TOLERANCE
