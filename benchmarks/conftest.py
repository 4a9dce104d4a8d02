"""Benchmark harness plumbing.

Every benchmark regenerates one paper table/figure through the
experiment drivers in :mod:`repro.eval` and prints the paper-vs-
measured comparison.  Corpora are cached on disk (``.repro_cache/``),
so a prior ``python scripts/run_experiments.py`` run makes the suite
much faster; the model training inside each benchmark always runs for
real and is what the timing measures.

Benchmarks only time and print: the results store written by
``scripts/run_experiments.py`` is the one record ``EXPERIMENTS.md`` is
rendered from.
"""

from __future__ import annotations

import os

import pytest

# Benchmarks measure end-to-end regeneration; a trimmed training budget
# keeps the full suite in minutes.
os.environ.setdefault("REPRO_BENCH_EPOCHS", "15")


@pytest.fixture
def run_experiment(benchmark, capsys):
    """Run an experiment driver once under pytest-benchmark and print it."""

    def runner(fn, **kwargs):
        result = benchmark.pedantic(
            lambda: fn(**kwargs), rounds=1, iterations=1, warmup_rounds=0
        )
        with capsys.disabled():
            print()
            print(result.render())
        return result

    return runner
