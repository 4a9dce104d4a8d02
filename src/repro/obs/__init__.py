"""Observability: tracing and metrics for the M²AI path.

Two layers, both stdlib-only and off by default:

* :mod:`repro.obs.tracing` — ``span("stage")`` context managers
  producing nested wall/CPU span trees in a thread-safe collector;
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms, exportable as JSON and Prometheus text.

Timing the pipeline per phase and per NN layer, forward and backward,
is the repository benchmark's job (``perfbench/run.py --trace 1``),
which records its own spans around the public entry points.

The facade functions below (:func:`counter`, :func:`gauge`,
:func:`histogram`) are what instrumented call sites use — they return
a shared :class:`~repro.obs.metrics.NullMetric` while instrumentation
is disabled, so the disabled path costs a flag check (<2% overhead on
``StreamingIdentifier.identify``; enforced by ``tests/obs``).

Quickstart::

    import repro.obs as obs

    obs.enable()
    decisions = identifier.identify(log)        # instrumented library code
    print(obs.render_span_tree(obs.get_collector().drain()))
    print(obs.get_registry().to_prometheus())
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetric,
    counter,
    gauge,
    get_registry,
    histogram,
    reset_registry,
)
from repro.obs.tracing import (
    Span,
    SpanCollector,
    disable,
    enable,
    get_collector,
    is_enabled,
    render_span_tree,
    span,
    walk_spans,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetric",
    "Span",
    "SpanCollector",
    "counter",
    "disable",
    "enable",
    "gauge",
    "get_collector",
    "get_registry",
    "histogram",
    "is_enabled",
    "render_span_tree",
    "reset",
    "reset_registry",
    "span",
    "walk_spans",
]


def reset() -> None:
    """Clear collected spans and registered metrics (fresh run)."""
    get_collector().drain()
    reset_registry()
