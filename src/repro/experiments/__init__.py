"""Durable parallel experiment harness.

``repro.experiments`` turns the ad-hoc experiment script into a
package: a spec names one sweep cell (experiment x mode x seed x
overrides, content-hashed), :func:`run_one` executes it,
:func:`run_batch` fans a sweep across supervised worker processes, the
:class:`ResultsStore` makes every completed cell durable and a killed
sweep resumable, :mod:`~repro.experiments.metrics` collapses the seed
axis, and :mod:`~repro.experiments.report` renders EXPERIMENTS.md from
the store.  The first workload built on it is the cross-environment
domain-shift eval (:mod:`~repro.experiments.domain_shift`).
"""

from repro.experiments.metrics import (
    AggregateRow,
    aggregate_records,
    render_aggregate_table,
)
from repro.experiments.report import (
    EXPERIMENTS_HEADER,
    render_block,
    render_experiments_md,
    write_experiments_md,
)
from repro.experiments.runner import (
    ExperimentBatchError,
    UnknownExperimentError,
    bind_configs,
    default_registry,
    register_runner,
    run_batch,
    run_one,
    validate_ids,
)
from repro.experiments.spec import ExperimentSpec, ResultRecord, make_spec
from repro.experiments.store import (
    ResultsStore,
    atomic_write_text,
    default_store_root,
)

__all__ = [
    "AggregateRow",
    "EXPERIMENTS_HEADER",
    "ExperimentBatchError",
    "ExperimentSpec",
    "ResultRecord",
    "ResultsStore",
    "UnknownExperimentError",
    "aggregate_records",
    "atomic_write_text",
    "bind_configs",
    "default_registry",
    "default_store_root",
    "make_spec",
    "register_runner",
    "render_aggregate_table",
    "render_block",
    "render_experiments_md",
    "run_batch",
    "run_one",
    "validate_ids",
    "write_experiments_md",
]

# Convenience access (kept out of __all__ on purpose: the canonical
# home is repro.experiments.domain_shift, which documents them).
_LAZY = {"run_domain_shift", "run_domain_shift_bench"}


def __getattr__(name: str):
    """Resolve the domain-shift entry points on first use.

    :mod:`~repro.experiments.domain_shift` pulls in the full
    ``repro.eval`` training stack; importing it eagerly would make
    every spawned sweep worker pay that start-up cost (and trips
    runpy's double-import warning under ``python -m``).
    """
    if name in _LAZY:
        from repro.experiments import domain_shift

        return getattr(domain_shift, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
