"""Run experiment specs: one cell (`run_one`) or a parallel sweep (`run_batch`).

``run_batch`` fans specs across **supervised worker processes** rather
than a bare ``multiprocessing.Pool`` (lint rule RPR011): each spec gets
its own spawned process whose lifecycle the batch loop owns explicitly
— liveness is observed through ``Process.exitcode``, a crash is
attributed to the exact spec that died (instead of hanging a ``map``),
and every completed cell is already durable in the
:class:`~repro.experiments.store.ResultsStore` the moment its worker
exits, because the *worker* publishes the record atomically before
reporting success.  Kill the sweep at any point and a rerun executes
only the missing cells.

Determinism: workers are spawned (fresh interpreter, no inherited
memo caches) and every driver is seeded from its spec alone, so the
same specs produce byte-identical record content regardless of
``workers`` — the determinism tests compare
:meth:`ResultRecord.content_digest` across worker counts.

CPU budget: each worker starts pinned to its own disjoint slice of the
parent's affinity mask, so the workers never share a core (unpinned,
each sized OpenBLAS and the conv pool to the whole host).
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import multiprocessing
import os
import sys
import time
import traceback
from typing import Callable

from repro.experiments.spec import ExperimentSpec, ResultRecord, config_digest
from repro.experiments.store import ResultsStore

__all__ = [
    "DEFAULT_REGISTRY_FACTORY",
    "ExperimentBatchError",
    "UnknownExperimentError",
    "bind_configs",
    "default_registry",
    "register_runner",
    "resolve_registry_factory",
    "run_batch",
    "run_one",
    "validate_ids",
]

DEFAULT_REGISTRY_FACTORY = "repro.experiments.runner:default_registry"
"""Dotted ``module:callable`` workers resolve their registry from."""

_EXTRA_RUNNERS: dict[str, Callable] = {}

_POLL_S = 0.05


class UnknownExperimentError(ValueError):
    """An experiment id is not in the registry (lists the valid ids)."""

    def __init__(self, unknown: list[str], valid: "list[str] | tuple"):
        self.unknown = list(unknown)
        self.valid = sorted(valid)
        super().__init__(
            f"unknown experiment id(s) {', '.join(self.unknown)}; "
            f"valid ids: {', '.join(self.valid)}"
        )


class ExperimentBatchError(RuntimeError):
    """One or more sweep cells failed (completed cells stay durable).

    Attributes:
        failures: ``{spec key: reason}`` for every failed cell.
        completed: records that did finish (already in the store).
    """

    def __init__(self, failures: dict[str, str], completed: list[ResultRecord]):
        self.failures = dict(failures)
        self.completed = list(completed)
        detail = "; ".join(f"{key}: {why}" for key, why in failures.items())
        super().__init__(
            f"{len(failures)} experiment cell(s) failed "
            f"({len(completed)} completed and durable): {detail}"
        )


def register_runner(exp_id: str, runner: Callable) -> Callable:
    """Register an extra driver under ``exp_id`` (returns ``runner``).

    Drivers take ``(quick: bool, seed: int, **overrides)`` and return
    an :class:`~repro.eval.reporting.ExperimentResult`.  The paper and
    extension drivers come from :data:`repro.eval.ALL_EXPERIMENTS`;
    this hook is for new workloads (e.g. the domain-shift eval).
    """
    _EXTRA_RUNNERS[exp_id] = runner
    return runner


def default_registry() -> dict[str, Callable]:
    """Every known experiment driver, keyed by id."""
    from repro.eval import ALL_EXPERIMENTS

    # Imported for its register_runner side effect: the domain-shift
    # driver lives outside repro.eval to keep the dependency one-way.
    import repro.experiments.domain_shift  # noqa: F401

    registry = dict(ALL_EXPERIMENTS)
    registry.update(_EXTRA_RUNNERS)
    return registry


def resolve_registry_factory(factory: str) -> dict[str, Callable]:
    """Resolve a ``module:callable`` path into a registry dict."""
    module_name, _, attr = factory.partition(":")
    if not module_name or not attr:
        raise ValueError(
            f"registry factory must look like 'pkg.mod:callable', got {factory!r}"
        )
    module = importlib.import_module(module_name)
    registry = getattr(module, attr)()
    if not isinstance(registry, dict):
        raise TypeError(f"registry factory {factory!r} did not return a dict")
    return registry


def validate_ids(
    exp_ids: "list[str] | tuple", registry: dict[str, Callable]
) -> None:
    """Raise :class:`UnknownExperimentError` on any id not registered.

    This runs *before* any cell executes, replacing the old script's
    mid-run bare ``KeyError`` on a typo'd ``--only`` id.
    """
    unknown = [exp_id for exp_id in exp_ids if exp_id not in registry]
    if unknown:
        raise UnknownExperimentError(unknown, list(registry))


def bind_configs(
    spec: ExperimentSpec, registry: dict[str, Callable]
) -> ExperimentSpec:
    """``spec`` with the digest of its driver's declared budget.

    A driver declares its budget with
    :func:`repro.eval.reporting.declares`; the digest folds the
    ``GenerationConfig``/``M2AIConfig`` objects it would run with into
    :attr:`ExperimentSpec.key`.  A driver that declares nothing leaves
    the spec as it is.

    Raises:
        UnknownExperimentError: the spec's id is not registered.
    """
    validate_ids([spec.exp_id], registry)
    budget = getattr(registry[spec.exp_id], "configs", None)
    if budget is None:
        return spec
    declared = budget(quick=spec.mode == "quick", seed=spec.seed, **spec.overrides_dict())
    return dataclasses.replace(spec, configs=config_digest(declared))


def _call_runner(runner: Callable, spec: ExperimentSpec):
    """Invoke a driver with the spec's seed/mode and any overrides."""
    kwargs: dict[str, object] = {
        "quick": spec.mode == "quick",
        "seed": spec.seed,
    }
    overrides = spec.overrides_dict()
    if overrides:
        signature = inspect.signature(runner)
        has_var_kw = any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in signature.parameters.values()
        )
        unknown = [
            name
            for name in overrides
            if not has_var_kw and name not in signature.parameters
        ]
        if unknown:
            raise TypeError(
                f"driver for {spec.exp_id!r} does not accept override(s) "
                f"{', '.join(sorted(unknown))}"
            )
        kwargs.update(overrides)
    return runner(**kwargs)


def run_one(
    spec: ExperimentSpec, registry: "dict[str, Callable] | None" = None
) -> ResultRecord:
    """Execute one spec and return its :class:`ResultRecord`.

    Raises:
        UnknownExperimentError: the spec's id is not registered.
        TypeError: the driver does not accept the spec's overrides.
    """
    registry = registry if registry is not None else default_registry()
    spec = bind_configs(spec, registry)
    t0 = time.monotonic()
    result = _call_runner(registry[spec.exp_id], spec)
    elapsed = time.monotonic() - t0
    return ResultRecord.from_result(spec, result, elapsed_s=elapsed)


def _worker_entry(
    spec_payload: dict, store_root: str, registry_factory: str
) -> None:
    """Worker-process body: run one spec and publish its record.

    The record hits the store (atomically) *before* the process exits
    zero, so the parent can treat a clean exit as "record durable" and
    a non-zero exit / missing record as an attributable crash.
    """
    try:
        spec = ExperimentSpec.from_payload(spec_payload)
        registry = resolve_registry_factory(registry_factory)
        record = run_one(spec, registry)
        ResultsStore(store_root).put(record)
    except BaseException:
        traceback.print_exc(file=sys.stderr)
        raise SystemExit(1) from None
    raise SystemExit(0)


def run_batch(
    specs: "list[ExperimentSpec]",
    store: "ResultsStore | None" = None,
    workers: int = 1,
    force: bool = False,
    registry: "dict[str, Callable] | None" = None,
    registry_factory: str = DEFAULT_REGISTRY_FACTORY,
    on_event: "Callable[[str, ExperimentSpec, str], None] | None" = None,
) -> list[ResultRecord]:
    """Run a sweep, skipping cells the store already holds.

    Args:
        specs: cells to run (duplicates collapse to one execution).
        store: durable results store (default:
            :func:`~repro.experiments.store.default_store_root`).
        workers: max concurrent worker processes, capped at the cores
            this process may use; ``<= 1`` runs inline in this process
            (no spawning).
        force: rerun and overwrite cells already in the store.
        registry: driver registry for the **inline** path; parallel
            workers resolve ``registry_factory`` themselves (a spawned
            process cannot be handed arbitrary callables).
        registry_factory: dotted ``module:callable`` the workers (and
            upfront validation) use to build their registry.
        on_event: optional progress callback ``(kind, spec, detail)``
            with kind in ``{"skip", "start", "done", "failed"}`` —
            library code stays silent; CLIs pass a printer.

    Returns:
        One record per unique spec, in first-occurrence order.

    Raises:
        UnknownExperimentError: any spec id is unknown (checked before
            anything runs).
        ExperimentBatchError: one or more cells failed; completed
            records are durable in the store and listed on the error.
    """
    store = store if store is not None else ResultsStore()
    if registry is None:
        registry = resolve_registry_factory(registry_factory)
    notify = on_event if on_event is not None else (lambda kind, spec, detail: None)

    validate_ids(sorted({s.exp_id for s in specs}), registry)
    unique: dict[str, ExperimentSpec] = {}
    for spec in specs:
        spec = bind_configs(spec, registry)
        unique.setdefault(spec.key, spec)

    done: dict[str, ResultRecord] = {}
    todo: list[ExperimentSpec] = []
    for key, spec in unique.items():
        record = None if force else store.get(key)
        if record is not None:
            done[key] = record
            notify("skip", spec, "already recorded")
        else:
            todo.append(spec)

    failures: dict[str, str] = {}
    if workers <= 1:
        for spec in todo:
            notify("start", spec, "")
            try:
                record = run_one(spec, registry)
            except Exception as exc:  # noqa: BLE001 - attributed and re-raised
                failures[spec.key] = f"{type(exc).__name__}: {exc}"
                notify("failed", spec, failures[spec.key])
                continue
            store.put(record)
            done[spec.key] = record
            notify("done", spec, f"{record.elapsed_s:.0f} s")
    elif todo:
        _run_parallel(
            todo, store, workers, registry_factory, done, failures, notify
        )

    ordered = [done[key] for key in unique if key in done]
    if failures:
        raise ExperimentBatchError(failures, ordered)
    return ordered


def _core_slices(cores: "list[int]", workers: int) -> "list[list[int]]":
    """``min(workers, len(cores))`` disjoint contiguous slices of ``cores``."""
    n = max(1, min(workers, len(cores)))
    return [cores[i * len(cores) // n : (i + 1) * len(cores) // n] for i in range(n)]


def _start_pinned(process, cores: "list[int] | None", parent: "list[int] | None") -> None:
    """Start ``process`` with this thread's affinity mask set to ``cores``.

    The child inherits the mask, and OpenBLAS and
    :data:`repro.nn.parallel.WIDTH` size their threads from it at import.
    """
    if cores is not None:
        os.sched_setaffinity(0, cores)
    try:
        process.start()
    finally:
        if cores is not None:
            os.sched_setaffinity(0, parent)


def _run_parallel(
    todo: list[ExperimentSpec],
    store: ResultsStore,
    workers: int,
    registry_factory: str,
    done: dict[str, ResultRecord],
    failures: dict[str, str],
    notify: Callable,
) -> None:
    """Drive the spawned workers; fills ``done``/``failures`` in place."""
    ctx = multiprocessing.get_context("spawn")
    pinned = hasattr(os, "sched_setaffinity")
    parent = sorted(os.sched_getaffinity(0)) if pinned else None
    slots = _core_slices(parent, workers) if pinned else [None] * max(workers, 1)
    free = list(range(len(slots)))
    pending = list(todo)
    active: dict[str, tuple] = {}
    while pending or active:
        while pending and free:
            spec, slot = pending.pop(0), free.pop(0)
            process = ctx.Process(
                target=_worker_entry,
                args=(spec.payload(), str(store.root), registry_factory),
                daemon=False,
            )
            _start_pinned(process, slots[slot], parent)
            active[spec.key] = (spec, process, slot)
            notify("start", spec, f"pid {process.pid}")
        for key in list(active):
            spec, process, slot = active[key]
            process.join(_POLL_S)
            if process.is_alive():
                continue
            del active[key]
            free.append(slot)
            record = store.get(key) if process.exitcode == 0 else None
            if process.exitcode == 0 and record is not None:
                done[key] = record
                notify("done", spec, f"{record.elapsed_s:.0f} s")
            else:
                reason = (
                    f"worker exited {process.exitcode}"
                    if process.exitcode != 0
                    else "worker exited 0 but published no record"
                )
                failures[key] = reason
                notify("failed", spec, reason)
