"""Importable toy experiment registry for run_batch worker tests.

Spawned workers resolve their registry by dotted path, so the fake
drivers must live in a real module (a closure cannot cross a spawn
boundary).  The result type is duck-typed on purpose: it keeps worker
start-up free of the heavy ``repro.eval`` import chain.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ToyRow:
    """Minimal stand-in for ExperimentRow (asdict-compatible)."""

    name: str
    paper: "float | None"
    measured: float
    unit: str = "acc"
    approx: bool = False


@dataclass
class ToyResult:
    """Minimal stand-in for ExperimentResult."""

    experiment_id: str
    title: str
    rows: list
    notes: str = ""
    extras: dict = field(default_factory=dict)

    def render(self) -> str:
        """Deterministic text block."""
        body = "\n".join(f"{r.name}: {r.measured:.6f}" for r in self.rows)
        return f"== {self.experiment_id}: {self.title} ==\n{body}"


def run_toy(quick: bool = True, seed: int = 0, scale: float = 1.0) -> ToyResult:
    """Deterministic toy driver: measured value is a function of args."""
    value = (seed * 10 + (1 if quick else 2)) * scale
    return ToyResult(
        experiment_id="toy",
        title="toy experiment",
        rows=[ToyRow("value", None, float(value))],
        notes=f"quick={quick} seed={seed}",
    )


def run_crash(quick: bool = True, seed: int = 0) -> ToyResult:
    """Driver that always raises (worker failure attribution tests)."""
    raise RuntimeError("injected driver failure")


def run_die(quick: bool = True, seed: int = 0) -> ToyResult:
    """Driver that hard-kills its process for odd seeds.

    ``os._exit`` skips all Python cleanup — the closest simulation of
    a SIGKILL mid-sweep that still works under pytest.
    """
    if seed % 2 == 1:
        os._exit(41)
    return run_toy(quick=quick, seed=seed)


def run_affinity(quick: bool = True, seed: int = 0) -> ToyResult:
    """Report the cores this process may use and the conv pool's width."""
    from repro.nn import parallel

    return ToyResult(
        experiment_id="affinity",
        title="worker affinity",
        rows=[ToyRow("width", None, float(parallel.WIDTH))],
        notes=json.dumps(sorted(os.sched_getaffinity(0))),
    )


def factory() -> dict:
    """Registry factory resolved by the spawned workers."""
    return {"toy": run_toy, "crash": run_crash, "die": run_die, "affinity": run_affinity}


def tiny_budget(quick=True, seed=0, source="laboratory", target="hall", k_shot=None):
    """A seconds-long domain-shift cell: two classes, a two-epoch fit."""
    from repro.core.config import M2AIConfig
    from repro.data.generator import GenerationConfig

    def corpus(environment):
        return GenerationConfig(
            scenario_labels=("A01", "A03"),
            samples_per_class=5,
            duration_s=3.2,
            calibration_s=20.0,
            environment=environment,
            seed=seed,
        )

    training = M2AIConfig(
        conv_channels=(3, 4), branch_dim=6, merge_dim=8, lstm_hidden=6,
        lstm_layers=1, epochs=2, batch_size=4, warmup_frames=1, seed=seed,
    )
    return {
        "source": corpus(source),
        "target": corpus(target),
        "training": training,
        "k_shot": 1,
        "fine_tune_epochs": 1,
    }


def tiny_shift_factory() -> dict:
    """The domain-shift driver on :func:`tiny_budget`, in any process."""
    from repro.experiments import domain_shift

    domain_shift._budget = tiny_budget
    return {domain_shift.EXPERIMENT_ID: domain_shift.run_domain_shift}


def good_factory() -> dict:
    """Registry where the 'die' id no longer dies (resume-after-kill)."""
    return {"toy": run_toy, "crash": run_crash, "die": run_toy}
