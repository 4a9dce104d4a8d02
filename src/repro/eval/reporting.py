"""Experiment result containers and plain-text rendering.

Every benchmark regenerates one paper table/figure and reports its
rows side-by-side with the paper's numbers.  Paper values read off a
bar chart (the paper prints few exact numbers) are flagged as
approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


def declares(budget: Callable[..., dict]) -> Callable[[Callable], Callable]:
    """Attach ``budget`` to the decorated driver as ``driver.configs``.

    ``budget`` takes the driver's arguments (``quick``, ``seed`` and any
    overrides) and returns, keyed by role, everything that sizes the
    run: the driver's ``GenerationConfig`` and ``M2AIConfig`` objects
    and any budget constant outside them.  The driver reads its configs
    from the same function, so the declaration cannot drift from what
    runs; :func:`repro.experiments.runner.bind_configs` keys each store
    record by a digest of it.
    """

    def attach(driver: Callable) -> Callable:
        driver.configs = budget
        return driver

    return attach


@dataclass(frozen=True)
class ExperimentRow:
    """One reported quantity.

    Attributes:
        name: what the row measures (classifier, setting, ...).
        paper: the paper's value (None when the paper is qualitative).
        measured: our value.
        unit: display unit (default: accuracy fraction).
        approx: paper value was read off a figure, not stated in text.
    """

    name: str
    paper: float | None
    measured: float
    unit: str = "acc"
    approx: bool = False


@dataclass
class ExperimentResult:
    """A regenerated table/figure.

    Attributes:
        experiment_id: ``"fig09"``, ``"table1"``, ...
        title: human title.
        rows: the series.
        notes: free-text commentary (trend checks, caveats).
        extras: named text blocks (e.g. a rendered confusion matrix).
    """

    experiment_id: str
    title: str
    rows: list[ExperimentRow]
    notes: str = ""
    extras: dict[str, str] = field(default_factory=dict)

    def render(self) -> str:
        """The paper-vs-measured table as text."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        name_w = max([len(r.name) for r in self.rows] + [8])
        header = f"{'setting':<{name_w}}  {'paper':>9}  {'measured':>9}"
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            if row.paper is None:
                paper = "   --  "
            else:
                mark = "~" if row.approx else " "
                paper = f"{mark}{row.paper:7.3f}"
            lines.append(
                f"{row.name:<{name_w}}  {paper:>9}  {row.measured:9.3f}  {row.unit}"
            )
        if self.notes:
            lines.append("")
            lines.append(self.notes)
        for name, block in self.extras.items():
            lines.append("")
            lines.append(f"-- {name} --")
            lines.append(block)
        return "\n".join(lines)

    def measured_by_name(self) -> dict[str, float]:
        """Lookup table of measured values."""
        return {r.name: r.measured for r in self.rows}


def bar_chart(values: dict[str, float], width: int = 40, vmax: float = 1.0) -> str:
    """A quick ASCII bar chart (used by the examples).

    An empty mapping renders as ``"(no data)"`` instead of dying in
    ``max()``.

    Raises:
        ValueError: ``vmax`` is not positive (it is the divisor every
            bar is scaled by).
    """
    if vmax <= 0:
        raise ValueError(f"vmax must be positive, got {vmax}")
    if not values:
        return "(no data)"
    name_w = max(len(k) for k in values)
    lines = []
    for name, value in values.items():
        filled = int(round(width * min(max(value / vmax, 0.0), 1.0)))
        lines.append(f"{name:<{name_w}} |{'#' * filled}{' ' * (width - filled)}| {value:.3f}")
    return "\n".join(lines)
