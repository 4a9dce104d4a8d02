"""Render EXPERIMENTS.md from the durable results store.

Each record renders as one fenced block whose footer names the mode
and seed it was produced under — the old single-key cache silently
interleaved quick/full blocks and seeds with nothing in the output to
tell them apart.  Blocks are ordered by the experiment registry (so
the document reads in paper order) and, within one experiment, by
``(mode, seed)``.  The file itself is published atomically.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.spec import ResultRecord
from repro.experiments.store import ResultsStore, atomic_write_text

__all__ = [
    "EXPERIMENTS_HEADER",
    "render_block",
    "render_experiments_md",
    "write_experiments_md",
]

EXPERIMENTS_HEADER = """# EXPERIMENTS — paper vs measured

Reproduction record for Fan et al., *Multiple Object Activity
Identification using RFIDs* (ICDCS 2018).  Every entry regenerates one
paper table/figure on the simulated substrate (see DESIGN.md for the
substitutions).  Absolute accuracies are not expected to match the
hardware testbed; the *shape* of each result is what is verified.
Paper values marked `~` are read off a bar chart, not stated in text.

Regenerate with `python scripts/run_experiments.py` (quick mode).
Results live in a durable per-cell store (`.repro_cache/experiments/`,
one JSON record per (experiment, mode, seed) — see DESIGN.md section
15): reruns skip completed cells, `--force` re-executes them, and each
block's footer records the mode and seed that produced it, so quick
and full runs or different seeds can coexist without overwriting each
other.  Blocks tagged "recorded by the benchmark suite" come from an
earlier trimmed-budget benchmark pass and are correspondingly noisier.
Small held-out splits (12-48 samples) give the accuracies a
granularity of several points; treat trends, not single cells, as the
signal.

"""


def render_block(record: ResultRecord) -> str:
    """One record as a fenced text block with a mode/seed footer."""
    spec = record.spec
    footer = (
        f"\n\n(wall-clock: {record.elapsed_s:.0f} s, "
        f"mode: {spec.mode}, seed: {spec.seed})\n"
    )
    return "```text\n" + record.block + footer + "```\n"


def _registry_order() -> dict[str, int]:
    from repro.experiments.runner import default_registry

    return {exp_id: i for i, exp_id in enumerate(default_registry())}


def render_experiments_md(
    records: list[ResultRecord], header: str = EXPERIMENTS_HEADER
) -> str:
    """The full document for a record set.

    Records are ordered by registry position (unknown ids sort last,
    alphabetically), then mode, then seed, then overrides — a stable
    total order, so regenerating from the same store is byte-identical.
    """
    position = _registry_order()

    def sort_key(record: ResultRecord):
        spec = record.spec
        return (
            position.get(spec.exp_id, len(position)),
            spec.exp_id,
            spec.mode,
            spec.seed,
            spec.gen_overrides,
            spec.train_overrides,
        )

    parts = [header]
    for record in sorted(records, key=sort_key):
        parts.append(render_block(record))
    return "\n".join(parts)


def write_experiments_md(
    out: "str | Path", store: ResultsStore, header: str = EXPERIMENTS_HEADER
) -> None:
    """Atomically (re)write ``out`` from every readable store record."""
    atomic_write_text(Path(out), render_experiments_md(store.records(), header))
