"""Experiment specs and result records.

An :class:`ExperimentSpec` names one cell of a sweep — experiment id x
mode x seed plus optional generation/training overrides — and derives
a **content-hashed key** from the whole payload.  The key is what the
durable :class:`~repro.experiments.store.ResultsStore` files records
under, so two cells that differ in *any* field (a different seed, a
``--full`` rerun, an extra override) can never collide.  This is the
fix for the old ``scripts/run_experiments.py`` cache, which keyed on
the experiment id alone and silently served a quick-mode seed-0 block
to a ``--full --seed 3`` rerun.

The payload also carries a digest of the driver's declared budget
(:func:`repro.eval.reporting.declares`): its ``GenerationConfig`` and
``M2AIConfig`` objects and any budget constant outside them.  The
runner fills it in (:func:`repro.experiments.runner.bind_configs`), so
editing a driver's epoch count or corpus size changes the key and the
store cannot serve the record of the old budget.

Override values are restricted to JSON scalars so the canonical form
(and therefore the hash) is unambiguous across processes and runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

__all__ = [
    "ExperimentSpec",
    "ResultRecord",
    "SPEC_SCHEMA",
    "StaleRecordError",
    "config_digest",
    "make_spec",
]

SPEC_SCHEMA = 2
"""Version folded into every spec hash; bump on incompatible changes
(2: models are picked on a val part carved from train, not on test)."""

_MODES = ("quick", "full")

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _normalise_overrides(
    overrides: "dict[str, object] | tuple[tuple[str, object], ...] | None",
    what: str,
) -> tuple[tuple[str, object], ...]:
    """Sorted, validated ``(name, scalar)`` tuple form of an override set."""
    if not overrides:
        return ()
    items = dict(overrides).items()
    for name, value in items:
        if not isinstance(name, str):
            raise TypeError(f"{what} override names must be str, got {name!r}")
        if not isinstance(value, _SCALAR_TYPES):
            raise TypeError(
                f"{what} override {name!r} must be a JSON scalar "
                f"(str/int/float/bool/None), got {type(value).__name__}"
            )
    return tuple(sorted(items))


def config_digest(budget: dict) -> str:
    """Short content hash of a driver's declared budget.

    Every config is a frozen dataclass of scalars and tuples, so its
    ``repr`` is canonical (the corpus cache keys on it too).
    """
    return hashlib.sha256(repr(budget).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep cell: experiment id x mode x seed x overrides.

    Attributes:
        exp_id: registry id of the experiment driver (``"fig09"``,
            ``"ext-domain-shift"``, ...).
        mode: ``"quick"`` (CI-sized) or ``"full"`` (paper-scale).
        seed: master randomness seed handed to the driver.
        gen_overrides: extra keyword arguments for the driver's dataset
            generation, as a sorted ``(name, value)`` tuple.
        train_overrides: extra keyword arguments for the driver's
            training configuration, same form.
        configs: :func:`config_digest` of the driver's declared budget
            for this cell; empty until the runner binds it.
    """

    exp_id: str
    mode: str = "quick"
    seed: int = 0
    gen_overrides: tuple[tuple[str, object], ...] = ()
    train_overrides: tuple[tuple[str, object], ...] = ()
    configs: str = ""

    def __post_init__(self) -> None:
        if not self.exp_id:
            raise ValueError("exp_id must be non-empty")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")

    def payload(self) -> dict:
        """JSON-safe canonical form (what the key hashes)."""
        return {
            "schema": SPEC_SCHEMA,
            "exp_id": self.exp_id,
            "mode": self.mode,
            "seed": self.seed,
            "gen_overrides": [list(kv) for kv in self.gen_overrides],
            "train_overrides": [list(kv) for kv in self.train_overrides],
            # Absent when no budget is bound, so such a spec keeps the
            # key it had before budgets were hashed.
            **({"configs": self.configs} if self.configs else {}),
        }

    @property
    def key(self) -> str:
        """Filename-safe store key: readable prefix + content hash.

        The ``(exp_id, mode, seed)`` triple is spelled out for humans
        browsing the store directory; the hash covers the *entire*
        payload, so overrides (and schema bumps) also separate records.
        """
        digest = hashlib.sha256(
            json.dumps(self.payload(), sort_keys=True).encode()
        ).hexdigest()[:12]
        safe_id = self.exp_id.replace("/", "_")
        return f"{safe_id}--{self.mode}--s{self.seed}--{digest}"

    @classmethod
    def from_payload(cls, payload: dict) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`payload` output."""
        return cls(
            exp_id=payload["exp_id"],
            mode=payload["mode"],
            seed=int(payload["seed"]),
            gen_overrides=tuple(
                (str(k), v) for k, v in payload.get("gen_overrides", [])
            ),
            train_overrides=tuple(
                (str(k), v) for k, v in payload.get("train_overrides", [])
            ),
            configs=str(payload.get("configs", "")),
        )

    def overrides_dict(self) -> dict[str, object]:
        """All overrides merged into one kwargs dict (collisions checked)."""
        merged = dict(self.gen_overrides)
        for name, value in self.train_overrides:
            if name in merged:
                raise ValueError(
                    f"override {name!r} appears in both gen_overrides and "
                    "train_overrides"
                )
            merged[name] = value
        return merged


def make_spec(
    exp_id: str,
    mode: str = "quick",
    seed: int = 0,
    gen_overrides: "dict[str, object] | None" = None,
    train_overrides: "dict[str, object] | None" = None,
) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec`, normalising override dicts."""
    return ExperimentSpec(
        exp_id=exp_id,
        mode=mode,
        seed=seed,
        gen_overrides=_normalise_overrides(gen_overrides, "gen"),
        train_overrides=_normalise_overrides(train_overrides, "train"),
    )


RECORD_SCHEMA = 1
"""On-disk record format version (see :class:`ResultRecord`)."""


class StaleRecordError(ValueError):
    """A record that parses but is keyed differently from its content.

    Its stored key, or the key it is filed under, is not the content key
    of its spec: it was written under an older key scheme, or copied
    under another key.  It is readable, but must not be served.
    """


@dataclass
class ResultRecord:
    """The durable outcome of running one spec.

    Everything except ``elapsed_s`` is a pure function of the spec (the
    drivers are seeded), which is what makes run_batch deterministic
    across worker counts: :meth:`content_digest` hashes the
    deterministic payload only, and the determinism tests compare it.

    Attributes:
        spec: the cell this record answers.
        title: the driver's human title.
        rows: ``{"name", "paper", "measured", "unit", "approx"}`` dicts.
        notes: the driver's free-text commentary.
        extras: named text blocks (confusion matrices, ...).
        block: the rendered paper-vs-measured text table (no timing).
        elapsed_s: wall-clock of the producing run (monotonic-derived;
            excluded from :meth:`content_digest`).
    """

    spec: ExperimentSpec
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: str = ""
    extras: dict[str, str] = field(default_factory=dict)
    block: str = ""
    elapsed_s: float = 0.0

    @classmethod
    def from_result(
        cls, spec: ExperimentSpec, result, elapsed_s: float
    ) -> "ResultRecord":
        """Record for one driver's :class:`ExperimentResult`."""
        rows = [asdict(row) for row in result.rows]
        return cls(
            spec=spec,
            title=result.title,
            rows=rows,
            notes=result.notes,
            extras=dict(result.extras),
            block=result.render(),
            elapsed_s=float(elapsed_s),
        )

    def measured_by_name(self) -> dict[str, float]:
        """Lookup table of measured values (mirrors ExperimentResult)."""
        return {row["name"]: row["measured"] for row in self.rows}

    def to_payload(self) -> dict:
        """Full JSON-safe form, including timing."""
        return {
            "record_schema": RECORD_SCHEMA,
            "spec": self.spec.payload(),
            "key": self.spec.key,
            "title": self.title,
            "rows": self.rows,
            "notes": self.notes,
            "extras": self.extras,
            "block": self.block,
            "elapsed_s": self.elapsed_s,
        }

    def content_digest(self) -> str:
        """Hash of the deterministic payload (timing excluded)."""
        payload = self.to_payload()
        del payload["elapsed_s"]
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()

    def to_json(self) -> str:
        """Canonical serialised form (sorted keys, trailing newline)."""
        return json.dumps(self.to_payload(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultRecord":
        """Parse a serialised record.

        Raises:
            StaleRecordError: the record parses, but the key stored with
                it is not its spec's content key (see there).
            ValueError: malformed JSON or a missing/mismatched field.
        """
        payload = json.loads(text)
        if not isinstance(payload, dict) or "spec" not in payload:
            raise ValueError("record payload is not a spec-bearing object")
        spec = ExperimentSpec.from_payload(payload["spec"])
        if payload.get("key") != spec.key:
            raise StaleRecordError(
                f"stored key {payload.get('key')!r} does not match the "
                f"spec's content key {spec.key!r}"
            )
        return cls(
            spec=spec,
            title=payload.get("title", ""),
            rows=list(payload.get("rows", [])),
            notes=payload.get("notes", ""),
            extras=dict(payload.get("extras", {})),
            block=payload.get("block", ""),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
        )
