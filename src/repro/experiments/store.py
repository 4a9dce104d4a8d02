"""Crash-safe durable results store: one JSON file per spec key.

Every record is published atomically (temp file in the same directory,
then ``os.replace`` — the pattern :mod:`repro.core.serialization` uses
for checkpoints), so a reader can never observe a half-written record
and a crash mid-write never corrupts an existing one.  Records that
cannot be served are **quarantined** by :meth:`ResultsStore.get`
(renamed to ``<key>.corrupt``) with a warning instead of crashing the
run, and the cell simply reruns.  The warning tells the two kinds
apart: *unreadable* (a partial file from a hard power cut, a
hand-edited file, a schema mismatch) and *stale* (a record that parses
but whose key moved, say under an older key scheme).
:meth:`ResultsStore.survey` reports both kinds without renaming
anything.

This replaces the old ``experiment_state.json`` monolith, which was
rewritten wholesale with ``Path.write_text`` after every experiment: a
crash mid-write lost *every* completed cell and the next run died in
``json.loads``.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.spec import ResultRecord, StaleRecordError

__all__ = [
    "ResultsStore",
    "StoreSurvey",
    "atomic_write_text",
    "default_store_root",
]


def default_store_root() -> Path:
    """Default store directory: ``<repo>/.repro_cache/experiments``.

    Override with the ``REPRO_RESULTS_DIR`` environment variable (the
    corpus cache's ``REPRO_CACHE_DIR`` is deliberately separate: the
    store holds *results*, not regenerable intermediates).
    """
    value = os.environ.get("REPRO_RESULTS_DIR")
    if value:
        return Path(value)
    return Path(__file__).resolve().parents[3] / ".repro_cache" / "experiments"


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via temp file + ``os.replace``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class StoreSurvey:
    """A read-only census of a store (see :meth:`ResultsStore.survey`).

    Attributes:
        records: every servable record, sorted by key.
        stale: keys of records that parse but are keyed differently
            from their content.
        unreadable: keys of files that do not parse as a record.
    """

    records: list[ResultRecord]
    stale: list[str]
    unreadable: list[str]


class ResultsStore:
    """Directory of durable :class:`~repro.experiments.spec.ResultRecord`s.

    Records are keyed by :attr:`ExperimentSpec.key` — the content hash
    of (exp_id, mode, seed, overrides) — so a rerun with a different
    mode or seed can never be served a stale record, and a resumed
    sweep skips exactly the cells whose keys are already on disk.
    """

    def __init__(self, root: "str | Path | None" = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """The record file a key lives at."""
        return self.root / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def put(self, record: ResultRecord) -> Path:
        """Atomically publish one record; returns its path."""
        path = self.path_for(record.spec.key)
        atomic_write_text(path, record.to_json())
        return path

    def _load(self, key: str) -> "ResultRecord | None":
        """The record for a key, or None when absent.

        Raises:
            StaleRecordError: the file parses but is keyed differently.
            ValueError: the file does not parse as a record.
        """
        try:
            text = self.path_for(key).read_text()
        except FileNotFoundError:
            return None
        record = ResultRecord.from_json(text)
        if record.spec.key != key:
            raise StaleRecordError(f"record content belongs to key {record.spec.key!r}")
        return record

    def get(self, key: str) -> "ResultRecord | None":
        """The record for a key, or None when absent, stale or unreadable.

        A record that cannot be served is quarantined to
        ``<key>.corrupt`` with a :class:`RuntimeWarning` that calls it
        stale or unreadable, so the caller regenerates the cell instead
        of crashing on someone else's torn write.
        """
        try:
            return self._load(key)
        except ValueError as exc:
            kind = "stale" if isinstance(exc, StaleRecordError) else "unreadable"
            path = self.path_for(key)
            quarantine = path.with_suffix(".corrupt")
            os.replace(path, quarantine)
            warnings.warn(
                f"{kind} experiment record {path.name} "
                f"({exc}); moved to {quarantine.name}, the cell will rerun",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    def survey(self) -> StoreSurvey:
        """Classify every record file without quarantining or warning.

        The read-only twin of :meth:`records`, for checks that must not
        change the store they inspect.
        """
        records: list[ResultRecord] = []
        stale: list[str] = []
        unreadable: list[str] = []
        for key in self.keys():
            try:
                record = self._load(key)
            except StaleRecordError:
                stale.append(key)
            except ValueError:
                unreadable.append(key)
            else:
                if record is not None:
                    records.append(record)
        return StoreSurvey(records=records, stale=stale, unreadable=unreadable)

    def keys(self) -> list[str]:
        """Sorted keys of every readable-looking record file."""
        return sorted(p.stem for p in self.root.glob("*.json"))

    def records(self) -> list[ResultRecord]:
        """Every readable record, sorted by key (corrupt ones skipped)."""
        out = []
        for key in self.keys():
            record = self.get(key)
            if record is not None:
                out.append(record)
        return out

    def delete(self, key: str) -> bool:
        """Remove one record; True when a file was deleted."""
        try:
            self.path_for(key).unlink()
        except FileNotFoundError:
            return False
        return True
