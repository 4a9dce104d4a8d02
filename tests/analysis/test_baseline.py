"""The findings ratchet: fingerprints, baseline files, pragmas, the
parallel runner, and the CI gate semantics end to end.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.baseline import (
    BASELINE_FILENAME,
    Baseline,
    discover_baseline,
    fingerprint,
    split_findings,
)
from repro.analysis.lint import lint_paths, lint_source
from repro.analysis.rules import Finding

CLEAN_MODULE = (
    '"""A module with nothing to report."""\n'
    "\n"
    "__all__ = [\"double\"]\n"
    "\n"
    "\n"
    "def double(x):\n"
    '    """Double a value."""\n'
    "    return 2 * x\n"
)

# One deliberate RPR010 (wall-clock timing) the baseline will accept.
DIRTY_MODULE = (
    '"""A module with one accepted finding."""\n'
    "\n"
    "import time\n"
    "\n"
    "__all__ = [\"stamp\"]\n"
    "\n"
    "\n"
    "def stamp():\n"
    '    """Return a timestamp."""\n'
    "    return time.time()\n"
)

# A second, *new* violation (different file → different fingerprint)
# for the ratchet demo.
WORSE_MODULE = DIRTY_MODULE.replace('"stamp"', '"stamp2"').replace(
    "def stamp", "def stamp2"
)


def make_tree(tmp_path: Path, dirty: bool = True) -> Path:
    pkg = tmp_path / "proj"
    pkg.mkdir()
    (pkg / "clean.py").write_text(CLEAN_MODULE)
    if dirty:
        (pkg / "dirty.py").write_text(DIRTY_MODULE)
    return pkg


# ---------------------------------------------------------------------------
# Fingerprints.


def mk(path: str, line: int = 10, message: str = "m") -> Finding:
    return Finding(path=path, line=line, col=0, code="RPR010", message=message, hint="h")


def test_fingerprint_is_relative_to_baseline_root(tmp_path):
    # Absolute and repo-relative spellings of the same file fingerprint
    # identically, so `lint src` and `lint /abs/src` share a baseline.
    rel = mk(str(Path("proj") / "dirty.py"))
    absolute = mk(str(tmp_path / "proj" / "dirty.py"))
    assert fingerprint(absolute, tmp_path) == fingerprint(
        mk(str(tmp_path / "proj" / "dirty.py"), line=99), tmp_path
    )
    # Line churn must NOT invalidate the baseline...
    assert fingerprint(rel, Path(".")) == fingerprint(
        mk(str(Path("proj") / "dirty.py"), line=99), Path(".")
    )
    # ...but path and message changes do.
    assert fingerprint(rel, Path(".")) != fingerprint(
        mk(str(Path("proj") / "other.py")), Path(".")
    )
    assert fingerprint(rel, Path(".")) != fingerprint(
        mk(str(Path("proj") / "dirty.py"), message="other"), Path(".")
    )


def test_baseline_roundtrip_preserves_justifications(tmp_path):
    f = mk("proj/dirty.py")
    path = tmp_path / BASELINE_FILENAME
    first = Baseline.from_findings([f], path)
    entry = next(iter(first.entries.values()))
    object.__setattr__(entry, "justification", "measured interval is wall-clock on purpose")
    first.save()

    reloaded = Baseline.load(path)
    updated = Baseline.from_findings([f], path, previous=reloaded)
    assert [e.justification for e in updated.entries.values()] == [
        "measured interval is wall-clock on purpose"
    ]


def test_discover_baseline_walks_up(tmp_path):
    (tmp_path / BASELINE_FILENAME).write_text('{"version": 1, "entries": []}')
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    assert discover_baseline(nested) == tmp_path / BASELINE_FILENAME
    assert discover_baseline(tmp_path / "a") == tmp_path / BASELINE_FILENAME


def test_split_findings_partitions(tmp_path):
    path = tmp_path / BASELINE_FILENAME
    accepted = mk("proj/dirty.py")
    baseline = Baseline.from_findings([accepted], path)
    fresh = mk("proj/clean.py", line=3, message="new one")
    new, old, stale = split_findings([fresh, accepted], baseline)
    assert [f.message for f in new] == ["new one"]
    assert [f.message for f in old] == ["m"]
    assert stale == []
    new2, old2, stale2 = split_findings([], baseline)
    assert (new2, old2) == ([], [])
    assert len(stale2) == 1  # informational, never a failure


# ---------------------------------------------------------------------------
# The ratchet, end to end through lint_paths.


def test_ratchet_accepts_baselined_and_blocks_new(tmp_path):
    """The acceptance-criterion demo: a committed baseline lets the
    accepted finding through, then a newly introduced violation fails
    the run while the old one stays baselined."""
    pkg = make_tree(tmp_path)

    # No baseline: the deliberate finding fails the run.
    report = lint_paths([str(pkg)], baseline=None)
    assert not report.ok
    assert [f.code for f in report.findings] == ["RPR010"]

    # Freeze it into a baseline: the run goes green.
    baseline_path = tmp_path / BASELINE_FILENAME
    report = lint_paths(
        [str(pkg)], baseline=str(baseline_path), update_baseline=True
    )
    assert report.ok
    report = lint_paths([str(pkg)], baseline=str(baseline_path))
    assert report.ok
    assert len(report.baselined) == 1

    # Introduce a second violation: only IT is reported, and the run
    # fails while the accepted finding stays baselined.
    (pkg / "worse.py").write_text(WORSE_MODULE)
    report = lint_paths([str(pkg)], baseline=str(baseline_path))
    assert not report.ok
    assert len(report.findings) == 1
    assert report.findings[0].code == "RPR010"
    assert report.findings[0].path.endswith("worse.py")
    assert len(report.baselined) == 1


def test_ratchet_auto_discovers_committed_baseline(tmp_path):
    pkg = make_tree(tmp_path)
    report = lint_paths(
        [str(pkg)],
        baseline=str(tmp_path / BASELINE_FILENAME),
        update_baseline=True,
    )
    assert report.ok
    # "auto" walks up from the linted tree and finds the committed file.
    report = lint_paths([str(pkg)], baseline="auto")
    assert report.ok and len(report.baselined) == 1
    assert report.baseline_path == str(tmp_path / BASELINE_FILENAME)


def test_update_baseline_preserves_surviving_justifications(tmp_path):
    pkg = make_tree(tmp_path)
    baseline_path = tmp_path / BASELINE_FILENAME
    lint_paths([str(pkg)], baseline=str(baseline_path), update_baseline=True)

    data = json.loads(baseline_path.read_text())
    data["entries"][0]["justification"] = "timestamping for humans, not intervals"
    baseline_path.write_text(json.dumps(data))

    lint_paths([str(pkg)], baseline=str(baseline_path), update_baseline=True)
    data = json.loads(baseline_path.read_text())
    assert data["entries"][0]["justification"] == "timestamping for humans, not intervals"


# ---------------------------------------------------------------------------
# Pragmas.


def test_file_pragma_requires_justification():
    pragma = "# reprolint: disable-file=RPR010 -- startup stamp is wall-clock by design\n"
    src = pragma + DIRTY_MODULE
    assert lint_source(src, path="mod.py") == []

    unjustified = "# reprolint: disable-file=RPR010\n" + DIRTY_MODULE
    findings = lint_source(unjustified, path="mod.py")
    codes = [f.code for f in findings]
    assert "RPR099" in codes  # the pragma itself is the finding
    assert "RPR010" in codes  # and the suppression did not take effect


def test_justified_suppressions_surface_in_report(tmp_path):
    pkg = tmp_path / "proj"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "# reprolint: disable-file=RPR010 -- boot stamp must be wall-clock\n"
        + DIRTY_MODULE
    )
    report = lint_paths([str(pkg)], baseline=None)
    assert report.ok
    recs = report.as_dict()["suppressions"]
    assert len(recs) == 1
    assert recs[0]["code"] == "RPR010"
    assert "wall-clock" in recs[0]["justification"]


# ---------------------------------------------------------------------------
# Parallel runner + profiles.


def test_jobs_output_is_deterministic(tmp_path):
    pkg = make_tree(tmp_path)
    for i in range(6):
        (pkg / f"extra{i}.py").write_text(DIRTY_MODULE)
    serial = lint_paths([str(pkg)], baseline=None, jobs=1)
    parallel = lint_paths([str(pkg)], baseline=None, jobs=4)
    key = lambda f: (f.path, f.line, f.col, f.code, f.message)  # noqa: E731
    assert [key(f) for f in serial.findings] == [key(f) for f in parallel.findings]
    assert serial.wall_time_s >= 0 and parallel.wall_time_s >= 0


def test_drivers_profile_relaxes_print_and_docstrings(tmp_path):
    # A dir outside the path-exempt scripts/examples set, so
    # only the profile (not RPR007's own path carve-out) is in play.
    pkg = tmp_path / "tools"
    pkg.mkdir()
    (pkg / "driver.py").write_text(
        '"""A driver."""\n\ndef main():\n    print("progress")\n'
    )
    strict = lint_paths([str(pkg)], baseline=None)
    relaxed = lint_paths([str(pkg)], baseline=None, profile="drivers")
    assert any(f.code == "RPR007" for f in strict.findings)
    assert any(f.code == "RPR009" for f in strict.findings)  # no docstring on main
    assert relaxed.ok
