"""Static analyzer CLI: ``python -m repro.analysis.lint <paths>``.

Runs every registered single-file rule (:data:`repro.analysis.rules.RULES`)
and every whole-project rule (:data:`repro.analysis.rules.PROJECT_RULES`
— the RPR012+ dataflow packs) over the given files or trees, prints
findings as text or JSON, and exits non-zero when anything *new* is
found — the CI contract.

Suppressions are comment-driven:

* a trailing ``# reprolint: disable=RPR001`` suppresses those codes on
  that line only (an optional `` -- reason`` is surfaced in JSON);
* ``# reprolint: disable-file=RPR012 -- <justification>`` anywhere in
  the file suppresses the code file-wide; the justification is
  **required** and surfaced in JSON output — an unjustified file
  pragma is itself a finding (RPR099);
* a legacy standalone ``# reprolint: disable=RPR001,RPR007`` comment
  line still suppresses file-wide (back-compat, justification
  optional).

Findings ratchet: with a committed ``.reprolint-baseline.json``
(auto-discovered by walking up from the linted paths, or given via
``--baseline``), previously accepted findings are subtracted and only
NEW findings fail the run.  ``--update-baseline`` re-records the
current findings, preserving surviving justifications.

``--jobs N`` parses and checks files in parallel processes; output
ordering stays deterministic and the wall time is reported either way.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import io
import json
import re
import sys
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import repro.analysis.packs  # noqa: F401  (imports register the project rules)
from repro.analysis.baseline import (
    BASELINE_FILENAME,
    Baseline,
    BaselineEntry,
    discover_baseline,
    split_findings,
)
from repro.analysis.dataflow.project import Project
from repro.analysis.rules import (
    PROJECT_RULES,
    RULES,
    Finding,
    ProjectContext,
)

__all__ = [
    "LintReport",
    "PROFILES",
    "lint_paths",
    "lint_source",
    "main",
]

PARSE_ERROR_CODE = "RPR000"
"""Pseudo-code attached to files that fail to parse."""

PRAGMA_ERROR_CODE = "RPR099"
"""Pseudo-code attached to malformed suppression pragmas."""

PROFILES: dict[str, frozenset[str]] = {
    "default": frozenset(),
    # Driver/benchmark scripts legitimately print to stdout and carry
    # lighter docstring duties than library code.
    "drivers": frozenset({"RPR007", "RPR009"}),
}
"""Named profiles: codes each profile leaves out of the default run."""

_SUPPRESS_PATTERN = re.compile(
    r"#\s*reprolint:\s*disable=(?P<codes>RPR\d{3}(?:\s*,\s*RPR\d{3})*)"
    r"(?:\s*--\s*(?P<reason>.*))?"
)
_FILE_PRAGMA_PATTERN = re.compile(
    r"#\s*reprolint:\s*disable-file=(?P<codes>RPR\d{3}(?:\s*,\s*RPR\d{3})*)"
    r"(?:\s*--\s*(?P<reason>.*))?"
)


@dataclass(frozen=True)
class _Suppressions:
    """Parsed suppression comments of one file."""

    file_wide: dict[str, str]
    by_line: dict[int, frozenset[str]]
    records: list[dict[str, object]]
    pragma_errors: list[Finding]

    def allows(self, finding: Finding) -> bool:
        if finding.code in self.file_wide:
            return False
        return finding.code not in self.by_line.get(finding.line, frozenset())


def _parse_suppressions(source: str, path: str = "<string>") -> _Suppressions:
    file_wide: dict[str, str] = {}
    by_line: dict[int, frozenset[str]] = {}
    records: list[dict[str, object]] = []
    errors: list[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return _Suppressions({}, {}, [], [])
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        row, col = tok.start
        match = _FILE_PRAGMA_PATTERN.search(tok.string)
        if match:
            codes = [c.strip() for c in match.group("codes").split(",")]
            reason = (match.group("reason") or "").strip()
            if not reason:
                errors.append(
                    Finding(
                        path=path,
                        line=row,
                        col=col,
                        code=PRAGMA_ERROR_CODE,
                        message=(
                            "disable-file pragma without a justification "
                            f"(codes: {', '.join(codes)})"
                        ),
                        hint=(
                            "write `# reprolint: disable-file=RPR0NN -- <why "
                            "this file is exempt>`; the reason is surfaced "
                            "in lint reports"
                        ),
                    )
                )
                continue
            for code in codes:
                file_wide[code] = reason
                records.append(
                    {
                        "path": path,
                        "line": row,
                        "scope": "file",
                        "code": code,
                        "justification": reason,
                    }
                )
            continue
        match = _SUPPRESS_PATTERN.search(tok.string)
        if not match:
            continue
        codes = [c.strip() for c in match.group("codes").split(",")]
        reason = (match.group("reason") or "").strip()
        standalone = tok.line[:col].strip() == ""
        if standalone:
            # Legacy file-wide form; justification optional.
            for code in codes:
                file_wide.setdefault(code, reason)
        else:
            by_line[row] = by_line.get(row, frozenset()) | frozenset(codes)
        if reason:
            records.append(
                {
                    "path": path,
                    "line": row,
                    "scope": "file" if standalone else "line",
                    "code": ",".join(codes),
                    "justification": reason,
                }
            )
    return _Suppressions(file_wide, by_line, records, errors)


def _effective_codes(
    select: Sequence[str] | None, profile: str
) -> frozenset[str]:
    """Rule codes to run, across both registries.

    An explicit ``select`` wins outright; otherwise every registered
    code minus the profile's disabled codes.
    """
    known = set(RULES) | set(PROJECT_RULES)
    if select is not None:
        unknown = sorted(set(select) - known)
        if unknown:
            raise KeyError(f"unknown rule code(s): {', '.join(unknown)}")
        return frozenset(select)
    if profile not in PROFILES:
        raise KeyError(f"unknown profile {profile!r} (have: {sorted(PROFILES)})")
    return frozenset(known) - PROFILES[profile]


def lint_source(
    source: str,
    path: str = "<string>",
    select: Sequence[str] | None = None,
    profile: str = "default",
    run_project_rules: bool = True,
) -> list[Finding]:
    """Lint one source string.

    Args:
        source: Python source text.
        path: path to report in findings.
        select: rule codes to run (default: all registered).
        profile: named profile relaxing some codes (``drivers``).
        run_project_rules: also run the whole-project rules with this
            file as a single-module project.  :func:`lint_paths` turns
            this off per file and runs one project-wide pass instead.

    Returns:
        Surviving (non-suppressed) findings, ordered by position.
    """
    codes = _effective_codes(select, profile)
    suppressions = _parse_suppressions(source, path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code=PARSE_ERROR_CODE,
                message=f"file does not parse: {exc.msg}",
                hint="fix the syntax error; nothing else was checked",
            )
        ]
    from repro.analysis.rules import FileContext

    ctx = FileContext(path=path, source=source, tree=tree)
    findings = list(suppressions.pragma_errors)
    for code in sorted(codes & set(RULES)):
        findings.extend(RULES[code].check(ctx))
    if run_project_rules and codes & set(PROJECT_RULES):
        project = Project.from_sources([(path, source, tree)])
        pctx = ProjectContext(project=project)
        for code in sorted(codes & set(PROJECT_RULES)):
            findings.extend(PROJECT_RULES[code].check_project(pctx))
    findings = [f for f in findings if suppressions.allows(f)]
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings


def _iter_files(paths: Iterable[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    seen: set[Path] = set()
    unique = []
    for f in files:
        if f not in seen:
            seen.add(f)
            unique.append(f)
    return unique


def _lint_file_job(args: tuple[str, tuple[str, ...], str]) -> list[Finding]:
    """Worker: token-rule pass over one file (project rules excluded).

    Module-level so it pickles into :class:`ProcessPoolExecutor`
    workers; re-reads the file in the worker to keep the payload small.
    """
    path, select, profile = args
    source = Path(path).read_text(encoding="utf-8")
    return lint_source(
        source,
        path=path,
        select=list(select) if select else None,
        profile=profile,
        run_project_rules=False,
    )


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run.

    Attributes:
        findings: NEW findings — not matched by the baseline.  These
            are what fail the run.
        n_files: number of files checked.
        baselined: findings matched (and silenced) by the baseline.
        stale: baseline entries no current finding matched
            (informational: possibly fixed, possibly covered by a
            different lint invocation).
        suppressions: justified pragma records, surfaced for audit.
        baseline_path: the baseline file applied, if any.
        wall_time_s: end-to-end wall time of the run.
    """

    findings: list[Finding]
    n_files: int
    baselined: list[Finding] = field(default_factory=list)
    stale: list[BaselineEntry] = field(default_factory=list)
    suppressions: list[dict[str, object]] = field(default_factory=list)
    baseline_path: str | None = None
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when no new findings survived."""
        return not self.findings

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation."""
        return {
            "ok": self.ok,
            "n_files": self.n_files,
            "n_findings": len(self.findings),
            "findings": [f.as_dict() for f in self.findings],
            "n_baselined": len(self.baselined),
            "baselined": [f.as_dict() for f in self.baselined],
            "n_stale_baseline_entries": len(self.stale),
            "stale_baseline_entries": [e.as_dict() for e in self.stale],
            "suppressions": self.suppressions,
            "baseline": self.baseline_path,
            "wall_time_s": round(self.wall_time_s, 3),
        }


def _resolve_baseline(
    baseline: str | Path | None, files: Sequence[Path], allow_missing: bool = False
) -> Baseline | None:
    """Load the requested (or auto-discovered) baseline."""
    if baseline is None:
        return None
    if baseline == "auto":
        if not files:
            return None
        found = discover_baseline(files[0])
        return Baseline.load(found) if found is not None else None
    path = Path(baseline)
    if not path.is_file():
        if allow_missing:
            return None
        raise ValueError(f"baseline file not found: {path}")
    return Baseline.load(path)


def lint_paths(
    paths: Iterable[str],
    select: Sequence[str] | None = None,
    *,
    profile: str = "default",
    jobs: int = 1,
    baseline: str | Path | None = "auto",
    update_baseline: bool = False,
) -> LintReport:
    """Lint files and directory trees.

    Args:
        paths: files or directories (searched recursively for ``.py``).
        select: rule codes to run (default: all registered).
        profile: named profile (``default`` or ``drivers``).
        jobs: worker processes for the per-file pass; 1 = in-process.
            The whole-project pass always runs in the parent.
        baseline: ``"auto"`` (walk up from the first linted path for
            ``.reprolint-baseline.json``), an explicit path, or None to
            disable the ratchet.
        update_baseline: re-record every current finding into the
            baseline file (justifications of surviving entries are
            preserved) instead of failing on them.

    Returns:
        A :class:`LintReport`; ``findings`` holds only NEW findings.
    """
    t0 = time.monotonic()
    codes = _effective_codes(select, profile)
    files = _iter_files(paths)

    # Per-file token pass (parallelizable).
    job_args = [(str(f), tuple(sorted(codes)), profile) for f in files]
    findings: list[Finding] = []
    if jobs > 1 and len(files) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            for result in pool.map(_lint_file_job, job_args):
                findings.extend(result)
    else:
        for args in job_args:
            findings.extend(_lint_file_job(args))

    # Whole-project pass (parent only): parse every file once, run the
    # dataflow packs, filter each finding through its file's pragmas.
    suppression_records: list[dict[str, object]] = []
    if codes & set(PROJECT_RULES):
        units = []
        suppressions: dict[str, _Suppressions] = {}
        for f in files:
            source = f.read_text(encoding="utf-8")
            sup = _parse_suppressions(source, str(f))
            suppressions[str(f)] = sup
            suppression_records.extend(sup.records)
            try:
                tree = ast.parse(source, filename=str(f))
            except SyntaxError:
                continue  # RPR000 already reported by the per-file pass
            units.append((str(f), source, tree))
        if units:
            pctx = ProjectContext(project=Project.from_sources(units))
            for code in sorted(codes & set(PROJECT_RULES)):
                for finding in PROJECT_RULES[code].check_project(pctx):
                    sup = suppressions.get(finding.path)
                    if sup is None or sup.allows(finding):
                        findings.append(finding)
    else:
        for f in files:
            sup = _parse_suppressions(f.read_text(encoding="utf-8"), str(f))
            suppression_records.extend(sup.records)

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))

    # Baseline ratchet.
    base = _resolve_baseline(baseline, files, allow_missing=update_baseline)
    if update_baseline:
        target = (
            base.path
            if base is not None and base.path is not None
            else (Path(baseline) if baseline not in (None, "auto") else None)
        )
        if target is None:
            anchor = files[0] if files else Path.cwd()
            root = anchor.parent if anchor.is_file() else anchor
            target = root / BASELINE_FILENAME
        updated = Baseline.from_findings(findings, target, previous=base)
        updated.save()
        return LintReport(
            findings=[],
            n_files=len(files),
            baselined=findings,
            stale=[],
            suppressions=suppression_records,
            baseline_path=str(target),
            wall_time_s=time.monotonic() - t0,
        )
    if base is not None:
        new, accepted, stale = split_findings(findings, base)
        return LintReport(
            findings=new,
            n_files=len(files),
            baselined=accepted,
            stale=stale,
            suppressions=suppression_records,
            baseline_path=str(base.path),
            wall_time_s=time.monotonic() - t0,
        )
    return LintReport(
        findings=findings,
        n_files=len(files),
        suppressions=suppression_records,
        wall_time_s=time.monotonic() - t0,
    )


def _format_text(report: LintReport, stream: io.TextIOBase) -> None:
    for f in report.findings:
        stream.write(f"{f.path}:{f.line}:{f.col}: {f.code} {f.message}\n")
        stream.write(f"    hint: {f.hint}\n")
    noun = "file" if report.n_files == 1 else "files"
    extras = []
    if report.baselined:
        extras.append(f"{len(report.baselined)} baselined")
    if report.stale:
        n = len(report.stale)
        extras.append(f"{n} stale baseline {'entry' if n == 1 else 'entries'}")
    extra = f" ({', '.join(extras)})" if extras else ""
    verdict = (
        "no new findings" if report.ok else f"{len(report.findings)} NEW finding(s)"
    )
    stream.write(
        f"reprolint: {report.n_files} {noun} checked, {verdict}{extra} "
        f"in {report.wall_time_s:.2f}s\n"
    )


def _write_diff_artifact(report: LintReport, path: Path) -> None:
    """CI artifact: the new-vs-baseline diff, machine-readable."""
    payload = {
        "new_findings": [f.as_dict() for f in report.findings],
        "n_new": len(report.findings),
        "n_baselined": len(report.baselined),
        "stale_baseline_entries": [e.as_dict() for e in report.stale],
        "baseline": report.baseline_path,
        "wall_time_s": round(report.wall_time_s, 3),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="repro-specific static analysis (RPR rules)",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="default",
        help="rule profile (drivers: scripts/examples, allows prints)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the per-file pass (default: 1)",
    )
    parser.add_argument(
        "--baseline",
        default="auto",
        metavar="PATH",
        help=(
            "findings baseline file (default: walk up from the linted "
            "paths for .reprolint-baseline.json)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline: every finding fails the run",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="accept current findings into the baseline instead of failing",
    )
    parser.add_argument(
        "--baseline-diff-out",
        default=None,
        metavar="PATH",
        help="write the new-vs-baseline diff as JSON (CI artifact)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(set(RULES) | set(PROJECT_RULES)):
            rule = RULES.get(code) or PROJECT_RULES[code]
            scope = "project" if code in PROJECT_RULES else "file"
            sys.stdout.write(f"{code} [{scope}] {rule.name}: {rule.description}\n")
        return 0
    if not args.paths:
        parser.error("no paths given (try: python -m repro.analysis.lint src)")

    select = args.select.split(",") if args.select else None
    baseline: str | None = "auto" if not args.no_baseline else None
    if not args.no_baseline and args.baseline != "auto":
        baseline = args.baseline
    try:
        report = lint_paths(
            args.paths,
            select=select,
            profile=args.profile,
            jobs=max(1, args.jobs),
            baseline=baseline,
            update_baseline=args.update_baseline,
        )
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))
    if args.baseline_diff_out:
        _write_diff_artifact(report, Path(args.baseline_diff_out))
    if args.format == "json":
        sys.stdout.write(json.dumps(report.as_dict(), indent=2) + "\n")
    else:
        _format_text(report, sys.stdout)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
