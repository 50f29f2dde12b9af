"""repro-lint driver: one run, one parse, one suppression and baseline pass.

:func:`lint_paths` indexes the ``repro`` package governing the requested
paths (:class:`~repro.lint.deep.symbols.ProjectIndex`), so every file is
parsed once. Each requested file then gets the registered per-file
checkers on its tree (or ``E999`` when it does not parse) together with
the whole-program findings (:mod:`repro.lint.deep`) located in it. One
inline-suppression pass and one baseline pass apply to both alike;
whatever survives fails the lint.

**Inline suppressions** live on the flagged line or on a standalone
comment line directly above it::

    used = sum(counts.values())  # repro-lint: disable=FPX002

    # repro-lint: disable=DET004  (order-immune: every branch appends
    # to an independent per-key series)
    for func in funcs:
        ...

``disable=all`` silences every rule for that line.

**Baseline** (:func:`load_baseline` / :func:`update_baseline_file`) is
the JSON file ``lint-baseline.json`` of grandfathered findings keyed by
``(rule, path, stripped line text)`` — *not* line numbers — so
unrelated edits do not invalidate it, and an entry can only ever
silence its own rule. Each entry carries a mandatory ``reason`` so
exemptions stay explained. An entry that matched nothing is reported
as *stale* when its path was linted and its rule ran, or when its file
no longer exists (the entries ``--update-baseline`` prunes), so the
baseline shrinks over time instead of rotting.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Collection, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple, Union)

from repro.lint.deep import deep_findings
from repro.lint.deep.symbols import (ModuleInfo, ProjectIndex,
                                     find_package_root, parse_module,
                                     relpath_of)
from repro.lint.findings import Finding
from repro.lint.rules import FileContext, checkers_for

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")

BASELINE_VERSION = 1
#: Default committed baseline filename, discovered at the repo root.
BASELINE_FILENAME = "lint-baseline.json"
#: Rule code of a file that does not parse (reported whatever --select).
PARSE_ERROR = "E999"


# ======================================================================
# Per-file linting


def _suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """line number -> rule codes disabled there (``{"ALL"}`` = every)."""
    table: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        codes = {code.strip().upper()
                 for code in match.group(1).split(",") if code.strip()}
        if "ALL" in codes:
            codes = {"ALL"}
        target = lineno
        if line.lstrip().startswith("#"):
            # Standalone comment: applies to the next non-comment,
            # non-blank line.
            target = lineno + 1
            while target <= len(lines) and (
                    not lines[target - 1].strip()
                    or lines[target - 1].lstrip().startswith("#")):
                target += 1
        table.setdefault(target, set()).update(codes)
    return table


def _lint_module(module: ModuleInfo,
                 select: Optional[Tuple[str, ...]] = None,
                 located: Iterable[Finding] = ()
                 ) -> Tuple[List[Finding], int]:
    """The per-file checkers on ``module`` plus the whole-program
    findings ``located`` in it, less inline suppressions; returns
    ``(findings, suppressed_count)``. A module that did not parse
    yields its E999 alone."""
    if module.tree is None:
        exc = module.error
        return [Finding(
            rule=PARSE_ERROR, severity="error", path=module.relpath,
            line=exc.lineno or 1, col=(exc.offset or 1) - 1,
            message=f"syntax error: {exc.msg}",
            line_text=module.line_text(exc.lineno or 1))], 0
    findings = list(located)
    for checker in checkers_for(FileContext(module.source, module.relpath),
                                select=select):
        checker.visit(module.tree)
        findings.extend(checker.findings)
    table = _suppressions(module.lines)
    kept, suppressed = [], 0
    for finding in sorted(findings, key=Finding.sort_key):
        codes = table.get(finding.line, ())
        if "ALL" in codes or finding.rule in codes:
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


def lint_source(source: str, relpath: str = "repro/module.py",
                select: Optional[Tuple[str, ...]] = None
                ) -> Tuple[List[Finding], int]:
    """Run the per-file checkers on one source string; returns
    ``(findings, suppressed_count)``.

    Findings are sorted by location. ``relpath`` controls rule scoping
    (e.g. pass ``repro/sim/x.py`` to enable the sim-scoped rules). The
    whole-program rules need a project and run only in
    :func:`lint_paths`.
    """
    return _lint_module(parse_module(source, relpath), select)


# ======================================================================
# Baseline


def load_baseline(path: Union[str, Path]) -> List[dict]:
    """Load baseline entries; raises on a malformed file."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != BASELINE_VERSION:
        raise ValueError(f"unsupported baseline version "
                         f"{payload.get('version')!r} in {path}")
    entries = payload.get("entries", [])
    for entry in entries:
        missing = {"rule", "path", "line_text"} - set(entry)
        if missing:
            raise ValueError(f"baseline entry missing {sorted(missing)}: "
                             f"{entry}")
    return entries


def _run_covers(entry: dict, linted: Collection[str],
              select: Optional[Tuple[str, ...]]) -> bool:
    """Whether a run over the ``linted`` relpaths with ``select`` could
    have matched ``entry``: its path was linted and its rule ran."""
    return entry["path"] in linted and (
        select is None or entry["rule"] in select
        or entry["rule"] == PARSE_ERROR)


def _path_roots(files: Iterable[Union[str, Path]]) -> Set[str]:
    """Filesystem prefixes that package-relative paths resolve against
    (``/repo/src/`` for ``/repo/src/repro/x.py`` -> ``repro/x.py``)."""
    roots: Set[str] = set()
    for file in files:
        rel = relpath_of(file)
        fs = Path(file).resolve().as_posix()
        if fs.endswith(rel):
            roots.add(fs[:len(fs) - len(rel)])
    return roots


def _file_gone(entry: dict, roots: Collection[str]) -> bool:
    """Whether ``entry``'s file no longer exists under any of ``roots``:
    such an entry can never match again, whatever the run lints."""
    return bool(roots) and not any(Path(root + entry["path"]).is_file()
                                   for root in roots)


def update_baseline_file(path: Union[str, Path],
                         findings: Sequence[Finding],
                         linted_files: Sequence[Union[str, Path]],
                         select: Optional[Tuple[str, ...]] = None
                         ) -> Tuple[int, int]:
    """Write the baseline at ``path`` from ``findings``, merging.

    * entries the run could have matched (path linted, rule run) are
      replaced by the current findings, **preserving the reason** of
      any entry whose ``(rule, path, line_text)`` key still matches;
    * other entries are kept verbatim — unless their file no longer
      exists on disk, in which case they are pruned (a deleted file can
      never match again, so keeping the entry is permanent stale noise).

    Returns ``(written, pruned)`` entry counts.
    """
    existing: List[dict] = []
    if Path(path).is_file():
        existing = load_baseline(path)

    linted_rel = {relpath_of(f) for f in linted_files}
    roots = _path_roots(linted_files)

    reasons: Dict[tuple, str] = {}
    keep_outside: List[dict] = []
    pruned = 0
    for entry in existing:
        key = (entry["rule"], entry["path"], entry["line_text"])
        reasons.setdefault(key, entry.get(
            "reason", "grandfathered; justify or fix"))
        if _run_covers(entry, linted_rel, select):
            continue  # refreshed from the current findings below
        if _file_gone(entry, roots):
            pruned += 1
        else:
            keep_outside.append(entry)

    seen = set()
    entries: List[dict] = []
    for finding in sorted(findings, key=Finding.sort_key):
        key = finding.baseline_key()
        if key in seen:
            continue
        seen.add(key)
        entries.append({
            "rule": finding.rule,
            "path": finding.path,
            "line_text": finding.line_text,
            "reason": reasons.get(key, "grandfathered; justify or fix"),
        })
    for entry in keep_outside:
        key = (entry["rule"], entry["path"], entry["line_text"])
        if key not in seen:
            seen.add(key)
            entries.append(entry)
    entries.sort(key=lambda e: (e["path"], e["rule"], e["line_text"]))
    payload = {"version": BASELINE_VERSION, "entries": entries}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=False)
                          + "\n")
    return len(entries), pruned


def find_default_baseline(paths: Sequence[Union[str, Path]]
                          ) -> Optional[Path]:
    """Walk up from the linted paths looking for the committed baseline
    (next to ``pyproject.toml``, i.e. at the repo root)."""
    for start in list(paths) or [Path.cwd()]:
        node = Path(start).resolve()
        if node.is_file():
            node = node.parent
        for parent in (node, *node.parents):
            candidate = parent / BASELINE_FILENAME
            if candidate.is_file():
                return candidate
            if (parent / "pyproject.toml").is_file():
                break  # repo root reached without a baseline
    return None


# ======================================================================
# Multi-file driver


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    baselined: int = 0
    files: int = 0
    stale_baseline: List[dict] = field(default_factory=list)
    #: the ``shard-report.json`` inventory of the indexed package.
    shard: Optional[dict] = None

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_dict(self) -> dict:
        payload = {
            "version": 1,
            "clean": self.clean,
            "files": self.files,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "counts": self.counts_by_rule(),
            "findings": [f.to_dict() for f in self.findings],
            "stale_baseline": list(self.stale_baseline),
        }
        if self.shard is not None:
            payload["shard"] = self.shard["summary"]
        return payload

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        for entry in self.stale_baseline:
            lines.append(f"note: stale baseline entry {entry['rule']} "
                         f"@ {entry['path']} ({entry['line_text']!r}) "
                         f"matched nothing — remove it")
        summary = (f"{len(self.findings)} finding(s) in {self.files} "
                   f"file(s) ({self.suppressed} suppressed inline, "
                   f"{self.baselined} baselined)")
        lines.append(("FAIL: " if self.findings else "OK: ") + summary)
        return "\n".join(lines)


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for path in paths:
        p = Path(path)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
        elif not p.exists():
            raise FileNotFoundError(f"no such file or directory: {p}")
    return files


def lint_paths(paths: Sequence[Union[str, Path]],
               baseline: Optional[Sequence[dict]] = None,
               select: Optional[Tuple[str, ...]] = None) -> LintReport:
    """Lint every ``.py`` file under ``paths``; apply ``baseline``.

    The whole-program analyses are only sound over the whole program,
    so the index covers the ``repro`` package governing ``paths`` (or
    just the given files when they lie outside any package); findings
    are reported for the requested files only, while the shard
    inventory (``report.shard``) always covers the whole index.
    """
    files = iter_python_files(paths)
    root = find_package_root(files or list(paths))
    project = (ProjectIndex.build(root) if root is not None
               else ProjectIndex.build_files(files))
    whole_program, shard = deep_findings(project)
    located: Dict[str, List[Finding]] = {}
    for finding in whole_program:
        if select is None or finding.rule in select:
            located.setdefault(finding.path, []).append(finding)

    report = LintReport(files=len(files), shard=shard)
    collected: List[Finding] = []
    linted: Set[str] = set()
    for file in files:
        module = project.files.get(file.resolve())
        if module is None:  # a file outside the indexed package
            module = parse_module(file.read_text(), relpath_of(file), file)
            findings, suppressed = _lint_module(module, select)
        else:
            findings, suppressed = _lint_module(
                module, select, located.get(module.relpath, ()))
        collected.extend(findings)
        report.suppressed += suppressed
        linted.add(module.relpath)
    if baseline:
        matched_entries = set()
        by_key = {}
        for i, entry in enumerate(baseline):
            by_key.setdefault(
                (entry["rule"], entry["path"], entry["line_text"]),
                []).append(i)
        kept = []
        for finding in collected:
            indexes = by_key.get(finding.baseline_key())
            if indexes:
                report.baselined += 1
                matched_entries.update(indexes)
            else:
                kept.append(finding)
        collected = kept
        roots = _path_roots(files)
        report.stale_baseline = [
            entry for i, entry in enumerate(baseline)
            if i not in matched_entries
            and (_run_covers(entry, linted, select)
                 or _file_gone(entry, roots))]
    report.findings = sorted(collected, key=Finding.sort_key)
    return report
