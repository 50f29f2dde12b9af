"""Whole-program analyses for repro-lint.

The per-file checkers see one tree at a time; this package works on the
:class:`ProjectIndex` of the entire ``repro`` package (symbol table +
call graph) and runs the three interprocedural analyses on it:

* :mod:`repro.lint.deep.shard`  — SHD001/SHD002 shard-safety and the
  ``shard-report.json`` inventory;
* :mod:`repro.lint.deep.purity` — PUR003 transitive observer purity;
* :mod:`repro.lint.deep.units`  — API002 cross-function dimension
  inference.

Every lint run calls :func:`deep_findings` on the index it builds
(:func:`repro.lint.engine.lint_paths`), so these findings pass through
the same inline suppressions and the same ``lint-baseline.json`` as the
per-file rules.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.lint.findings import Finding
from repro.lint.rules import Rule
from repro.lint.deep.callgraph import CallGraph
from repro.lint.deep.purity import PURITY_SCOPES, purity_findings
from repro.lint.deep.shard import SHARD_SCOPES, ShardAnalysis
from repro.lint.deep.symbols import ProjectIndex
from repro.lint.deep.units import units_findings

#: Catalogue entries of the whole-program rules. They are not Checker
#: subclasses (they need the whole project, not one tree), but their
#: metadata has the same format; ``all_rules()`` lists them too.
DEEP_RULES = (
    Rule(code="SHD001", name="unannotated-cross-worker",
         severity="error", scopes=SHARD_SCOPES,
         rationale="Sharding the cluster along worker boundaries "
                   "(ROADMAP item 2) must serialize every cross-worker "
                   "access through the merge protocol; an undeclared "
                   "one is a silent shard-consistency bug. Annotate "
                   "intentional sites with `# shard: cross-worker "
                   "<reason>`."),
    Rule(code="SHD002", name="stale-shard-annotation",
         severity="warning", scopes=SHARD_SCOPES,
         rationale="A `# shard:` annotation that no longer matches a "
                   "pool or channel access (or disagrees with the "
                   "computed ownership) misdocuments the merge-"
                   "protocol work-list."),
    Rule(code="PUR003", name="transitive-observer-purity",
         severity="error", scopes=PURITY_SCOPES,
         rationale="A probe callback that passes sim-owned state to a "
                   "helper that mutates it perturbs the simulation "
                   "exactly like a direct write, but across a call "
                   "boundary the file-local PUR rules cannot see."),
    Rule(code="API002", name="inferred-unit-mixing",
         severity="error", scopes=(),
         rationale="Unit suffixes propagated through assignments, "
                   "returns and call bindings still denote units; "
                   "mixing _ms with _s across a function boundary is "
                   "a conversion bug no single expression shows."),
)


def deep_findings(project: ProjectIndex
                  ) -> Tuple[List[Finding], Dict]:
    """All whole-program findings plus the shard-report payload."""
    graph = CallGraph.build(project)
    shard = ShardAnalysis(project).run()
    findings = list(shard.findings)
    findings.extend(purity_findings(graph))
    findings.extend(units_findings(graph))
    findings.sort(key=Finding.sort_key)
    return findings, shard.report(root="src/repro")


__all__ = [
    "DEEP_RULES",
    "CallGraph",
    "ProjectIndex",
    "deep_findings",
]
