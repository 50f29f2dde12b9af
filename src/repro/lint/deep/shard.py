"""SHD0xx — shard-safety: who owns the state each statement touches?

ROADMAP item 2 shards the cluster simulation across processes along
worker boundaries; the merge protocol only has to serialize the *few*
interactions that cross a shard. This analysis produces the proof of
"few": it classifies every statement in the orchestrator, the worker,
and the policies by the ownership of the state it touches —

* ``self-worker``  — state of the single worker currently being acted
  on (a container, ``worker.add(...)``, ``container.worker`` chains).
  Free under sharding; never reported.
* ``cross-worker`` — enumerates, indexes, aggregates over or escapes
  the *worker pool*, or uses the shared cluster-memory dirty channel.
  Each such site needs a merge-protocol entry, so each must carry a
  ``# shard:`` annotation saying why it is intentional.
* ``cluster-global`` — pool *metadata* only (``len(pool)``, emptiness
  tests): cheap to replicate per shard, inventoried but not flagged.

The worker pool is recognized syntactically: the ``_workers`` mapping,
any ``...workers()`` accessor call (``self.ctx.workers()`` in
policies), and locals assigned from either. The cluster-memory channel
is the ``_usage.dirty`` flag shared between ``Worker._charge`` and
``Orchestrator._sample_memory``.

Annotation grammar (same line, or a standalone comment on the line
above, mirroring ``# repro-lint: disable=``)::

    # shard: cross-worker <free-text reason>
    # shard: cluster-global <free-text reason>

Rules:

* **SHD001** (error) — cross-worker site without a ``# shard:``
  annotation. New cross-shard coupling must be declared deliberately.
* **SHD002** (warning) — a ``# shard:`` annotation on a line where the
  analysis finds no site (stale after a refactor), or whose declared
  ownership disagrees with the computed one.

Besides findings, the analysis emits the full site inventory —
:meth:`ShardAnalysis.report` — which ``--shard-report`` (and CI) writes
to ``shard-report.json``: the work-list for the sharded engine's merge
protocol.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.deep.symbols import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    attr_chain,
)
from repro.lint.findings import Finding

#: Path prefixes (``repro/`` stripped) the analysis covers — the code
#: that will be split along worker boundaries.
SHARD_SCOPES = ("sim/orchestrator.py", "sim/worker.py",
                "policies/", "core/")

#: Attribute naming the worker pool mapping.
POOL_ATTR = "_workers"
#: Accessor method name returning the pool (Orchestrator.workers and
#: PolicyContext.workers).
POOL_ACCESSOR = "workers"
#: Attribute holding the shared cluster-memory usage channel.
CHANNEL_ATTR = "_usage"

_ANNOTATION_RE = re.compile(
    r"#\s*shard:\s*(self-worker|cross-worker|cluster-global)"
    r"(?:\s+(.*?))?\s*$")

_OWNERSHIP_ORDER = {"self-worker": 0, "cluster-global": 1,
                    "cross-worker": 2}


@dataclass(frozen=True)
class ShardSite:
    """One pool/channel access site."""

    path: str            #: package-relative path
    line: int
    col: int
    function: str        #: enclosing function qualname ("" at module level)
    ownership: str       #: ``cross-worker`` | ``cluster-global``
    kind: str            #: iterate|index|aggregate|escape|size|channel
    detail: str          #: human description
    annotated: bool
    reason: str          #: annotation free-text ("" when unannotated)
    line_text: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.kind)

    def to_dict(self) -> Dict:
        return {
            "path": self.path, "line": self.line, "col": self.col,
            "function": self.function, "ownership": self.ownership,
            "kind": self.kind, "detail": self.detail,
            "annotated": self.annotated, "reason": self.reason,
            "line_text": self.line_text,
        }


# ======================================================================
# Annotation table


def shard_annotations(lines: List[str]) -> Dict[int, Tuple[str, str, int]]:
    """line -> (ownership, reason, comment_line).

    A standalone ``# shard:`` comment annotates the next non-blank,
    non-comment line; a trailing one annotates its own line. The
    ``comment_line`` is where the annotation physically lives (for
    staleness reporting).
    """
    out: Dict[int, Tuple[str, str, int]] = {}
    for i, raw in enumerate(lines, start=1):
        match = _ANNOTATION_RE.search(raw)
        if match is None:
            continue
        ownership = match.group(1)
        reason = (match.group(2) or "").strip()
        if raw.lstrip().startswith("#"):
            target = None
            for j in range(i + 1, len(lines) + 1):
                text = lines[j - 1].strip()
                if text and not text.startswith("#"):
                    target = j
                    break
            if target is not None:
                out[target] = (ownership, reason, i)
        else:
            out[i] = (ownership, reason, i)
    return out


# ======================================================================
# Per-function site extraction


class _ShardWalk(ast.NodeVisitor):
    """Finds pool/channel access sites in one function body."""

    def __init__(self, analysis: "ShardAnalysis", func: FunctionInfo):
        self.analysis = analysis
        self.func = func
        #: locals aliasing the pool (or a view of it).
        self.pool_locals: Set[str] = set()
        self.sites: List[ShardSite] = []

    # -- pool recognition ----------------------------------------------

    def is_pool(self, node: ast.AST) -> bool:
        """Does this expression evaluate to the worker pool (or a
        same-contents view of it)?"""
        if isinstance(node, ast.Name):
            return node.id in self.pool_locals
        if isinstance(node, ast.Attribute):
            return node.attr == POOL_ATTR
        if isinstance(node, ast.Call):
            chain = attr_chain(node.func)
            if chain and chain[-1] == POOL_ACCESSOR:
                return True
            # dict views / shallow copies keep pool contents.
            if (chain and len(chain) >= 2
                    and chain[-1] in ("values", "items", "keys", "copy")
                    and self.is_pool_chain_prefix(node.func)):
                return True
            if (isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple", "sorted",
                                         "set", "dict")
                    and node.args and self.is_pool(node.args[0])):
                return True
        if isinstance(node, (ast.ListComp, ast.GeneratorExp,
                             ast.SetComp)):
            # A comprehension over the pool yields worker-derived
            # values; the comprehension itself is recorded as an
            # iterate site, its result is not re-flagged.
            return False
        return False

    def is_pool_chain_prefix(self, node: ast.AST) -> bool:
        """True for ``<pool>.values`` style attribute heads."""
        return (isinstance(node, ast.Attribute)
                and self.is_pool(node.value))

    # -- site emission --------------------------------------------------

    def site(self, node: ast.AST, ownership: str, kind: str,
             detail: str) -> None:
        self.analysis.add_site(self.func, node, ownership, kind, detail,
                               self.sites)

    # -- statements -----------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        # A filtered view built by a comprehension over the pool is
        # still a set of workers — placement then indexes/minimizes
        # over it, and those are the real cross-worker decisions.
        is_view = (isinstance(value, (ast.ListComp, ast.GeneratorExp,
                                      ast.SetComp))
                   and value.generators
                   and self.is_pool(value.generators[0].iter))
        if self.is_pool(value) or is_view:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.pool_locals.add(target.id)
        self._check_channel_store(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_channel_store([node.target])
        self.generic_visit(node)

    def _check_channel_store(self, targets: List[ast.AST]) -> None:
        for target in targets:
            chain = attr_chain(target)
            if chain and CHANNEL_ATTR in chain[:-1]:
                self.site(target, "cross-worker", "channel",
                          f"writes shared cluster-memory channel "
                          f"`{'.'.join(chain)}`")

    def visit_For(self, node: ast.For) -> None:
        if self.is_pool(node.iter):
            self.site(node.iter, "cross-worker", "iterate",
                      "iterates the worker pool")
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        if self.is_pool(node.iter):
            self.site(node.iter, "cross-worker", "iterate",
                      "iterates the worker pool (comprehension)")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self.is_pool(node.value):
            self.site(node, "cross-worker", "index",
                      "indexes the worker pool by worker id")
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None and self.is_pool(node.value):
            self.site(node, "cross-worker", "escape",
                      "returns the worker pool to the caller")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func_name = None
        if isinstance(node.func, ast.Name):
            func_name = node.func.id
        for arg in node.args:
            if not self.is_pool(arg):
                continue
            if func_name == "len":
                self.site(node, "cluster-global", "size",
                          "reads the worker-pool size")
            elif func_name in ("list", "tuple", "sorted", "set",
                               "dict"):
                pass  # handled as a pool expression by the consumer
            else:
                self.site(node, "cross-worker", "aggregate",
                          f"worker pool passed to "
                          f"{func_name or 'a call'}()")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = attr_chain(node)
        if (chain and CHANNEL_ATTR in chain[:-1]
                and isinstance(node.ctx, ast.Load)):
            self.site(node, "cross-worker", "channel",
                      f"reads shared cluster-memory channel "
                      f"`{'.'.join(chain)}`")
        self.generic_visit(node)

    def visit_UnaryOp(self, node: ast.UnaryOp) -> None:
        if isinstance(node.op, ast.Not) and self.is_pool(node.operand):
            self.site(node, "cluster-global", "size",
                      "tests worker-pool emptiness")
            return
        self.generic_visit(node)

    def visit_If(self, node: ast.If) -> None:
        if self.is_pool(node.test):
            self.site(node.test, "cluster-global", "size",
                      "tests worker-pool emptiness")
        self.generic_visit(node)

    def _skip_nested(self, node) -> None:
        # Nested defs get their own FunctionInfo walk only when
        # indexed; here they share the enclosing scope's pool locals,
        # so walking them in place is both simplest and correct.
        self.generic_visit(node)

    visit_FunctionDef = _skip_nested
    visit_AsyncFunctionDef = _skip_nested


# ======================================================================
# The analysis


class ShardAnalysis:
    """Runs shard-safety over every in-scope module of a project."""

    def __init__(self, project: ProjectIndex):
        self.project = project
        self.sites: List[ShardSite] = []
        self.findings: List[Finding] = []
        #: per-module annotation tables, filled lazily.
        self._annotations: Dict[str, Dict[int, Tuple[str, str, int]]] = {}
        #: comment lines whose annotation matched a site.
        self._used_annotations: Dict[str, Set[int]] = {}

    @staticmethod
    def in_scope(relpath: str) -> bool:
        scope_path = relpath[len("repro/"):] \
            if relpath.startswith("repro/") else relpath
        return any(scope_path == s or scope_path.startswith(s)
                   for s in SHARD_SCOPES)

    def run(self) -> "ShardAnalysis":
        for module in sorted(self.project.modules.values(),
                             key=lambda m: m.relpath):
            if not self.in_scope(module.relpath):
                continue
            self._annotations[module.relpath] = shard_annotations(
                module.lines)
            self._used_annotations[module.relpath] = set()
            for func in self._functions_of(module):
                walk = _ShardWalk(self, func)
                for stmt in func.node.body:
                    walk.visit(stmt)
                self.sites.extend(walk.sites)
            self._report_stale(module)
        self.sites.sort(key=ShardSite.sort_key)
        self.findings.sort(key=Finding.sort_key)
        return self

    def _functions_of(self, module: ModuleInfo) -> List[FunctionInfo]:
        out = list(module.functions.values())
        for cls in module.classes.values():
            out.extend(cls.methods.values())
        out.sort(key=lambda f: f.lineno)
        return out

    # -- site + finding emission ---------------------------------------

    def add_site(self, func: FunctionInfo, node: ast.AST,
                 ownership: str, kind: str, detail: str,
                 local_sites: List[ShardSite]) -> None:
        module = func.module
        line = getattr(node, "lineno", func.lineno)
        col = getattr(node, "col_offset", 0)
        # One site per (line, kind): a comprehension's iter is visited
        # through both For/comprehension handlers and generic traversal.
        if any(s.line == line and s.kind == kind
               for s in local_sites):
            return
        table = self._annotations[module.relpath]
        entry = table.get(line)
        annotated = entry is not None
        reason = entry[1] if entry else ""
        if entry is not None:
            self._used_annotations[module.relpath].add(entry[2])
        site = ShardSite(
            path=module.relpath, line=line, col=col,
            function=func.qualname, ownership=ownership, kind=kind,
            detail=detail, annotated=annotated, reason=reason,
            line_text=module.line_text(line))
        local_sites.append(site)
        if ownership == "cross-worker" and not annotated:
            self.findings.append(Finding(
                rule="SHD001", severity="error", path=module.relpath,
                line=line, col=col,
                message=f"unannotated cross-worker access: {detail}; "
                        f"declare it with `# shard: cross-worker "
                        f"<reason>` (each such site needs a merge-"
                        f"protocol entry under ROADMAP item 2)",
                line_text=module.line_text(line)))
        elif entry is not None and entry[0] != ownership:
            self.findings.append(Finding(
                rule="SHD002", severity="warning", path=module.relpath,
                line=line, col=col,
                message=f"`# shard: {entry[0]}` disagrees with the "
                        f"computed ownership `{ownership}` ({detail})",
                line_text=module.line_text(line)))

    def _report_stale(self, module: ModuleInfo) -> None:
        used = self._used_annotations[module.relpath]
        for target, (ownership, _reason, comment_line) in sorted(
                self._annotations[module.relpath].items()):
            if comment_line in used:
                continue
            self.findings.append(Finding(
                rule="SHD002", severity="warning", path=module.relpath,
                line=comment_line, col=0,
                message=f"stale `# shard: {ownership}` annotation: no "
                        f"pool or channel access on the annotated line",
                line_text=module.line_text(comment_line)))

    # -- report ---------------------------------------------------------

    def report(self, root: str) -> Dict:
        """The machine-readable ``shard-report.json`` payload."""
        counts: Dict[str, int] = {}
        kinds: Dict[str, int] = {}
        for site in self.sites:
            counts[site.ownership] = counts.get(site.ownership, 0) + 1
            kinds[site.kind] = kinds.get(site.kind, 0) + 1
        return {
            "version": 1,
            "root": root,
            "scopes": list(SHARD_SCOPES),
            "summary": {
                "sites": len(self.sites),
                "by_ownership": dict(sorted(counts.items())),
                "by_kind": dict(sorted(kinds.items())),
                "unannotated_cross_worker": sum(
                    1 for s in self.sites
                    if s.ownership == "cross-worker"
                    and not s.annotated),
            },
            "sites": [s.to_dict() for s in self.sites],
        }

