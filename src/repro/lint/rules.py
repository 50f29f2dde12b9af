"""Checker framework: rule metadata, registry, and the visitor base class.

A *rule* is an identifier (``DET004``), a severity, a path scope and a
rationale; a *checker* is an :mod:`ast` visitor that reports findings for
exactly one rule. Checkers register themselves with :func:`register`, and
the engine instantiates every checker whose scope matches the file being
linted. The whole-program rules (:mod:`repro.lint.deep`) share the
:class:`Rule` metadata and the catalogue, but not the visitor.

Scopes are path prefixes **relative to the repro package root** (e.g.
``sim/`` or the single file ``sim/telemetry.py``); an empty scope tuple
means the rule applies everywhere under ``repro/``. Keeping scope in the
rule — not in ad-hoc engine conditionals — makes the rule catalogue
self-describing (``repro lint --rules``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

from repro.lint.findings import Finding

#: Finding severities, strongest first.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Rule:
    """Metadata for one lint rule."""

    code: str                 #: e.g. ``DET001``
    name: str                 #: short kebab-case name, e.g. ``wall-clock``
    severity: str             #: ``error`` or ``warning``
    scopes: Tuple[str, ...]   #: package-relative path prefixes; () = all
    rationale: str            #: why violating this breaks the reproduction

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule is in scope for ``relpath``.

        ``relpath`` is the package-relative path with the leading
        ``repro/`` stripped (``sim/worker.py``).
        """
        if not self.scopes:
            return True
        return any(relpath == scope or relpath.startswith(scope)
                   for scope in self.scopes)


class FileContext:
    """Everything a checker needs to know about the file under analysis."""

    def __init__(self, source: str, relpath: str):
        self.source = source
        self.relpath = relpath          # e.g. repro/sim/worker.py
        self.lines = source.splitlines()
        # Scope path: package-relative with the leading repro/ stripped.
        self.scope_path = relpath[len("repro/"):] \
            if relpath.startswith("repro/") else relpath

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Checker(ast.NodeVisitor):
    """Base class for rule checkers (one rule per checker).

    Subclasses set ``RULE`` and call :meth:`report` from their visit
    methods. The engine runs ``visit(tree)`` once per in-scope file.
    """

    RULE: Rule

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.findings: List[Finding] = []

    def report(self, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        self.findings.append(Finding(
            rule=self.RULE.code, severity=self.RULE.severity,
            path=self.ctx.relpath, line=lineno, col=col,
            message=message, line_text=self.ctx.line_text(lineno)))


#: code -> checker class (its ``RULE`` holds the metadata).
_REGISTRY: Dict[str, Type[Checker]] = {}


def register(checker: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    code = checker.RULE.code
    if code in _REGISTRY:
        raise ValueError(f"duplicate rule code {code}")
    _REGISTRY[code] = checker
    return checker


def all_rules() -> List[Rule]:
    """The rule catalogue, ordered by code: every registered checker's
    rule plus the whole-program rules of :mod:`repro.lint.deep`."""
    _load_builtin_checks()
    from repro.lint.deep import DEEP_RULES
    rules = [cls.RULE for cls in _REGISTRY.values()] + list(DEEP_RULES)
    return sorted(rules, key=lambda rule: rule.code)


def checkers_for(ctx: FileContext,
                 select: Optional[Tuple[str, ...]] = None) -> List[Checker]:
    """Instantiate every registered checker in scope for ``ctx``.

    ``select`` optionally restricts to an explicit set of rule codes.
    """
    _load_builtin_checks()
    chosen = []
    for code in sorted(_REGISTRY):
        cls = _REGISTRY[code]
        if select is not None and code not in select:
            continue
        if cls.RULE.applies_to(ctx.scope_path):
            chosen.append(cls(ctx))
    return chosen


def _load_builtin_checks() -> None:
    """Import the bundled checker modules (idempotent, lazy to avoid an
    import cycle between this module and the checker modules)."""
    from repro.lint import (checks_determinism, checks_floatsum,  # noqa: F401
                            checks_purity, checks_units)


# ----------------------------------------------------------------------
# Shared AST helpers used by several checker modules


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def root_name(node: ast.AST) -> Optional[str]:
    """The left-most Name an expression is rooted at, skipping attribute
    access, subscripting and calls (``a.b[0].c().d`` -> ``a``)."""
    while True:
        if isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Starred):
            node = node.value
        else:
            break
    return node.id if isinstance(node, ast.Name) else None


class SetExprTracker:
    """Syntactic "is this expression a set?" test with one level of local
    name tracking (``s = set(a) | set(b)`` taints ``s``)."""

    def __init__(self) -> None:
        self.set_vars: set = set()

    def note_assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                if self.is_set_expr(node.value):
                    self.set_vars.add(target.id)
                else:
                    self.set_vars.discard(target.id)

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            return name in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return (self.is_set_expr(node.left)
                    or self.is_set_expr(node.right))
        if isinstance(node, ast.Name):
            return node.id in self.set_vars
        return False
