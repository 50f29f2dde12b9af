"""repro-lint: static determinism/purity/FP-discipline analysis.

A stdlib-``ast`` linter encoding the reproduction's invariants as
checkable rules:

* ``DET0xx`` — nondeterminism in simulation code (wall clock, unseeded
  RNG, UUIDs, set iteration);
* ``PUR0xx`` — observer purity (telemetry/audit probes must not mutate
  sim objects);
* ``FPX0xx`` — float-summation-order discipline (no ``sum()`` over
  unordered iterables in accounting code);
* ``API0xx`` — unit hygiene (``_ms`` vs ``_s``, ``_mb`` vs ``_gb``);
* ``SHD0xx``, ``PUR003``, ``API002`` — the whole-program rules
  (:mod:`repro.lint.deep`): shard safety, transitive observer purity
  and cross-function dimension inference over a project-wide symbol
  table and call graph.

Every run is one pass (:func:`lint_paths`): the package is indexed and
parsed once, every rule runs on it, and one suppression pass and one
baseline (``lint-baseline.json``) apply to all findings.

Run it with ``python -m repro.lint [paths]``, the ``repro-lint``
console script, or ``cidre-sim lint``. See
``docs/ARCHITECTURE.md`` ("Static analysis and the sim-sanitizer" and
"Whole-program analysis and shard safety").
"""

from repro.lint.engine import (LintReport, lint_paths, lint_source,
                               load_baseline, update_baseline_file)
from repro.lint.findings import Finding
from repro.lint.rules import Checker, Rule, all_rules, register

__all__ = [
    "Checker", "Finding", "LintReport", "Rule", "all_rules",
    "lint_paths", "lint_source", "load_baseline", "register",
    "update_baseline_file",
]
