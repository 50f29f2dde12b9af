"""Transitive purity (PUR003): static catch, classic-rule miss, and the
dynamic SimSanitizer twin — all on the same seeded impurity shape.

The acceptance fixture is an observer that hands the orchestrator to a
helper living in a *non-observer* module; the helper does the writing.

* the classic intra-function ``PUR001``/``PUR002`` pass the observer
  file (no direct write) and never see the helper (out of scope) —
  asserted here so the gap stays real;
* ``PUR003`` catches it across the module boundary via call-graph
  mutation summaries;
* the **same shape at runtime** — a recorder whose ``sample`` calls a
  helper that writes through the orchestrator — trips the
  :class:`SimSanitizer` write barrier, confirming the static finding
  describes a real dynamic violation.
"""

import pytest

from repro.experiments.runner import run_one
from repro.experiments.suites import policy_factories
from repro.lint import lint_source
from repro.lint.checks_purity import MUTATING_METHODS
from repro.lint.deep.callgraph import CallGraph
from repro.lint.deep.purity import (ALLOWED_WRITE_ATTRS,
                                    PuritySummaries, purity_findings)
from repro.lint.deep.symbols import ProjectIndex
from repro.sim import sanitizer as sanitizer_mod
from repro.sim.config import SimulationConfig
from repro.sim.sanitizer import SanitizerError, SimSanitizer
from repro.traces.azure import azure_trace

# The helper lives outside every observer scope: the classic PUR rules
# never lint it, and at the observer's call site there is no direct
# write for the intra-function taint walk to see.
HELPER_SOURCE = """
def drain(orch):
    orch.sim.processed = 0
"""

OBSERVER_SOURCE = """
from repro.analysis.helpers import drain

class Recorder:
    interval_ms = 1000.0

    def sample(self, orch):
        total = orch.now
        drain(orch)
        return total
"""


def build_fixture():
    index = ProjectIndex()
    index.add_source(HELPER_SOURCE, "repro/analysis/helpers.py")
    index.add_source(OBSERVER_SOURCE, "repro/obs/myprobe.py")
    index.finalize()
    return index


# ======================================================================
# Static: deep catches what classic misses


class TestStaticCatch:
    def test_classic_rules_miss_the_indirect_mutation(self):
        findings, _ = lint_source(OBSERVER_SOURCE,
                                  "repro/obs/myprobe.py")
        assert [f for f in findings if f.rule.startswith("PUR")] == []

    def test_deep_catches_it_across_modules(self):
        graph = CallGraph.build(build_fixture())
        findings = purity_findings(graph)
        assert [f.rule for f in findings] == ["PUR003"]
        (finding,) = findings
        assert finding.path == "repro/obs/myprobe.py"
        assert "repro.analysis.helpers.drain" in finding.message
        assert "writes `orch.sim.processed`" in finding.message

    def test_two_hop_chain_is_followed(self):
        index = ProjectIndex()
        index.add_source("""
def inner(state):
    state.counter += 1

def outer(orch):
    inner(orch)
""", "repro/analysis/helpers.py")
        index.add_source("""
from repro.analysis.helpers import outer

def probe(orch):
    outer(orch)
""", "repro/obs/probe.py")
        index.finalize()
        findings = purity_findings(CallGraph.build(index))
        assert [f.rule for f in findings] == ["PUR003"]
        assert "calls `inner()`" in findings[0].message

    def test_mutation_through_method_receiver(self):
        index = ProjectIndex()
        index.add_source("""
class Churner:
    def spin(self, orch):
        orch.flag = True
""", "repro/analysis/churn.py")
        index.add_source("""
from repro.analysis.churn import Churner

class Probe:
    def __init__(self):
        self.churner = Churner()

    def sample(self, orch):
        self.churner.spin(orch)
""", "repro/obs/probe.py")
        index.finalize()
        findings = purity_findings(CallGraph.build(index))
        assert [f.rule for f in findings] == ["PUR003"]

    def test_pure_helper_not_flagged(self):
        index = ProjectIndex()
        index.add_source("""
def tally(orch):
    return orch.now + 1
""", "repro/analysis/helpers.py")
        index.add_source("""
from repro.analysis.helpers import tally

def probe(orch):
    return tally(orch)
""", "repro/obs/probe.py")
        index.finalize()
        assert purity_findings(CallGraph.build(index)) == []

    def test_allowlisted_cache_write_not_a_mutation(self):
        index = ProjectIndex()
        index.add_source("""
def refresh(worker):
    worker._evictable_mb_cache = 1.0
    worker._evictable_mb_gen = 2
""", "repro/analysis/helpers.py")
        index.add_source("""
from repro.analysis.helpers import refresh

def probe(worker):
    refresh(worker)
""", "repro/obs/probe.py")
        index.finalize()
        assert purity_findings(CallGraph.build(index)) == []

    def test_out_of_scope_callers_not_flagged(self):
        # The same call shape outside obs/ is legitimate sim code.
        index = ProjectIndex()
        index.add_source(HELPER_SOURCE, "repro/analysis/helpers.py")
        index.add_source("""
from repro.analysis.helpers import drain

def control_step(orch):
    drain(orch)
""", "repro/sim/control.py")
        index.finalize()
        assert purity_findings(CallGraph.build(index)) == []

    def test_head_is_transitively_pure(self, head_graph):
        assert purity_findings(head_graph) == []

    def test_summaries_know_real_mutators(self, head_graph):
        summaries = PuritySummaries(head_graph)
        charge = summaries.mutations[
            "repro.sim.worker.Worker._charge"]
        assert "self" in charge


# ======================================================================
# Static/dynamic cross-validation


class TestSanitizerAgreement:
    def test_static_allowlist_mirrors_sanitizer(self):
        dynamic = {attr for _cls, attr
                   in sanitizer_mod._ALLOWED_WRITES}
        assert ALLOWED_WRITE_ATTRS == dynamic

    def test_mutating_methods_is_the_shared_vocabulary(self):
        # PUR003's direct-mutation step reuses the classic frozenset;
        # pin a few members so a rename breaks loudly.
        assert {"append", "pop", "clear", "evict"} <= MUTATING_METHODS


# ======================================================================
# Dynamic twin: the same impurity shape trips the runtime barrier


def _drain(orch):
    """Runtime twin of repro/analysis/helpers.py::drain above."""
    orch.sim.processed = 0


class IndirectlyMutatingRecorder:
    """Runtime twin of the OBSERVER_SOURCE fixture: ``sample`` itself
    performs no write — the helper it calls does."""

    interval_ms = 1_000.0

    def note_start(self, func, start_type, now):
        pass

    def sample(self, orch):
        total = orch.now
        _drain(orch)
        return total

    def finish(self, orch):
        pass


def test_dynamic_violation_confirmed_by_sanitizer():
    trace = azure_trace(seed=7, total_requests=120)
    factory = policy_factories()["TTL"]
    config = SimulationConfig(capacity_gb=2.0)
    with pytest.raises(SanitizerError) as excinfo:
        run_one(trace, factory, config,
                recorder=IndirectlyMutatingRecorder(),
                sanitizer=SimSanitizer(check_interval=64))
    message = str(excinfo.value)
    # Same probe entry point and same attribute as the static finding.
    assert "IndirectlyMutatingRecorder.sample" in message
    assert "Simulator.processed" in message
