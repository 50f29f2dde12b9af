"""Dimension inference (API002): unit tags propagated through
assignments, returns and call-argument bindings — the mixing the
expression-local ``API001`` cannot see.
"""

from repro.lint import lint_source
from repro.lint.deep.callgraph import CallGraph
from repro.lint.deep.symbols import ProjectIndex
from repro.lint.deep.units import ReturnUnits, units_findings


def findings_for(source, relpath="repro/sim/fixture.py"):
    index = ProjectIndex()
    assert index.add_source(source, relpath).tree is not None
    index.finalize()
    return units_findings(CallGraph.build(index))


FIXTURE = """
def horizon_ms():
    return 5000.0

def wait(timeout_s):
    return timeout_s

def use(keepalive_s):
    budget = horizon_ms()
    if budget > keepalive_s:
        pass
    wait(budget)
    total = budget + keepalive_s
    return total

def cost_ms(cost_s):
    return cost_s
"""


class TestSeededBugs:
    def setup_method(self):
        self.findings = findings_for(FIXTURE)
        self.messages = [f.message for f in self.findings]

    def test_all_four_seeded_bugs_caught(self):
        assert len(self.findings) == 4
        assert all(f.rule == "API002" for f in self.findings)

    def test_comparison_through_laundering_local(self):
        assert any("comparison mixes inferred units `_ms` and `_s`"
                   in m for m in self.messages)

    def test_call_argument_binding(self):
        assert any("bound to parameter `timeout_s`" in m
                   for m in self.messages)

    def test_additive_mix_via_inference(self):
        assert any("additive expression mixes inferred units" in m
                   for m in self.messages)

    def test_return_unit_contradicts_function_name(self):
        assert any("declares unit `_ms` but returns" in m
                   for m in self.messages)

    def test_classic_api001_misses_all_of_them(self):
        findings, _ = lint_source(FIXTURE, "repro/sim/fixture.py")
        assert [f for f in findings if f.rule == "API001"] == []


class TestNoFalsePositives:
    def test_multiplicative_conversion_launders_units(self):
        assert findings_for("""
def wait(timeout_s):
    return timeout_s

def use(budget_ms):
    wait(budget_ms / 1000.0)
    doubled = budget_ms * 2
    return doubled + budget_ms
""") == []

    def test_memory_tags_do_not_mix_with_time(self):
        assert findings_for("""
def capacity_mb():
    return 512.0

def admit(size_mb):
    room = capacity_mb()
    return room - size_mb
""") == []

    def test_syntactic_mixing_left_to_classic_rule(self):
        source = """
def f(a_ms, b_s):
    return a_ms + b_s
"""
        assert findings_for(source) == []  # API001's job, not API002's
        classic, _ = lint_source(source, "repro/sim/fixture.py")
        assert [f.rule for f in classic] == ["API001"]

    def test_unknown_units_stay_silent(self):
        assert findings_for("""
def wait(timeout_s):
    return timeout_s

def use(value):
    wait(value)
""") == []

    def test_rate_suffixes_excluded(self):
        assert findings_for("""
def use(rate_per_s, window_ms):
    return rate_per_s * window_ms
""") == []

    def test_head_is_clean(self, head_graph):
        assert units_findings(head_graph) == []


class TestReturnSummaries:
    def test_name_suffix_is_authoritative(self):
        index = ProjectIndex()
        index.add_source("""
def cold_finish_ms(start_ms, cost_ms):
    return start_ms + cost_ms
""", "repro/sim/fixture.py")
        index.finalize()
        units = ReturnUnits(CallGraph.build(index))
        assert units.units["repro.sim.fixture.cold_finish_ms"] == "ms"

    def test_inferred_from_agreeing_returns(self):
        index = ProjectIndex()
        index.add_source("""
def pick(flag, lo_ms, hi_ms):
    if flag:
        return lo_ms
    return hi_ms
""", "repro/sim/fixture.py")
        index.finalize()
        units = ReturnUnits(CallGraph.build(index))
        assert units.units["repro.sim.fixture.pick"] == "ms"

    def test_disagreeing_returns_stay_unknown(self):
        index = ProjectIndex()
        index.add_source("""
def confused(flag, a_ms, b_mb):
    if flag:
        return a_ms
    return b_mb
""", "repro/sim/fixture.py")
        index.finalize()
        units = ReturnUnits(CallGraph.build(index))
        assert units.units["repro.sim.fixture.confused"] is None

    def test_seconds_aliases_normalize(self):
        index = ProjectIndex()
        index.add_source("""
def a_sec():
    return 1.0

def use(b_s):
    return a_sec() + b_s
""", "repro/sim/fixture.py")
        index.finalize()
        assert units_findings(CallGraph.build(index)) == []
