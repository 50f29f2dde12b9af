"""Shard-safety analysis: ownership classification, annotation grammar,
and the HEAD inventory that feeds ROADMAP item 2.

The fixture half pins the classifier's behavior on synthetic modules;
the HEAD half asserts the real tree's cross-worker inventory is
complete (placement and cluster-memory sites at minimum), fully
annotated, and that the HEAD lint run with the committed baseline is
green and reports the same inventory.
"""

import pytest

from repro.lint.deep.shard import ShardAnalysis, shard_annotations
from repro.lint.deep.symbols import ProjectIndex


def analyze(source, relpath="repro/sim/orchestrator.py"):
    index = ProjectIndex()
    assert index.add_source(source, relpath).tree is not None
    index.finalize()
    return ShardAnalysis(index).run()


# ======================================================================
# Annotation grammar


class TestAnnotationGrammar:
    def test_trailing_and_standalone(self):
        table = shard_annotations([
            "x = pool[0]  # shard: cross-worker picks a worker",
            "# shard: cluster-global size only",
            "n = len(pool)",
        ])
        assert table[1] == ("cross-worker", "picks a worker", 1)
        assert table[3] == ("cluster-global", "size only", 2)

    def test_standalone_skips_blank_and_comment_lines(self):
        table = shard_annotations([
            "# shard: cross-worker reason text",
            "# unrelated comment",
            "",
            "for w in pool:",
        ])
        assert table[4] == ("cross-worker", "reason text", 1)

    def test_unknown_ownership_word_ignored(self):
        assert shard_annotations(["# shard: everywhere nope"]) == {}


# ======================================================================
# Classification fixtures


UNANNOTATED = """
class Orchestrator:
    def sweep(self):
        for worker in self._workers:
            worker.poke()
"""

ANNOTATED = """
class Orchestrator:
    def sweep(self):
        # shard: cross-worker maintenance sweeps every worker
        for worker in self._workers:
            worker.poke()
"""


class TestClassification:
    def test_unannotated_iteration_is_shd001(self):
        analysis = analyze(UNANNOTATED)
        assert [f.rule for f in analysis.findings] == ["SHD001"]
        (site,) = analysis.sites
        assert (site.ownership, site.kind) == ("cross-worker", "iterate")
        assert not site.annotated

    def test_annotated_iteration_is_clean(self):
        analysis = analyze(ANNOTATED)
        assert analysis.findings == []
        (site,) = analysis.sites
        assert site.annotated
        assert site.reason == "maintenance sweeps every worker"

    def test_pool_size_is_cluster_global_and_unflagged(self):
        analysis = analyze("""
class Orchestrator:
    def lonely(self):
        return len(self._workers) == 1
""")
        assert analysis.findings == []
        (site,) = analysis.sites
        assert (site.ownership, site.kind) == ("cluster-global", "size")

    def test_index_aggregate_escape_channel_kinds(self):
        analysis = analyze("""
class Orchestrator:
    def pick(self, i):
        # shard: cross-worker placement by index
        return self._workers[i]

    def lightest(self):
        # shard: cross-worker placement argmin
        return min(self._workers, key=lambda w: w.used_mb)

    def workers(self):
        # shard: cross-worker pool accessor
        return self._workers

    def resample(self):
        # shard: cross-worker cluster-memory flag
        self._usage.dirty = False
""")
        assert analysis.findings == []
        kinds = sorted(s.kind for s in analysis.sites)
        assert kinds == ["aggregate", "channel", "escape", "index"]

    def test_policy_ctx_workers_accessor_is_a_pool(self):
        analysis = analyze("""
class Policy:
    def on_maintenance(self, now):
        for worker in self.ctx.workers():
            worker.poke()
""", relpath="repro/policies/custom.py")
        assert [f.rule for f in analysis.findings] == ["SHD001"]

    def test_filtered_view_keeps_pool_taint(self):
        analysis = analyze("""
class Orchestrator:
    def place(self):
        # shard: cross-worker placement filters the pool
        online = [w for w in self._workers if w.online]
        # shard: cross-worker placement picks first online
        return online[0]
""")
        assert analysis.findings == []
        assert sorted(s.kind for s in analysis.sites) == \
            ["index", "iterate"]

    def test_out_of_scope_modules_are_ignored(self):
        analysis = analyze(UNANNOTATED, relpath="repro/obs/audit.py")
        assert analysis.sites == []
        assert analysis.findings == []

    def test_stale_annotation_is_shd002(self):
        analysis = analyze("""
class Orchestrator:
    def quiet(self):
        # shard: cross-worker nothing here anymore
        return 42
""")
        assert [f.rule for f in analysis.findings] == ["SHD002"]
        assert "stale" in analysis.findings[0].message

    def test_ownership_mismatch_is_shd002(self):
        analysis = analyze("""
class Orchestrator:
    def count(self):
        # shard: cross-worker actually just a size read
        return len(self._workers)
""")
        assert [f.rule for f in analysis.findings] == ["SHD002"]
        assert "disagrees" in analysis.findings[0].message


# ======================================================================
# HEAD inventory


@pytest.fixture(scope="module")
def head_shard(head_index):
    return ShardAnalysis(head_index).run()


class TestHeadInventory:
    @pytest.fixture(autouse=True)
    def _head(self, head_shard):
        self.analysis = head_shard
        self.report = head_shard.report(root="src/repro")

    def test_head_has_no_unannotated_cross_worker_sites(self):
        assert self.report["summary"]["unannotated_cross_worker"] == 0
        assert [f for f in self.analysis.findings
                if f.rule == "SHD001"] == []

    def test_no_stale_annotations_on_head(self):
        assert [f for f in self.analysis.findings
                if f.rule == "SHD002"] == []

    def test_placement_sites_present(self):
        dispatch = [s for s in self.report["sites"]
                    if s["function"].endswith("Orchestrator._dispatch")]
        assert {s["kind"] for s in dispatch} >= {"index", "aggregate"}
        assert all(s["ownership"] != "cross-worker" or s["annotated"]
                   for s in dispatch)

    def test_cluster_memory_sites_present(self):
        channel = [s for s in self.report["sites"]
                   if s["kind"] == "channel"]
        functions = {s["function"] for s in channel}
        assert any(f.endswith("Worker._charge") for f in functions)
        assert any(f.endswith("Orchestrator._sample_memory")
                   for f in functions)

    def test_policy_maintenance_sweeps_inventoried(self):
        paths = {s["path"] for s in self.report["sites"]
                 if s["path"].startswith("repro/policies/")}
        assert {"repro/policies/ttl.py", "repro/policies/ensure.py",
                "repro/policies/flame.py"} <= paths

    def test_report_is_deterministically_ordered(self):
        keys = [(s["path"], s["line"], s["col"], s["kind"])
                for s in self.report["sites"]]
        assert keys == sorted(keys)

    def test_deep_lint_head_is_green_with_committed_baseline(
            self, head_report):
        assert head_report.clean, head_report.render()
        assert head_report.shard == self.report
