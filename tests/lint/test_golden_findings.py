"""Golden findings: one seeded violation of every rule, plus one file
that does not parse, through the one lint run.

The expected set was generated as the union of the file-local rules and
the whole-program analyses when they still ran as two passes; the single
run must return exactly that set, with ``E999`` reported once.
"""

import textwrap

from repro.lint import all_rules, lint_paths

GOLDEN_TREE = {
    "repro/sim/clock.py": """\
        import time

        def stamp():
            return time.time()
        """,
    "repro/sim/dice.py": """\
        import random

        def roll():
            return random.random()
        """,
    "repro/sim/ids.py": """\
        import uuid

        def fresh():
            return uuid.uuid4()
        """,
    "repro/sim/order.py": """\
        def walk(names, out):
            for name in set(names):
                out.append(name)
        """,
    "repro/core/totals.py": """\
        def pool_total(values):
            pool = set(values)
            return pool_sum(pool)

        def pool_sum(pool):
            return sum(pool)

        def table_total(table):
            return sum(table.values())
        """,
    "repro/obs/writer.py": """\
        def emit(self, event, queue):
            event.func = "renamed"
            queue.append(event)
        """,
    "repro/analysis/helpers.py": """\
        def drain(orch):
            orch.sim.processed = 0
        """,
    "repro/obs/recorder.py": """\
        from repro.analysis.helpers import drain

        class Recorder:
            def sample(self, orch):
                drain(orch)
        """,
    "repro/sim/deadline.py": """\
        def deadline(start_ms, timeout_s):
            return start_ms + timeout_s

        def horizon_ms():
            return 5000.0

        def late(keepalive_s):
            budget = horizon_ms()
            return budget > keepalive_s
        """,
    "repro/sim/orchestrator.py": """\
        class Orchestrator:
            def sweep(self):
                for worker in self._workers:
                    worker.poke()

            def quiet(self):
                # shard: cross-worker nothing here anymore
                return 42
        """,
    "repro/sim/broken.py": """\
        def f(:
        """,
}


def write_tree(root):
    for relpath, source in GOLDEN_TREE.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root / "repro"


GOLDEN = {
    ("API001", "repro/sim/deadline.py", 2, 11),
    ("API002", "repro/sim/deadline.py", 9, 11),
    ("DET001", "repro/sim/clock.py", 4, 11),
    ("DET002", "repro/sim/dice.py", 4, 11),
    ("DET003", "repro/sim/ids.py", 4, 11),
    ("DET004", "repro/sim/order.py", 2, 16),
    ("E999", "repro/sim/broken.py", 1, 6),
    ("FPX001", "repro/core/totals.py", 6, 11),
    ("FPX002", "repro/core/totals.py", 9, 11),
    ("PUR001", "repro/obs/writer.py", 2, 4),
    ("PUR002", "repro/obs/writer.py", 3, 4),
    ("PUR003", "repro/obs/recorder.py", 5, 8),
    ("SHD001", "repro/sim/orchestrator.py", 3, 22),
    ("SHD002", "repro/sim/orchestrator.py", 7, 0),
}


def test_one_run_returns_the_golden_set(tmp_path):
    report = lint_paths([write_tree(tmp_path)])
    found = [(f.rule, f.path, f.line, f.col) for f in report.findings]
    assert len(found) == len(set(found))  # nothing reported twice
    assert set(found) == GOLDEN
    assert report.files == len(GOLDEN_TREE)


def test_every_catalogued_rule_is_seeded():
    assert {rule.code for rule in all_rules()} | {"E999"} == \
        {rule for rule, *_ in GOLDEN}

