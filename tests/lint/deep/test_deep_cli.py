"""CLI surface of the whole-program rules in the one lint run: exit
codes, inline suppressions and the committed baseline apply to them as
to the per-file rules, and ``--shard-report`` writes the inventory.
"""

import json
import textwrap

from repro.lint.cli import main as lint_main

UNANNOTATED = textwrap.dedent("""\
    class Orchestrator:
        def sweep(self):
            for worker in self._workers:
                worker.poke()
    """)


def write_fixture(tmp_path, source, name="orchestrator.py"):
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    path = pkg / name
    path.write_text(source)
    return path


class TestDeepRuns:
    def test_head_deep_clean_exit_zero(self, head_cli):
        # The whole-program rules are clean at HEAD in the one CLI run:
        # no finding and no unannotated cross-worker site.
        code, out, report = head_cli
        assert code == 0
        assert out.startswith("OK: 0 finding(s)")
        assert report["summary"]["unannotated_cross_worker"] == 0

    def test_unannotated_fixture_exit_one(self, tmp_path, capsys):
        write_fixture(tmp_path, UNANNOTATED)
        assert lint_main([str(tmp_path / "repro"),
                          "--no-baseline"]) == 1
        assert "SHD001" in capsys.readouterr().out

    def test_inline_suppression_applies_to_deep_rules(
            self, tmp_path, capsys):
        write_fixture(tmp_path, textwrap.dedent("""\
            class Orchestrator:
                def sweep(self):
                    # repro-lint: disable=SHD001
                    for worker in self._workers:
                        worker.poke()
            """))
        assert lint_main([str(tmp_path / "repro"),
                          "--no-baseline"]) == 0
        assert "1 suppressed inline" in capsys.readouterr().out

    def test_deep_baseline_grandfathers_and_reports_stale(
            self, tmp_path, capsys):
        write_fixture(tmp_path, UNANNOTATED)
        baseline = tmp_path / "lint-baseline.json"
        # Build the baseline with --update-baseline, then lint again.
        assert lint_main([str(tmp_path / "repro"),
                          "--update-baseline",
                          "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert lint_main([str(tmp_path / "repro"),
                          "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

        # Fixing the site turns the entry stale (still exit 0).
        (tmp_path / "repro" / "sim" / "orchestrator.py").write_text(
            textwrap.dedent("""\
                class Orchestrator:
                    def sweep(self):
                        # shard: cross-worker sweep
                        for worker in self._workers:
                            worker.poke()
                """))
        assert lint_main([str(tmp_path / "repro"),
                          "--baseline", str(baseline)]) == 0
        assert "stale baseline entry" in capsys.readouterr().out

    def test_json_format_includes_shard_summary(self, tmp_path, capsys):
        write_fixture(tmp_path, UNANNOTATED)
        assert lint_main([str(tmp_path / "repro"), "--no-baseline",
                          "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"SHD001": 1}
        assert payload["shard"]["unannotated_cross_worker"] == 1

    def test_select_restricts_deep_rules(self, tmp_path, capsys):
        write_fixture(tmp_path, UNANNOTATED)
        assert lint_main([str(tmp_path / "repro"), "--no-baseline",
                          "--select", "API002"]) == 0


class TestShardReportFlag:
    def test_writes_inventory(self, tmp_path, capsys):
        write_fixture(tmp_path, UNANNOTATED)
        out = tmp_path / "shard-report.json"
        lint_main([str(tmp_path / "repro"), "--no-baseline",
                   "--shard-report", str(out)])
        report = json.loads(out.read_text())
        assert report["version"] == 1
        assert report["summary"]["sites"] == 1
        (site,) = report["sites"]
        assert site["ownership"] == "cross-worker"
        assert site["kind"] == "iterate"

    def test_head_report_lists_known_sites(self, head_cli):
        _, _, report = head_cli
        functions = {s["function"] for s in report["sites"]}
        assert any(f.endswith("Orchestrator._dispatch")
                   for f in functions)
        assert any(f.endswith("Worker._charge") for f in functions)


class TestEmbeddedVerb:
    def test_cidre_sim_lint_deep(self, head_verb, head_cli):
        # The embedded verb is the same run as repro-lint: the same
        # output and the same shard inventory.
        assert head_verb == head_cli

    def test_rules_catalogue_includes_deep_rules(self, capsys):
        assert lint_main(["--rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SHD001", "SHD002", "PUR003", "API002"):
            assert code in out
