"""Engine behaviour: suppressions, baseline round-trip, reports."""

import json
import textwrap

import pytest

from repro.lint import lint_source, load_baseline, update_baseline_file
from repro.lint.engine import (lint_paths, relpath_of, LintReport)

BAD_SIM = textwrap.dedent("""\
    import uuid

    def fresh_id():
        return uuid.uuid4()
    """)


def write_module(tmp_path, source, name="fixture.py"):
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True, exist_ok=True)
    path = pkg / name
    path.write_text(source)
    return path


# ======================================================================
# Inline suppressions


class TestSuppressions:
    def test_same_line(self):
        found, suppressed = lint_source(
            "import uuid\n"
            "rid = uuid.uuid4()  # repro-lint: disable=DET003\n",
            "repro/sim/x.py")
        assert found == []
        assert suppressed == 1

    def test_standalone_comment_above(self):
        found, suppressed = lint_source(
            "import uuid\n"
            "# repro-lint: disable=DET003\n"
            "rid = uuid.uuid4()\n",
            "repro/sim/x.py")
        assert found == []
        assert suppressed == 1

    def test_disable_all(self):
        found, suppressed = lint_source(
            "import uuid, time\n"
            "# repro-lint: disable=all\n"
            "pair = (uuid.uuid4(), time.time())\n",
            "repro/sim/x.py")
        assert found == []
        assert suppressed == 2

    def test_wrong_code_does_not_suppress(self):
        found, suppressed = lint_source(
            "import uuid\n"
            "rid = uuid.uuid4()  # repro-lint: disable=DET001\n",
            "repro/sim/x.py")
        assert [f.rule for f in found] == ["DET003"]
        assert suppressed == 0

    def test_comment_skips_blank_and_comment_lines(self):
        found, suppressed = lint_source(
            "import uuid\n"
            "# repro-lint: disable=DET003\n"
            "# (documented exemption)\n"
            "\n"
            "rid = uuid.uuid4()\n",
            "repro/sim/x.py")
        assert found == []
        assert suppressed == 1


# ======================================================================
# Baseline


class TestBaseline:
    def test_round_trip(self, tmp_path):
        module = write_module(tmp_path, BAD_SIM)
        dirty = lint_paths([module])
        assert [f.rule for f in dirty.findings] == ["DET003"]

        baseline_file = tmp_path / "lint-baseline.json"
        update_baseline_file(baseline_file, dirty.findings, [module])
        clean = lint_paths([module],
                           baseline=load_baseline(baseline_file))
        assert clean.clean
        assert clean.baselined == 1
        assert clean.stale_baseline == []

    def test_survives_line_drift(self, tmp_path):
        module = write_module(tmp_path, BAD_SIM)
        baseline_file = tmp_path / "lint-baseline.json"
        update_baseline_file(baseline_file, lint_paths([module]).findings,
                             [module])

        # Prepend code: the finding moves lines but keeps its text.
        module.write_text("import os\n\nHERE = os.curdir\n" + BAD_SIM)
        report = lint_paths([module],
                            baseline=load_baseline(baseline_file))
        assert report.clean
        assert report.baselined == 1

    def test_stale_entries_reported(self, tmp_path):
        module = write_module(tmp_path, BAD_SIM)
        baseline_file = tmp_path / "lint-baseline.json"
        update_baseline_file(baseline_file, lint_paths([module]).findings,
                             [module])

        module.write_text("FIXED = True\n")
        report = lint_paths([module],
                            baseline=load_baseline(baseline_file))
        assert report.clean
        assert len(report.stale_baseline) == 1
        assert report.stale_baseline[0]["rule"] == "DET003"
        assert "stale baseline" in report.render()

    def test_stale_only_where_path_linted_and_rule_ran(self, tmp_path):
        # A subdirectory or --select run must not call an entry stale
        # ("remove it") that it could not have matched.
        module = write_module(tmp_path, BAD_SIM)
        core = tmp_path / "repro" / "core"
        core.mkdir()
        (core / "ok.py").write_text("OK = 1\n")
        baseline_file = tmp_path / "lint-baseline.json"
        update_baseline_file(baseline_file, lint_paths([module]).findings,
                             [module])
        baseline = load_baseline(baseline_file)

        subdir = lint_paths([core], baseline=baseline)
        assert subdir.clean and subdir.stale_baseline == []
        selected = lint_paths([tmp_path / "repro"], baseline=baseline,
                              select=("DET001",))
        assert selected.clean and selected.stale_baseline == []

        # A truly stale entry is still reported by the full run, and so
        # is an entry whose file was deleted (never linted again).
        truly_stale = dict(baseline[0], line_text="rid = uuid.uuid1()")
        gone = dict(baseline[0], path="repro/sim/deleted.py")
        full = lint_paths([tmp_path / "repro"],
                          baseline=baseline + [truly_stale, gone])
        assert full.clean and full.baselined == 1
        assert full.stale_baseline == [truly_stale, gone]
        # The deleted file's entry can never match again, whatever the
        # run lints: the subdirectory run reports it too.
        subdir = lint_paths([core], baseline=baseline + [gone])
        assert subdir.clean and subdir.stale_baseline == [gone]

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "b.json"
        bad.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError):
            load_baseline(bad)
        bad.write_text(json.dumps(
            {"version": 1, "entries": [{"rule": "DET003"}]}))
        with pytest.raises(ValueError):
            load_baseline(bad)

    def test_entries_carry_reasons(self, tmp_path):
        module = write_module(tmp_path, BAD_SIM)
        baseline_file = tmp_path / "b.json"
        update_baseline_file(baseline_file, lint_paths([module]).findings,
                             [module])
        for entry in load_baseline(baseline_file):
            assert entry["reason"]


# ======================================================================
# Reports and discovery


class TestReports:
    def test_json_schema(self, tmp_path):
        module = write_module(tmp_path, BAD_SIM)
        payload = lint_paths([module]).to_dict()
        assert payload["version"] == 1
        assert payload["clean"] is False
        assert payload["files"] == 1
        assert payload["counts"] == {"DET003": 1}
        finding = payload["findings"][0]
        assert finding["rule"] == "DET003"
        assert finding["path"] == "repro/sim/fixture.py"
        assert finding["severity"] == "error"
        assert finding["line"] == 4
        assert finding["line_text"] == "return uuid.uuid4()"

    def test_human_render(self, tmp_path):
        module = write_module(tmp_path, BAD_SIM)
        text = lint_paths([module]).render()
        assert "repro/sim/fixture.py:4" in text
        assert "DET003" in text
        assert text.strip().endswith("(0 suppressed inline, 0 baselined)")
        assert "FAIL: 1 finding(s)" in text

    def test_clean_render(self, tmp_path):
        module = write_module(tmp_path, "OK = 1\n")
        report = lint_paths([module])
        assert report.clean
        assert report.render().startswith("OK: 0 finding(s)")

    def test_relpath_resolution(self, tmp_path):
        module = write_module(tmp_path, "OK = 1\n")
        assert relpath_of(module) == "repro/sim/fixture.py"
        loose = tmp_path / "loose.py"
        loose.write_text("OK = 1\n")
        assert relpath_of(loose) == "loose.py"

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["/nonexistent/nowhere.py"])

    def test_select_filters_rules(self, tmp_path):
        module = write_module(
            tmp_path, "import uuid, time\n"
                      "pair = (uuid.uuid4(), time.time())\n")
        only_uuid = lint_paths([module], select=("DET003",))
        assert [f.rule for f in only_uuid.findings] == ["DET003"]

    def test_empty_report_is_dataclass_default(self):
        assert LintReport().clean
