"""CLI surfaces: ``repro-lint`` / ``python -m repro.lint`` and the
``cidre-sim lint`` verb share one implementation and one exit-code
contract (0 clean, 1 findings, 2 usage error)."""

import json
import textwrap
from pathlib import Path

from repro.cli import main as cidre_main
from repro.lint.cli import main as lint_main

REPO = Path(__file__).resolve().parents[2]
SRC = str(REPO / "src" / "repro")

BAD = textwrap.dedent("""\
    import uuid

    def fresh_id():
        return uuid.uuid4()
    """)


def write_module(tmp_path, source):
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    path = pkg / "fixture.py"
    path.write_text(source)
    return path


class TestStandalone:
    def test_clean_exit_zero(self, head_cli):
        # The one repro-lint run over HEAD: clean against the committed
        # baseline.
        code, out, _ = head_cli
        assert code == 0
        assert out.startswith("OK: 0 finding(s)")

    def test_findings_exit_one(self, tmp_path, capsys):
        module = write_module(tmp_path, BAD)
        assert lint_main([str(module), "--no-baseline"]) == 1
        assert "DET003" in capsys.readouterr().out

    def test_syntax_error_exit_one(self, tmp_path, capsys):
        # The file that does not parse is reported once, as E999; the
        # other file is still linted.
        module = write_module(tmp_path, "def f(:\n")
        (module.parent / "fine.py").write_text(BAD)
        assert lint_main([str(tmp_path / "repro"), "--no-baseline",
                          "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"E999": 1, "DET003": 1}
        assert payload["files"] == 2

    def test_unknown_select_code_exit_two(self, capsys):
        assert lint_main([SRC, "--select", "DET001,DET0O1"]) == 2
        captured = capsys.readouterr()
        assert "DET0O1" in captured.err
        assert "DET001" not in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_missing_path_exit_two(self, capsys):
        assert lint_main(["/nonexistent/nowhere.py"]) == 2
        assert "repro-lint" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        module = write_module(tmp_path, BAD)
        assert lint_main([str(module), "--no-baseline",
                          "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"DET003": 1}
        assert payload["findings"][0]["path"] == "repro/sim/fixture.py"

    def test_rules_catalogue(self, capsys):
        assert lint_main(["--rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET001", "DET004", "PUR001", "PUR002", "FPX001",
                     "FPX002", "API001"):
            assert code in out
        assert "[--" not in out  # one catalogue, no per-engine tags

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        module = write_module(tmp_path, BAD)
        baseline = tmp_path / "lint-baseline.json"
        assert lint_main([str(module), "--baseline", str(baseline),
                          "--update-baseline"]) == 0
        assert lint_main([str(module), "--baseline",
                          str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_explicit_baseline_unreadable_exit_two(self, tmp_path,
                                                   capsys):
        module = write_module(tmp_path, BAD)
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert lint_main([str(module), "--baseline", str(bad)]) == 2
        assert "cannot read baseline" in capsys.readouterr().err


class TestCidreSimVerb:
    def test_lint_verb_clean(self, head_verb):
        # The one cidre-sim lint run over HEAD.
        code, out, _ = head_verb
        assert code == 0
        assert out.startswith("OK: 0 finding(s)")

    def test_lint_verb_findings(self, tmp_path, capsys):
        module = write_module(tmp_path, BAD)
        assert cidre_main(["lint", str(module), "--no-baseline",
                           "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["clean"] is False
