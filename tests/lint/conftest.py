"""Session-wide HEAD artifacts for the lint tests.

Indexing the whole ``src/repro`` tree and linting it are the expensive
steps of this suite, and HEAD does not change during a session, so
each is done once here and shared: the HEAD :class:`ProjectIndex` with
its :class:`CallGraph`, the one HEAD lint run (committed baseline
applied) with its shard report, and the one HEAD run through each CLI
surface (``repro-lint`` and the ``cidre-sim lint`` verb).
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main as cidre_main
from repro.lint import lint_paths, load_baseline
from repro.lint.cli import main as lint_main
from repro.lint.deep.callgraph import CallGraph
from repro.lint.deep.symbols import ProjectIndex
from repro.lint.engine import BASELINE_FILENAME

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"


@pytest.fixture(scope="session")
def head_index():
    return ProjectIndex.build(SRC)


@pytest.fixture(scope="session")
def head_graph(head_index):
    return CallGraph.build(head_index)


@pytest.fixture(scope="session")
def head_baseline():
    return load_baseline(REPO / BASELINE_FILENAME)


@pytest.fixture(scope="session")
def head_report(head_baseline):
    """``lint_paths([src/repro])`` with the committed baseline; its
    ``shard`` attribute is the run's ``shard-report.json`` payload."""
    return lint_paths([SRC], baseline=head_baseline)


def _run_cli(main, argv, tmp_dir):
    """Run a CLI ``main`` in process with ``--shard-report``; return its
    exit code, its stdout and the shard report it wrote."""
    report = tmp_dir / "shard-report.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*argv, "--shard-report", str(report)])
    return code, stdout.getvalue(), json.loads(report.read_text())


@pytest.fixture(scope="session")
def head_cli(tmp_path_factory):
    """``repro-lint src/repro --shard-report FILE``: (exit code, stdout,
    shard report)."""
    return _run_cli(lint_main, [str(SRC)],
                    tmp_path_factory.mktemp("head-cli"))


@pytest.fixture(scope="session")
def head_verb(tmp_path_factory):
    """``cidre-sim lint src/repro --shard-report FILE``: (exit code,
    stdout, shard report)."""
    return _run_cli(cidre_main, ["lint", str(SRC)],
                    tmp_path_factory.mktemp("head-verb"))
