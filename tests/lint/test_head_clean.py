"""The codebase itself must lint clean at HEAD.

This is the acceptance gate the CI script enforces: every true positive
has been fixed, every deliberate exemption is either suppressed inline
with a comment or carried (with a reason) in the committed
``lint-baseline.json`` — and no baseline entry is stale.
"""

from pathlib import Path

from repro.lint.engine import BASELINE_FILENAME, find_default_baseline

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"


def test_src_repro_lints_clean(head_report):
    assert head_report.findings == [], "\n" + head_report.render()
    assert head_report.files > 50  # the whole package was actually walked


def test_baseline_has_no_stale_entries(head_report, head_baseline):
    assert head_report.stale_baseline == []
    # Every grandfathered finding still matches something real.
    assert head_report.baselined == len(head_baseline)


def test_default_baseline_discovered_from_src():
    assert find_default_baseline([SRC]) == REPO / BASELINE_FILENAME
