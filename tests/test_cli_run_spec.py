"""The CLI's shared run spec: every replaying verb takes the same run
flags, replays the same run for them, and turns bad input into a
one-line usage error."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser
from repro.sim.eventlog import LIFECYCLE_RANK
from repro.sim.telemetry import read_events_jsonl

RUN_SPEC = {"--preset", "--requests", "--seed", "--load", "--trace-name",
            "--capacity-gb", "--workers", "--threads", "--faults",
            "--chaos-seed", "--contention", "--contention-cores",
            "--contention-alpha", "--fast-forward", "--reference"}
SINGLE_RUN_VERBS = ("run", "trace", "explain", "audit", "blame", "compare")
GRID_VERBS = ("sweep", "report")


def _cli(*argv, cwd=None):
    """Run ``cidre-sim`` in a fresh interpreter (container ids restart
    at 0, and an uncaught exception would show as a traceback)."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True)


def _run_spec_actions(verb):
    """``{option: (dest, type, default, const)}`` of a verb's run-spec
    flags."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {option: (action.dest, action.type, action.default, action.const)
            for action in subparsers.choices[verb]._actions
            for option in action.option_strings if option in RUN_SPEC}


class TestFlagParity:
    def test_replaying_verbs_share_one_run_spec(self):
        expected = _run_spec_actions("trace")
        assert set(expected) == RUN_SPEC
        for verb in SINGLE_RUN_VERBS:
            assert _run_spec_actions(verb) == expected, verb
        grid = {k: v for k, v in expected.items() if k != "--capacity-gb"}
        for verb in GRID_VERBS:
            assert _run_spec_actions(verb) == grid, verb


def test_explain_replays_the_traced_run(tmp_path):
    """``explain`` with ``trace``'s flags tells the story ``trace``
    recorded, faults, contention and fast-forward included."""
    spec = ["--preset", "azure", "--requests", "1500", "--seed", "3",
            "--chaos-seed", "3", "--contention-cores", "2",
            "--fast-forward"]
    traced = _cli("trace", *spec, "--events-out", "ev.jsonl", cwd=tmp_path)
    assert traced.returncode == 0, traced.stderr
    events = read_events_jsonl(tmp_path / "ev.jsonl")
    # A request the contention model slowed, so its story depends on
    # the run flags.
    req_id = next(e.req_id for e in events
                  if "slowdown=" in e.detail and e.req_id is not None)
    mine = sorted((e for e in events if e.req_id == req_id),
                  key=lambda e: (e.time_ms, LIFECYCLE_RANK[e.kind]))

    explained = _cli("explain", str(req_id), *spec, cwd=tmp_path)
    assert explained.returncode == 0, explained.stderr
    printed = [line for line in explained.stdout.splitlines()
               if f"r{req_id}" in line.split("  ")]
    assert printed == [str(e) for e in mine]


@pytest.mark.parametrize("argv", [
    ["compare", "--policies", "CIDRE,Nope"],
    ["run", "--capacity-gb", "0"],
    ["run", "--workers", "0"],
    ["run", "--faults", "/nonexistent.json"],
    ["run", "--requests", "2000", "--capacity-gb", "0.5"],
], ids=["unknown-policy", "zero-capacity", "zero-workers",
        "missing-fault-plan", "function-larger-than-worker"])
def test_bad_input_is_a_usage_error(argv):
    proc = _cli(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("cidre-sim: error: ")
