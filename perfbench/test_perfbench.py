"""Tests of the replay benchmark, at tiny scale and through the code paths
the benchmark runs.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.core.window import SlidingWindow  # noqa: E402
from repro.traces.alibaba import fc_trace  # noqa: E402
from repro.traces.azure import azure_trace  # noqa: E402

#: 90 s of traffic per trace instead of 30 minutes.
SCALE = 0.05


def quiet(_line: str) -> None:
    pass


def one(name: str, trace_seed: int = 3, **spec) -> dict:
    return replay.replay_one(dict(workload=name, trace_seed=trace_seed,
                                  scale=SCALE, **spec))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_passes_checks_and_guards(name):
    result = run.measure(name, seed=5, seconds=0.0, traced=False,
                         scale=SCALE, out=quiet)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] == workloads.WORKLOADS[name].traces
    assert set(result["metrics"]) == {key for key, _ in run.END_TO_END}


def test_traced_run_reports_every_layer_metric():
    result = run.measure("fc-cluster", seed=5, seconds=0.0, traced=True,
                         scale=SCALE, out=quiet)
    assert result["correct"], result
    assert result["attempted"] == run.TRACED_TRACES
    assert list(result["metrics"]) == [key for key, _ in
                                       layers.LAYER_METRICS]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_request_completes_or_fails_exactly_once(name):
    outcome = one(name)["outcome"]
    assert outcome["conserved"]
    assert outcome["completed"] + outcome["failed"] == outcome["requests"]


def test_observers_leave_the_simulated_outcome_alone():
    observed = one("azure-observed", compare_bare=True)
    assert observed["same_as_bare"]
    paper = one("azure-paper")
    assert observed["outcome"]["digest"] == paper["outcome"]["digest"]
    assert observed["outcome"]["summary"] == paper["outcome"]["summary"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_spans_leave_the_simulated_outcome_alone(name):
    traced = one(name, traced=True)
    assert traced["same_as_untraced"]
    assert traced["outcome"]["digest"] == one(name)["outcome"]["digest"]


def test_self_times_partition_the_root_span():
    workload = workloads.WORKLOADS["azure-observed"]
    trace = workloads.make_trace(workload, 3, SCALE)
    config = workloads.make_config(workload, 3, SCALE)
    built = workloads.Replay(trace, config, observed=True)
    tracer = layers.LayerTracer()
    layers.instrument(tracer, built.orchestrator, built.observers)
    start = time.perf_counter()
    try:
        with tracer.span(layers.ROOT):
            built.run(tracer)
    finally:
        tracer.restore()
    outer = time.perf_counter() - start
    inner = sum(tracer.self_s.values())
    assert 0.0 < inner <= outer
    assert outer - inner < 1e-3
    assert min(tracer.self_s.values()) > -1e-6
    assert "add" in SlidingWindow.__dict__
    assert not hasattr(SlidingWindow.__dict__["add"], "__wrapped__")


def test_reentry_into_the_enclosing_layer_opens_no_span():
    tracer = layers.LayerTracer()

    def inner():
        return 1

    traced_inner = tracer.wrap(inner, "a")
    outer = tracer.wrap(lambda: traced_inner() + traced_inner(), "a")
    other = tracer.wrap(lambda: traced_inner(), "b")
    assert outer() == 2 and other() == 1
    assert tracer.calls == {"a": 2, "b": 1}


def test_layer_counts_repeat_exactly():
    first = one("fc-cluster", traced=True)["layers"]
    second = one("fc-cluster", traced=True)["layers"]
    assert first["calls"] == second["calls"]
    assert first["counts"] == second["counts"]


def test_traced_runs_show_the_intended_contrasts():
    def metrics(name):
        record = one(name, traced=True)
        return layers.layer_metrics(
            record["layers"]["self_s"], record["layers"]["calls"],
            record["layers"]["counts"], record["root_s"], record["wall_s"])

    paper, cluster, observed = (metrics(name) for name in
                                ("azure-paper", "fc-cluster",
                                 "azure-observed"))
    assert paper["engine.reschedules"] == 0
    assert cluster["engine.reschedules"] > 0
    assert (paper["policy.rank.candidates"] / paper["policy.rank.calls"]
            > cluster["policy.rank.candidates"]
            / cluster["policy.rank.calls"])
    obs = [key for key in paper if key.startswith("obs.")]
    assert all(paper[key] == 0 and cluster[key] == 0 for key in obs)
    assert all(observed[key] > 0 for key in obs)


def test_guards_catch_a_hollowed_workload():
    hollow = {"evictions": 0, "worker_crashes": 0, "reschedules": 0,
              "retry_passes": 0, "eventlog_records": 0, "audit_records": 0}
    for workload in workloads.WORKLOADS.values():
        assert run.guard_failures(workload, hollow)
    busy = dict(hollow, evictions=1, reschedules=1)
    assert run.guard_failures(workloads.WORKLOADS["azure-paper"], busy) \
        == ["engine.reschedules == 0"]


@pytest.mark.parametrize("name,preset", [
    ("azure-paper", lambda: azure_trace(n_functions=55)),
    ("fc-cluster", lambda: fc_trace(n_functions=25)),
])
def test_the_seed_draws_traffic_for_a_fixed_deployment(name, preset):
    workload = workloads.WORKLOADS[name]
    one_trace = workloads.make_trace(workload, 1, SCALE)
    other = workloads.make_trace(workload, 2, SCALE)
    assert one_trace.functions == other.functions == preset().functions
    assert one_trace.packed().digest() != other.packed().digest()
    again = workloads.make_trace(workload, 1, SCALE)
    assert again.packed().digest() == one_trace.packed().digest()


def test_traced_runs_replay_the_first_traces_of_the_untraced_set():
    assert workloads.trace_seeds(9, run.TRACED_TRACES) \
        == workloads.trace_seeds(9, 12)[:run.TRACED_TRACES]
    assert workloads.trace_seeds(9, 4) != workloads.trace_seeds(10, 4)


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "azure-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_host_times_are_reported_at_the_reference_machine_speed():
    def record(wall_s, calibration_s):
        return {"wall_s": wall_s, "setup_s": wall_s / 10,
                "calibration_s": calibration_s, "peak_mem_mb": 1.0,
                "outcome": {"completed": 10, "requests": 10, "cold": 1,
                            "summary": {"avg_overhead_ratio": 0.5}}}

    ref = run.REFERENCE_CALIBRATION_S
    slow = run.end_to_end([[record(4.0, 2 * ref), record(2.0, 2 * ref)]])
    fast = run.end_to_end([[record(2.0, ref), record(1.0, ref)]])
    for times in (slow, fast):
        assert times["wall_s"] == pytest.approx(1.5)
        assert times["setup_s"] == pytest.approx(0.15)
    assert 0.0 < replay.calibrate() < 10.0
