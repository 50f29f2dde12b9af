"""Differential guarantees of the fault-injection layer.

Two contracts, both bit-exact:

* **faults off is inert** — a run with ``faults=None`` and a run with an
  *empty* :class:`FaultPlan` produce bit-identical summaries, request
  tuples, and event streams across the full golden trace x policy grid.
  The fault layer's hooks (exec multipliers, online filters, ledger
  tracking) must cost nothing semantically when no fault ever fires;
* **chaos is deterministic** — a fixed ``random_plan`` replays
  bit-identically run to run, under ``reference_impl=True``, and under
  the sim-sanitizer. Crashes, orphan retries, and straggler slowdowns
  are part of the simulation, not nondeterministic noise on top of it.
"""

import numpy as np
import pytest

from repro.experiments.suites import policy_factories
from repro.sim.config import SimulationConfig
from repro.sim.eventlog import EventLog
from repro.sim.faults import FaultPlan, RetryPolicy, random_plan
from repro.sim.orchestrator import Orchestrator
from repro.sim.sanitizer import SimSanitizer
from repro.traces.azure import azure_trace
from repro.traces.synth import ArrivalModel, synth_trace

POLICIES = ("TTL", "LRU", "FaasCache", "CIDRE", "CodeCrunch",
            "RainbowCake")


def _synth(seed: int, n_functions: int, total_requests: int,
           duration_ms: float, **arrivals):
    return synth_trace(f"chaos-{seed}", np.random.default_rng(seed),
                       n_functions=n_functions,
                       total_requests=total_requests,
                       duration_ms=duration_ms,
                       arrivals=ArrivalModel(**arrivals))


def _cases():
    yield "synth-bursty", _synth(101, 8, 900, 120_000.0,
                                 burst_size_p=0.4), 2.0
    yield "synth-steady", _synth(202, 12, 1_200, 180_000.0,
                                 steady_fraction=0.7), 2.0
    yield "synth-tail", _synth(303, 6, 700, 90_000.0,
                               heavy_tail_prob=0.05,
                               burst_spread_ms=300.0), 1.0
    # 4 GB across 2 workers: the largest azure spec (1536 MB) must fit
    # the per-worker share under the chaos configs below.
    yield "azure-sample", azure_trace(seed=5, total_requests=4_000), 4.0


CASES = {name: (trace, gb) for name, trace, gb in _cases()}


def _replay(trace, policy_name, capacity_gb, faults, workers=1,
            reference=False, sanitizer=None):
    config = SimulationConfig(capacity_gb=capacity_gb, workers=workers,
                              reference_impl=reference, faults=faults)
    log = EventLog()
    policy = policy_factories()[policy_name](trace)
    orchestrator = Orchestrator(trace.functions, policy, config,
                                event_log=log)
    if sanitizer is not None:
        sanitizer.install(orchestrator)
        try:
            result = orchestrator.run(trace.fresh_requests())
            sanitizer.finalize(orchestrator)
        finally:
            sanitizer.uninstall(orchestrator)
    else:
        result = orchestrator.run(trace.fresh_requests())
    return orchestrator, result, log


def _request_tuples(result):
    completed = [(r.req_id, r.start_type, r.start_ms, r.end_ms,
                  r.retries) for r in result.requests]
    failed = [(r.req_id, r.retries) for r in result.failed_requests]
    return completed, failed


def _normalized_events(log):
    """Event tuples (with detail and worker id — the fault-layer fields)
    rebased to the run's first container id."""
    base = None
    out = []
    for e in log:
        cid = None
        if e.container_id is not None:
            if base is None:
                base = e.container_id
            cid = e.container_id - base
        out.append((e.time_ms, e.kind.value, e.func, cid, e.req_id,
                    e.detail, e.worker_id))
    return out


def _assert_identical(tag, a_result, a_log, b_result, b_log):
    assert a_result.summary() == b_result.summary(), tag
    assert _request_tuples(a_result) == _request_tuples(b_result), tag
    a_events = _normalized_events(a_log)
    b_events = _normalized_events(b_log)
    for i, (ev_a, ev_b) in enumerate(zip(a_events, b_events)):
        assert ev_a == ev_b, (f"{tag}: event {i} diverged:\n"
                              f"  a: {ev_a}\n  b: {ev_b}")
    assert len(a_events) == len(b_events), tag


# ======================================================================
# Faults-off inertness


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_empty_plan_is_bit_identical_to_no_plan(case, policy_name):
    """An empty FaultPlan must be indistinguishable from faults=None:
    the fault layer's mere presence cannot perturb a run."""
    trace, capacity_gb = CASES[case]
    _, bare, bare_log = _replay(trace, policy_name, capacity_gb,
                                faults=None)
    _, armed, armed_log = _replay(trace, policy_name, capacity_gb,
                                  faults=FaultPlan())
    _assert_identical(f"{case}/{policy_name}", bare, bare_log,
                      armed, armed_log)


# ======================================================================
# Chaos determinism

CHAOS_POLICIES = ("TTL", "FaasCache", "CIDRE")


def _chaos_plan(trace, workers=2):
    return random_plan(7, workers=workers,
                       horizon_ms=max(trace.duration_ms, 60_000.0),
                       retry=RetryPolicy(max_retries=2))


@pytest.mark.parametrize("policy_name", CHAOS_POLICIES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_chaos_replay_is_deterministic(case, policy_name):
    """Same plan, same seed, same trace: two runs are bit-identical."""
    trace, capacity_gb = CASES[case]
    plan = _chaos_plan(trace)
    _, first, first_log = _replay(trace, policy_name, capacity_gb,
                                  faults=plan, workers=2)
    _, second, second_log = _replay(trace, policy_name, capacity_gb,
                                    faults=plan, workers=2)
    _assert_identical(f"{case}/{policy_name}", first, first_log,
                      second, second_log)
    assert first.worker_crashes > 0     # the plan actually fired


@pytest.mark.parametrize("policy_name", CHAOS_POLICIES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_chaos_indexed_matches_reference(case, policy_name):
    """The indexed hot path and the scan/sort reference implementation
    agree bit for bit under crash/retry churn too."""
    trace, capacity_gb = CASES[case]
    plan = _chaos_plan(trace)
    fast_orch, fast, fast_log = _replay(trace, policy_name, capacity_gb,
                                        faults=plan, workers=2)
    _, slow, slow_log = _replay(trace, policy_name, capacity_gb,
                                faults=plan, workers=2, reference=True)
    _assert_identical(f"{case}/{policy_name}", fast, fast_log,
                      slow, slow_log)
    for worker in fast_orch.workers():
        assert worker.check_integrity()
    live, real = fast_orch.sim._scan_counts()
    assert (live, real) == (fast_orch.sim._live, fast_orch.sim._real)


@pytest.mark.parametrize("case", ("synth-bursty", "azure-sample"))
def test_chaos_sanitized_is_bit_identical(case):
    """The sanitizer's write barrier and consistency sweeps hold through
    crash teardown, and never perturb a chaos run."""
    trace, capacity_gb = CASES[case]
    plan = _chaos_plan(trace)
    _, plain, plain_log = _replay(trace, "CIDRE", capacity_gb,
                                  faults=plan, workers=2)
    sanitizer = SimSanitizer(check_interval=256)
    _, guarded, guarded_log = _replay(trace, "CIDRE", capacity_gb,
                                      faults=plan, workers=2,
                                      sanitizer=sanitizer)
    _assert_identical(case, plain, plain_log, guarded, guarded_log)
    assert sanitizer.events_seen > 0
    assert sanitizer.checks_run > 1


def test_chaos_runs_exercised_faults():
    """The chaos grid is not vacuous: crashes fire and orphans happen
    somewhere in the matrix."""
    orphaned = 0
    for case in sorted(CASES):
        trace, capacity_gb = CASES[case]
        plan = _chaos_plan(trace)
        _, result, _ = _replay(trace, "CIDRE", capacity_gb,
                               faults=plan, workers=2)
        assert result.worker_crashes > 0, case
        assert len(result.requests) + len(result.failed_requests) \
            == trace.num_requests, case
        orphaned += result.orphaned_requests
    assert orphaned > 0
