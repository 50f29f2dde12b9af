"""Golden event-log digests of execution completions without contention.

Every execution is timed by one progress ledger per request. These
cells pin the completion times (and everything that follows from them)
where no rate can change with concurrency: contention off, under no
faults, a crash-only :class:`FaultPlan` (orphaned executions, no
straggler windows) and a ``random_plan`` chaos schedule (crashes plus
straggler windows that scale execution time), for the policies with distinct
completion-side behaviour (CIDRE's CSS queueing, CodeCrunch's restores,
RainbowCake's layer decay) on one and on three workers.

Each digest is the sha256 of the full event log, one line per event
with the time's ``repr``. Container ids come from a process-global
counter, so they are rebased to each run's first id before hashing.
"""

import hashlib
from functools import lru_cache

import pytest

from repro.experiments.suites import policy_factories
from repro.sim.config import SimulationConfig
from repro.sim.eventlog import EventLog
from repro.sim.faults import CrashSpec, FaultPlan, random_plan
from repro.sim.orchestrator import Orchestrator
from repro.traces.azure import azure_trace

POLICIES = ("CIDRE", "CodeCrunch", "RainbowCake")
FAULTS = ("none", "crash-only", "chaos")
WORKERS = (1, 3)

#: (policy, faults, workers) -> sha256 of the normalised event log.
GOLDEN = {
    ('CIDRE', 'none', 1):
        "f707a15ff47159233498b47e4e2e2e47b785163b34ca370d6e0226b69e394503",
    ('CIDRE', 'none', 3):
        "6d46c3089804723e15fb95bb803d711d7a00edaec49337d08168e6a59453c6db",
    ('CIDRE', 'crash-only', 1):
        "79cb81adccd30defc50b6620b8b6be28730bcdd58f6c8c5c66d24e867ac63395",
    ('CIDRE', 'crash-only', 3):
        "2ddf5a6049d3f8fd3adaa01dc238fb36fa77e861b69272d50b6a316eec132f95",
    ('CIDRE', 'chaos', 1):
        "445f68b42d6c18afc36431f57a8c4035f8aaf59eef1c3f53d30a0fa057c698df",
    ('CIDRE', 'chaos', 3):
        "2fcdc187ce31f909adb3daf9873db01a264cb666ae131b3f818f6f5d90d60e58",
    ('CodeCrunch', 'none', 1):
        "ea307537abb3d436ed9758bd5793da6394218062209a25ad7010c752d4481e0f",
    ('CodeCrunch', 'none', 3):
        "583186791f112a2621dc9251eb49ccaf3e2a6b6300afa463b5ed7d38cfde21c4",
    ('CodeCrunch', 'crash-only', 1):
        "c39445968127b5f3c15ab72babb34d2242d3b7bbcd7258674f1bf57a1f55fe3b",
    ('CodeCrunch', 'crash-only', 3):
        "c52a00e7c502b458ae715a7414d4b214852d0e1f44c91e59e0cce64cd67fb8a8",
    ('CodeCrunch', 'chaos', 1):
        "92be39631b707736e1d1631704236dc1414bd3a021cdf2c4f870fdfdc0ca0cc9",
    ('CodeCrunch', 'chaos', 3):
        "30ab30e0591993ce4bea7b2a7e613111ac1644a98dce5f4a22e099dead36e97a",
    ('RainbowCake', 'none', 1):
        "82dd4245e87db93e4d966ed0d597a84d5b7432782a9d61c2caddc782f9f96a74",
    ('RainbowCake', 'none', 3):
        "f354e688b8a9218cafa70633b9542d9d9dc69f26f92a8ffce1fa2b8d81870618",
    ('RainbowCake', 'crash-only', 1):
        "333130a226f8e413093d2e04d62bac317b0a6253358bf635606b617a7bd25c1c",
    ('RainbowCake', 'crash-only', 3):
        "41c39ed20e2017c35a5284cc664fa45ac2209ef391b76dff22c01aa83f6a4ecc",
    ('RainbowCake', 'chaos', 1):
        "e39fccccfa023cfc01c241d7e51a9c53ba0905eea57943cb4082408bfd5060d5",
    ('RainbowCake', 'chaos', 3):
        "ca554986eaaea1dcd4d5f6a1f1fb77c3ada99c3249f019b34ba7fa8470bad8c2",
}


@lru_cache(maxsize=1)
def _trace():
    return azure_trace(seed=5, n_functions=40, duration_ms=300_000.0,
                       total_requests=3_000)


def _faults(name, workers, horizon_ms):
    if name == "none":
        return None
    if name == "crash-only":
        crashes = [CrashSpec(worker_id=0, at_ms=at * horizon_ms,
                             restart_delay_ms=0.05 * horizon_ms)
                   for at in (0.3, 0.6)]
        if workers > 1:
            crashes.append(CrashSpec(worker_id=workers - 1,
                                     at_ms=0.45 * horizon_ms,
                                     restart_delay_ms=0.1 * horizon_ms))
        return FaultPlan(crashes=tuple(crashes))
    return random_plan(11, workers=workers, horizon_ms=horizon_ms)


@lru_cache(maxsize=None)
def _replay(policy_name, faults_name, workers):
    """(event-log sha256, result) of one cell."""
    trace = _trace()
    horizon_ms = max(trace.duration_ms, 60_000.0)
    config = SimulationConfig(
        capacity_gb=2.0 * workers, workers=workers,
        faults=_faults(faults_name, workers, horizon_ms))
    log = EventLog()
    policy = policy_factories()[policy_name](trace)
    result = Orchestrator(trace.functions, policy, config,
                          event_log=log).run(trace.fresh_requests())
    base = next(e.container_id for e in log if e.container_id is not None)
    digest = hashlib.sha256()
    for e in log:
        cid = None if e.container_id is None else e.container_id - base
        digest.update(f"{float(e.time_ms)!r} {e.kind.value} {e.func} {cid} "
                      f"{e.req_id} {e.worker_id} {e.detail}\n".encode())
    return digest.hexdigest(), result


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("faults_name", FAULTS)
@pytest.mark.parametrize("policy_name", POLICIES)
def test_event_log_matches_golden(policy_name, faults_name, workers):
    got, _ = _replay(policy_name, faults_name, workers)
    assert got == GOLDEN[policy_name, faults_name, workers]


@pytest.mark.parametrize("workers", WORKERS)
def test_fault_cells_reach_the_paths_they_pin(workers):
    """The crash-only plan orphans executions without any straggler
    window; the chaos plan has windows that scale execution time."""
    horizon_ms = max(_trace().duration_ms, 60_000.0)
    crash_only = _faults("crash-only", workers, horizon_ms)
    assert not crash_only.stragglers
    chaos = _faults("chaos", workers, horizon_ms)
    assert any(s.exec_multiplier != 1.0 for s in chaos.stragglers)
    for policy_name in POLICIES:
        _, result = _replay(policy_name, "crash-only", workers)
        assert result.orphaned_requests > 0, policy_name
