"""Golden digests of the run metrics a :class:`MetricsRegistry` exports.

Each cell replays ``azure_trace(seed=5, total_requests=4000)`` under one
policy and one cluster shape with a registry attached, and pins the
sha256 of both export surfaces: the sorted JSON snapshot and the
Prometheus text exposition. Any change to a family's name, help text,
label set, bucket edges, sample values or to which children exist
changes a digest.

The grid is chosen so every orchestrator family is exercised somewhere:
CodeCrunch's compressed-restore path (starts without a scaling
decision), IceBreaker's prewarm provisions, the crash / orphan /
reassign / failed families (chaos plan with no retry budget), the
contention-slowdown histogram (contended cell only) and families that
stay empty (plain cells).
"""

import hashlib
import json
from functools import lru_cache

import pytest

from repro.experiments.suites import policy_factories
from repro.obs import MetricsRegistry
from repro.sim.config import SimulationConfig
from repro.sim.contention import ContentionModel
from repro.sim.faults import RetryPolicy, random_plan
from repro.sim.orchestrator import Orchestrator
from repro.traces.azure import azure_trace

POLICIES = ("CIDRE", "CodeCrunch", "IceBreaker")
CONFIGS = ("plain", "contended", "chaos")

#: (policy, config) -> (snapshot sha256, Prometheus sha256).
GOLDEN = {
    ("CIDRE", "plain"): (
        "e3525c63d9a1dc596d5a4c5a2522cfe476de0ca3e2a72c1a937837dea97572b9",
        "6832a703bf339ca2445bcc035178d192d5e3cb7519bf65bc639570f28defaf3a"),
    ("CIDRE", "contended"): (
        "d4b471b40345b6169baab468fb91a7d59b221a909f4a00e454dd2594f591f595",
        "ef4255d5b4e6f4260c3ff8245fcf712c40336fdf333228dd704781973a6f933a"),
    ("CIDRE", "chaos"): (
        "fb4b806d200bb235442231e97c1ff8053dbcdc0d0dc2b2b11fe4d4ac6fc98698",
        "44037c2f7ef5ddebf1fa129cce7676bfd20597de0a16eb18c3bc1783f3c82fa5"),
    ("CodeCrunch", "plain"): (
        "5344b76904a6a8a9c98f35b022849fae4513cefd53ad9911d6458f8ba6100c8f",
        "9e7ac9400bfdfae4af9525424c7a181a62ce64352ecbada8a9831b1509b6a363"),
    ("CodeCrunch", "contended"): (
        "86f0373d8bd6e523aa06a9b55de27deb337024b109c039c3ec4f0f08b5cf64af",
        "3531af2cc836deebc366dc163ab2fb311dc9756e7e9088ef966ca89bf06c961f"),
    ("CodeCrunch", "chaos"): (
        "d0b0f3cc0b483d9603f66a91e3c94bf00c8acb2b966e6b0e2e48393c759b8fc8",
        "54c00b864c5eb2931c3b71f0cf72a1b5173728fdeccbf44781692b1721453aca"),
    ("IceBreaker", "plain"): (
        "edd21137ce8233de3851b978434843eb6f0440569cdd5dcdbffc39109d752b24",
        "93a77bd0b341a59ae85b9aa1034581a3f8306d784b2ae95505ddcafad7c3b6ec"),
    ("IceBreaker", "contended"): (
        "1f6b2c9850b9a6d65a12dec2a1b7046a5d0e6d7f7865d7dfe1815f1905401e24",
        "305849d0a7a784320c072a4019c844476f7762ac6ad18b797c477b30aace1226"),
    ("IceBreaker", "chaos"): (
        "fb9db8e5cc10d2d27319483a9f2613d00626400a280612765b7fcbd20c460c28",
        "7f6c22f16cdaae3194d901ee06a229c1e23a13223ccc2b3aacded61e33c5de6a"),
}


@lru_cache(maxsize=1)
def _trace():
    return azure_trace(seed=5, total_requests=4_000)


def _config(name, trace):
    if name == "plain":
        return SimulationConfig(capacity_gb=2.0)
    if name == "contended":
        return SimulationConfig(capacity_gb=6.0, workers=3,
                                contention=ContentionModel(cores=2))
    plan = random_plan(7, workers=2,
                       horizon_ms=max(trace.duration_ms, 60_000.0),
                       crashes=6, retry=RetryPolicy(max_retries=0))
    return SimulationConfig(capacity_gb=6.0, workers=2, faults=plan)


@lru_cache(maxsize=None)
def _export(policy_name, config_name):
    trace = _trace()
    registry = MetricsRegistry()
    policy = policy_factories()[policy_name](trace)
    result = Orchestrator(trace.functions, policy,
                          _config(config_name, trace),
                          metrics=registry).run(trace.fresh_requests())
    return registry.snapshot(), registry.render_prometheus(), result


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("policy_name", POLICIES)
def test_export_matches_golden(policy_name, config_name):
    snapshot, prometheus, _ = _export(policy_name, config_name)
    got = (_sha(json.dumps(snapshot, sort_keys=True)), _sha(prometheus))
    assert got == GOLDEN[policy_name, config_name]


def _children(config_name, family):
    return {tuple(sorted(s["labels"].items()))
            for policy_name in POLICIES
            for s in _export(policy_name, config_name)[0][family]["samples"]}


def test_grid_exercises_every_family():
    """The digests are only as strong as the paths the grid reaches."""
    assert (("kind", "prewarm"),) in _children("plain",
                                              "repro_provision_starts_total")
    assert _export("CodeCrunch", "plain")[2].restores > 0
    for family in ("repro_worker_crashes_total",
                   "repro_requests_orphaned_total",
                   "repro_requests_reassigned_total",
                   "repro_requests_failed_total"):
        assert _children("chaos", family), family
        assert not _children("plain", family), family
    assert _children("contended", "repro_contention_slowdown")
    assert not _children("plain", "repro_contention_slowdown")
