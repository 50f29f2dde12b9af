"""The benchmark's workloads: inputs from a seed, and the replay each runs.

A workload is a fixed *deployment* (the function population of a trace
preset, drawn once from the preset's default seed) plus *traffic* drawn
from the run's seed: burst epochs, burst sizes, jitter, per-request
execution times and, on ``fc-cluster``, the chaos plan. One run replays
a set of such traces, one per traffic seed derived from ``--seed``.
Pooling several traffic draws per run keeps a run's figures steady from
seed to seed; a single 30-minute trace swings wall time by ~30% between
seeds (see ``README.md``).

Everything here builds inputs only. The simulator receives the generated
trace, a :class:`~repro.sim.config.SimulationConfig` and the observers,
and nothing else.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.attribution import (cause_breakdown, frontier_rows,
                                        worst_decisions)
from repro.core.cidre import CIDREPolicy
from repro.obs import CauseTracker, DecisionAudit, MetricsRegistry
from repro.obs.outcomes import resolve
from repro.sim.config import SimulationConfig
from repro.sim.contention import ContentionModel
from repro.sim.eventlog import EventLog
from repro.sim.faults import random_plan
from repro.sim.orchestrator import Orchestrator
from repro.sim.request import StartType
from repro.sim.telemetry import JsonlSink, TimeSeriesRecorder
from repro.traces.alibaba import fc_arrivals, fc_population
from repro.traces.azure import (THIRTY_MINUTES_MS, azure_arrivals,
                                azure_population)
from repro.traces.synth import synth_trace

#: Population seeds: the presets' own defaults, so ``azure`` is exactly
#: the deployment of ``azure_trace(n_functions=55)`` (the benchmarks'
#: ``azure_small``) and ``fc`` that of ``fc_trace(n_functions=25)``.
POPULATION_SEEDS = {"azure": 2025, "fc": 2026}
#: Largest FC burst. The preset's own cap (4,500 requests, Pareto tail
#: alpha 1.2) lets one burst hold a third of a 25-function trace, and one
#: replay then takes anywhere from 2 s to 54 s depending on the seed.
FC_MAX_BURST = 100


def _fc_arrivals():
    return replace(fc_arrivals(), max_burst=FC_MAX_BURST)


PRESETS = {
    "azure": (azure_population, azure_arrivals),
    "fc": (fc_population, _fc_arrivals),
}
#: Draws :func:`repro.traces.synth.synth_trace` makes before the first
#: traffic draw: memory tiers, runtimes, cold-start noise, the popularity
#: shuffle and the execution-time medians.
POPULATION_DRAWS = 5


@dataclass(frozen=True)
class Workload:
    """One workload; ``README.md`` says why each was chosen."""

    name: str
    preset: str
    n_functions: int
    total_requests: int
    capacity_gb: float
    #: Traces per run (traffic draws pooled into one run's figures).
    traces: int
    workers: int = 1
    contention_cores: Optional[int] = None
    chaos: bool = False
    observed: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="azure-paper",
        preset="azure", n_functions=55, total_requests=33_000,
        capacity_gb=50.0, traces=7),
    Workload(
        name="fc-cluster",
        preset="fc", n_functions=25, total_requests=20_000,
        capacity_gb=100.0 / 3.0, traces=14, workers=3,
        contention_cores=4, chaos=True),
    Workload(
        name="azure-observed",
        preset="azure", n_functions=55, total_requests=33_000,
        capacity_gb=50.0, traces=3, observed=True),
)}


class _DeploymentRng:
    """A generator facade for :func:`synth_trace`: its first
    :data:`POPULATION_DRAWS` draws (the function population) come from
    ``population``, every later draw (the traffic) from ``traffic``."""

    def __init__(self, population: np.random.Generator,
                 traffic: np.random.Generator) -> None:
        self._population = population
        self._traffic = traffic
        self._left = POPULATION_DRAWS

    def __getattr__(self, name: str):
        if self._left:
            self._left -= 1
            return getattr(self._population, name)
        return getattr(self._traffic, name)


def trace_seeds(seed: int, count: int) -> List[int]:
    """The traffic seeds of one run: ``count`` values derived from
    ``seed`` alone."""
    return [int(s) for s in
            np.random.SeedSequence(seed).generate_state(count)]


def duration_ms(scale: float) -> float:
    return THIRTY_MINUTES_MS * scale


def make_trace(workload: Workload, trace_seed: int, scale: float = 1.0):
    """One trace: the workload's deployment with traffic from
    ``trace_seed``. ``scale`` shortens the trace (requests and duration
    together, so the arrival rate and memory pressure stay put)."""
    population, arrivals = PRESETS[workload.preset]
    rng = _DeploymentRng(
        np.random.default_rng(POPULATION_SEEDS[workload.preset]),
        np.random.default_rng(trace_seed))
    return synth_trace(
        name=f"{workload.name}-{trace_seed}", rng=rng,
        n_functions=workload.n_functions,
        duration_ms=duration_ms(scale),
        total_requests=max(int(workload.total_requests * scale), 1),
        population=population(), arrivals=arrivals())


def make_config(workload: Workload, trace_seed: int,
                scale: float = 1.0) -> SimulationConfig:
    config = SimulationConfig(capacity_gb=workload.capacity_gb,
                              workers=workload.workers)
    if workload.contention_cores is not None:
        config = replace(config, contention=ContentionModel(
            cores=workload.contention_cores))
    if workload.chaos:
        config = replace(config, faults=random_plan(
            trace_seed, workers=workload.workers,
            horizon_ms=duration_ms(scale)))
    return config


class Replay:
    """One built replay: policy, orchestrator and (on ``observed``) the
    observability stack. :meth:`run` goes from the trace in memory to the
    summary out."""

    def __init__(self, trace, config: SimulationConfig,
                 observed: bool) -> None:
        self.packed = trace.packed()
        self.observers: list = []
        kwargs = {}
        if observed:
            self.jsonl = JsonlSink(os.devnull)
            self.log = EventLog(sinks=[self.jsonl])
            self.audit = DecisionAudit()
            self.metrics = MetricsRegistry()
            self.tracker = CauseTracker()
            self.recorder = TimeSeriesRecorder(1_000.0)
            kwargs = dict(event_log=self.log, audit=self.audit,
                          metrics=self.metrics, attribution=self.tracker,
                          recorder=self.recorder)
            self.observers = [self.log, self.jsonl, self.audit,
                              self.metrics, self.tracker, self.recorder]
        self.observed = observed
        self.orchestrator = Orchestrator(trace.functions, CIDREPolicy(),
                                         config, **kwargs)

    def run(self, tracer=None):
        """Replay; returns the result and its summary."""
        result = self.orchestrator.run(self.packed)
        if self.observed:
            self.log.close()
            with span(tracer, "obs.resolve"):
                resolver = resolve(self.audit.records, self.log.events,
                                   metrics=self.metrics)
            with span(tracer, "analysis.report"):
                cause_breakdown(self.log.events)
                worst_decisions(resolver, self.audit)
                frontier_rows(resolver)
        return result, result.summary()


def span(tracer, key: str):
    """``tracer``'s span of ``key``, or nothing on an untraced replay."""
    return nullcontext() if tracer is None else tracer.span(key)


def outcome(result, summary: dict, num_requests: int) -> dict:
    """Simulated outcomes of one replay, plus its correctness checks."""
    rows = [(r.req_id, r.func, r.start_type.value, r.start_ms, r.end_ms)
            for r in result.requests]
    rows += [(r.req_id, r.func, "failed", None, None)
             for r in result.failed_requests]
    rows.sort()
    ids = [row[0] for row in rows]
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode())
    return {
        "summary": summary,
        "digest": digest.hexdigest(),
        "conserved": ids == list(range(num_requests)),
        "requests": num_requests,
        "completed": result.total,
        "failed": len(result.failed_requests),
        "cold": result.count(StartType.COLD),
    }
