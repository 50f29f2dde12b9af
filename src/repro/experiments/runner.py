"""Experiment harness: run (policy, trace, config) grids.

This is the layer the benchmarks and examples drive. It owns the two
mechanical details every experiment needs:

* each run replays *fresh copies* of the trace's requests (simulations
  mutate outcome fields);
* the Offline oracle needs the request list at construction time, so
  policies are supplied as zero-argument *factories* receiving the trace
  via closure when needed — :func:`policy_factories` in
  :mod:`repro.experiments.suites` builds the standard roster.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.policies.base import OrchestrationPolicy
from repro.sim.config import SimulationConfig
from repro.sim.metrics import SimulationResult
from repro.sim.orchestrator import Orchestrator
from repro.traces.schema import Trace

PolicyFactory = Callable[[Trace], OrchestrationPolicy]


@dataclass
class ExperimentResult:
    """One (policy, trace, config) outcome."""

    policy_name: str
    trace_name: str
    config: SimulationConfig
    result: SimulationResult

    def summary(self) -> Dict[str, float]:
        return self.result.summary()


def run_one(trace: Trace, factory: PolicyFactory,
            config: Optional[SimulationConfig] = None,
            event_log=None, recorder=None, audit=None,
            metrics=None, sanitizer=None,
            attribution=None) -> ExperimentResult:
    """Run one policy over one trace.

    ``event_log`` / ``recorder`` / ``audit`` / ``metrics`` /
    ``attribution`` are optional observability attachments
    (:class:`repro.sim.EventLog`,
    :class:`repro.sim.telemetry.TimeSeriesRecorder`,
    :class:`repro.obs.DecisionAudit`, :class:`repro.obs.MetricsRegistry`,
    :class:`repro.obs.CauseTracker`)
    passed through to the orchestrator; they observe the run without
    changing its outcome. ``sanitizer`` is an optional
    :class:`repro.sim.sanitizer.SimSanitizer` installed for the duration
    of the run (write barrier around probe callbacks plus periodic
    consistency sweeps); a sanitized run produces bit-identical results.
    """
    config = config or SimulationConfig()
    policy = factory(trace)
    orchestrator = Orchestrator(trace.functions, policy, config,
                                event_log=event_log, recorder=recorder,
                                audit=audit, metrics=metrics,
                                attribution=attribution)
    # Replay from the compiled (packed) form: the orchestrator streams
    # arrivals off the flat columns and materializes fresh request
    # records lazily — one compile per trace, shared across runs, with
    # outcomes bit-identical to replaying ``trace.fresh_requests()``.
    if sanitizer is not None:
        sanitizer.install(orchestrator)
        try:
            result = orchestrator.run(trace.packed())
            sanitizer.finalize(orchestrator)
        finally:
            sanitizer.uninstall(orchestrator)
    else:
        result = orchestrator.run(trace.packed())
    return ExperimentResult(policy.name, trace.name, config, result)


def grid_cells(factories: Sequence[PolicyFactory],
               configs: Sequence[SimulationConfig]
               ) -> List[tuple]:
    """The documented cell order of :func:`run_grid`.

    Cells are **config-major, policy-minor**: cell ``i`` is
    ``(configs[i // len(factories)], factories[i % len(factories)])``.
    Both the serial and the parallel runner emit results in exactly this
    order, so grid outputs are stable across runner implementations and
    worker counts.
    """
    return [(config, factory)
            for config in configs for factory in factories]


def run_grid(trace: Trace, factories: Sequence[PolicyFactory],
             configs: Sequence[SimulationConfig]
             ) -> List[ExperimentResult]:
    """Cartesian product of policies x configs over one trace.

    Results are returned in the deterministic order defined by
    :func:`grid_cells` (config-major, policy-minor).
    """
    return [run_one(trace, factory, config)
            for config, factory in grid_cells(factories, configs)]


def capacity_sweep(trace: Trace, factories: Sequence[PolicyFactory],
                   capacities_gb: Sequence[float],
                   base: SimulationConfig = SimulationConfig()
                   ) -> List[ExperimentResult]:
    """The Fig. 12 pattern: every policy at every cache size.

    Each cell runs ``base`` with its ``capacity_gb`` replaced. Result
    order follows :func:`run_grid`: capacity-major in the order given,
    policy-minor in the order given.
    """
    configs = [replace(base, capacity_gb=gb) for gb in capacities_gb]
    return run_grid(trace, factories, configs)
