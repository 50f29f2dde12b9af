"""Shared fixtures for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper and prints it
(run with ``pytest benchmarks/ --benchmark-only -s`` to see the output; the
tables are printed regardless and captured by pytest otherwise).

Traces are generated once per session and cached. ``REPRO_BENCH_SCALE``
(default ``1.0``) scales the request volume of every workload.
``REPRO_BENCH_JOBS`` (default: CPU count) sets the worker-process count
the grid-shaped benchmarks fan out over via
:class:`repro.experiments.parallel.ParallelRunner`; ``1`` forces the
serial path. Parallel and serial runs produce bit-identical results, so
the shape assertions are unaffected.
Note: the qualitative shape *assertions* are calibrated for the full-scale
workloads. Reduced scales only print the tables: requests shrink while
capacity stays fixed, so the memory-pressure regime changes, and at
``REPRO_BENCH_SCALE=0.3`` ``bench_fig12`` and ``bench_fig09_10`` already
fail. Use ``1.0`` for the reproduction record.
"""

from __future__ import annotations

import os

import pytest

from repro.traces.alibaba import fc_trace
from repro.traces.azure import azure_trace

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", str(os.cpu_count() or 1)))

#: Fig. 12's cache sweep (GB).
CAPACITIES_GB = (80.0, 100.0, 120.0, 140.0, 160.0)
#: The default cache size of §5.5.
DEFAULT_GB = 100.0


def scaled(n: int) -> int:
    return max(int(n * SCALE), 1_000)


@pytest.fixture(scope="session")
def azure():
    """The 30-minute Azure-like evaluation workload (Table 1 row 2)."""
    return azure_trace(total_requests=scaled(66_000))


@pytest.fixture(scope="session")
def fc():
    """The 30-minute Alibaba-FC-like evaluation workload (Table 1 row 3)."""
    return fc_trace(total_requests=scaled(62_000))


@pytest.fixture(scope="session")
def azure_small():
    """A half-size Azure workload for the §5.5 sensitivity sweeps.

    Function count and capacity scale together so the memory pressure at
    50 GB matches the full workload's at 100 GB.
    """
    return azure_trace(n_functions=55, total_requests=scaled(33_000))


#: Capacity giving azure_small the same pressure as DEFAULT_GB gives azure.
SMALL_GB = DEFAULT_GB / 2.0


def run_policy(trace, name, capacity_gb=DEFAULT_GB, **config_kwargs):
    """Run one named policy over a trace (convenience for benches)."""
    from repro.experiments.runner import run_one
    from repro.experiments.suites import policy_factories
    from repro.sim.config import SimulationConfig
    config = SimulationConfig(capacity_gb=capacity_gb, **config_kwargs)
    return run_one(trace, policy_factories()[name], config).result


def run_sweep(trace, names, configs):
    """Run a (policy x config) grid through the shared ParallelRunner.

    Returns ``{(policy_name, config): SimulationResult}`` — configs are
    frozen dataclasses, so they key dicts directly. Honors
    ``REPRO_BENCH_JOBS``; results are bit-identical to the serial path.
    """
    from repro.experiments.parallel import ParallelRunner
    runner = ParallelRunner(jobs=JOBS)
    results = runner.run_grid(trace, names, configs)
    return {(r.policy_name, r.config): r.result for r in results}
