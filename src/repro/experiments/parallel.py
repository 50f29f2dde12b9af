"""Process-parallel experiment execution with deterministic replay.

The paper's evaluation is a wide Cartesian grid — eleven baselines, five
cache capacities, two traces (Figs. 12-21) — and every cell is an
independent discrete-event replay. :class:`ParallelRunner` fans those
cells out over a ``multiprocessing`` pool while keeping the serial
harness the single source of truth:

* **Job specs are picklable.** A cell is ``(index, policy name,
  SimulationConfig)``; policy factories are resolved *by name* inside
  each worker through the registry in :mod:`repro.experiments.suites`,
  so the runner is safe under the ``spawn`` start method (no lambdas or
  closures cross the process boundary). The trace is shipped once per
  worker via the pool initializer, not once per cell.
* **Results are bit-identical to the serial path.** Each worker runs the
  very same :func:`repro.experiments.runner.run_one`, and cells are
  emitted in the documented serial order (config-major, policy-minor —
  see :func:`repro.experiments.runner.grid_cells`), so
  ``ParallelRunner(jobs=N).run_grid(...)`` equals
  ``run_grid(...)`` summary-for-summary for every ``N``.
* **Deterministic per-cell seeding.** An optional base ``seed`` is
  threaded through :class:`~repro.sim.config.SimulationConfig` as
  ``base + cell_index``, independent of worker count and scheduling
  order.
* **Bounded memory.** Results stream back through ``imap`` one cell at
  a time; with ``collect="summary"`` workers return only the summary
  payload (a dozen floats per cell) instead of per-request records, so
  million-cell sweeps hold O(cells) scalars, not O(requests) objects.
* **On-disk caching.** With ``cache_dir`` set, each finished cell is
  persisted under a key derived from (trace digest, policy name,
  config); re-running a sweep replays only the missing cells.
* **Timing report.** Every run records per-cell wall-clock and cache
  hits into :class:`SweepReport` (``runner.last_report``), which the CLI
  surfaces as the sweep's progress/speedup summary.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.experiments.runner import ExperimentResult, run_one
from repro.experiments.suites import policy_factories
from repro.sim.config import SimulationConfig
from repro.traces.schema import Trace

#: Bump when the cached payload layout or simulator semantics change.
#: v2: ``avg_memory_mb`` became a true time-weighted (trapezoidal)
#: average, so v1 summaries are no longer comparable.
#: v3: ``summary()`` gained the fault-layer keys (worker_crashes,
#: orphaned/reassigned/failed_requests); v2 payloads lack them.
#: v4: ``SimulationConfig`` gained ``fast_forward`` (part of the cache
#: key via ``asdict``), so v3 keys no longer resolve. Results are
#: bit-identical across the flag either way.
#: v5: ``SimulationConfig`` gained ``contention`` (the CPU-contention
#: model), and straggler exec/cold multipliers now integrate across
#: window edges instead of being sampled once at dispatch — cached
#: fault-plan cells from v4 may carry the sampled-once timings.
CACHE_VERSION = 5

ProgressFn = Callable[[int, int, "CellTiming"], None]


# ======================================================================
# Job specs and slim results


@dataclass(frozen=True)
class JobSpec:
    """One picklable sweep cell: resolved inside the worker process."""

    index: int
    policy_name: str
    config: SimulationConfig


class SummarySimulationResult:
    """A bounded-memory stand-in for :class:`SimulationResult`.

    Carries the headline ``summary()`` dict plus the run counters, but
    no per-request records. Returned for cache hits and when the runner
    collects ``"summary"`` payloads; exposes the attributes the
    reporting layer reads so it can substitute for the full object in
    tables.
    """

    def __init__(self, summary: Dict[str, float],
                 counters: Dict[str, float]):
        self._summary = dict(summary)
        self.cold_starts_begun = int(counters.get("cold_starts_begun", 0))
        self.wasted_cold_starts = int(
            counters.get("wasted_cold_starts", 0))
        self.evictions = int(counters.get("evictions", 0))
        self.prewarm_starts = int(counters.get("prewarm_starts", 0))
        self.restores = int(counters.get("restores", 0))
        self.provisioned_mb = float(counters.get("provisioned_mb", 0.0))
        self.peak_memory_mb = float(counters.get("peak_memory_mb", 0.0))

    def summary(self) -> Dict[str, float]:
        return dict(self._summary)

    @property
    def total(self) -> int:
        return int(self._summary["requests"])

    @property
    def cold_start_ratio(self) -> float:
        return self._summary["cold_ratio"]

    @property
    def warm_start_ratio(self) -> float:
        return self._summary["warm_ratio"]

    @property
    def delayed_start_ratio(self) -> float:
        return self._summary["delayed_ratio"]

    @property
    def avg_overhead_ratio(self) -> float:
        return self._summary["avg_overhead_ratio"]

    @property
    def avg_wait_ms(self) -> float:
        return self._summary["avg_wait_ms"]

    @property
    def avg_memory_mb(self) -> float:
        return self._summary["avg_memory_mb"]

    def counters(self) -> Dict[str, float]:
        return {
            "cold_starts_begun": self.cold_starts_begun,
            "wasted_cold_starts": self.wasted_cold_starts,
            "evictions": self.evictions,
            "prewarm_starts": self.prewarm_starts,
            "restores": self.restores,
            "provisioned_mb": self.provisioned_mb,
            "peak_memory_mb": self.peak_memory_mb,
        }


def _counters_of(result) -> Dict[str, float]:
    return {
        "cold_starts_begun": result.cold_starts_begun,
        "wasted_cold_starts": result.wasted_cold_starts,
        "evictions": result.evictions,
        "prewarm_starts": result.prewarm_starts,
        "restores": result.restores,
        "provisioned_mb": result.provisioned_mb,
        "peak_memory_mb": result.peak_memory_mb,
    }


# ======================================================================
# Cache keys


def trace_digest(trace: Trace) -> str:
    """A content hash of the trace (functions + requests, not the name).

    Cached on the trace object: traces are value objects, so mutation
    after digesting is a caller error, not a supported flow. Accepts a
    :class:`repro.traces.packed.PackedTrace` too — the packed form
    hashes the same byte stream, so compiling a trace never invalidates
    sweep cache keys (pinned by ``tests/traces/test_packed.py``).
    """
    if getattr(trace, "is_packed", False):
        return trace.digest()
    cached = getattr(trace, "_content_digest", None)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    for f in sorted(trace.functions, key=lambda f: f.name):
        h.update(repr((f.name, f.memory_mb, f.cold_start_ms, f.runtime,
                       getattr(f, "app", ""))).encode())
    for r in trace.requests:
        h.update(repr((r.func, r.arrival_ms, r.exec_ms)).encode())
    digest = h.hexdigest()
    object.__setattr__(trace, "_content_digest", digest)
    return digest


def cache_key(digest: str, policy_name: str,
              config: SimulationConfig) -> str:
    """Key one sweep cell: sha256 over (version, trace digest, policy,
    every config field in sorted order)."""
    payload = {
        "version": CACHE_VERSION,
        "trace": digest,
        "policy": policy_name,
        "config": dataclasses.asdict(config),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


# ======================================================================
# Per-cell telemetry sinks


def cell_events_path(events_dir: Union[str, Path], job: JobSpec) -> Path:
    """Where one sweep cell streams its JSONL event log.

    The name encodes the serial cell index plus the (policy, capacity)
    coordinates, so a sweep's files sort in grid order and stay stable
    across runs and worker counts."""
    return Path(events_dir) / (f"cell{job.index:04d}_{job.policy_name}"
                               f"_cap{job.config.capacity_gb:g}.jsonl")


def _cell_event_log(events_dir, job: JobSpec):
    """A sink-only event log streaming to the cell's JSONL file."""
    if events_dir is None:
        return None
    from repro.sim.eventlog import EventLog
    from repro.sim.telemetry import JsonlSink
    return EventLog(capacity=0,
                    sinks=(JsonlSink(cell_events_path(events_dir, job)),))


def cell_metrics_path(metrics_dir: Union[str, Path],
                      job: JobSpec) -> Path:
    """Where one sweep cell writes its metrics-registry JSON snapshot.

    Same naming scheme as :func:`cell_events_path`, ``.metrics.json``
    suffix."""
    return Path(metrics_dir) / (f"cell{job.index:04d}_{job.policy_name}"
                                f"_cap{job.config.capacity_gb:g}"
                                ".metrics.json")


def _cell_metrics(metrics_dir):
    """A fresh per-cell registry when metrics capture is on."""
    if metrics_dir is None:
        return None
    from repro.obs import MetricsRegistry
    return MetricsRegistry()


# ======================================================================
# Worker-side plumbing (module-level so it pickles under spawn)

_WORKER_TRACE: Optional[Trace] = None
_WORKER_COLLECT: str = "full"
_WORKER_EVENTS_DIR: Optional[str] = None
_WORKER_METRICS_DIR: Optional[str] = None


def _init_worker(trace: Trace, collect: str,
                 events_dir: Optional[str] = None,
                 metrics_dir: Optional[str] = None) -> None:
    global _WORKER_TRACE, _WORKER_COLLECT, _WORKER_EVENTS_DIR, \
        _WORKER_METRICS_DIR
    _WORKER_TRACE = trace
    _WORKER_COLLECT = collect
    _WORKER_EVENTS_DIR = events_dir
    _WORKER_METRICS_DIR = metrics_dir


def _run_cell(job: JobSpec) -> Tuple[int, str, object, float]:
    """Run one cell in a worker. Returns (index, kind, payload, secs)."""
    start = time.perf_counter()
    factory = policy_factories()[job.policy_name]
    event_log = _cell_event_log(_WORKER_EVENTS_DIR, job)
    metrics = _cell_metrics(_WORKER_METRICS_DIR)
    experiment = run_one(_WORKER_TRACE, factory, job.config,
                         event_log=event_log, metrics=metrics)
    if event_log is not None:
        event_log.close()
    if metrics is not None:
        metrics.save_json(cell_metrics_path(_WORKER_METRICS_DIR, job))
    elapsed = time.perf_counter() - start
    if _WORKER_COLLECT == "summary":
        payload = (experiment.result.summary(),
                   _counters_of(experiment.result))
        return job.index, "summary", payload, elapsed
    return job.index, "full", experiment, elapsed


# ======================================================================
# Timing report


@dataclass
class CellTiming:
    """Wall-clock record for one sweep cell."""

    policy_name: str
    capacity_gb: float
    wall_s: float
    cached: bool = False


@dataclass
class SweepReport:
    """Progress / timing summary of one parallel sweep."""

    jobs: int
    wall_s: float = 0.0
    cells: List[CellTiming] = field(default_factory=list)

    @property
    def cache_hits(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    @property
    def cell_seconds(self) -> float:
        """Aggregate simulation time of the executed (non-cached) cells —
        an estimate of the serial wall-clock."""
        return sum(c.wall_s for c in self.cells if not c.cached)

    @property
    def speedup(self) -> float:
        """Estimated serial-time / observed-wall-clock ratio."""
        if self.wall_s <= 0:
            return 1.0
        return self.cell_seconds / self.wall_s

    def rows(self) -> List[List[object]]:
        return [[c.policy_name, c.capacity_gb,
                 "hit" if c.cached else f"{c.wall_s:.2f}s"]
                for c in self.cells]

    def render(self) -> str:
        executed = len(self.cells) - self.cache_hits
        return (f"{len(self.cells)} cells ({executed} run, "
                f"{self.cache_hits} cached) in {self.wall_s:.2f}s "
                f"wall with {self.jobs} job(s); "
                f"aggregate cell time {self.cell_seconds:.2f}s "
                f"(~{self.speedup:.1f}x vs serial)")


class ProgressHeartbeat:
    """A progress callback printing cells done/total, per-cell wall time
    and an ETA as each cell lands (the sweep ``--progress`` flag).

    The ETA is the naive linear extrapolation ``elapsed / done *
    remaining`` — good enough for a homogeneous grid, refreshed on every
    landed cell either way.
    """

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr
        self._start = time.perf_counter()

    def __call__(self, done: int, total: int, cell: CellTiming) -> None:
        elapsed = time.perf_counter() - self._start
        eta = elapsed / done * (total - done) if done else 0.0
        status = "cache hit" if cell.cached else f"{cell.wall_s:.2f}s"
        print(f"[{done}/{total}] {cell.policy_name} @ "
              f"{cell.capacity_gb:g} GB ({status}) | "
              f"elapsed {elapsed:.1f}s, eta {eta:.1f}s",
              file=self.stream, flush=True)


# ======================================================================
# The runner


class ParallelRunner:
    """Fan a (policy, config) grid over a process pool.

    Parameters
    ----------
    jobs:
        Worker processes. ``1`` (or a single-cell grid) runs everything
        in-process through the serial path — no pool, no pickling.
        Defaults to ``os.cpu_count()``.
    mp_context:
        ``multiprocessing`` start method. Defaults to ``"fork"`` where
        available (cheap on Linux) and ``"spawn"`` otherwise; the runner
        is spawn-safe by construction, so either produces identical
        results.
    cache_dir:
        Optional directory of per-cell JSON payloads keyed by
        :func:`cache_key`. Hits skip simulation and come back as
        :class:`SummarySimulationResult`.
    collect:
        ``"full"`` returns complete :class:`SimulationResult` objects;
        ``"summary"`` bounds memory by keeping only summary payloads.
    progress:
        Optional callback ``(done, total, CellTiming)`` invoked in the
        parent as each cell lands.
    events_dir:
        Optional directory for per-cell telemetry: every *executed* cell
        streams its full control-plane event log to
        ``cell_events_path(events_dir, job)`` as JSON Lines (O(1) extra
        memory per worker). Cache hits skip simulation and therefore
        write no event file — clear ``cache_dir`` to trace everything.
    metrics_dir:
        Optional directory for per-cell metrics: every *executed* cell
        attaches a fresh :class:`repro.obs.MetricsRegistry` and writes
        its JSON snapshot to ``cell_metrics_path(metrics_dir, job)``.
        Same cache-hit caveat as ``events_dir``.
    """

    def __init__(self, jobs: Optional[int] = None,
                 mp_context: Optional[str] = None,
                 cache_dir: Optional[Union[str, Path]] = None,
                 collect: str = "full",
                 progress: Optional[ProgressFn] = None,
                 events_dir: Optional[Union[str, Path]] = None,
                 metrics_dir: Optional[Union[str, Path]] = None):
        if collect not in ("full", "summary"):
            raise ValueError(f"unknown collect mode {collect!r}")
        self.jobs = max(int(jobs if jobs is not None
                            else (os.cpu_count() or 1)), 1)
        if mp_context is None:
            available = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in available else "spawn"
        self.mp_context = mp_context
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.collect = collect
        self.progress = progress
        self.events_dir = Path(events_dir) if events_dir else None
        self.metrics_dir = Path(metrics_dir) if metrics_dir else None
        #: Timing/caching record of the most recent sweep.
        self.last_report: Optional[SweepReport] = None

    # ------------------------------------------------------------------

    def run_grid(self, trace: Trace, policy_names: Sequence[str],
                 configs: Sequence[SimulationConfig],
                 seed: Optional[int] = None) -> List[ExperimentResult]:
        """Parallel twin of :func:`repro.experiments.runner.run_grid`.

        Policies are given *by name* (resolved through
        :func:`repro.experiments.suites.policy_factories` inside each
        worker). Results come back in the serial grid order:
        config-major, policy-minor. With ``seed`` set, cell ``i`` runs
        under ``config.seed = seed + i``.
        """
        table = policy_factories()
        unknown = [n for n in policy_names if n not in table]
        if unknown:
            raise KeyError(f"unknown policies: {unknown}")

        jobs_list = self._build_jobs(policy_names, configs, seed)
        total = len(jobs_list)
        results: List[Optional[ExperimentResult]] = [None] * total
        timings: List[Optional[CellTiming]] = [None] * total
        report = SweepReport(jobs=self.jobs)
        started = time.perf_counter()
        done = 0

        to_run: List[JobSpec] = []
        digest = trace_digest(trace) if self.cache_dir else ""
        for job in jobs_list:
            hit = self._cache_load(trace, digest, job)
            if hit is not None:
                results[job.index] = hit
                timing = CellTiming(job.policy_name,
                                    job.config.capacity_gb, 0.0,
                                    cached=True)
                timings[job.index] = timing
                done += 1
                if self.progress:
                    self.progress(done, total, timing)
            else:
                to_run.append(job)

        for index, kind, payload, elapsed in self._execute(trace, to_run):
            job = jobs_list[index]
            results[index] = self._materialize(trace, job, kind, payload)
            timing = CellTiming(job.policy_name, job.config.capacity_gb,
                                elapsed)
            timings[index] = timing
            self._cache_store(digest, job, results[index])
            done += 1
            if self.progress:
                self.progress(done, total, timing)

        report.cells = [t for t in timings if t is not None]
        report.wall_s = time.perf_counter() - started
        self.last_report = report
        return [r for r in results if r is not None]

    def capacity_sweep(self, trace: Trace, policy_names: Sequence[str],
                       capacities_gb: Sequence[float],
                       base: SimulationConfig = SimulationConfig(),
                       seed: Optional[int] = None
                       ) -> List[ExperimentResult]:
        """Parallel twin of :func:`repro.experiments.runner.capacity_sweep`
        (capacity-major, policy-minor result order)."""
        configs = [dataclasses.replace(base, capacity_gb=gb)
                   for gb in capacities_gb]
        return self.run_grid(trace, policy_names, configs, seed=seed)

    # ------------------------------------------------------------------

    @staticmethod
    def _build_jobs(policy_names: Sequence[str],
                    configs: Sequence[SimulationConfig],
                    seed: Optional[int]) -> List[JobSpec]:
        jobs = []
        index = 0
        for config in configs:
            for name in policy_names:
                cell_config = config if seed is None else \
                    dataclasses.replace(config, seed=seed + index)
                jobs.append(JobSpec(index, name, cell_config))
                index += 1
        return jobs

    def _execute(self, trace: Trace, to_run: List[JobSpec]):
        """Yield (index, kind, payload, elapsed) for every cell to run."""
        if not to_run:
            return
        if self.events_dir is not None:
            self.events_dir.mkdir(parents=True, exist_ok=True)
        if self.metrics_dir is not None:
            self.metrics_dir.mkdir(parents=True, exist_ok=True)
        if self.jobs == 1 or len(to_run) == 1:
            # Serial fallback: same code path the workers run, in-process.
            table = policy_factories()
            for job in to_run:
                start = time.perf_counter()
                event_log = _cell_event_log(self.events_dir, job)
                metrics = _cell_metrics(self.metrics_dir)
                experiment = run_one(trace, table[job.policy_name],
                                     job.config, event_log=event_log,
                                     metrics=metrics)
                if event_log is not None:
                    event_log.close()
                if metrics is not None:
                    metrics.save_json(
                        cell_metrics_path(self.metrics_dir, job))
                elapsed = time.perf_counter() - start
                if self.collect == "summary":
                    payload = (experiment.result.summary(),
                               _counters_of(experiment.result))
                    yield job.index, "summary", payload, elapsed
                else:
                    yield job.index, "full", experiment, elapsed
            return
        ctx = multiprocessing.get_context(self.mp_context)
        workers = min(self.jobs, len(to_run))
        events_dir = (str(self.events_dir)
                      if self.events_dir is not None else None)
        metrics_dir = (str(self.metrics_dir)
                       if self.metrics_dir is not None else None)
        with ctx.Pool(processes=workers, initializer=_init_worker,
                      initargs=(trace, self.collect, events_dir,
                                metrics_dir)) as pool:
            # Ordered, streaming collection: one in-flight result object
            # per finished cell, never the whole grid at once.
            for item in pool.imap(_run_cell, to_run, chunksize=1):
                yield item

    def _materialize(self, trace: Trace, job: JobSpec, kind: str,
                     payload) -> ExperimentResult:
        if kind == "full":
            return payload
        summary, counters = payload
        return ExperimentResult(
            job.policy_name, trace.name, job.config,
            SummarySimulationResult(summary, counters))

    # ------------------------------------------------------------------
    # On-disk cache

    def _cache_path(self, digest: str, job: JobSpec) -> Path:
        key = cache_key(digest, job.policy_name, job.config)
        return self.cache_dir / f"{key}.json"

    def _cache_load(self, trace: Trace, digest: str,
                    job: JobSpec) -> Optional[ExperimentResult]:
        if self.cache_dir is None:
            return None
        path = self._cache_path(digest, job)
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return None
        if payload.get("version") != CACHE_VERSION:
            return None
        return ExperimentResult(
            job.policy_name, trace.name, job.config,
            SummarySimulationResult(payload["summary"],
                                    payload.get("counters", {})))

    def _cache_store(self, digest: str, job: JobSpec,
                     experiment: ExperimentResult) -> None:
        if self.cache_dir is None:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        result = experiment.result
        counters = (result.counters()
                    if isinstance(result, SummarySimulationResult)
                    else _counters_of(result))
        payload = {
            "version": CACHE_VERSION,
            "policy": job.policy_name,
            "config": dataclasses.asdict(job.config),
            "summary": result.summary(),
            "counters": counters,
        }
        path = self._cache_path(digest, job)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
