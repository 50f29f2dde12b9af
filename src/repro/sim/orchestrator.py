"""The FaaS control plane: request routing, speculative scaling, eviction.

:class:`Orchestrator` wires together the event engine, the worker pool, a
pluggable :class:`~repro.policies.base.OrchestrationPolicy`, and the metric
collector (the one place the run's counts are kept). It implements the
mechanism of the paper's Figure 11:

* arrivals are first matched against idle warm containers (true warm starts,
  Step 1a);
* requests that find none are routed by the policy's scaling decision
  (Step 1b): a bound cold start, the delayed-warm-start queue, or both
  simultaneously (speculative scaling);
* a per-function FIFO of *waiters* is drained work-conservingly by whichever
  execution slot becomes available first — a finishing busy container
  (Step 2a, a delayed warm start) or a completed provision (Step 2b, a cold
  start);
* provisioning claims memory up front; when the cache is full the policy's
  ``make_room`` evicts lowest-priority idle containers (Step 2c, the
  ``REPLACE`` subroutine), and provisions that still cannot fit wait in a
  pending queue retried whenever capacity may have freed.

The orchestrator is deliberately policy-agnostic: CIDRE, FaasCache, TTL and
every other baseline differ only in the policy object plugged in.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence

from repro.sim.config import SimulationConfig
from repro.sim.container import Container, ContainerState
from repro.sim.engine import Simulator
from repro.sim.eventlog import EventKind, EventLog
from repro.sim.faults import CrashSpec
from repro.sim.function import FunctionSpec
from repro.sim.metrics import (MetricsCollector, SimulationResult,
                               export_run_metrics)
from repro.sim.request import Request, StartType
from repro.sim.worker import Worker
from repro.policies.base import (OrchestrationPolicy, ScalingAction,
                                 ScalingDecision)


@dataclass
class _Waiter:
    """A queued request waiting for an execution slot."""

    request: Request
    may_use_busy: bool
    #: Busy container this waiter committed to (bounded-queue what-if).
    committed: Optional[Container] = None
    #: Provisioning container dedicated to this waiter (vanilla cold start).
    bound: Optional[Container] = None
    served: bool = False


class _ClusterUsage:
    """Change signal for cluster-wide committed memory.

    Each :class:`~repro.sim.worker.Worker` raises ``dirty`` whenever its
    ``used_mb`` changes; the periodic memory sampler then re-sums the
    workers only on ticks where something actually moved and serves a
    cached total otherwise. The cache holds the *same* worker-order sum as
    the naive per-tick recomputation (never a delta-accumulated float), so
    sampled values are bit-identical between the two modes.
    """

    __slots__ = ("dirty",)

    def __init__(self) -> None:
        self.dirty = True


@dataclass
class _PendingProvision:
    """A provision that could not claim memory yet."""

    spec: FunctionSpec
    worker: Worker
    waiter: Optional[_Waiter]
    speculative: bool
    prewarm: bool = False
    abandoned: bool = False


class _ExecProgress:
    """Progress ledger for one running execution (progress mode).

    ``remaining_ms`` is the work left in trace-time units as of
    ``settled_ms``; the completion event sits at ``settled_ms +
    remaining_ms * slowdown`` and is rescheduled whenever the rate
    changes. Settlement is deferred while the rate is constant — progress
    accrues linearly, so settling only at rate changes is exact and
    keeps single-rate executions free of float re-derivations.
    """

    __slots__ = ("request", "container", "event", "remaining_ms",
                 "slowdown", "settled_ms", "slowed")

    def __init__(self, request: Request, container: Container, event,
                 remaining_ms: float, slowdown: float,
                 settled_ms: float) -> None:
        self.request = request
        self.container = container
        self.event = event
        self.remaining_ms = remaining_ms
        self.slowdown = slowdown
        self.settled_ms = settled_ms
        #: Whether any rate other than exactly 1.0 ever applied — gates
        #: the EXEC_END slowdown annotation so inert models stay
        #: byte-identical to contention-free runs.
        self.slowed = slowdown != 1.0


class Orchestrator:
    """Simulates a FaaS cluster under one orchestration policy.

    Parameters
    ----------
    functions:
        The deployed functions (must cover every function in the trace).
    policy:
        The orchestration policy under test.
    config:
        Cluster shape and knobs.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`. The run counts live
        in :attr:`metrics` (the :class:`MetricsCollector`); when the run
        ends they are exported into the registry's ``repro_*`` families
        in one pass, and the policy adds its own families as it decides.
    """

    def __init__(self, functions: Iterable[FunctionSpec],
                 policy: OrchestrationPolicy,
                 config: Optional[SimulationConfig] = None,
                 event_log: Optional["EventLog"] = None,
                 recorder=None, audit=None, metrics=None,
                 attribution=None):
        self.config = config or SimulationConfig()
        self.policy = policy
        #: Seeded RNG for stochastic policies (``ctx.rng``). The core
        #: mechanism never draws from it, so runs are deterministic
        #: functions of (trace, policy, config) with or without a seed.
        self.rng = random.Random(
            0 if self.config.seed is None else self.config.seed)
        #: Reference (scanning) implementations everywhere when True.
        self._naive = self.config.reference_impl
        self.sim = Simulator(naive=self._naive)
        self.metrics = MetricsCollector()
        self.event_log = event_log
        #: Optional :class:`repro.sim.telemetry.TimeSeriesRecorder` (any
        #: object with ``interval_ms``/``note_start``/``sample``/
        #: ``finish``). Strictly read-only observation: attaching one
        #: never changes simulation outcomes.
        self.recorder = recorder
        #: Optional :class:`repro.obs.DecisionAudit` /
        #: :class:`repro.obs.MetricsRegistry`. Like the recorder, strictly
        #: read-only: attaching either never changes simulation outcomes
        #: (pinned by ``tests/obs/test_audit_differential.py``). The
        #: registry is only handed to the policy and, after the run, to
        #: :func:`export_run_metrics`.
        self.audit = audit
        self.metrics_registry = metrics
        #: Optional :class:`repro.obs.attribution.CauseTracker`. Stamps
        #: every PROVISION_START detail with its proximate cause
        #: (``first-invocation`` / ``eviction:<id>`` / ...). Read-only
        #: beyond that one detail suffix: attribution-off runs are
        #: byte-identical to a build without the tracker (pinned by
        #: ``tests/obs/test_attribution_differential.py``).
        self.attribution = attribution
        self.specs: Dict[str, FunctionSpec] = {f.name: f for f in functions}
        self._usage = _ClusterUsage()
        self._used_mb_cache = 0.0
        #: The fault schedule, or None. Every fault-layer code path below
        #: is gated on this being set, keeping faults-off runs
        #: bit-identical to a build without the fault layer.
        self._faults = self.config.faults
        if self._faults is None:
            capacities = [self.config.per_worker_mb] * self.config.workers
        else:
            capacities = [
                self._faults.worker_capacity_mb(i, self.config.per_worker_mb)
                for i in range(self.config.workers)]
        self._workers: List[Worker] = [
            Worker(i, capacities[i], naive=self._naive, usage=self._usage)
            for i in range(self.config.workers)
        ]
        if self._faults is not None:
            # shard: cross-worker init-time worker-class assignment, before any shard runs
            for worker in self._workers:
                cls = self._faults.class_of(worker.worker_id)
                if cls is not None:
                    worker.wclass = cls.name
        # Every function must fit every worker: crashes and dispatch
        # filtering mean any function can land on any (online) worker.
        floor_mb = min(capacities)
        for spec in self.specs.values():
            if spec.memory_mb > floor_mb:
                raise ValueError(
                    f"{spec.name} needs {spec.memory_mb} MB but each worker "
                    f"has only {floor_mb} MB")
        #: The CPU-contention model, or None. Gated exactly like
        #: ``_faults``: contention-off runs take byte-identical code
        #: paths to a build without the contention layer.
        self._contention = self.config.contention
        #: Progress-based completions are needed whenever execution
        #: rates can change mid-flight: under a contention model, or
        #: under straggler windows that scale execution time (whose
        #: mid-window edges the sampled-once model silently ignored).
        self._progress = (self._contention is not None
                          or (self._faults is not None
                              and self._faults.has_exec_stragglers()))
        #: req_id -> live progress ledger (progress mode only).
        self._execs: Dict[int, _ExecProgress] = {}
        #: worker_id -> {req_id -> ledger} of co-located executions, in
        #: start order (dict insertion order is the deterministic
        #: iteration order for retiming).
        self._worker_execs: Dict[int, Dict[int, _ExecProgress]] = {}
        #: worker_id -> armed straggler-window boundary event.
        self._rate_events: Dict[int, object] = {}
        #: req_id -> in-flight execution event (fault layer only; lets a
        #: crash cancel the completions of destroyed containers in O(1)).
        self._exec_events: Dict[int, object] = {}
        #: container_id -> (ready event, bound waiter) for provisions and
        #: restores in flight (fault layer only).
        self._provision_events: Dict[int, tuple] = {}
        #: Pending restart times of currently-offline workers.
        self._restart_times: List[float] = []
        self._waiters: Dict[str, Deque[_Waiter]] = {}
        self._unserved: Dict[str, int] = {}
        self._committed: Dict[int, Deque[_Waiter]] = {}
        self._pending: List[_PendingProvision] = []
        self._pending_by_func: Dict[str, int] = {}
        self._retry_scheduled = False
        #: Packed-trace replay state (set by :meth:`run`).
        self._packed = None
        self._materialized: List[Request] = []
        #: Idle fast-forward state (set by :meth:`run` when enabled).
        self._ff_replay: Dict = {}
        self._ff_maintenance = None
        if audit is not None:
            policy.audit = audit
        if metrics is not None:
            policy.metrics = metrics
        policy.bind(self)

    # ==================================================================
    # PolicyContext facade

    @property
    def now(self) -> float:
        return self.sim.now

    def workers(self) -> List[Worker]:
        # shard: cross-worker pool accessor: policies enumerate all workers in maintenance
        return self._workers

    def spec_of(self, func: str) -> FunctionSpec:
        return self.specs[func]

    def outstanding_waiters(self, func: str) -> int:
        return self._unserved.get(func, 0)

    def waiting_functions(self) -> List[str]:
        """Functions with at least one unserved queued request."""
        return [func for func, count in self._unserved.items() if count]

    def provisions_in_flight(self, func: str) -> int:
        """Containers of ``func`` being provisioned *or* waiting for memory
        to start provisioning. The scaling policies use this to avoid
        re-provisioning for a backlog that is already covered."""
        if self._naive:
            started = sum(len(w.provisioning_of(func))
                          # shard: cross-worker provision count aggregated across the whole pool
                          for w in self._workers)
        else:
            started = sum(w.provisioning_count(func)
                          # shard: cross-worker provision count aggregated across the whole pool
                          for w in self._workers)
        return started + self._pending_by_func.get(func, 0)

    def speculate_for(self, func: str) -> bool:
        """Provision one unbound speculative container for ``func``.

        Used by CSS's queue re-evaluation (§4: the policy evaluates the
        outstanding request at the head of the channel and may decide to
        start a container for it after all). Returns False when the
        provision had to be deferred for memory.
        """
        if self._faults is not None and not self._any_online():
            return False
        worker = self._dispatch(func)
        container = self._provision(self.specs[func], worker, waiter=None,
                                    speculative=True)
        return container is not None

    def oldest_waiter_age_ms(self, func: str) -> float:
        queue = self._waiters.get(func)
        if not queue:
            return 0.0
        while queue and queue[0].served:
            queue.popleft()
        for waiter in queue:
            if not waiter.served:
                return self.sim.now - waiter.request.arrival_ms
        return 0.0

    def evict(self, container: Container,
              decision_id: Optional[int] = None) -> None:
        """Reclaim an evictable container (policy-triggered or REPLACE).

        ``decision_id`` carries the audited REPLACE decision the eviction
        belongs to (``make_room`` passes it through). Policy-direct
        evictions — TTL expiry, keep-alive decay, prewarm reclaim — come
        in without one; when an audit is attached the orchestrator mints
        a ``scale_down`` record so attribution can blame them too.
        """
        worker = container.worker
        if worker is None:
            return
        cause_kind = "eviction" if decision_id is not None else "scale-down"
        if decision_id is None and self.audit is not None:
            decision_id = self.audit.emit({
                "kind": "scale_down",
                "t": self.sim.now,
                "wid": worker.worker_id,
                "cid": container.container_id,
                "func": container.spec.name,
                "mem_mb": container.memory_mb,
                "idle_ms": self.sim.now - container.last_idle_ms,
            })
        if container.speculative and not container.served_any:
            self.metrics.wasted_cold_starts += 1
        worker.remove(container)
        # Drop any bounded-queue commitments against the dead container —
        # the waiters themselves stay in their function FIFO.
        self._committed.pop(container.container_id, None)
        func = container.spec.name
        evictions = self.metrics.evictions_by_func
        evictions[func] = evictions.get(func, 0) + 1
        if self.attribution is not None:
            self.attribution.note_removal(func, cause_kind, decision_id)
        self._log(EventKind.EVICTION, func,
                  container_id=container.container_id,
                  worker_id=worker.worker_id)
        self.policy.on_eviction([container], self.sim.now)

    def compress(self, container: Container, mem_fraction: float) -> None:
        """CodeCrunch-style: shrink an idle container instead of evicting."""
        worker = container.worker
        old_mb = container.memory_mb
        container.compress(mem_fraction)
        worker.recharge(container, old_mb)
        self._log(EventKind.COMPRESSION, container.spec.name,
                  container_id=container.container_id,
                  worker_id=worker.worker_id if worker else None)

    def prewarm(self, spec: FunctionSpec, worker: Worker) -> bool:
        """Provision a container ahead of demand (IceBreaker / ENSURE)."""
        if self._faults is not None and not worker.online:
            return False
        if not self.policy.make_room(worker, spec.memory_mb, self.sim.now,
                                     for_func=spec.name):
            return False
        self._begin_provision(spec, worker, waiter=None, speculative=False,
                              prewarm=True)
        return True

    # ==================================================================
    # Public driver

    def run(self, requests) -> SimulationResult:
        """Replay a workload and return the result.

        ``requests`` is either a sequence of :class:`Request` objects or a
        :class:`~repro.traces.packed.PackedTrace`. A packed trace streams
        its arrivals straight off the flat columns (one heap event per
        *dynamic* event only) and materializes request records lazily at
        dispatch; under ``reference_impl`` it is materialized up front and
        replayed through the classic all-events-scheduled path instead.
        Both paths are bit-identical (pinned by the differential tests).
        """
        packed = requests if getattr(requests, "is_packed", False) else None
        if packed is not None and not self._naive:
            for name in packed.func_names:
                if name not in self.specs:
                    raise KeyError(
                        f"request targets unknown function {name}")
            self._packed = packed
            # Filled in arrival order by _dispatch_batch; rows share
            # req_id == row index, so this ends up identical to the
            # classic path's ``ordered`` list.
            ordered = self._materialized = []
            self.sim.bind_stream(packed.arrival_ms, self._dispatch_batch)
        else:
            if packed is not None:
                requests = packed.materialize_all()
            ordered = sorted(requests, key=lambda r: (r.arrival_ms, r.req_id))
            for i, req in enumerate(ordered):
                if req.req_id < 0:
                    req.req_id = i
                if req.func not in self.specs:
                    raise KeyError(
                        f"request targets unknown function {req.func}")
                self.sim.at(req.arrival_ms, self._on_arrival, req)
        if self._faults is not None:
            for crash in self._faults.crashes_sorted():
                self.sim.at(crash.at_ms, self._on_worker_crash, crash)
        sampler = maintenance = None
        if self.config.memory_sample_interval_ms > 0:
            sampler = self.sim.every(self.config.memory_sample_interval_ms,
                                     self._sample_memory, start_delay=0.0)
        if self.policy.maintenance_interval_ms:
            maintenance = self.sim.every(self.policy.maintenance_interval_ms,
                                         self._run_maintenance)
        if self.recorder is not None:
            self.sim.every(self.recorder.interval_ms,
                           self.recorder.sample, self, start_delay=0.0)
        if (self.config.fast_forward and not self._naive
                and self.recorder is None):
            # Replay table for analytically advanced idle-gap ticks: the
            # sampler re-runs its (cheap, cache-served) callback so the
            # time series stays sample-for-sample identical; maintenance
            # ticks are proven no-ops by the policy's horizon and skip
            # the policy call entirely. The recorder is never replayed —
            # attaching one disables fast-forward outright.
            self._ff_maintenance = maintenance
            replay = {}
            if sampler is not None:
                replay[sampler] = self._sample_memory
            if maintenance is not None:
                replay[maintenance] = None
            self._ff_replay = replay
            self.sim.fast_forward_hook = self._fast_forward
        self.sim.run()
        self._finalize(ordered)
        if self.metrics_registry is not None:
            export_run_metrics(self.metrics, self.metrics_registry,
                               contended=self._contention is not None)
        return self.metrics.result()

    def _dispatch_batch(self, lo: int, hi: int) -> None:
        """Arrival-stream dispatch: materialize and admit rows [lo, hi).

        Called by the engine with the clock already at the rows' shared
        arrival time; per-row processing is exactly :meth:`_on_arrival`,
        so the replay is step-for-step identical to the classic path.
        """
        packed = self._packed
        materialized = self._materialized
        on_arrival = self._on_arrival
        for i in range(lo, hi):
            request = packed.materialize(i)
            materialized.append(request)
            on_arrival(request)

    def _fast_forward(self, next_arrival: float) -> int:
        """Idle fast-forward hook (see ``SimulationConfig.fast_forward``).

        The engine calls this only when undispatched stream rows remain,
        no real (non-periodic) heap events exist, and at least one
        periodic tick precedes ``next_arrival``. Skipping is sound only
        when additionally (a) no blocked provision is waiting — each
        maintenance tick would otherwise schedule a retry — and (b) the
        policy proves its maintenance inert up to a horizon. Returns the
        number of ticks advanced (0 = run the gap through the event
        loop).
        """
        if self._pending:
            return 0
        boundary = next_arrival
        if self._ff_maintenance is not None:
            horizon = self.policy.maintenance_horizon(self.sim.now)
            if horizon is None:
                return 0
            if horizon < boundary:
                boundary = horizon
        if boundary <= self.sim.now:
            return 0
        return self.sim.advance_periodic(boundary, self._ff_replay)

    # ==================================================================
    # Arrival path

    def _on_arrival(self, request: Request) -> None:
        if self._faults is not None and not self._any_online():
            self._defer_or_fail(request, self._on_arrival)
            return
        now = self.sim.now
        worker = self._dispatch(request.func)
        self._log(EventKind.ARRIVAL, request.func, req_id=request.req_id,
                  worker_id=worker.worker_id)
        self.metrics.arrivals += 1
        self.policy.on_request_arrival(request, worker, now)
        self._route(request, worker)

    def _route(self, request: Request, worker: Worker) -> None:
        """Match ``request`` against warm capacity or the scaling policy
        (shared by fresh arrivals and crash reassignments)."""
        now = self.sim.now
        # Step 1a: true warm start on an idle container / free slot.
        candidate = worker.slot_available(request.func)
        if candidate is not None:
            self._start_exec(candidate, request, StartType.WARM)
            return

        # CodeCrunch path: restore a compressed container of this function
        # at a fraction of the cold-start cost.
        if getattr(self.policy, "reuse_compressed", False):
            compressed = worker.compressed_of(request.func)
            if compressed:
                target = max(compressed, key=lambda c: c.last_used_ms)
                if self._begin_restore(target, request, worker):
                    return

        # Step 1b: no idle capacity — consult the scaling policy.
        decision = self.policy.scale(request, worker, now)
        decision = self._validate_decision(decision, request, worker)
        # _value_ is the plain attribute behind Enum.value; keying by it
        # skips the Python-level Enum.value and Enum.__hash__ calls.
        action = decision.action._value_
        decisions = self.metrics.decisions
        decisions[action] = decisions.get(action, 0) + 1
        waiter = _Waiter(request,
                         may_use_busy=decision.action is not ScalingAction.COLD,
                         committed=decision.target)
        self._enqueue_waiter(waiter)
        if decision.target is not None:
            self._committed.setdefault(
                decision.target.container_id, deque()).append(waiter)

        if decision.action in (ScalingAction.COLD, ScalingAction.SPECULATE):
            speculative = decision.action is ScalingAction.SPECULATE
            bound = None if speculative else waiter
            self._provision(self.specs[request.func], worker,
                            waiter=bound, speculative=speculative)

    def _validate_decision(self, decision: ScalingDecision, request: Request,
                           worker: Worker) -> ScalingDecision:
        """Queue-only decisions need someone to eventually serve the waiter;
        otherwise escalate to a cold start."""
        if decision.action is not ScalingAction.QUEUE:
            return decision
        func = request.func
        if self._naive:
            has_supply = (bool(worker.busy_of(func))
                          or bool(worker.provisioning_of(func)))
        else:
            has_supply = (worker.busy_count(func) > 0
                          or worker.provisioning_count(func) > 0)
        if not has_supply:
            return ScalingDecision.cold()
        if decision.target is not None and not decision.target.is_busy:
            return ScalingDecision.queue()
        return decision

    # ==================================================================
    # Fault injection (every path below requires self._faults)

    def _any_online(self) -> bool:
        # shard: cross-worker cluster-liveness probe over the whole pool
        for worker in self._workers:
            if worker.online:
                return True
        return False

    def _next_restart(self) -> Optional[float]:
        return min(self._restart_times) if self._restart_times else None

    def _defer_or_fail(self, request: Request, callback) -> None:
        """Nothing is online: park ``request`` until the next restart, or
        fail it when no worker will ever come back."""
        restart_at = self._next_restart()
        if restart_at is None:
            self._fail_request(request, "no-online-workers")
        else:
            # The restart event was scheduled at crash time, so it holds
            # an earlier sequence number and fires first at restart_at.
            self.sim.at(restart_at, callback, request)

    def _fail_request(self, request: Request, detail: str,
                      worker_id: Optional[int] = None) -> None:
        request.failed = True
        self._log(EventKind.REQUEST_ORPHANED, request.func,
                  req_id=request.req_id, detail=detail, worker_id=worker_id)
        self.metrics.record_failed(request)

    def _on_worker_crash(self, crash: CrashSpec) -> None:
        # shard: cross-worker fault plan addresses workers by global id
        worker = self._workers[crash.worker_id]
        if not worker.online:
            return  # plan crashed a worker that is already down
        now = self.sim.now
        self._log(EventKind.WORKER_CRASH, "", worker_id=worker.worker_id,
                  detail=f"containers={len(worker.containers)}")
        self.metrics.worker_crashes += 1
        if crash.restart_delay_ms is not None:
            restart_at = now + crash.restart_delay_ms
            self._restart_times.append(restart_at)
            self.sim.at(restart_at, self._on_worker_restart, worker)
        victims = worker.crash()
        self.metrics.crash_destroyed += len(victims)
        if self.attribution is not None:
            self.attribution.note_crash(c.spec.name for c in victims)
        orphans: List[Request] = []
        rebind: List[_Waiter] = []
        for container in victims:
            if container.speculative and not container.served_any:
                self.metrics.wasted_cold_starts += 1
            orphans.extend(container.destroy())
            entry = self._provision_events.pop(container.container_id, None)
            if entry is not None:
                event, waiter = entry
                event.cancel()
                if waiter is not None and not waiter.served:
                    waiter.bound = None
                    rebind.append(waiter)
            committed = self._committed.pop(container.container_id, None)
            if committed is not None:
                for waiter in committed:
                    waiter.committed = None
        self.policy.on_worker_crash(worker, victims, now)
        retry = self._faults.retry
        for request in orphans:
            event = self._exec_events.pop(request.req_id, None)
            if event is not None:
                event.cancel()
            self.metrics.orphaned_requests += 1
            if request.retries < retry.max_retries:
                request.retries += 1
                request.start_ms = None
                request.start_type = None
                request.container_id = None
                self._log(EventKind.REQUEST_ORPHANED, request.func,
                          req_id=request.req_id, worker_id=worker.worker_id,
                          detail="exec:retry")
                self.sim.schedule(retry.retry_delay_ms, self._on_reassigned,
                                  request)
            else:
                self._fail_request(request, "exec:exhausted",
                                   worker_id=worker.worker_id)
        if self._progress:
            self._drop_progress_worker(worker.worker_id)
        for waiter in rebind:
            self._rebind_waiter(waiter)
        # Blocked provisions aimed at the dead worker move to a live one;
        # if nothing is online they stay put until a restart retries them.
        if self._any_online():
            for pend in self._pending:
                if pend.worker is worker and not pend.abandoned:
                    pend.worker = self._dispatch(pend.spec.name)
        self._rescue_starved()

    def _on_worker_restart(self, worker: Worker) -> None:
        now = self.sim.now
        self._restart_times.remove(now)
        worker.restart()
        self._log(EventKind.WORKER_RESTART, "", worker_id=worker.worker_id)
        self.policy.on_worker_restart(worker, now)
        if self._pending:
            self._schedule_retry()

    def _on_reassigned(self, request: Request) -> None:
        """Re-dispatch an orphaned (or starved) request as a fresh demand
        signal on a surviving worker."""
        if request.failed:  # pragma: no cover - defensive
            return
        if not self._any_online():
            self._defer_or_fail(request, self._on_reassigned)
            return
        now = self.sim.now
        worker = self._dispatch(request.func)
        self._log(EventKind.REQUEST_REASSIGNED, request.func,
                  req_id=request.req_id, worker_id=worker.worker_id,
                  detail=f"attempt{request.retries}")
        self.metrics.reassigned_requests += 1
        # A reassignment is a new arrival from the policy's perspective:
        # frequency/popularity statistics should see the extra demand.
        self.policy.on_request_arrival(request, worker, now)
        self._route(request, worker)

    def _rebind_waiter(self, waiter: _Waiter) -> None:
        """Restart the cold start for a waiter whose bound provisioning
        container died with its worker (no retry budget consumed — the
        request never began executing)."""
        if waiter.served:  # pragma: no cover - defensive
            return
        request = waiter.request
        if not self._any_online():
            restart_at = self._next_restart()
            if restart_at is None:
                waiter.served = True
                self._unserved[request.func] -= 1
                self._fail_request(request, "no-online-workers")
            else:
                self.sim.at(restart_at, self._rebind_waiter, waiter)
            return
        worker = self._dispatch(request.func)
        self._log(EventKind.REQUEST_REASSIGNED, request.func,
                  req_id=request.req_id, worker_id=worker.worker_id,
                  detail="provision")
        self.metrics.reassigned_requests += 1
        self._provision(self.specs[request.func], worker, waiter=waiter,
                        speculative=False)

    def _supply_of(self, func: str) -> int:
        """Execution-slot sources that can still serve ``func`` waiters:
        blocked + in-flight provisions and busy containers on online
        workers."""
        count = self._pending_by_func.get(func, 0)
        # shard: cross-worker supply count aggregates slots across the whole pool
        for worker in self._workers:
            if not worker.online:
                continue
            if self._naive:
                count += (len(worker.busy_of(func))
                          + len(worker.provisioning_of(func)))
            else:
                count += (worker.busy_count(func)
                          + worker.provisioning_count(func))
        return count

    def _rescue_starved(self) -> None:
        """Re-route queued waiters whose entire supply died in the crash.

        A QUEUE-decision waiter relies on busy/provisioning containers of
        its function; when the crash destroyed the last of them nothing
        will ever drain the FIFO. Such waiters are marked served and
        re-enter through the reassignment path (no retry budget consumed).
        """
        for func in sorted(self.waiting_functions()):
            if self._supply_of(func) > 0:
                continue
            queue = self._waiters.get(func)
            if not queue:
                continue
            for waiter in list(queue):
                if waiter.served or waiter.bound is not None:
                    continue
                waiter.served = True
                self._unserved[func] -= 1
                self.sim.schedule(0.0, self._on_reassigned, waiter.request)

    # ==================================================================
    # Provisioning path

    def _provision(self, spec: FunctionSpec, worker: Worker,
                   waiter: Optional[_Waiter], speculative: bool,
                   prewarm: bool = False) -> Optional[Container]:
        if not self.policy.make_room(worker, spec.memory_mb, self.sim.now,
                                     for_func=spec.name):
            self._pending.append(_PendingProvision(
                spec, worker, waiter, speculative, prewarm))
            self._pending_by_func[spec.name] = \
                self._pending_by_func.get(spec.name, 0) + 1
            self.metrics.blocked_provisions += 1
            return None
        return self._begin_provision(spec, worker, waiter, speculative,
                                     prewarm)

    def _begin_provision(self, spec: FunctionSpec, worker: Worker,
                         waiter: Optional[_Waiter], speculative: bool,
                         prewarm: bool) -> Container:
        now = self.sim.now
        cost = self.policy.provision_cost_ms(spec, worker, now)
        container = Container(spec, now,
                              threads=self.config.threads_per_container,
                              speculative=speculative)
        worker.add(container)
        if waiter is not None:
            waiter.bound = container
        self.metrics.provisioned_mb += container.memory_mb
        kind = "prewarm" if prewarm \
            else ("speculative" if speculative else "bound")
        self.metrics.provisions[kind] += 1
        detail = kind
        if self.attribution is not None:
            cause = self.attribution.begin_provision(spec.name)
            detail = f"{kind} cause={cause}"
        self._log(EventKind.PROVISION_START, spec.name,
                  container_id=container.container_id, detail=detail,
                  worker_id=worker.worker_id)
        self.policy.on_provision_started(container, now)
        if self._faults is not None:
            # Integrate the cold rate across straggler-window edges
            # instead of freezing the factor sampled at dispatch: a
            # window that ends (or begins) mid-provision changes the
            # remaining wall time. With no edge straddled this is the
            # single sampled multiply, bit-for-bit.
            event = self.sim.at(
                self._faults.cold_finish_ms(worker.worker_id, now, cost),
                self._on_ready, container, waiter)
            self._provision_events[container.container_id] = (event, waiter)
        else:
            event = self.sim.schedule(cost, self._on_ready, container,
                                      waiter)
        return container

    def _begin_restore(self, container: Container, request: Request,
                       worker: Worker) -> bool:
        """Decompress ``container`` to serve ``request`` (CodeCrunch).

        Returns False (leaving the container compressed) when the extra
        memory for the full footprint cannot be freed.
        """
        now = self.sim.now
        old_mb = container.memory_mb
        delta = container.spec.memory_mb - old_mb
        container.begin_restore(now)  # not evictable while we make room
        if not self.policy.make_room(worker, delta, now,
                                     for_func=request.func):
            container.abort_restore(old_mb / container.spec.memory_mb)
            return False
        worker.recharge(container, old_mb)
        self._log(EventKind.RESTORE_START, request.func,
                  container_id=container.container_id,
                  req_id=request.req_id, worker_id=worker.worker_id)
        waiter = _Waiter(request, may_use_busy=False, bound=container)
        self._enqueue_waiter(waiter)
        self.metrics.restores += 1
        cost = self.policy.restore_cost_ms(container.spec)
        if self._faults is not None:
            # Same piecewise integration as _begin_provision.
            event = self.sim.at(
                self._faults.cold_finish_ms(worker.worker_id, now, cost),
                self._on_ready, container, waiter)
            self._provision_events[container.container_id] = (event, waiter)
        else:
            event = self.sim.schedule(cost, self._on_ready, container,
                                      waiter)
        return True

    def _on_ready(self, container: Container,
                  waiter: Optional[_Waiter]) -> None:
        if self._faults is not None:
            self._provision_events.pop(container.container_id, None)
        if container.state is ContainerState.EVICTED:  # pragma: no cover
            return
        now = self.sim.now
        container.mark_ready(now)
        self._log(EventKind.CONTAINER_READY, container.spec.name,
                  container_id=container.container_id,
                  worker_id=container.worker.worker_id
                  if container.worker else None)
        self.policy.on_container_ready(container, now)
        if waiter is not None and not waiter.served:
            self._serve(container, waiter, StartType.COLD)
        # Unbound (speculative / prewarmed) containers pick up the oldest
        # queued request of their function; with multi-slot containers a
        # fresh container can absorb several.
        while container.free_slots > 0:
            pending = self._next_unbound_waiter(container.spec.name)
            if pending is None:
                break
            self._serve(container, pending, StartType.COLD)
        # A container that comes up idle is newly *evictable* memory —
        # the provisioning -> ready transition is the only evictability
        # change without a retry hook, and a blocked provision could
        # otherwise stay stuck forever once arrivals stop.
        if self._pending:
            self._schedule_retry()

    # ==================================================================
    # Execution path

    def _enqueue_waiter(self, waiter: _Waiter) -> None:
        func = waiter.request.func
        self._waiters.setdefault(func, deque()).append(waiter)
        self._unserved[func] = self._unserved.get(func, 0) + 1

    def _serve(self, container: Container, waiter: _Waiter,
               start_type: StartType) -> None:
        waiter.served = True
        self._unserved[waiter.request.func] -= 1
        if (waiter.committed is not None
                and waiter.committed is not container):
            # Served elsewhere: trim dead references from the ends of the
            # committed deque so long bounded-queue runs do not accumulate
            # served waiters (popping served entries never changes what
            # ``_next_waiter_for`` returns — it skips them anyway).
            self._trim_committed(waiter.committed.container_id)
        self._start_exec(container, waiter.request, start_type)

    def _trim_committed(self, container_id: int) -> None:
        queue = self._committed.get(container_id)
        if queue is None:
            return
        while queue and queue[0].served:
            queue.popleft()
        while queue and queue[-1].served:
            queue.pop()
        if not queue:
            del self._committed[container_id]

    def _start_exec(self, container: Container, request: Request,
                    start_type: StartType) -> None:
        now = self.sim.now
        request.start_ms = now
        request.start_type = start_type
        request.container_id = container.container_id
        self._log(EventKind.EXEC_START, request.func,
                  container_id=container.container_id,
                  req_id=request.req_id, detail=start_type.value,
                  worker_id=container.worker.worker_id
                  if container.worker else None)
        if self.recorder is not None:
            self.recorder.note_start(request.func, start_type.value, now)
        self.metrics.starts[start_type._value_] += 1
        container.start_request(request, now)
        if start_type is StartType.WARM:
            self.policy.on_warm_start(container, request, now)
        elif start_type is StartType.DELAYED:
            self.policy.on_delayed_start(container, request, now)
        else:
            self.policy.on_cold_start(container, request, now)
        if self._progress and container.worker is not None:
            self._begin_progress_exec(container, request)
            return
        exec_ms = request.exec_ms
        if self._faults is not None and container.worker is not None:
            exec_ms = exec_ms * self._faults.exec_multiplier(
                container.worker.worker_id, now)
        event = self.sim.schedule(exec_ms, self._on_complete, container,
                                  request)
        if self._faults is not None:
            self._exec_events[request.req_id] = event

    def _on_complete(self, container: Container, request: Request) -> None:
        now = self.sim.now
        if self._faults is not None:
            self._exec_events.pop(request.req_id, None)
        state = (self._finish_progress_exec(request, container)
                 if self._progress else None)
        container.finish_request(request, now)
        request.end_ms = now
        detail = ""
        if (self._contention is not None and state is not None
                and state.slowed):
            realized = ((now - request.start_ms) / request.exec_ms
                        if request.exec_ms > 0 else 1.0)
            # float(): generated traces carry numpy cold-start times,
            # and numpy >= 2 reprs its floats as "np.float64(...)".
            detail = f"slowdown={float(realized)!r}"
        self._log(EventKind.EXEC_END, request.func,
                  container_id=container.container_id,
                  req_id=request.req_id, detail=detail,
                  worker_id=container.worker.worker_id
                  if container.worker else None)
        self.metrics.record_request(request)
        self.policy.on_request_complete(container, request, now)
        # Step 2a: the vacant slot serves queued waiters — first those
        # committed to this container, then the function's FIFO.
        while container.free_slots > 0:
            waiter = self._next_waiter_for(container)
            if waiter is None:
                break
            self._serve(container, waiter, StartType.DELAYED)
        # Memory may now be reclaimable: retry blocked provisions.
        if self._pending:
            self._schedule_retry()

    # ==================================================================
    # Progress-based execution (contention / rate-varying stragglers)

    def _slowdown(self, worker_id: int, func: str, busy: int,
                  now: float) -> float:
        """Execution-rate factor for one execution of ``func`` sharing
        its worker with ``busy`` total in-flight executions at ``now``."""
        if self._contention is not None:
            factor = self._contention.slowdown(busy, func)
        else:
            factor = 1.0
        if self._faults is not None:
            factor = factor * self._faults.exec_multiplier(worker_id, now)
        return factor

    def _begin_progress_exec(self, container: Container,
                             request: Request) -> None:
        now = self.sim.now
        worker_id = container.worker.worker_id
        table = self._worker_execs.setdefault(worker_id, {})
        busy = len(table) + 1
        # Settle the neighbours first: their rates change the instant
        # this execution joins the worker.
        self._retime_worker(worker_id, busy, now)
        slowdown = self._slowdown(worker_id, request.func, busy, now)
        event = self.sim.schedule(request.exec_ms * slowdown,
                                  self._on_complete, container, request)
        state = _ExecProgress(request, container, event,
                              request.exec_ms, slowdown, now)
        table[request.req_id] = state
        self._execs[request.req_id] = state
        if self._faults is not None:
            self._exec_events[request.req_id] = event
            self._arm_rate_boundary(worker_id)

    def _retime_worker(self, worker_id: int, busy: int,
                       now: float) -> None:
        """Settle progress and reschedule the completion of every running
        execution on ``worker_id`` under its new concurrency ``busy``."""
        table = self._worker_execs.get(worker_id)
        if not table:
            return
        for state in table.values():
            slowdown = self._slowdown(worker_id, state.request.func,
                                      busy, now)
            if slowdown == state.slowdown:
                continue  # rate unchanged: settlement can stay deferred
            elapsed = now - state.settled_ms
            if elapsed > 0.0:
                remaining = state.remaining_ms - elapsed / state.slowdown
                state.remaining_ms = remaining if remaining > 0.0 else 0.0
            state.settled_ms = now
            state.slowdown = slowdown
            if slowdown != 1.0:
                state.slowed = True
            self.sim.reschedule(state.event,
                                now + state.remaining_ms * slowdown)

    def _finish_progress_exec(self, request: Request,
                              container: Container) -> Optional[_ExecProgress]:
        """Retire a completed execution's ledger and retime its
        (now less-contended) neighbours."""
        state = self._execs.pop(request.req_id, None)
        if state is None:  # pragma: no cover - defensive
            return None
        worker = container.worker
        if worker is not None:
            table = self._worker_execs.get(worker.worker_id)
            if table is not None:
                table.pop(request.req_id, None)
                self._retime_worker(worker.worker_id, len(table),
                                    self.sim.now)
                if not table:
                    self._disarm_rate_boundary(worker.worker_id)
        return state

    def _arm_rate_boundary(self, worker_id: int) -> None:
        """Wake up at the next straggler-window edge that changes
        ``worker_id``'s execution rate (fault layer only). Armed only
        while executions are running there — an edge over an idle worker
        affects nothing until the next start samples the rate fresh."""
        if worker_id in self._rate_events:
            return
        edge = self._faults.next_exec_boundary(worker_id, self.sim.now)
        if edge is None:
            return
        self._rate_events[worker_id] = self.sim.at(
            edge, self._on_rate_boundary, worker_id)

    def _on_rate_boundary(self, worker_id: int) -> None:
        self._rate_events.pop(worker_id, None)
        table = self._worker_execs.get(worker_id)
        if table:
            self._retime_worker(worker_id, len(table), self.sim.now)
            self._arm_rate_boundary(worker_id)

    def _disarm_rate_boundary(self, worker_id: int) -> None:
        event = self._rate_events.pop(worker_id, None)
        if event is not None:
            event.cancel()

    def _drop_progress_worker(self, worker_id: int) -> None:
        """Forget progress state for a crashed worker (the completion
        events themselves are cancelled through ``_exec_events``)."""
        table = self._worker_execs.pop(worker_id, None)
        if table:
            for req_id in table:
                self._execs.pop(req_id, None)
        self._disarm_rate_boundary(worker_id)

    # ==================================================================
    # Waiter queues

    def _next_waiter_for(self, container: Container) -> Optional[_Waiter]:
        """Oldest unserved waiter this vacant container may serve."""
        committed = self._committed.get(container.container_id)
        if committed is not None:
            while committed:
                waiter = committed.popleft()
                if not waiter.served:
                    return waiter
            del self._committed[container.container_id]
        return self._next_unbound_waiter(container.spec.name)

    def _next_unbound_waiter(self, func: str) -> Optional[_Waiter]:
        """Oldest unserved, uncommitted waiter allowed to use any slot."""
        queue = self._waiters.get(func)
        if not queue:
            return None
        # Trim served waiters off the front to keep scans short.
        while queue and queue[0].served:
            queue.popleft()
        for waiter in queue:
            if (not waiter.served and waiter.may_use_busy
                    and waiter.committed is None and waiter.bound is None):
                return waiter
        return None

    # ==================================================================
    # Blocked provisions

    def _schedule_retry(self) -> None:
        if not self._retry_scheduled:
            self._retry_scheduled = True
            self.sim.schedule(0.0, self._retry_pending)

    def _retry_pending(self) -> None:
        self._retry_scheduled = False
        still_blocked: List[_PendingProvision] = []
        # Once a worker fails to free memory, stop hammering it this round:
        # later (FIFO) provisions are no more likely to fit, and probing
        # each pending entry would make retries quadratic under a burst.
        # Entries skipped this way keep their (possibly stale) abandoned
        # state and are re-checked on a later retry.
        stuck_workers: set = set()
        single_worker = len(self._workers) == 1
        pending = self._pending
        for i, pend in enumerate(pending):
            if self._faults is not None and not pend.worker.online:
                still_blocked.append(pend)
                continue
            if pend.worker.worker_id in stuck_workers:
                if single_worker:
                    still_blocked.extend(pending[i:])
                    break
                still_blocked.append(pend)
                continue
            if pend.abandoned or self._should_abandon(pend):
                self._pending_by_func[pend.spec.name] -= 1
                continue
            if self.policy.make_room(pend.worker, pend.spec.memory_mb,
                                     self.sim.now, for_func=pend.spec.name):
                self._pending_by_func[pend.spec.name] -= 1
                self._begin_provision(pend.spec, pend.worker, pend.waiter,
                                      pend.speculative, pend.prewarm)
            else:
                stuck_workers.add(pend.worker.worker_id)
                still_blocked.append(pend)
        self._pending = still_blocked

    def _should_abandon(self, pend: _PendingProvision) -> bool:
        """Skip blocked provisions that no longer have anyone to serve."""
        if pend.prewarm:
            return True  # stale prewarm: demand has moved on
        if pend.waiter is not None:
            return pend.waiter.served
        # Speculative: only useful while unserved waiters remain.
        return self.outstanding_waiters(pend.spec.name) == 0

    # ==================================================================
    # Misc plumbing

    def _log(self, kind: EventKind, func: str,
             container_id: Optional[int] = None,
             req_id: Optional[int] = None, detail: str = "",
             worker_id: Optional[int] = None) -> None:
        if self.event_log is not None:
            self.event_log.record(self.sim.now, kind, func, container_id,
                                  req_id, detail, worker_id)

    def _dispatch(self, func: str) -> Worker:
        workers = self._workers
        if self._faults is not None:
            # shard: cross-worker placement filters the pool to online workers
            online = [w for w in workers if w.online]
            if online:  # callers guard total outages; stay safe regardless
                workers = online
        if len(workers) == 1 or self.config.dispatch == "single":
            # shard: cross-worker placement picks the single candidate
            return workers[0]
        if self.config.dispatch == "hash":
            idx = zlib.crc32(func.encode()) % len(workers)
            # shard: cross-worker placement by function-name hash over the pool
            return workers[idx]
        # shard: cross-worker placement argmin over per-worker used memory
        return min(workers, key=lambda w: w.used_mb)

    def _sample_memory(self) -> None:
        if self._naive:
            # shard: cross-worker cluster-memory sum over the whole pool
            used = sum(w.used_mb for w in self._workers)
        else:
            # shard: cross-worker cluster-memory dirty flag set by Worker._charge
            if self._usage.dirty:
                self._used_mb_cache = sum(w.used_mb
                                          for w in self._workers)  # shard: cross-worker cluster-memory sum
                # shard: cross-worker cluster-memory dirty flag cleared after resampling
                self._usage.dirty = False
            used = self._used_mb_cache
        self.metrics.record_memory(self.sim.now, used)

    def _run_maintenance(self) -> None:
        self.policy.on_maintenance(self.sim.now)
        if self._pending:
            self._schedule_retry()

    def _finalize(self, requests: Sequence[Request]) -> None:
        # Under fault injection, requests may end accounted-failed instead
        # of completed; anything in neither state is a genuine deadlock.
        unfinished = [r for r in requests if not r.completed and not r.failed]
        if unfinished:
            raise RuntimeError(
                f"{len(unfinished)} requests never completed "
                f"(first: {unfinished[0]!r}); this indicates a scheduling "
                f"deadlock or an over-constrained configuration")
        # Count speculative containers that are still alive but were never
        # reused — wasted cold starts in hindsight (§3.2).
        # shard: cross-worker final speculative-waste audit over the whole pool
        for worker in self._workers:
            for c in worker.containers.values():
                if c.speculative and not c.served_any:
                    self.metrics.wasted_cold_starts += 1
        if self.recorder is not None:
            self.recorder.finish(self)


def simulate(functions: Iterable[FunctionSpec],
             requests: Sequence[Request],
             policy: OrchestrationPolicy,
             config: Optional[SimulationConfig] = None) -> SimulationResult:
    """One-shot convenience wrapper: build an orchestrator and run it."""
    return Orchestrator(functions, policy, config).run(requests)
