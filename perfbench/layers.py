"""Per-layer timing of one replay, measured from outside the simulator.

:class:`LayerTracer` wraps the public methods of the objects a replay
builds (and, for objects the simulator creates on its own, the methods of
their classes) with spans. Every span records its caller's layer key, so
a layer's *self time* is its span time minus the time of the spans it
called. The spans of one replay therefore partition the root span: the
self times of all keys add up to the root's duration.

Nothing in ``src/`` is changed. Instance wrappers live in the instance
``__dict__`` and shadow the class method; class patches are undone by
:meth:`LayerTracer.restore`. Wrappers pass arguments and results through
unchanged, so a traced replay produces the same outcomes as an untraced
one (the benchmark checks this on every traced run).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.window import SlidingWindow
from repro.obs import metrics as obs_metrics
from repro.sim.contention import ContentionModel
from repro.sim.faults import FaultPlan

#: Key of the span around one whole replay (trace in memory to summary out).
ROOT = "root"

#: Orchestrator callbacks scheduled on the engine, by layer key.
ORCHESTRATOR_CALLBACKS = {
    "orchestrator.arrival": ("_dispatch_batch", "_on_arrival"),
    "orchestrator.complete": ("_on_complete",),
    "orchestrator.ready": ("_on_ready",),
    "retry": ("_retry_pending",),
    "orchestrator.other": ("run", "_run_maintenance", "_sample_memory",
                           "_on_worker_crash", "_on_worker_restart",
                           "_on_reassigned", "_rebind_waiter",
                           "_on_rate_boundary"),
}
#: The PolicyContext facade the policy calls back into.
ORCHESTRATOR_CONTEXT = ("evict", "compress", "prewarm", "speculate_for",
                        "waiting_functions", "provisions_in_flight",
                        "outstanding_waiters", "oldest_waiter_age_ms",
                        "spec_of", "workers")
ENGINE_METHODS = ("run", "at", "schedule", "reschedule", "every")
WORKER_METHODS = ("add", "remove", "recharge", "crash", "restart", "reserve",
                  "reservation", "of_func", "idle_of", "busy_of",
                  "provisioning_of", "compressed_of", "func_count",
                  "idle_count", "busy_count", "provisioning_count",
                  "compressed_count", "warm_count", "slot_available",
                  "evictable", "evictable_items", "evictable_mb",
                  "oldest_evictable_ms", "state_mb", "all_funcs",
                  "_on_container_event")
POLICY_HOOKS = ("on_request_arrival", "on_warm_start", "on_delayed_start",
                "on_cold_start", "on_provision_started",
                "on_container_ready", "on_request_complete", "on_eviction",
                "on_worker_crash", "on_worker_restart",
                "provision_cost_ms", "restore_cost_ms")
WINDOW_METHODS = ("add", "is_empty", "values", "last", "mean", "percentile",
                  "median", "estimate")
FAULT_METHODS = ("class_of", "worker_capacity_mb", "exec_multiplier",
                 "cold_multiplier", "has_exec_stragglers",
                 "next_exec_boundary", "cold_finish_ms", "crashes_sorted")
METRICS_CLASS_METHODS = (
    (obs_metrics.Counter, ("inc",)),
    (obs_metrics.Gauge, ("set", "inc", "dec")),
    (obs_metrics.Histogram, ("observe",)),
    (obs_metrics.MetricsRegistry, ("counter", "gauge", "histogram")),
    # The labelled handles the registry hands out.
    (obs_metrics._Family, ("labels", "inc", "dec", "set", "observe")),
)

Observer = Callable[[Optional[str], tuple, object], None]


class LayerTracer:
    """Span stack with per-key self time and call counts.

    ``self_s[key]`` is the time spent in spans of ``key`` minus the time
    of their child spans; ``calls[key]`` counts the spans. A call that
    re-enters the key of the span directly enclosing it (a method of one
    layer calling another method of the same layer) opens no new span, so
    counts are layer entries, not method invocations.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._keys: List[Optional[str]] = [None]
        self._child: List[float] = [0.0]
        self._patches: list = []

    # ------------------------------------------------------------------
    # Spans

    def wrap(self, fn: Callable, key: str,
             observe: Optional[Observer] = None) -> Callable:
        """``fn`` inside a span of ``key``; ``observe(parent_key, args,
        result)`` runs after the span closes (its cost lands on the
        parent, like every other piece of tracing overhead)."""
        keys, child = self._keys, self._child
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = keys[-1]
            if parent == key:
                return fn(*args, **kwargs)
            calls[key] += 1
            keys.append(key)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                keys.pop()
                self_s[key] += elapsed - child.pop()
                child[-1] += elapsed
            if observe is not None:
                observe(parent, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", key)
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, key: str):
        """A span of ``key`` around a block (set-up steps and folds)."""
        keys, child = self._keys, self._child
        self.calls[key] += 1
        keys.append(key)
        child.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            keys.pop()
            self.self_s[key] += elapsed - child.pop()
            child[-1] += elapsed

    # ------------------------------------------------------------------
    # Installing spans

    def wrap_methods(self, obj, names: Iterable[str], key: str,
                     observers: Optional[Dict[str, Observer]] = None
                     ) -> None:
        """Shadow ``obj``'s bound methods with traced ones."""
        observers = observers or {}
        for name in names:
            method = getattr(obj, name, None)
            if method is None:
                continue
            setattr(obj, name, self.wrap(method, key, observers.get(name)))

    def patch_class(self, cls, names: Iterable[str], key: str) -> None:
        """Trace ``cls``'s methods for every instance until
        :meth:`restore`."""
        for name in names:
            original = cls.__dict__.get(name)
            if original is None:
                continue
            self._patches.append((cls, name, original))
            setattr(cls, name, self.wrap(original, key))

    def restore(self) -> None:
        """Undo every class patch (instance wrappers die with the
        replay's objects)."""
        while self._patches:
            cls, name, original = self._patches.pop()
            setattr(cls, name, original)


def instrument(tracer: LayerTracer, orchestrator, observers=()) -> list:
    """Install spans on one built replay; returns the list that collects
    speculative containers (for the useful-speculation ratio)."""
    counts = tracer.counts
    orch = orchestrator
    for key, names in ORCHESTRATOR_CALLBACKS.items():
        tracer.wrap_methods(orch, names, key)

    def note_funcs(parent, args, result):
        counts["policy.maintenance.funcs_scanned"] += len(result)

    def note_in_flight(parent, args, result):
        counts["policy.in_flight.calls"] += 1

    tracer.wrap_methods(orch, ORCHESTRATOR_CONTEXT, "orchestrator.ctx",
                        {"waiting_functions": note_funcs,
                         "provisions_in_flight": note_in_flight})
    sim = orch.sim
    for name in ENGINE_METHODS:
        tracer.wrap_methods(sim, (name,), "engine." + name)
    for worker in orch.workers():
        tracer.wrap_methods(worker, WORKER_METHODS, "worker")

    policy = orch.policy
    speculative: list = []

    def note_decision(parent, args, result):
        counts["policy.decisions." + result.action.value] += 1

    def note_room(parent, args, result):
        if not result:
            counts["policy.make_room.failed"] += 1
        if parent == "retry":
            counts["retry.probes"] += 1
            if result:
                counts["retry.started"] += 1

    def note_rank(parent, args, result):
        counts["policy.rank.candidates"] += len(args[0])

    def note_provision(parent, args, result):
        if args[0].speculative:
            speculative.append(args[0])

    tracer.wrap_methods(policy, ("scale",), "policy.scale",
                        {"scale": note_decision})
    tracer.wrap_methods(policy, ("make_room",), "policy.make_room",
                        {"make_room": note_room})
    tracer.wrap_methods(policy, ("priorities",), "policy.rank",
                        {"priorities": note_rank})
    tracer.wrap_methods(policy, ("on_maintenance",), "policy.maintenance")
    tracer.wrap_methods(policy, POLICY_HOOKS, "policy.hooks",
                        {"on_provision_started": note_provision})

    tracer.patch_class(SlidingWindow, WINDOW_METHODS, "window")
    tracer.patch_class(ContentionModel, ("slowdown",), "contention")
    tracer.patch_class(FaultPlan, FAULT_METHODS, "faults")
    for obj in observers:
        _instrument_observer(tracer, obj)
    return speculative


def _instrument_observer(tracer: LayerTracer, obj) -> None:
    from repro.obs import CauseTracker, DecisionAudit, MetricsRegistry
    from repro.sim.eventlog import EventLog
    from repro.sim.telemetry import JsonlSink, TimeSeriesRecorder

    if isinstance(obj, EventLog):
        tracer.wrap_methods(obj, ("record",), "obs.eventlog")
    elif isinstance(obj, JsonlSink):
        tracer.wrap_methods(obj, ("emit",), "obs.jsonl")
    elif isinstance(obj, DecisionAudit):
        tracer.wrap_methods(obj, ("emit",), "obs.audit")
    elif isinstance(obj, CauseTracker):
        tracer.wrap_methods(obj, ("begin_provision", "note_removal",
                                  "note_crash"), "obs.attribution")
    elif isinstance(obj, TimeSeriesRecorder):
        tracer.wrap_methods(obj, ("note_start", "sample", "finish"),
                            "obs.recorder")
    elif isinstance(obj, MetricsRegistry):
        for cls, names in METRICS_CLASS_METHODS:
            tracer.patch_class(cls, names, "obs.metrics")
    else:  # pragma: no cover - programming error
        raise TypeError(f"no spans defined for {type(obj).__name__}")


#: The per-layer metrics a traced run reports, with their units.
LAYER_METRICS = (
    ("traces.generate_s", "s"), ("traces.pack_s", "s"),
    ("engine.self_s", "s"), ("engine.events", "count"),
    ("engine.schedules", "count"), ("engine.reschedules", "count"),
    ("orchestrator.self_s", "s"), ("orchestrator.arrival_s", "s"),
    ("orchestrator.complete_s", "s"), ("orchestrator.ready_s", "s"),
    ("retry.passes", "count"), ("retry.probes", "count"),
    ("retry.self_s", "s"), ("retry.yield", "ratio"),
    ("worker.calls", "count"), ("worker.self_s", "s"),
    ("policy.scale.calls", "count"), ("policy.scale_s", "s"),
    ("policy.decisions.cold", "count"), ("policy.decisions.queue", "count"),
    ("policy.decisions.speculate", "count"),
    ("policy.make_room.calls", "count"), ("policy.make_room_s", "s"),
    ("policy.make_room.fail_ratio", "ratio"),
    ("policy.rank.calls", "count"), ("policy.rank.candidates", "count"),
    ("policy.rank_s", "s"),
    ("policy.maintenance.ticks", "count"), ("policy.maintenance_s", "s"),
    ("policy.maintenance.funcs_scanned", "count"),
    ("policy.in_flight.calls", "count"),
    ("policy.hooks_s", "s"), ("policy.speculation.useful_ratio", "ratio"),
    ("window.calls", "count"), ("window.self_s", "s"),
    ("contention.calls", "count"), ("contention.self_s", "s"),
    ("faults.calls", "count"), ("faults.self_s", "s"),
    ("obs.eventlog.records", "count"), ("obs.eventlog_s", "s"),
    ("obs.jsonl_s", "s"), ("obs.audit.records", "count"),
    ("obs.audit_s", "s"), ("obs.metrics_s", "s"),
    ("obs.attribution_s", "s"), ("obs.recorder.samples", "count"),
    ("obs.recorder_s", "s"), ("obs.resolve_s", "s"),
    ("analysis.report_s", "s"), ("trace.overhead_x", "x"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(self_s: Dict[str, float], calls: Dict[str, float],
                  counts: Dict[str, float], root_s: float,
                  untraced_s: float) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value from pooled span totals.

    ``root_s`` is the traced replays' total duration, ``untraced_s`` the
    same replays' total without spans."""
    s = defaultdict(float, self_s)
    c = defaultdict(float, calls)
    n = defaultdict(float, counts)

    def layer(prefix: str) -> float:
        return sum(value for key, value in s.items()
                   if key == prefix or key.startswith(prefix + "."))

    return {
        "traces.generate_s": s["traces.generate"],
        "traces.pack_s": s["traces.pack"],
        "engine.self_s": layer("engine"),
        "engine.events": n["engine.events"],
        "engine.schedules": c["engine.at"],
        "engine.reschedules": c["engine.reschedule"],
        "orchestrator.self_s": layer("orchestrator"),
        "orchestrator.arrival_s": s["orchestrator.arrival"],
        "orchestrator.complete_s": s["orchestrator.complete"],
        "orchestrator.ready_s": s["orchestrator.ready"],
        "retry.passes": c["retry"],
        "retry.probes": n["retry.probes"],
        "retry.self_s": s["retry"],
        "retry.yield": _ratio(n["retry.started"], n["retry.probes"]),
        "worker.calls": c["worker"],
        "worker.self_s": s["worker"],
        "policy.scale.calls": c["policy.scale"],
        "policy.scale_s": s["policy.scale"],
        "policy.decisions.cold": n["policy.decisions.cold"],
        "policy.decisions.queue": n["policy.decisions.queue"],
        "policy.decisions.speculate": n["policy.decisions.speculate"],
        "policy.make_room.calls": c["policy.make_room"],
        "policy.make_room_s": s["policy.make_room"],
        "policy.make_room.fail_ratio": _ratio(
            n["policy.make_room.failed"], c["policy.make_room"]),
        "policy.rank.calls": c["policy.rank"],
        "policy.rank.candidates": n["policy.rank.candidates"],
        "policy.rank_s": s["policy.rank"],
        "policy.maintenance.ticks": c["policy.maintenance"],
        "policy.maintenance_s": s["policy.maintenance"],
        "policy.maintenance.funcs_scanned":
            n["policy.maintenance.funcs_scanned"],
        "policy.in_flight.calls": n["policy.in_flight.calls"],
        "policy.hooks_s": s["policy.hooks"],
        "policy.speculation.useful_ratio": _ratio(
            n["speculative.served"], n["speculative.started"]),
        "window.calls": c["window"],
        "window.self_s": s["window"],
        "contention.calls": c["contention"],
        "contention.self_s": s["contention"],
        "faults.calls": c["faults"],
        "faults.self_s": s["faults"],
        "obs.eventlog.records": n["obs.eventlog.records"],
        "obs.eventlog_s": s["obs.eventlog"],
        "obs.jsonl_s": s["obs.jsonl"],
        "obs.audit.records": n["obs.audit.records"],
        "obs.audit_s": s["obs.audit"],
        "obs.metrics_s": s["obs.metrics"],
        "obs.attribution_s": s["obs.attribution"],
        "obs.recorder.samples": n["obs.recorder.samples"],
        "obs.recorder_s": s["obs.recorder"],
        "obs.resolve_s": s["obs.resolve"],
        "analysis.report_s": s["analysis.report"],
        "trace.overhead_x": _ratio(root_s, untraced_s),
    }
