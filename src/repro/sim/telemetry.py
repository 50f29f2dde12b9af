"""Run telemetry: streaming event sinks, request spans, time series.

The structured :class:`~repro.sim.eventlog.EventLog` answers "what did
the control plane decide?" for runs small enough to hold in memory. This
module scales that observability to full-size replays (100k+ requests)
and richer questions:

* **Event sinks** — :class:`EventLog` fans every event out to pluggable
  sinks (``EventLog(capacity=N)`` itself keeps the bounded most-recent
  window in memory). :class:`JsonlSink` streams the complete event log
  to disk as JSON Lines with O(1) memory; :class:`SpanBuilder` folds
  the stream into spans on the fly. Sinks are any object with
  ``emit(record)`` (and an optional ``close()``), so new consumers plug
  in without touching the simulator. The decision audit streams through
  the same :class:`EventSink` / :class:`JsonlSink` / :func:`read_jsonl`
  core with a different record encoder.
* **Request spans** — :class:`SpanBuilder` reconstructs each request's
  latency story (arrival → provision/wait → exec) and each container's
  lifecycle (provision windows, eviction) from the event stream, and
  :func:`chrome_trace` exports them in the Chrome ``trace_event`` JSON
  format, loadable in Perfetto or ``chrome://tracing`` with one track
  per worker (container slices) and one per function (request spans).
* **Time series** — :class:`TimeSeriesRecorder` samples per-function
  warm/busy/provisioning container counts, committed memory, and
  start-type rates at a fixed interval, producing series consumable by
  :mod:`repro.analysis` (``ascii_series``-ready point lists).

Telemetry is strictly opt-in and read-only: with no sinks and no
recorder attached a run takes the exact same code path as before, and
with them attached the simulation outcomes are bit-identical (sinks and
samplers observe, never mutate — pinned by the differential tests).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.sim.eventlog import Event, EventKind, split_cause

__all__ = [
    "EventSink", "JsonlSink", "SpanBuilder", "RequestSpan",
    "ContainerTrack", "ProvisionWindow", "TimeSeriesRecorder",
    "FunctionSeries", "build_spans", "chrome_trace", "write_chrome_trace",
    "event_to_dict", "event_from_dict", "read_events_jsonl", "read_jsonl",
]


# ======================================================================
# Event (de)serialization

def event_to_dict(event: Event) -> dict:
    """Compact JSON-ready dict of one event (``None``/empty fields omitted)."""
    d: dict = {"t": event.time_ms, "kind": event.kind.value,
               "func": event.func}
    if event.container_id is not None:
        d["cid"] = event.container_id
    if event.req_id is not None:
        d["rid"] = event.req_id
    if event.detail:
        d["detail"] = event.detail
    if event.worker_id is not None:
        d["wid"] = event.worker_id
    return d


def event_from_dict(d: dict) -> Event:
    """Inverse of :func:`event_to_dict`."""
    return Event(float(d["t"]), EventKind(d["kind"]), d["func"],
                 d.get("cid"), d.get("rid"), d.get("detail", ""),
                 d.get("wid"))


def read_jsonl(path: Union[str, Path],
               decode: Optional[Callable[[dict], object]] = None) -> list:
    """Load the records a :class:`JsonlSink` wrote, one per non-blank
    line, each passed through ``decode`` (None keeps the plain dicts)."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                record = json.loads(line)
                records.append(record if decode is None else decode(record))
    return records


def read_events_jsonl(path: Union[str, Path]) -> List[Event]:
    """Load an event stream written by :class:`JsonlSink`."""
    return read_jsonl(path, event_from_dict)


# ======================================================================
# Sinks

class EventSink:
    """Interface for record consumers attached to a
    :class:`~repro.sim.eventlog.RecordLog` (event log or decision audit).

    ``emit`` is called once per record, in simulation order; ``close``
    flushes/releases resources (idempotent). Sinks must never mutate
    simulator state — telemetry observes, it does not steer.
    """

    def emit(self, record) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class JsonlSink(EventSink):
    """Streams every record to ``path`` as JSON Lines, O(1) memory.

    ``encode`` turns a record into a JSON-ready dict (events by default;
    None writes records that already are one). The file is written
    through a plain text handle; ``close()`` (or context-manager exit)
    flushes it. Reload with :func:`read_events_jsonl` /
    :func:`read_jsonl` for a bit-exact round trip.
    """

    def __init__(self, path: Union[str, Path],
                 encode: Optional[Callable[[object], dict]] = event_to_dict):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w")
        self._encode = encode
        self.emitted = 0

    def emit(self, record) -> None:
        if self._encode is not None:
            record = self._encode(record)
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.emitted += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ======================================================================
# Spans

@dataclass
class ProvisionWindow:
    """One provisioning (or restore) interval of a container."""

    start_ms: float
    ready_ms: Optional[float] = None
    detail: str = ""          # bound / speculative / prewarm / restore


@dataclass
class ContainerTrack:
    """Lifecycle summary of one container, folded from its events."""

    container_id: int
    func: str
    worker_id: Optional[int] = None
    provisions: List[ProvisionWindow] = field(default_factory=list)
    evicted_ms: Optional[float] = None


@dataclass
class RequestSpan:
    """One request's latency decomposition (arrival → wait → exec)."""

    req_id: int
    func: str
    arrival_ms: float
    exec_start_ms: Optional[float] = None
    exec_end_ms: Optional[float] = None
    start_type: str = ""
    container_id: Optional[int] = None
    worker_id: Optional[int] = None
    #: The serving container's provisioning window (cold starts).
    provision_start_ms: Optional[float] = None
    provision_ready_ms: Optional[float] = None
    #: Times this request lost an in-flight execution to a worker crash
    #: (fault injection; 0 in failure-free runs).
    orphans: int = 0
    #: Realized execution slowdown (wall time / trace exec_ms) under the
    #: CPU-contention model; None when the run had no contention or the
    #: execution never ran slowed.
    slowdown: Optional[float] = None
    #: Proximate cold-start cause (``eviction:<did>``, ``crash``, ...)
    #: parsed off the provision stamp; empty for warm starts or runs
    #: without attribution attached.
    cause: str = ""

    @property
    def completed(self) -> bool:
        return self.exec_end_ms is not None

    @property
    def wait_ms(self) -> Optional[float]:
        if self.exec_start_ms is None:
            return None
        return self.exec_start_ms - self.arrival_ms

    @property
    def exec_ms(self) -> Optional[float]:
        if self.exec_end_ms is None or self.exec_start_ms is None:
            return None
        return self.exec_end_ms - self.exec_start_ms

    @property
    def service_ms(self) -> Optional[float]:
        if self.exec_end_ms is None:
            return None
        return self.exec_end_ms - self.arrival_ms


class SpanBuilder(EventSink):
    """Folds the lifecycle event stream into request spans and container
    tracks, incrementally (usable as a streaming sink).

    Working state is O(open requests + live containers); completed spans
    accumulate in :attr:`spans` in completion order.
    """

    def __init__(self) -> None:
        self.spans: List[RequestSpan] = []
        self.containers: Dict[int, ContainerTrack] = {}
        self._open: Dict[int, RequestSpan] = {}
        #: Cluster incidents: (time_ms, kind value, worker_id) for worker
        #: crash / restart events (fault injection).
        self.incidents: List[tuple] = []

    # -- helpers -------------------------------------------------------

    def _track(self, event: Event) -> ContainerTrack:
        track = self.containers.get(event.container_id)
        if track is None:
            track = ContainerTrack(event.container_id, event.func,
                                   event.worker_id)
            self.containers[event.container_id] = track
        if track.worker_id is None:
            track.worker_id = event.worker_id
        return track

    # -- EventSink -----------------------------------------------------

    def emit(self, event: Event) -> None:
        kind = event.kind
        if kind is EventKind.ARRIVAL:
            self._open[event.req_id] = RequestSpan(
                event.req_id, event.func, event.time_ms)
        elif kind in (EventKind.PROVISION_START, EventKind.RESTORE_START):
            detail = event.detail or (
                "restore" if kind is EventKind.RESTORE_START else "")
            self._track(event).provisions.append(
                ProvisionWindow(event.time_ms, detail=detail))
        elif kind is EventKind.CONTAINER_READY:
            track = self._track(event)
            if track.provisions and track.provisions[-1].ready_ms is None:
                track.provisions[-1].ready_ms = event.time_ms
        elif kind is EventKind.EXEC_START:
            span = self._open.get(event.req_id)
            if span is None:    # stream started mid-run (ring overflow)
                span = RequestSpan(event.req_id, event.func, event.time_ms)
                self._open[event.req_id] = span
            span.exec_start_ms = event.time_ms
            span.start_type = event.detail
            span.container_id = event.container_id
            span.worker_id = event.worker_id
            if event.detail == "cold":
                track = self.containers.get(event.container_id)
                if track is not None and track.provisions:
                    window = track.provisions[-1]
                    span.provision_start_ms = window.start_ms
                    span.provision_ready_ms = window.ready_ms
                    span.cause = split_cause(window.detail)[1]
        elif kind is EventKind.EXEC_END:
            span = self._open.pop(event.req_id, None)
            if span is not None:
                span.exec_end_ms = event.time_ms
                if event.detail.startswith("slowdown="):
                    span.slowdown = float(event.detail[9:])
                self.spans.append(span)
        elif kind is EventKind.EVICTION:
            self._track(event).evicted_ms = event.time_ms
        elif kind in (EventKind.WORKER_CRASH, EventKind.WORKER_RESTART):
            self.incidents.append((event.time_ms, kind.value,
                                   event.worker_id))
        elif kind is EventKind.REQUEST_ORPHANED:
            span = self._open.get(event.req_id)
            if span is not None:
                span.orphans += 1

    def finish(self) -> List[RequestSpan]:
        """All spans (completed plus any still open), by request id."""
        return sorted(self.spans + list(self._open.values()),
                      key=lambda s: s.req_id)


def build_spans(events: Iterable[Event]) -> List[RequestSpan]:
    """Fold a complete event sequence into request spans."""
    builder = SpanBuilder()
    for event in events:
        builder.emit(event)
    return builder.finish()


# ======================================================================
# Chrome trace export

#: Function tracks live in their own pid range, clear of worker ids.
_FUNCTION_PID_BASE = 1_000_000


def _us(ms: float) -> float:
    return ms * 1000.0


def chrome_trace(source: Union[SpanBuilder, Iterable[Event]],
                 instants: Iterable[dict] = ()) -> dict:
    """Export spans as Chrome ``trace_event`` JSON (Perfetto-loadable).

    Layout: one *process* per worker whose *threads* are its containers
    (provision and exec slices, eviction instants), plus one process per
    function carrying its request spans as async events (they overlap,
    which synchronous slices cannot). Attributed runs carry the
    cold-start ``cause`` stamp as an arg on provision slices and cold
    request spans.

    ``instants`` adds caller-supplied global markers — dicts with
    ``time_ms`` and ``name`` plus optional ``args`` — e.g. the
    high-regret eviction markers from
    :func:`repro.analysis.attribution.regret_instants`.
    """
    if isinstance(source, SpanBuilder):
        builder = source
    else:
        builder = SpanBuilder()
        for event in source:
            builder.emit(event)

    events: List[dict] = []
    worker_pids = set()

    def worker_pid(worker_id: Optional[int]) -> int:
        pid = 0 if worker_id is None else int(worker_id)
        worker_pids.add(pid)
        return pid

    # Container lifecycle on the worker tracks.
    for track in sorted(builder.containers.values(),
                        key=lambda t: t.container_id):
        pid = worker_pid(track.worker_id)
        tid = track.container_id
        events.append({"ph": "M", "pid": pid, "tid": tid,
                       "name": "thread_name",
                       "args": {"name": f"c{track.container_id} "
                                        f"{track.func}"}})
        for window in track.provisions:
            ready = (window.ready_ms if window.ready_ms is not None
                     else window.start_ms)
            detail, cause = split_cause(window.detail)
            window_args = {"detail": detail}
            if cause:
                window_args["cause"] = cause
            events.append({
                "ph": "X", "pid": pid, "tid": tid, "cat": "provision",
                "name": f"provision {track.func}",
                "ts": _us(window.start_ms),
                "dur": _us(max(ready - window.start_ms, 0.0)),
                "args": window_args,
            })
        if track.evicted_ms is not None:
            events.append({"ph": "i", "pid": pid, "tid": tid,
                           "cat": "lifecycle", "name": "evict",
                           "ts": _us(track.evicted_ms), "s": "t"})

    # Fault incidents as process-scoped instants on the worker tracks.
    for time_ms, kind, worker_id in builder.incidents:
        events.append({"ph": "i", "pid": worker_pid(worker_id), "tid": 0,
                       "cat": "fault", "name": kind,
                       "ts": _us(time_ms), "s": "p"})

    # Exec slices on worker tracks + per-function async request spans.
    func_pids: Dict[str, int] = {}
    for span in builder.finish():
        func_pid = func_pids.get(span.func)
        if func_pid is None:
            func_pid = _FUNCTION_PID_BASE + len(func_pids)
            func_pids[span.func] = func_pid
        if span.exec_start_ms is not None and span.exec_ms is not None:
            events.append({
                "ph": "X", "pid": worker_pid(span.worker_id),
                "tid": span.container_id, "cat": "exec",
                "name": f"{span.func} r{span.req_id} ({span.start_type})",
                "ts": _us(span.exec_start_ms), "dur": _us(span.exec_ms),
                "args": {"req_id": span.req_id,
                         "start_type": span.start_type,
                         "wait_ms": span.wait_ms},
            })
        if span.exec_end_ms is None:
            continue
        name = f"r{span.req_id} ({span.start_type})"
        common = {"pid": func_pid, "tid": 0, "cat": "request",
                  "id": span.req_id, "name": name}
        begin_args = {"wait_ms": span.wait_ms,
                      "exec_ms": span.exec_ms,
                      "container": span.container_id}
        if span.cause:
            begin_args["cause"] = span.cause
        if span.orphans:
            begin_args["orphans"] = span.orphans
        events.append({**common, "ph": "b", "ts": _us(span.arrival_ms),
                       "args": begin_args})
        events.append({**common, "ph": "e", "ts": _us(span.exec_end_ms)})

    # Caller-supplied global markers (e.g. high-regret evictions).
    for marker in instants:
        instant = {"ph": "i", "pid": worker_pid(marker.get("worker_id")),
                   "tid": 0, "cat": "outcome", "name": marker["name"],
                   "ts": _us(marker["time_ms"]), "s": "p"}
        if marker.get("args"):
            instant["args"] = dict(marker["args"])
        events.append(instant)

    meta: List[dict] = []
    for pid in sorted(worker_pids):
        meta.append({"ph": "M", "pid": pid, "name": "process_name",
                     "args": {"name": f"worker {pid}"}})
    for func, pid in sorted(func_pids.items(), key=lambda kv: kv[1]):
        meta.append({"ph": "M", "pid": pid, "name": "process_name",
                     "args": {"name": f"function {func}"}})
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: Union[str, Path],
                       source: Union[SpanBuilder, Iterable[Event]],
                       instants: Iterable[dict] = ()) -> dict:
    """Serialize :func:`chrome_trace` of ``source`` to ``path``."""
    trace = chrome_trace(source, instants=instants)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(trace, fh)
    return trace


# ======================================================================
# Time series

_START_TYPES = ("warm", "delayed", "cold")


class FunctionSeries:
    """Fixed-interval samples for one function (or the whole cluster)."""

    __slots__ = ("times", "idle", "busy", "provisioning", "warm",
                 "memory_mb", "starts")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.idle: List[int] = []
        self.busy: List[int] = []
        self.provisioning: List[int] = []
        #: idle + busy — the paper's per-function warm pool size.
        self.warm: List[int] = []
        self.memory_mb: List[float] = []
        #: Starts *begun* since the previous sample, by start type.
        self.starts: Dict[str, List[int]] = {t: [] for t in _START_TYPES}

    def append(self, time_ms: float, idle: int, busy: int,
               provisioning: int, memory_mb: float,
               starts: Dict[str, int]) -> None:
        self.times.append(time_ms)
        self.idle.append(idle)
        self.busy.append(busy)
        self.provisioning.append(provisioning)
        self.warm.append(idle + busy)
        self.memory_mb.append(memory_mb)
        for start_type in _START_TYPES:
            self.starts[start_type].append(starts.get(start_type, 0))

    def __len__(self) -> int:
        return len(self.times)

    def points(self, metric: str) -> List[tuple]:
        """``(time_ms, value)`` pairs for one metric —
        :func:`repro.analysis.plot.ascii_series` input. ``metric`` is a
        series name or a start type (``warm_starts`` / ``cold_starts`` /
        ``delayed_starts``)."""
        if metric.endswith("_starts"):
            values = self.starts[metric[:-len("_starts")]]
        else:
            values = getattr(self, metric)
        return list(zip(self.times, values))

    def start_rate_per_sec(self, start_type: str,
                           interval_ms: float) -> List[tuple]:
        """``(time_ms, starts/sec)`` pairs for one start type."""
        scale = 1000.0 / interval_ms
        return [(t, n * scale)
                for t, n in zip(self.times, self.starts[start_type])]

    def as_dict(self) -> dict:
        return {
            "times_ms": list(self.times),
            "idle": list(self.idle),
            "busy": list(self.busy),
            "provisioning": list(self.provisioning),
            "warm": list(self.warm),
            "memory_mb": list(self.memory_mb),
            "starts": {t: list(v) for t, v in self.starts.items()},
        }


class TimeSeriesRecorder:
    """Samples cluster and per-function state at a fixed interval.

    Attach via ``Orchestrator(..., recorder=...)``: the orchestrator
    notifies it of every execution start (start-type accounting) and
    samples it every ``interval_ms`` of virtual time plus once at run
    end. Sampling is read-only, so recorded runs stay bit-identical to
    unrecorded ones.

    Per-function series are created lazily the first time a function has
    a container (or a start) and sampled on every later tick, so an
    idle-forever function costs nothing.
    """

    def __init__(self, interval_ms: float = 1_000.0):
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        self.interval_ms = float(interval_ms)
        self.cluster = FunctionSeries()
        self.functions: Dict[str, FunctionSeries] = {}
        self._pending: Dict[str, Dict[str, int]] = {}
        self._pending_cluster: Dict[str, int] = {}

    # -- orchestrator hooks --------------------------------------------

    def note_start(self, func: str, start_type: str, now: float) -> None:
        """Record one execution start (called by the orchestrator)."""
        counts = self._pending.get(func)
        if counts is None:
            counts = self._pending[func] = {}
        counts[start_type] = counts.get(start_type, 0) + 1
        self._pending_cluster[start_type] = \
            self._pending_cluster.get(start_type, 0) + 1

    def sample(self, orchestrator) -> None:
        """Take one sample of ``orchestrator``'s current state."""
        now = orchestrator.now
        if self.cluster.times and self.cluster.times[-1] == now:
            return  # e.g. final flush landing on a periodic tick
        per_func: Dict[str, List] = {}
        cluster_mb = 0.0
        for worker in orchestrator.workers():
            cluster_mb += worker.used_mb
            for func in worker.all_funcs():
                row = per_func.get(func)
                if row is None:
                    row = per_func[func] = [0, 0, 0, 0.0]
                row[0] += worker.idle_count(func)
                row[1] += worker.busy_count(func)
                row[2] += worker.provisioning_count(func)
                row[3] += sum(c.memory_mb for c in worker.of_func(func))
        idle = sum(row[0] for row in per_func.values())
        busy = sum(row[1] for row in per_func.values())
        provisioning = sum(row[2] for row in per_func.values())
        self.cluster.append(now, idle, busy, provisioning, cluster_mb,
                            self._pending_cluster)
        self._pending_cluster = {}
        # Sample every function that is live now, has pending start
        # counts, or was ever seen before (series stay contiguous).
        funcs = set(per_func) | set(self.functions) | set(self._pending)
        for func in sorted(funcs):
            series = self.functions.get(func)
            if series is None:
                series = self.functions[func] = FunctionSeries()
            row = per_func.get(func, (0, 0, 0, 0.0))
            series.append(now, row[0], row[1], row[2], row[3],
                          self._pending.get(func, {}))
        self._pending = {}

    def finish(self, orchestrator) -> None:
        """Final flush at run end (captures the closing state)."""
        self.sample(orchestrator)

    # -- export --------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "interval_ms": self.interval_ms,
            "cluster": self.cluster.as_dict(),
            "functions": {f: s.as_dict()
                          for f, s in sorted(self.functions.items())},
        }

    def save_json(self, path: Union[str, Path]) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh)
