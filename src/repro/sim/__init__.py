"""Discrete-event FaaS cluster simulation substrate."""

from repro.sim.config import SimulationConfig
from repro.sim.container import Container, ContainerState
from repro.sim.contention import ContentionModel
from repro.sim.engine import Simulator
from repro.sim.eventlog import Event, EventKind, EventLog
from repro.sim.faults import (CrashSpec, FaultPlan, RetryPolicy,
                              StragglerSpec, WorkerClassSpec, random_plan)
from repro.sim.function import FunctionSpec, LayerStack
from repro.sim.metrics import MetricsCollector, SimulationResult
from repro.sim.orchestrator import Orchestrator, simulate
from repro.sim.request import Request, StartType
from repro.sim.telemetry import (EventSink, JsonlSink, RequestSpan,
                                 SpanBuilder, TimeSeriesRecorder, build_spans,
                                 chrome_trace, read_events_jsonl,
                                 write_chrome_trace)
from repro.sim.worker import Worker

__all__ = [
    "Container", "ContainerState", "ContentionModel", "CrashSpec",
    "Event", "EventKind",
    "EventLog", "EventSink", "FaultPlan", "FunctionSpec", "JsonlSink",
    "LayerStack", "MetricsCollector", "Orchestrator", "Request",
    "RequestSpan", "RetryPolicy", "SimulationConfig",
    "SimulationResult", "Simulator", "SpanBuilder", "StartType",
    "StragglerSpec", "TimeSeriesRecorder", "Worker", "WorkerClassSpec",
    "build_spans", "chrome_trace", "random_plan", "read_events_jsonl",
    "simulate", "write_chrome_trace",
]
