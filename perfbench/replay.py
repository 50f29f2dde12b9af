"""One replay of one trace, in a fresh interpreter.

``run.py`` starts this script once per trace, one at a time, and reads
the single JSON line it prints. A fresh process per replay keeps the
peak-memory figure free of the interpreter's baseline and of earlier
replays: it is the growth of the process's resident high-water mark
across the replay.

Usage: ``python3 perfbench/replay.py '<spec>'`` where ``<spec>`` is a JSON
object with ``workload``, ``trace_seed``, ``scale``, ``traced`` and
``compare_bare``.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402


#: Rounds of :func:`calibrate`'s loop: about 0.13 s on the development
#: machine.
CALIBRATION_ROUNDS = 150_000


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The loop runs no simulator code, so no change to the program can move
    it: it measures how fast the machine is running Python at the moment.
    Other tenants of a shared machine change that by a third within
    minutes, and a replay slows with it.
    """
    start = time.perf_counter()
    table: dict = {}
    heap: list = []
    for i in range(CALIBRATION_ROUNDS):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (table[key], i, [key]))
        if len(heap) > 256:
            heapq.heappop(heap)
    return time.perf_counter() - start


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_calls(obj, name: str, counts: dict) -> None:
    """Count calls of one method (the regime guards' two counters on an
    otherwise untraced replay)."""
    method = getattr(obj, name)
    counts[name] = 0

    def counted(*args):
        counts[name] += 1
        return method(*args)

    setattr(obj, name, counted)


def _guards(replay: workloads.Replay, result: dict, reschedules: int,
            retry_passes: int) -> dict:
    summary = result["summary"]
    guards = {"evictions": summary["evictions"],
              "worker_crashes": summary["worker_crashes"],
              "reschedules": reschedules, "retry_passes": retry_passes,
              "eventlog_records": 0, "audit_records": 0}
    if replay.observed:
        guards["eventlog_records"] = replay.log.recorded
        guards["audit_records"] = replay.audit.recorded
    return guards


def _replay(replay: workloads.Replay, tracer=None):
    """Replay once (inside the root span when traced). Returns the
    outcome, the seconds from the trace in memory to the summary out, and
    the growth of the resident high-water mark meanwhile; the outcome's
    digest and checks are computed after both are taken."""
    gc.collect()
    rss_before = _peak_rss_mb()
    with workloads.span(tracer, layers.ROOT):
        start = time.perf_counter()
        result, summary = replay.run(tracer)
        seconds = time.perf_counter() - start
    peak_mb = _peak_rss_mb() - rss_before
    return (workloads.outcome(result, summary, replay.packed.num_requests),
            seconds, peak_mb)


def untraced(workload, trace_seed: int, scale: float) -> dict:
    before = calibrate()
    start = time.perf_counter()
    trace = workloads.make_trace(workload, trace_seed, scale)
    config = workloads.make_config(workload, trace_seed, scale)
    replay = workloads.Replay(trace, config, workload.observed)
    setup_s = time.perf_counter() - start
    counts: dict = {}
    _count_calls(replay.orchestrator.sim, "reschedule", counts)
    _count_calls(replay.orchestrator, "_retry_pending", counts)
    result, wall_s, peak_mb = _replay(replay)
    return {
        "setup_s": setup_s, "wall_s": wall_s, "peak_mem_mb": peak_mb,
        "calibration_s": (before + calibrate()) / 2.0,
        "outcome": result, "trace": trace, "config": config,
        "guards": _guards(replay, result, counts["reschedule"],
                          counts["_retry_pending"]),
    }


def traced(workload, trace_seed: int, scale: float) -> dict:
    tracer = layers.LayerTracer()
    with tracer.span("traces.generate"):
        trace = workloads.make_trace(workload, trace_seed, scale)
    with tracer.span("traces.pack"):
        trace.packed()
    config = workloads.make_config(workload, trace_seed, scale)
    plain, wall_s, _ = _replay(workloads.Replay(trace, config,
                                                workload.observed))
    replay = workloads.Replay(trace, config, workload.observed)
    speculative = layers.instrument(tracer, replay.orchestrator,
                                    replay.observers)
    try:
        result, root_s, _ = _replay(replay, tracer)
    finally:
        tracer.restore()
    counts = tracer.counts
    counts["engine.events"] = replay.orchestrator.sim.processed
    counts["speculative.started"] = len(speculative)
    counts["speculative.served"] = sum(c.served_any for c in speculative)
    if workload.observed:
        counts["obs.eventlog.records"] = replay.log.recorded
        counts["obs.audit.records"] = replay.audit.recorded
        counts["obs.recorder.samples"] = len(replay.recorder.cluster)
    return {
        "wall_s": wall_s, "root_s": root_s,
        "outcome": result, "trace": trace, "config": config,
        "same_as_untraced": (result["digest"] == plain["digest"]
                             and result["summary"] == plain["summary"]),
        "layers": {"self_s": dict(tracer.self_s),
                   "calls": dict(tracer.calls), "counts": dict(counts)},
        "guards": _guards(replay, result,
                          tracer.calls["engine.reschedule"],
                          tracer.calls["retry"]),
    }


def replay_one(spec: dict) -> dict:
    """Run one spec; the returned record is what ``run.py`` aggregates."""
    workload = workloads.WORKLOADS[spec["workload"]]
    trace_seed = spec["trace_seed"]
    scale = spec.get("scale", 1.0)
    run = (traced if spec.get("traced") else untraced)(
        workload, trace_seed, scale)
    trace, config = run.pop("trace"), run.pop("config")
    record = dict(run, trace_seed=trace_seed,
                  packed_digest=trace.packed().digest(),
                  config=dataclasses.asdict(config))
    if spec.get("compare_bare"):
        bare = _replay(workloads.Replay(trace, config, observed=False))[0]
        record["same_as_bare"] = (
            bare["digest"] == run["outcome"]["digest"]
            and bare["summary"] == run["outcome"]["summary"])
    return record


def main(argv) -> int:
    print(json.dumps(replay_one(json.loads(argv[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
