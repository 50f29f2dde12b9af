"""The replay benchmark: one command, three workloads, two kinds of run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload azure-paper --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans installed;
``--trace 1`` replays under :mod:`layers`' spans and reports the
per-layer metrics. Either way the run checks every replay's outcome
(conservation, determinism, inert observers and spans) and the
workload's regime guards, prints a human-readable report, and ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

Each replay runs in its own interpreter (``replay.py``), one at a time.
``README.md`` describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REPLAY = os.path.join(HERE, "replay.py")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

#: Traces a traced run replays (the first ones of the run's set): enough
#: for every layer to show, few enough that the slowest workload's traced
#: run stays well inside the time limit.
TRACED_TRACES = 3
#: Longest a single replay process may take.
CHILD_TIMEOUT_S = 170.0

#: :func:`replay.calibrate`'s time on the development machine. Host
#: times are reported at this machine speed: each replay's times are
#: scaled by this over the calibration measured around it.
REFERENCE_CALIBRATION_S = 0.13

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_mem_mb", "MB"),
              ("sim_cold_ratio", "ratio"), ("sim_overhead_ratio", "ratio"),
              ("sim_completed_ratio", "ratio"))


class ReplayFailed(Exception):
    """A replay process crashed, timed out or printed no record."""


def run_child(spec: dict) -> dict:
    """Run one replay in a fresh interpreter and return its record."""
    try:
        proc = subprocess.run(
            [sys.executable, REPLAY, json.dumps(spec)], cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ReplayFailed(f"timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ReplayFailed(f"exit {proc.returncode}: {tail[0]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise ReplayFailed("printed no record") from exc


def source_digest() -> str:
    """sha256 over ``src/``'s Python files: identifies the code measured
    even where there is no git metadata."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def commit() -> str:
    """HEAD's commit id read from ``.git`` in the checkout, if any."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def guard_failures(workload, guards: Dict[str, float]) -> List[str]:
    """The regime guards that do not hold (empty when the workload still
    exercises what it was chosen for)."""
    rules = {
        "azure-paper": (("evictions > 0", guards["evictions"] > 0),
                        ("engine.reschedules == 0",
                         guards["reschedules"] == 0)),
        "fc-cluster": (("worker crashes > 0", guards["worker_crashes"] > 0),
                       ("engine.reschedules > 0", guards["reschedules"] > 0),
                       ("retry.passes > 0", guards["retry_passes"] > 0)),
        "azure-observed": (("obs.eventlog.records > 0",
                            guards["eventlog_records"] > 0),
                           ("obs.audit.records > 0",
                            guards["audit_records"] > 0)),
    }[workload.name]
    return [name for name, holds in rules if not holds]


def check_record(record: dict, traced: bool) -> List[str]:
    """Correctness problems of one replay's record."""
    problems = []
    if not record["outcome"]["conserved"]:
        problems.append("conservation: completed + failed requests do not "
                        "cover each request id exactly once")
    if record.get("same_as_bare") is False:
        problems.append("observers changed the simulated outcome")
    if traced and not record["same_as_untraced"]:
        problems.append("spans changed the simulated outcome")
    return problems


def _sum(records: List[dict], field: str, key: str) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for record in records:
        for name, value in record[field][key].items():
            total[name] = total.get(name, 0.0) + value
    return total


def _calibrated(record: dict, key: str) -> float:
    return record[key] * REFERENCE_CALIBRATION_S / record["calibration_s"]


def end_to_end(passes: List[List[dict]]) -> Dict[str, float]:
    """End-to-end metrics of an untraced run: timings over every replay,
    at the reference machine speed; simulated outcomes pooled over the
    first pass's traces."""
    first = passes[0]
    replays = [record for records in passes for record in records]
    outcomes = [record["outcome"] for record in first]
    completed = sum(o["completed"] for o in outcomes)
    overhead = sum(o["summary"]["avg_overhead_ratio"] * o["completed"]
                   for o in outcomes)
    return {
        "wall_s": statistics.median(
            statistics.fmean(_calibrated(r, "wall_s") for r in records)
            for records in passes),
        "setup_s": statistics.median(_calibrated(r, "setup_s")
                                     for r in replays),
        "peak_mem_mb": statistics.median(r["peak_mem_mb"] for r in replays),
        "sim_cold_ratio": sum(o["cold"] for o in outcomes) / completed,
        "sim_overhead_ratio": overhead / completed,
        "sim_completed_ratio": completed / sum(o["requests"]
                                               for o in outcomes),
    }


def measure(name: str, seed: int, seconds: float, traced: bool,
            scale: float = 1.0,
            out: Callable[[str], None] = print) -> dict:
    """Run one workload; returns the result object the last line
    prints."""
    # Imported here, not at the top: without the simulator sources these
    # imports fail, and main() turns that into an error exit.
    import layers
    import workloads

    workload = workloads.WORKLOADS[name]
    count = min(workload.traces, TRACED_TRACES) if traced \
        else workload.traces
    seeds = workloads.trace_seeds(seed, count)
    out("provenance " + json.dumps({
        "commit": commit(), "source_digest": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "machine": platform.machine(), "seed": seed, "scale": scale,
        "traced": traced, "workload": vars(workload)}, default=str))

    attempted = failed = 0
    problems: List[str] = []
    passes: List[List[dict]] = []
    digests: Dict[int, str] = {}
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        records = []
        for index, trace_seed in enumerate(seeds):
            spec = {"workload": name, "trace_seed": trace_seed,
                    "scale": scale, "traced": traced,
                    "compare_bare": workload.observed and index == 0
                    and not passes}
            attempted += 1
            try:
                record = run_child(spec)
            except ReplayFailed as exc:
                failed += 1
                problems.append(f"trace {trace_seed}: {exc}")
                continue
            issues = check_record(record, traced)
            digest = record["outcome"]["digest"]
            if digests.setdefault(trace_seed, digest) != digest:
                issues.append("replay is not deterministic")
            if issues:
                failed += 1
                problems += [f"trace {trace_seed}: {i}" for i in issues]
            records.append(record)
            if not passes:
                _print_trace(out, record)
        passes.append(records)
        elapsed = time.perf_counter() - start
        if traced or not records or \
                elapsed + (time.perf_counter() - began) > seconds:
            break

    first = passes[0]
    correct = not problems and len(first) == len(seeds)
    if first:
        guards = {key: sum(r["guards"][key] for r in first)
                  for key in first[0]["guards"]}
        broken = guard_failures(workload, guards)
        correct = correct and not broken
        out("guards " + json.dumps(guards))
        for rule in broken:
            out(f"REGIME GUARD FAILED: {rule}")
        combined = hashlib.sha256("".join(
            r["outcome"]["digest"] for r in first).encode()).hexdigest()
        out(f"outcome digest {combined}")
    for problem in problems:
        out(f"CHECK FAILED: {problem}")

    metrics: Dict[str, dict] = {}
    if len(first) == len(seeds):
        if traced:
            values = layers.layer_metrics(
                _sum(first, "layers", "self_s"),
                _sum(first, "layers", "calls"),
                _sum(first, "layers", "counts"),
                sum(r["root_s"] for r in first),
                sum(r["wall_s"] for r in first))
            units = dict(layers.LAYER_METRICS)
            _print_layers(out, values, sum(r["root_s"] for r in first),
                          sum(r["layers"]["self_s"].get(layers.ROOT, 0.0)
                              for r in first))
            basis = {key: f"total over {len(first)} traced traces"
                     for key in units}
        else:
            values = end_to_end(passes)
            units = dict(END_TO_END)
            replays = sum(len(records) for records in passes)
            basis = dict.fromkeys(
                units, f"pooled over {len(first)} traces")
            basis["wall_s"] = (f"median over {len(passes)} pass(es) of the "
                               f"mean of {len(first)} replays")
            basis["setup_s"] = basis["peak_mem_mb"] = \
                f"median of {replays} replays"
            _print_outcomes(out, first)
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in units.items()}
        for key, metric in metrics.items():
            out(f"metric {key} = {metric['value']:.6g} {metric['unit']} "
                f"({basis[key]})")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _print_trace(out, record: dict) -> None:
    timing = {key: record[key] for key in
              ("setup_s", "wall_s", "root_s", "peak_mem_mb", "calibration_s")
              if key in record}
    out("trace " + json.dumps({
        "trace_seed": record["trace_seed"],
        "packed_digest": record["packed_digest"],
        "outcome_digest": record["outcome"]["digest"],
        "requests": record["outcome"]["requests"], **timing,
        "config": record["config"]}))


def _print_outcomes(out, records: List[dict]) -> None:
    """Simulated outcomes printed for reading, not gated: their spread
    from seed to seed is wider than any bound could be."""
    p99 = statistics.median(r["outcome"]["summary"]["p99_wait_ms"]
                            for r in records)
    failed = sum(r["outcome"]["failed"] for r in records)
    total = sum(r["outcome"]["requests"] for r in records)
    for key in ("wall_s", "setup_s", "calibration_s"):
        value = statistics.fmean(r[key] for r in records)
        out(f"host {key} = {value:.6g} s (uncalibrated mean over traces)")
    out(f"outcome sim_p99_wait_ms = {p99:.6g} ms (median over traces)")
    out(f"outcome sim_failed_ratio = {failed / total:.6g} ratio")


#: Self-time metrics that are parts of another one (not shares of their own).
_PARTS = ("traces.", "orchestrator.arrival", "orchestrator.complete",
          "orchestrator.ready")


def _print_layers(out, values: Dict[str, float], root_s: float,
                  unattributed_s: float) -> None:
    """Each layer's self-time share of the traced replays, largest
    first: the most that optimising the layer can save."""
    shares = sorted(((value / root_s, key) for key, value in values.items()
                     if key.endswith("_s") and not key.startswith(_PARTS)),
                    reverse=True)
    for share, key in shares:
        out(f"share {key} {share:.1%}")
    out(f"share unattributed {unattributed_s / root_s:.1%}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the simulator from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
