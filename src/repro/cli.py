"""Command-line interface: generate traces, replay policies, compare.

Examples
--------
Generate the Azure-like workload and save it::

    cidre-sim generate --preset azure --out traces/ --requests 60000

Replay one policy::

    cidre-sim run --preset azure --policy CIDRE --capacity-gb 100

Compare the full Fig. 12 roster::

    cidre-sim compare --preset fc --capacity-gb 100

Run a policy x capacity sweep across 4 worker processes with an on-disk
result cache::

    cidre-sim sweep --preset azure --policies TTL,FaasCache,CIDRE \
        --capacities 80,100,120,160 --jobs 4 --cache-dir .sweep-cache
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.tables import render_table
from repro.experiments.runner import run_one
from repro.experiments.suites import FIG12_POLICIES, policy_factories
from repro.sim.config import SimulationConfig
from repro.sim.contention import ContentionModel
from repro.sim.faults import FaultPlan, random_plan
from repro.traces.alibaba import fc_trace
from repro.traces.azure import azure_trace
from repro.traces.io import load_trace, save_trace
from repro.traces.schema import Trace
from repro.traces.stats import workload_stats


def _build_trace(args: argparse.Namespace) -> Trace:
    if args.load:
        return load_trace(args.load, args.trace_name)
    kwargs = {}
    if args.requests:
        kwargs["total_requests"] = args.requests
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.preset == "azure":
        return azure_trace(**kwargs)
    return fc_trace(**kwargs)


def _parse_capacities(spec: str) -> List[float]:
    try:
        return [float(c) for c in spec.split(",")]
    except ValueError:
        raise ValueError(
            f"invalid --capacities {spec!r}: expected comma-separated "
            f"numbers, e.g. 80,100,160") from None


def config_from_args(args: argparse.Namespace, trace: Trace,
                     capacity_gb: Optional[float] = None
                     ) -> SimulationConfig:
    """The run the command line describes: the only place the CLI builds
    a :class:`SimulationConfig`.

    ``capacity_gb`` overrides ``--capacity-gb`` (``sweep`` and ``report``
    take ``--capacities`` instead). ``--faults plan.json`` wins over
    ``--chaos-seed N``, which derives a reproducible random plan from the
    seed, the worker count and the trace duration; ``--contention
    model.json`` wins over ``--contention-cores``/``--contention-alpha``.
    """
    faults = contention = None
    if args.faults:
        faults = FaultPlan.from_json(args.faults)
    elif args.chaos_seed is not None:
        faults = random_plan(args.chaos_seed, workers=args.workers,
                             horizon_ms=max(trace.duration_ms, 60_000.0))
    if args.contention:
        contention = ContentionModel.from_json(args.contention)
    elif args.contention_cores is not None:
        contention = ContentionModel(cores=args.contention_cores,
                                     alpha=args.contention_alpha)
    return SimulationConfig(
        capacity_gb=args.capacity_gb if capacity_gb is None else capacity_gb,
        workers=args.workers, threads_per_container=args.threads,
        reference_impl=args.reference, fast_forward=args.fast_forward,
        faults=faults, contention=contention)


def policy_factory(name: str):
    """The registered policy factory called ``name``; an unknown name is
    a usage error."""
    table = policy_factories()
    if name not in table:
        raise ValueError(f"unknown policy {name!r}; choose from: "
                         f"{', '.join(sorted(table))}")
    return table[name]


def _policy_names(spec: Optional[str], default: List[str]) -> List[str]:
    """The comma-separated ``--policies`` list (or ``default``), checked
    before anything replays."""
    names = spec.split(",") if spec else list(default)
    for name in names:
        policy_factory(name)
    return names


def _replay_spec(args: argparse.Namespace):
    """The trace, ``--policy`` factory and config one replay runs."""
    trace = _build_trace(args)
    return trace, policy_factory(args.policy), config_from_args(args, trace)


def _replayed(result, args: argparse.Namespace, trace: Trace) -> str:
    return (f"replayed {result.total} requests "
            f"({args.policy} on {trace.name} @ {args.capacity_gb:g} GB)")


def cmd_generate(args: argparse.Namespace) -> int:
    trace = _build_trace(args)
    save_trace(trace, args.out)
    stats = workload_stats(trace)
    print(f"wrote {trace.name} to {args.out}")
    print(stats.row())
    return 0


def _metrics_registry(path: Optional[str]):
    """A fresh :class:`repro.obs.MetricsRegistry` when ``path`` is set."""
    if not path:
        return None
    from repro.obs import MetricsRegistry
    return MetricsRegistry()


def _write_metrics(registry, path: str) -> None:
    """Save a metrics snapshot: Prometheus text for ``.prom``/``.txt``
    paths, JSON otherwise."""
    if path.endswith((".prom", ".txt")):
        registry.save_prometheus(path)
    else:
        registry.save_json(path)
    print(f"wrote metrics to {path}")


def _make_sanitizer(args: argparse.Namespace):
    """A fresh :class:`repro.sim.sanitizer.SimSanitizer` when
    ``--sanitize`` was given."""
    if not args.sanitize:
        return None
    from repro.sim.sanitizer import SimSanitizer
    return SimSanitizer()


def cmd_run(args: argparse.Namespace) -> int:
    trace, factory, config = _replay_spec(args)
    metrics = _metrics_registry(args.metrics_out)
    sanitizer = _make_sanitizer(args)
    profiler = None
    # A profile destination is an unambiguous request to profile.
    if args.profile or args.profile_out:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    result = run_one(trace, factory, config,
                     metrics=metrics, sanitizer=sanitizer)
    if profiler is not None:
        import pstats
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)
        if args.profile_out:
            profiler.dump_stats(args.profile_out)
            print(f"wrote profile to {args.profile_out}", file=sys.stderr)
    if sanitizer is not None:
        sanitizer.report()
    print(render_table(
        ["metric", "value"],
        sorted(result.summary().items()),
        title=f"{args.policy} on {trace.name} @ {args.capacity_gb} GB"))
    if metrics is not None:
        _write_metrics(metrics, args.metrics_out)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Replay one policy with full run telemetry attached."""
    from repro.sim.eventlog import EventLog
    from repro.sim.telemetry import (JsonlSink, SpanBuilder,
                                     TimeSeriesRecorder,
                                     write_chrome_trace)

    trace, factory, config = _replay_spec(args)
    sinks = []
    jsonl = spans = None
    if args.events_out:
        jsonl = JsonlSink(args.events_out)
        sinks.append(jsonl)
    if args.chrome_trace:
        spans = SpanBuilder()
        sinks.append(spans)
    recorder = (TimeSeriesRecorder(args.sample_interval_ms)
                if args.timeseries_out else None)
    metrics = _metrics_registry(args.metrics_out)
    log = EventLog(capacity=args.ring_capacity, sinks=sinks)
    sanitizer = _make_sanitizer(args)
    experiment = run_one(trace, factory, config, event_log=log,
                         recorder=recorder, metrics=metrics,
                         sanitizer=sanitizer)
    log.close()
    if sanitizer is not None:
        sanitizer.report()

    result = experiment.result
    print(f"{_replayed(result, args, trace)}: "
          f"{log.recorded} events recorded, "
          f"{len(log)} held in the ring ({log.dropped} rotated out)")
    if jsonl is not None:
        print(f"wrote {jsonl.emitted} events to {jsonl.path}")
    if spans is not None:
        chrome = write_chrome_trace(args.chrome_trace, spans)
        print(f"wrote Chrome trace ({len(chrome['traceEvents'])} "
              f"trace events) to {args.chrome_trace} — load it in "
              f"Perfetto or chrome://tracing")
    if recorder is not None:
        recorder.save_json(args.timeseries_out)
        print(f"wrote {len(recorder.cluster)} samples x "
              f"{len(recorder.functions)} functions to "
              f"{args.timeseries_out}")
    if metrics is not None:
        _write_metrics(metrics, args.metrics_out)
    print(render_table(
        ["metric", "value"], sorted(result.summary().items()),
        title=f"{args.policy} on {trace.name} @ {args.capacity_gb} GB"))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Replay and print one request's latency story from the event log,
    including the cold-start cause chain when the request cold-started."""
    from repro.analysis.attribution import cause_chain
    from repro.obs import CauseTracker, DecisionAudit
    from repro.sim.eventlog import EventLog

    trace, factory, config = _replay_spec(args)
    log = EventLog()
    audit = DecisionAudit()
    experiment = run_one(trace, factory, config, event_log=log,
                         audit=audit, attribution=CauseTracker())
    result = experiment.result
    req = next((r for r in result.requests if r.req_id == args.req_id),
               None)
    if req is None:
        raise ValueError(f"no request with id {args.req_id} "
                         f"(ids run 0..{result.total - 1})")
    print(f"r{req.req_id} {req.func}: {req.start_type.value} start, "
          f"arrived {req.arrival_ms:.3f} ms, "
          f"waited {req.wait_ms:.3f} ms, "
          f"executed {req.exec_ms:.3f} ms on c{req.container_id}")
    print()
    print(log.render(log.explain_request(args.req_id)))
    chain = cause_chain(log, audit, args.req_id)
    if chain is not None:
        provision = chain["provision"]
        print()
        print(f"cold-start cause chain: r{req.req_id} -> "
              f"c{provision.container_id} provisioned at "
              f"{provision.time_ms:.3f} ms ({chain['kind']}) because "
              f"{chain['cause'] or 'attribution unavailable'}")
        record = chain["record"]
        if record is not None:
            if record["kind"] == "eviction_decision":
                victims = ", ".join(
                    f"c{v['cid']} {v['func']} ({v['mem_mb']:g} MB)"
                    for v in record["victims"])
                print(f"  decision #{record['did']} at "
                      f"{record['t']:.3f} ms: REPLACE freed "
                      f"{record['freed_mb']:g} MB for "
                      f"{record.get('for_func', '?')} — evicted {victims}")
            else:
                print(f"  decision #{record['did']} at "
                      f"{record['t']:.3f} ms: scale-down evicted "
                      f"c{record['cid']} {record['func']} after "
                      f"{record['idle_ms']:.0f} ms idle")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Replay with the decision audit attached and explain the policy:
    gate-flip timeline, eviction balance (Observation 2), and the most
    expensive decisions."""
    from repro.analysis.audit import (eviction_balance,
                                      expensive_decisions, gate_flip_rows)
    from repro.obs import AuditJsonlSink, DecisionAudit

    trace, factory, config = _replay_spec(args)
    sinks = [AuditJsonlSink(args.audit_out)] if args.audit_out else []
    audit = DecisionAudit(sinks=sinks)
    metrics = _metrics_registry(args.metrics_out)
    experiment = run_one(trace, factory, config, audit=audit,
                         metrics=metrics)
    audit.close()

    result = experiment.result
    records = list(audit.records)
    by_kind = {}
    for record in records:
        by_kind[record["kind"]] = by_kind.get(record["kind"], 0) + 1
    kinds = ", ".join(f"{count} {kind}"
                      for kind, count in sorted(by_kind.items())) or "none"
    print(f"{_replayed(result, args, trace)}: "
          f"{len(records)} decision records ({kinds})")
    if sinks:
        print(f"wrote {sinks[0].emitted} records to {sinks[0].path}")
    if metrics is not None:
        _write_metrics(metrics, args.metrics_out)

    flip_rows = gate_flip_rows(records, limit=args.flips)
    if flip_rows:
        total_flips = by_kind.get("gate_flip", 0)
        shown = (f"last {len(flip_rows)} of {total_flips}"
                 if len(flip_rows) < total_flips else f"{total_flips}")
        print()
        print(render_table(
            ["t_ms", "func", "gate", "reason", "trigger"], flip_rows,
            title=f"CSS gate flips ({shown})"))
    else:
        print("\nno gate flips (policy has no CSS gate, or it never "
              "tripped)")

    balance = eviction_balance(records)
    if balance.total:
        print()
        print(render_table(
            ["func", "evictions", "share"],
            [[func, count, f"{share:.1%}"]
             for func, count, share in balance.rows()],
            title=f"eviction balance ({balance.total} victims over "
                  f"{balance.decisions} REPLACE decisions)"))
        print(f"imbalance: max per-function share {balance.max_share:.1%}")
    else:
        print("\nno audited eviction decisions")

    expensive = expensive_decisions(records, k=args.top)
    if expensive:
        rows = []
        for cost, record in expensive:
            if record["kind"] == "eviction_decision":
                what = (f"evicted {len(record['victims'])} container(s)"
                        + (f" for {record['for_func']}"
                           if "for_func" in record else ""))
            else:
                what = (f"{record['func']} r{record['rid']} kept queued "
                        f"at T_d={record['t_d']:.0f} ms")
            rows.append([record["t"], record["kind"], what, cost])
        print()
        print(render_table(
            ["t_ms", "kind", "decision", "cost_ms"], rows,
            title=f"top {len(rows)} most expensive decisions"))
    return 0


def cmd_blame(args: argparse.Namespace) -> int:
    """Replay with causal attribution and the outcome resolver: cold
    starts by proximate cause, the highest-regret decisions (with their
    Eq. 3 decomposition), the keep-warm-waste vs cold-start-penalty
    frontier, and optionally a pinned-decision counterfactual check."""
    from repro.analysis.attribution import (counterfactual_check,
                                            frontier_rows, run_attributed,
                                            victim_decomposition,
                                            worst_decisions)

    trace, factory, config = _replay_spec(args)
    metrics = _metrics_registry(args.metrics_out)
    run = run_attributed(trace, factory, config,
                         horizon_ms=args.horizon_ms,
                         credit_ms_per_mb_ms=args.credit_rate,
                         metrics=metrics)
    result = run.experiment.result
    resolver = run.resolver
    total_stamped = sum(resolver.causes.values())
    print(f"{_replayed(result, args, trace)}: "
          f"{total_stamped} cold starts attributed, "
          f"{len(resolver.outcomes)} decisions settled at a "
          f"{args.horizon_ms:g} ms horizon")
    if metrics is not None:
        _write_metrics(metrics, args.metrics_out)

    if resolver.causes:
        print()
        print(render_table(
            ["cause", "cold starts", "share"],
            [[cause, count, f"{count / total_stamped:.1%}"]
             for cause, count in sorted(resolver.causes.items(),
                                        key=lambda kv: (-kv[1], kv[0]))],
            title="cold starts by proximate cause"))

    worst = worst_decisions(resolver, run.audit, k=args.top)
    if worst:
        rows = []
        for outcome, record in worst:
            funcs = ",".join(sorted({f for _c, f, _m in outcome.victims}))
            rows.append([outcome.did, outcome.kind, outcome.t_ms,
                         f"{len(outcome.victims)} ({funcs})",
                         outcome.penalty_ms,
                         outcome.reclaimed_mb_ms / 1000.0,
                         outcome.regret_ms])
        print()
        print(render_table(
            ["did", "kind", "t_ms", "victims", "penalty_ms", "mb_s_freed",
             "regret_ms"],
            rows, title=f"top {len(rows)} worst decisions"))
        head_outcome, head_record = worst[0]
        if (head_record is not None
                and head_record["kind"] == "eviction_decision"):
            print()
            print(render_table(
                ["func", "cid", "clock", "freq_per_min", "cost_ms",
                 "size_mb", "warm_count", "priority"],
                victim_decomposition(head_record),
                title=f"decision #{head_outcome.did}: Eq. 3 victim "
                      f"decomposition"))
    else:
        print("\nno settled eviction decisions to rank")

    frontier = frontier_rows(resolver)
    if frontier:
        print()
        print(render_table(
            ["func", "keepwarm_waste_mb_s", "coldstart_penalty_ms"],
            [[func, waste / 1000.0, penalty]
             for func, waste, penalty in frontier],
            title="keep-warm waste vs cold-start penalty (per function)"))

    if args.counterfactual:
        evictions = [outcome for outcome, _record in worst
                     if outcome.kind in ("eviction", "scale-down")]
        checked = evictions[:args.counterfactual]
        rows = []
        for outcome in checked:
            check = counterfactual_check(trace, factory, config, run,
                                         outcome.did)
            rows.append([check.did,
                         check.analytic_penalty_ms,
                         check.measured_delta_ms if check.feasible
                         else "n/a",
                         "yes" if check.feasible else "no (wedged)"])
        if rows:
            print()
            print(render_table(
                ["did", "analytic_ms", "replay_delta_ms", "feasible"],
                rows,
                title=f"pinned-decision counterfactual "
                      f"({len(rows)} replayed)"))
        else:
            print("\nno eviction decisions to replay counterfactually")
    return 0


def _read_event_lines(path: str) -> List[str]:
    with open(path) as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def cmd_diff(args: argparse.Namespace) -> int:
    """First divergence between two JSONL event streams (exit 1 when
    they differ, like diff(1))."""
    lines_a = _read_event_lines(args.events_a)
    lines_b = _read_event_lines(args.events_b)
    common = min(len(lines_a), len(lines_b))
    divergence = next((i for i in range(common)
                       if lines_a[i] != lines_b[i]), None)
    if divergence is None:
        if len(lines_a) == len(lines_b):
            print(f"identical: {len(lines_a)} events")
            return 0
        divergence = common
    context = args.context
    print(f"streams diverge at event {divergence} "
          f"({args.events_a}: {len(lines_a)} events, "
          f"{args.events_b}: {len(lines_b)} events)")
    lead = lines_a[max(0, divergence - context):divergence]
    if lead:
        print("shared context:")
        for offset, line in enumerate(lead, start=divergence - len(lead)):
            print(f"  [{offset}] {line}")
    for name, lines in ((args.events_a, lines_a), (args.events_b, lines_b)):
        print(f"{name}:")
        window = lines[divergence:divergence + context + 1]
        if not window:
            print("  (stream ends)")
        for offset, line in enumerate(window, start=divergence):
            print(f"  [{offset}] {line}")
    return 1


def cmd_compare(args: argparse.Namespace) -> int:
    trace = _build_trace(args)
    names = _policy_names(args.policies, FIG12_POLICIES)
    config = config_from_args(args, trace)
    rows = []
    for name in names:
        s = run_one(trace, policy_factory(name), config).summary()
        rows.append([name, s["avg_overhead_ratio"], s["cold_ratio"],
                     s["warm_ratio"], s["delayed_ratio"],
                     s["avg_wait_ms"], s["avg_memory_mb"] / 1024.0])
    print(render_table(
        ["policy", "overhead", "cold", "warm", "delayed", "wait_ms",
         "mem_gb"],
        rows, title=f"{trace.name} @ {args.capacity_gb} GB"))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Print Table 1-style statistics and the concurrency distribution."""
    import numpy as np

    from repro.traces.stats import (concurrency_per_minute,
                                    fraction_cold_dominated)

    trace = _build_trace(args)
    stats = workload_stats(trace)
    print(render_table(
        ["metric", "value"],
        [["requests", stats.num_requests],
         ["rps avg/min/max",
          f"{stats.rps_avg:,.0f} / {stats.rps_min:,.0f} / "
          f"{stats.rps_max:,.0f}"],
         ["GBps avg/min/max",
          f"{stats.gbps_avg:,.1f} / {stats.gbps_min:,.1f} / "
          f"{stats.gbps_max:,.1f}"],
         ["cold-dominated requests",
          f"{fraction_cold_dominated(trace):.1%}"]],
        title=f"workload statistics: {trace.name}"))
    concurrency = concurrency_per_minute(trace)
    if concurrency.size:
        print(render_table(
            ["percentile", "reqs/min"],
            [[f"p{q}", float(np.percentile(concurrency, q))]
             for q in (50, 90, 99)],
            title="function concurrency (Fig. 3)"))
    return 0


def cmd_whatif(args: argparse.Namespace) -> int:
    """Run the §2.4 queuing-vs-cold-start what-if analysis (Figs 5/6)."""
    from repro.analysis.plot import ascii_cdf
    from repro.analysis.whatif import tradeoff_analysis

    trace = _build_trace(args)
    result = tradeoff_analysis(trace, config_from_args(args, trace))
    print(ascii_cdf({"queuing": result.queuing_ms,
                     "cold start": result.cold_ms},
                    title=f"queuing vs cold start ({trace.name}, "
                          f"{args.capacity_gb:g} GB)",
                    x_max_percentile=95.0))
    cross = result.crossover_ms()
    print(f"crossover: "
          f"{'none (queuing dominates)' if cross is None else f'{cross:.0f} ms'}")
    print(f"queuing wins for {result.fraction_queue_wins():.1%} "
          f"of would-be cold starts")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run a policy/capacity grid and emit a markdown report."""
    from repro.analysis.report import experiment_report
    from repro.experiments.parallel import ParallelRunner

    trace = _build_trace(args)
    names = _policy_names(args.policies,
                          ["FaasCache", "CIDRE_BSS", "CIDRE", "Offline"])
    capacities = _parse_capacities(args.capacities)
    runner = ParallelRunner(jobs=args.jobs)
    results = runner.capacity_sweep(
        trace, names, capacities,
        config_from_args(args, trace, capacities[0]))
    report = experiment_report(results, baseline=args.baseline,
                               title=f"Policy comparison on {trace.name}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


def _sweep_markdown(results, trace_name: str) -> str:
    """Full-precision markdown of sweep summaries.

    Values are written with ``repr`` so two runs are file-identical iff
    their summaries are bit-identical — the CLI's determinism contract.
    """
    keys = ["avg_overhead_ratio", "cold_ratio", "warm_ratio",
            "delayed_ratio", "avg_wait_ms", "avg_memory_mb"]
    lines = [f"# Sweep results: {trace_name}", "",
             "| policy | capacity_gb | " + " | ".join(keys) + " |",
             "|" + "|".join("---" for _ in range(len(keys) + 2)) + "|"]
    for res in results:
        s = res.summary()
        lines.append("| " + res.policy_name
                     + f" | {res.config.capacity_gb!r} | "
                     + " | ".join(repr(s[k]) for k in keys) + " |")
    lines.append("")
    return "\n".join(lines)


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a parallel policy x capacity sweep with a timing report."""
    from repro.experiments.parallel import ParallelRunner, ProgressHeartbeat

    trace = _build_trace(args)
    names = _policy_names(args.policies, ["TTL", "FaasCache", "CIDRE"])
    capacities = _parse_capacities(args.capacities)

    def progress(done, total, cell):
        status = "cached" if cell.cached else f"{cell.wall_s:.2f}s"
        print(f"[{done}/{total}] {cell.policy_name} @ "
              f"{cell.capacity_gb:g} GB ({status})", file=sys.stderr)

    if args.progress:
        progress_fn = ProgressHeartbeat()
    elif args.quiet:
        progress_fn = None
    else:
        progress_fn = progress

    runner = ParallelRunner(jobs=args.jobs, cache_dir=args.cache_dir,
                            collect="summary", progress=progress_fn,
                            events_dir=args.events_dir,
                            metrics_dir=args.metrics_out)
    results = runner.capacity_sweep(
        trace, names, capacities,
        config_from_args(args, trace, capacities[0]), seed=args.seed)

    rows = []
    for res in results:
        s = res.summary()
        rows.append([res.policy_name, res.config.capacity_gb,
                     s["avg_overhead_ratio"], s["cold_ratio"],
                     s["warm_ratio"], s["delayed_ratio"],
                     s["avg_wait_ms"]])
    print(render_table(
        ["policy", "GB", "overhead", "cold", "warm", "delayed",
         "wait_ms"],
        rows, title=f"sweep: {trace.name} x {len(capacities)} "
                    f"capacities x {len(names)} policies"))
    report = runner.last_report
    print(render_table(
        ["policy", "GB", "cell time"], report.rows(),
        title="per-cell wall clock"))
    print(report.render())
    if args.metrics_out:
        print(f"wrote per-cell metrics snapshots to {args.metrics_out}/")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_sweep_markdown(results, trace.name))
        print(f"wrote {args.out}")
    return 0


def cmd_bench_throughput(args: argparse.Namespace) -> int:
    """Time single-run replays; optionally gate on a committed baseline."""
    from repro.experiments import throughput

    names = args.scenarios.split(",") if args.scenarios else None
    try:
        if names:
            for name in names:
                throughput.scenario_by_name(name)  # validate up front
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    rows: List[list] = []

    def progress(record):
        rows.append(record.row())
        print(f"[bench] {record.scenario}/{record.policy} "
              f"({record.impl}): {record.wall_s:.2f}s, "
              f"{record.events_per_sec:,.0f} events/s", file=sys.stderr)

    payload = throughput.run_suite(
        names, reference=args.reference,
        fast_forward=True if args.fast_forward else None,
        progress=progress)
    print(render_table(
        ["scenario", "policy", "impl", "wall_s", "events/s", "req/s",
         "cold", "evictions"],
        rows, title="replay throughput"))
    # Load baselines before --out may overwrite the same file.
    compare_baseline = (throughput.load_payload(args.compare)
                        if args.compare else None)
    check_baseline = (throughput.load_payload(args.check)
                      if args.check else None)
    if args.out:
        previous = None
        if os.path.exists(args.out):
            try:
                previous = throughput.load_payload(args.out)
            except (ValueError, OSError):
                previous = None  # corrupt/old baseline: start history fresh
        throughput.append_history(payload, previous)
        throughput.save_payload(payload, args.out)
        print(f"wrote {args.out} "
              f"({len(payload.get('history', ()))} history entries)")
    status = 0
    if compare_baseline is not None:
        baseline = compare_baseline
        delta_rows = throughput.compare_payloads(payload, baseline)
        print(render_table(
            ["scenario", "policy", "baseline ev/s", "current ev/s",
             "delta"],
            delta_rows, title=f"throughput vs {args.compare}"))
        failures = throughput.check_regression(
            payload, baseline, factor=args.factor,
            two_sided=not args.one_sided)
        if failures:
            print(f"throughput regression vs {args.compare}:",
                  file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            status = 1
    if check_baseline is not None:
        baseline = check_baseline
        failures = throughput.check_regression(
            payload, baseline, factor=args.factor,
            two_sided=not args.one_sided)
        if failures:
            print(f"throughput regression vs {args.check} "
                  f"(outside the {args.factor:g}x band):", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"throughput within {args.factor:g}x of {args.check}")
    return status


def build_parser() -> argparse.ArgumentParser:
    """The ``cidre-sim`` parser.

    The run spec is declared once, in parent parsers: the trace flags,
    ``--capacity-gb`` and the run flags. Every replaying verb inherits
    all of them (``sweep`` and ``report`` take ``--capacities`` instead
    of ``--capacity-gb``), so ``explain``, ``audit`` and ``blame``
    replay exactly the run a ``trace`` with the same flags recorded."""
    trace_flags = argparse.ArgumentParser(add_help=False)
    flag = trace_flags.add_argument
    flag("--preset", choices=("azure", "fc"), default="azure",
         help="synthetic workload preset")
    flag("--requests", type=int, default=None,
         help="target number of requests")
    flag("--seed", type=int, default=None, help="generator seed")
    flag("--load", default=None, help="directory to load a saved trace from")
    flag("--trace-name", default=None,
         help="trace name when loading from --load")

    capacity_flag = argparse.ArgumentParser(add_help=False)
    capacity_flag.add_argument("--capacity-gb", type=float, default=100.0)

    run_flags = argparse.ArgumentParser(add_help=False)
    flag = run_flags.add_argument
    flag("--workers", type=int, default=1)
    flag("--threads", type=int, default=1)
    flag("--faults", default=None,
         help="JSON fault-plan file (crashes, stragglers, worker classes); "
              "see repro.sim.faults")
    flag("--chaos-seed", type=int, default=None,
         help="derive a reproducible random fault plan from this seed "
              "(--faults wins)")
    flag("--contention", default=None,
         help="JSON CPU-contention model file; see repro.sim.contention")
    flag("--contention-cores", type=int, default=None,
         help="per-worker core budget for the default slowdown curve "
              "(enables contention; --contention wins)")
    flag("--contention-alpha", type=float, default=1.0,
         help="exponent of the slowdown curve max(1, busy/cores)**alpha "
              "(default 1.0; 0 makes the model inert)")
    flag("--fast-forward", action="store_true",
         help="skip idle gaps analytically (bit-identical; auto-disabled "
              "under --reference or with --timeseries-out attached)")
    flag("--reference", action="store_true",
         help="use the pre-index reference implementations (scan/sort hot "
              "path; bit-identical results)")

    policy_flag = argparse.ArgumentParser(add_help=False)
    policy_flag.add_argument("--policy", default="CIDRE")
    metrics_flag = argparse.ArgumentParser(add_help=False)
    metrics_flag.add_argument(
        "--metrics-out", default=None,
        help="write a metrics snapshot here (Prometheus text for "
             ".prom/.txt, JSON otherwise); sweep: a directory of per-cell "
             "JSON snapshots")
    sanitize_flag = argparse.ArgumentParser(add_help=False)
    sanitize_flag.add_argument(
        "--sanitize", action="store_true",
        help="run under the sim-sanitizer (write barrier around probe "
             "callbacks + periodic consistency sweeps); results stay "
             "bit-identical")
    run_spec = [trace_flags, capacity_flag, run_flags]

    parser = argparse.ArgumentParser(
        prog="cidre-sim",
        description="CIDRE serverless orchestration simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", parents=[trace_flags],
                         help="generate and save a trace")
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser(
        "run", help="replay one policy over a trace",
        parents=run_spec + [policy_flag, metrics_flag, sanitize_flag])
    run.add_argument("--profile", action="store_true",
                     help="profile the replay with cProfile and print the "
                          "top 25 cumulative entries to stderr")
    run.add_argument("--profile-out", default=None,
                     help="dump pstats data here (implies --profile)")
    run.set_defaults(func=cmd_run)

    tr = sub.add_parser(
        "trace", help="replay with run telemetry (JSONL event stream, "
                      "Chrome trace, time series)",
        parents=run_spec + [policy_flag, metrics_flag, sanitize_flag])
    tr.add_argument("--events-out", default=None,
                    help="stream the full event log here as JSON Lines "
                         "(O(1) memory)")
    tr.add_argument("--chrome-trace", default=None,
                    help="write a Chrome trace_event JSON here "
                         "(Perfetto / chrome://tracing)")
    tr.add_argument("--timeseries-out", default=None,
                    help="write sampled per-function time series "
                         "(JSON) here")
    tr.add_argument("--sample-interval-ms", type=float, default=1_000.0,
                    help="time-series sampling period (virtual ms)")
    tr.add_argument("--ring-capacity", type=int, default=65_536,
                    help="events kept in memory (oldest rotate out; "
                         "sinks still see everything)")
    tr.set_defaults(func=cmd_trace)

    audit = sub.add_parser(
        "audit", help="replay with the decision audit: gate-flip "
                      "timeline, eviction balance, expensive decisions",
        parents=run_spec + [policy_flag, metrics_flag])
    audit.add_argument("--audit-out", default=None,
                       help="stream decision records here as JSON Lines")
    audit.add_argument("--flips", type=int, default=20,
                       help="gate flips shown in the timeline "
                            "(0 = all, default 20)")
    audit.add_argument("--top", type=int, default=5,
                       help="most expensive decisions shown (default 5)")
    audit.set_defaults(func=cmd_audit)

    blame = sub.add_parser(
        "blame", help="replay with causal attribution: cold starts by "
                      "cause, highest-regret decisions, keep-warm "
                      "frontier",
        parents=run_spec + [policy_flag, metrics_flag])
    blame.add_argument("--horizon-ms", type=float, default=60_000.0,
                       help="settlement horizon: how long a decision's "
                            "consequences are tallied (default 60000)")
    blame.add_argument("--credit-rate", type=float, default=0.0,
                       help="memory credit in ms per MB-ms reclaimed, "
                            "subtracted from the cold-start penalty "
                            "(default 0 = regret is the raw penalty)")
    blame.add_argument("--top", type=int, default=5,
                       help="worst decisions shown (default 5)")
    blame.add_argument("--counterfactual", type=int, default=0,
                       help="validate the top-N worst evictions by "
                            "replaying with each pinned (slow: one "
                            "replay per decision)")
    blame.set_defaults(func=cmd_blame)

    diff = sub.add_parser(
        "diff", help="first divergence between two JSONL event streams")
    diff.add_argument("events_a", help="baseline events .jsonl")
    diff.add_argument("events_b", help="candidate events .jsonl")
    diff.add_argument("--context", type=int, default=5,
                      help="events of context shown around the "
                           "divergence (default 5)")
    diff.set_defaults(func=cmd_diff)

    explain = sub.add_parser(
        "explain", help="replay and explain one request's latency story",
        parents=run_spec + [policy_flag])
    explain.add_argument("req_id", type=int,
                         help="request id (serial arrival order)")
    explain.set_defaults(func=cmd_explain)

    cmp_ = sub.add_parser("compare", help="compare policies over a trace",
                          parents=run_spec)
    cmp_.add_argument("--policies", default=None,
                      help="comma-separated policy names (default Fig. 12)")
    cmp_.set_defaults(func=cmd_compare)

    stats = sub.add_parser("stats", parents=[trace_flags],
                           help="print workload statistics")
    stats.set_defaults(func=cmd_stats)

    whatif = sub.add_parser(
        "whatif", help="queuing vs cold-start what-if (Figs 5/6)",
        parents=[trace_flags, capacity_flag])
    # The what-if runs the default run spec at the given capacity.
    whatif.set_defaults(func=cmd_whatif, **vars(run_flags.parse_args([])))

    report = sub.add_parser(
        "report", help="run a policy grid and emit a markdown report",
        parents=[trace_flags, run_flags])
    report.add_argument("--policies", default=None,
                        help="comma-separated policy names")
    report.add_argument("--capacities", default="80,100,160",
                        help="comma-separated cache sizes in GB")
    report.add_argument("--baseline", default="FaasCache")
    report.add_argument("--out", default=None,
                        help="write the markdown to this file")
    report.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = serial)")
    report.set_defaults(func=cmd_report)

    sweep = sub.add_parser(
        "sweep", help="parallel policy x capacity sweep with timing",
        parents=[trace_flags, run_flags, metrics_flag])
    sweep.add_argument("--policies", default=None,
                       help="comma-separated policy names "
                            "(default TTL,FaasCache,CIDRE)")
    sweep.add_argument("--capacities", default="80,100,120,160",
                       help="comma-separated cache sizes in GB")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (1 = serial fallback; "
                            "default: CPU count)")
    sweep.add_argument("--cache-dir", default=None,
                       help="persist/reuse per-cell results here")
    sweep.add_argument("--events-dir", default=None,
                       help="stream each executed cell's event log to "
                            "a JSONL file in this directory")
    sweep.add_argument("--out", default=None,
                       help="write full-precision markdown results here")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-cell progress on stderr")
    sweep.add_argument("--progress", action="store_true",
                       help="heartbeat progress on stderr: cells "
                            "done/total, per-cell wall time, ETA "
                            "(overrides --quiet)")
    sweep.set_defaults(func=cmd_sweep)

    bench = sub.add_parser(
        "bench-throughput",
        help="time single-run replay throughput (events/sec)")
    bench.add_argument("--scenarios", default=None,
                       help="comma-separated scenario names "
                            "(default: the full suite)")
    bench.add_argument("--reference", action="store_true",
                       help="also time the pre-index reference "
                            "implementation of every cell")
    bench.add_argument("--out", default=None,
                       help="write the JSON payload here "
                            "(BENCH_throughput.json format)")
    bench.add_argument("--fast-forward", action="store_true",
                       help="force fast_forward=True on every scenario "
                            "(indexed cells only; reference cells always "
                            "run classic)")
    bench.add_argument("--compare", default=None,
                       help="print per-cell deltas vs this baseline JSON "
                            "and exit non-zero on regression")
    bench.add_argument("--check", default=None,
                       help="fail if events/sec leaves the --factor band "
                            "around this baseline JSON")
    bench.add_argument("--factor", type=float, default=2.0,
                       help="allowed throughput ratio vs the baseline "
                            "(default 2.0)")
    bench.add_argument("--one-sided", action="store_true",
                       help="only fail on slowdowns; skip the "
                            "faster-than-baseline (stale baseline) check")
    bench.set_defaults(func=cmd_bench_throughput)

    lint = sub.add_parser(
        "lint", help="static determinism/purity/FP-discipline analysis "
                     "(repro-lint)")
    from repro.lint.cli import add_lint_arguments, run_lint
    add_lint_arguments(lint)
    lint.set_defaults(func=run_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # Bad input (an unknown policy, an infeasible config, a missing
        # plan file) is a usage error with a one-line message, like
        # argparse's own, not a traceback.
        print(f"cidre-sim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
