"""Command-line interface for the RAQO reproduction.

Subcommands:

- ``plan``    -- jointly optimize a TPC-H query and print the joint plan,
  the predicted cost, and the planning metrics.
- ``execute`` -- optimize and run a query on the simulated engine,
  comparing RAQO against the two-step baseline.
- ``figure``  -- regenerate one of the paper's figures (fig01..fig17).
- ``trees``   -- print the default (Fig 10) and learned RAQO (Fig 11)
  decision trees for an engine.
- ``workload`` -- plan and simulate a generated multi-query workload,
  optionally fanning queries out over a worker pool (``--parallel N``).
- ``run``     -- alias of ``execute``; with ``--faults SPEC`` the
  simulated cluster injects deterministic preemptions, OOM kills, and
  stragglers, and the engine recovers via retries, speculation, and
  BHJ -> SMJ degradation (see :mod:`repro.faults`).
- ``lint``    -- run the AST-based invariant linter
  (:mod:`repro.analysis`) over the source tree; ``--plans`` also
  validates optimized plans for every TPC-H evaluation query with the
  runtime well-formedness checker.
- ``serve``   -- start the multi-tenant optimizer service
  (:mod:`repro.serving`) and push a round-robin request smoke through
  it, printing per-request serving lines and the cache summary.
- ``replay``  -- replay a deterministic Poisson or bursty traffic trace
  through the optimizer service and report QPS plus p50/p95/p99
  planning latency, overall and per tenant (optionally writing the
  JSON report).  ``serve`` and ``replay`` both take telemetry flags:
  ``--stats-file`` (Prometheus text exposition), ``--events``
  (structured JSONL event log), ``--slo-target-ms``/``--slo-objective``
  (per-tenant latency SLO with burn-rate alerts), and ``serve
  --metrics-addr HOST:PORT`` exposes a live ``/metrics`` scrape
  endpoint.
- ``top``     -- render the text dashboard over the artifacts the
  telemetry flags wrote (``--events``/``--stats``, optionally
  ``--follow``).

Examples::

    python -m repro plan --query Q3 --scale-factor 100
    python -m repro plan --query All --planner fast_randomized
    python -m repro execute --query Q2 --containers 40 --container-gb 6
    python -m repro run --query Q3 --faults "seed=7,preempt=0.1,oom=0.3"
    python -m repro run --query Q3 --trace out.json --metrics
    python -m repro workload --num-queries 20 --faults oom=0.2,seed=1
    python -m repro figure fig03
    python -m repro trees --engine spark
    python -m repro workload --num-queries 20 --parallel 4 --trace-dir t/
    python -m repro lint src --plans
    python -m repro serve --requests 12 --workers 4
    python -m repro serve --requests 50 --metrics-addr 127.0.0.1:0
    python -m repro replay --arrival bursty --num-requests 200 --workers 4
    python -m repro replay --num-requests 100 --slo-target-ms 5 \\
        --stats-file stats.prom --events events.jsonl
    python -m repro top --events events.jsonl --stats stats.prom
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import sys
from typing import List, Optional, TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    from repro.faults import FaultPlan, RecoveryPolicy

from repro.api import RaqoSession
from repro.catalog import tpch
from repro.cluster.cluster import ClusterConditions
from repro.core.pareto import (
    OBJECTIVE_SPECS,
    ParetoPlanningResult,
    PlanObjective,
)
from repro.core.raqo import (
    PlannerKind,
    RaqoPlanner,
    ResourcePlanningMethod,
)
from repro.engine.profiles import HIVE_PROFILE, SPARK_PROFILE
from repro.obs.tracing import Tracer

#: Figure-name -> experiments module (each exposes ``main()``).
FIGURE_MODULES = {
    "fig01": "repro.experiments.fig01_queue_cdf",
    "fig02": "repro.experiments.fig02_potential_gains",
    "fig03": "repro.experiments.fig03_operator_switch",
    "fig04": "repro.experiments.fig04_data_switch",
    "fig05": "repro.experiments.fig05_join_order",
    "fig06": "repro.experiments.fig06_monetary",
    "fig07": "repro.experiments.fig07_monetary_switch",
    "fig08": "repro.experiments.fig08_architecture",
    "fig09": "repro.experiments.fig09_switch_space",
    "fig10": "repro.experiments.fig10_default_trees",
    "fig11": "repro.experiments.fig11_raqo_trees",
    "fig12": "repro.experiments.fig12_tpch_planning",
    "fig13": "repro.experiments.fig13_hill_climbing",
    "fig14": "repro.experiments.fig14_plan_cache",
    "fig15": "repro.experiments.fig15_scalability",
    "fig16": "repro.experiments.fig16_robustness",
    "fig17": "repro.experiments.fig17_pareto_frontier",
}

_QUERIES = {q.name: q for q in tpch.EVALUATION_QUERIES}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RAQO: joint resource and query optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="optimize a TPC-H query")
    _add_common(plan)

    execute = sub.add_parser(
        "execute",
        aliases=["run"],
        help="optimize and simulate execution (alias: run)",
    )
    _add_common(execute)
    _add_fault_options(execute)
    _add_trace_options(execute)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument(
        "name",
        choices=sorted(FIGURE_MODULES),
        help="figure to regenerate",
    )

    trees = sub.add_parser(
        "trees", help="print the Fig 10/11 decision trees"
    )
    trees.add_argument(
        "--engine",
        choices=("hive", "spark"),
        default="hive",
        help="engine profile to train against",
    )

    workload = sub.add_parser(
        "workload", help="plan and simulate a generated workload"
    )
    _add_planner_options(workload)
    workload.add_argument(
        "--num-queries",
        type=int,
        default=20,
        help="number of generated workload queries",
    )
    workload.add_argument(
        "--seed",
        type=int,
        default=0,
        help="workload generator seed",
    )
    workload.add_argument(
        "--parallel",
        "--workers",
        dest="parallel",
        type=int,
        default=1,
        metavar="WORKERS",
        help=(
            "plan queries concurrently on this many threads "
            "(best when planning is numpy-kernel dominated)"
        ),
    )
    workload.add_argument(
        "--procs",
        type=int,
        default=0,
        metavar="PROCS",
        help=(
            "shard queries across a process pool of this size instead "
            "of threads (best for GIL-bound planning on many cores); "
            "mutually exclusive with --parallel/--workers"
        ),
    )
    workload.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help=(
            "record spans and write the full export bundle "
            "(trace.json, spans.jsonl, report.txt, metrics.json) here"
        ),
    )
    _add_fault_options(workload)

    serve = sub.add_parser(
        "serve",
        help="start the optimizer service and smoke it with requests",
    )
    _add_planner_options(serve)
    _add_serving_options(serve)
    serve.add_argument(
        "--requests",
        type=int,
        default=12,
        help="number of smoke requests to push through the service",
    )
    serve.add_argument(
        "--tenants",
        type=int,
        default=3,
        help="number of synthetic tenants to round-robin over",
    )
    serve.add_argument(
        "--metrics",
        action="store_true",
        help="print the session's metrics summary after serving",
    )
    serve.add_argument(
        "--metrics-addr",
        metavar="HOST:PORT",
        default=None,
        help="expose a Prometheus /metrics scrape endpoint here "
        "while the service runs (port 0 picks a free port)",
    )

    rep = sub.add_parser(
        "replay",
        help="replay a traffic trace through the optimizer service",
    )
    _add_planner_options(rep)
    _add_serving_options(rep)
    rep.add_argument(
        "--arrival",
        choices=("poisson", "bursty"),
        default="poisson",
        help="arrival process for the synthetic trace",
    )
    rep.add_argument(
        "--num-requests",
        type=int,
        default=200,
        help="trace length in requests",
    )
    rep.add_argument(
        "--tenants",
        type=int,
        default=4,
        help="number of synthetic tenants",
    )
    rep.add_argument(
        "--seed",
        type=int,
        default=0,
        help="trace seed (arrivals, tenants, query mix)",
    )
    rep.add_argument(
        "--time-scale",
        type=float,
        default=0.0,
        help="pace arrivals against the trace timeline "
        "(1.0 = real time; 0 = as fast as possible)",
    )
    rep.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the replay report as JSON here",
    )

    top = sub.add_parser(
        "top",
        help="render a live text dashboard from telemetry artifacts",
    )
    top.add_argument(
        "--events",
        metavar="FILE",
        default=None,
        help="JSONL event log to render (from serve/replay --events)",
    )
    top.add_argument(
        "--stats",
        metavar="FILE",
        default=None,
        help="Prometheus stats file to render (from --stats-file)",
    )
    top.add_argument(
        "--follow",
        action="store_true",
        help="re-render on an interval instead of printing once",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh interval for --follow (default 2.0)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="with --follow, stop after N renders (0 = until ^C)",
    )

    lint = sub.add_parser(
        "lint", help="run the invariant linter (repro.analysis)"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        metavar="ID_OR_NAME",
        help="run only this rule (repeatable)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="findings output format",
    )
    lint.add_argument(
        "--no-suppress",
        action="store_true",
        help="ignore '# lint: disable' pragmas",
    )
    lint.add_argument(
        "--sarif",
        metavar="FILE",
        help="additionally write a SARIF 2.1.0 log to FILE ('-' for "
        "stdout)",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        help="only fail on findings not recorded in this baseline file",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the --baseline file from the current findings",
    )
    lint.add_argument(
        "--graph",
        action="store_true",
        help="dump the resolved whole-program call graph and exit",
    )
    lint.add_argument(
        "--plans",
        action="store_true",
        help="also validate optimized plans for every TPC-H "
        "evaluation query with the runtime well-formedness checker",
    )
    return parser


def _add_serving_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="service worker threads",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=128,
        help="admission queue bound (requests beyond it are rejected "
        "with a typed Overloaded error)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=0,
        help="cap on concurrent optimizer runs (0 = same as --workers)",
    )
    parser.add_argument(
        "--cache-shards",
        type=int,
        default=8,
        help="cross-tenant plan cache: number of lock-striped shards",
    )
    parser.add_argument(
        "--cache-capacity",
        type=int,
        default=64,
        help="cross-tenant plan cache: entries per shard (LRU beyond)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the cross-tenant plan cache",
    )
    parser.add_argument(
        "--stats-file",
        metavar="FILE",
        default=None,
        help="write the Prometheus text-format exposition here "
        "after the run",
    )
    parser.add_argument(
        "--events",
        metavar="FILE",
        default=None,
        help="write the unified telemetry event log (JSONL) here "
        "after the run",
    )
    parser.add_argument(
        "--slo-target-ms",
        type=float,
        default=None,
        metavar="MS",
        help="track a per-tenant latency SLO against this target "
        "(burn-rate alerts land in the event log)",
    )
    parser.add_argument(
        "--slo-objective",
        type=float,
        default=0.95,
        metavar="FRACTION",
        help="fraction of requests that must meet --slo-target-ms "
        "(default 0.95)",
    )


def _make_service(
    session: RaqoSession, args: argparse.Namespace
) -> "object":
    from repro.obs.slo import SloPolicy
    from repro.serving import ServiceConfig

    slo = None
    if args.slo_target_ms is not None:
        slo = SloPolicy(
            latency_target_ms=args.slo_target_ms,
            objective=args.slo_objective,
        )
    return session.serve(
        ServiceConfig(
            workers=args.workers,
            max_queue=args.queue_depth,
            max_inflight=args.max_inflight,
            cache_enabled=not args.no_cache,
            cache_shards=args.cache_shards,
            cache_shard_capacity=args.cache_capacity,
            slo=slo,
        )
    )


def _export_telemetry(
    session: RaqoSession, args: argparse.Namespace
) -> None:
    """Honour the --stats-file/--events telemetry export flags."""
    if getattr(args, "stats_file", None):
        session.write_stats_file(args.stats_file)
        print(f"stats file written: {args.stats_file}")
    if getattr(args, "events", None):
        count = session.write_events(args.events)
        print(f"events written: {args.events} ({count} events)")


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help=(
            "inject deterministic faults during simulated execution; "
            "SPEC is key=value pairs, e.g. "
            "'seed=7,preempt=0.1,oom=0.3,straggle=0.1,slowdown=4'"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="recovery policy: retries per stage (default 3)",
    )


def _add_trace_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace_event JSON timeline here "
        "(loads in Perfetto / chrome://tracing)",
    )
    parser.add_argument(
        "--spans",
        metavar="PATH",
        default=None,
        help="write the recorded spans as JSONL here",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the session's metrics summary after the run",
    )


def _make_faults(
    args: argparse.Namespace,
) -> "Tuple[Optional[FaultPlan], Optional[RecoveryPolicy]]":
    """(fault plan, recovery policy) from the CLI flags, or Nones."""
    from repro.faults import (
        DEFAULT_RECOVERY,
        FaultError,
        FaultPlan,
        FaultSpec,
        RecoveryPolicy,
    )

    if args.faults is None and args.max_retries is None:
        return None, None
    try:
        spec = (
            FaultSpec.parse(args.faults) if args.faults else FaultSpec()
        )
    except FaultError as exc:
        raise SystemExit(f"error: invalid --faults spec: {exc}")
    recovery = (
        dataclasses.replace(
            DEFAULT_RECOVERY, max_retries=args.max_retries
        )
        if args.max_retries is not None
        else DEFAULT_RECOVERY
    )
    return FaultPlan(spec), recovery


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--query",
        choices=sorted(_QUERIES),
        default="Q3",
        help="TPC-H evaluation query",
    )
    _add_planner_options(parser)


def _add_planner_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale-factor",
        type=float,
        default=100.0,
        help="TPC-H scale factor",
    )
    parser.add_argument(
        "--planner",
        choices=[kind.value for kind in PlannerKind],
        default=PlannerKind.SELINGER.value,
        help="join-order search algorithm",
    )
    parser.add_argument(
        "--resource-method",
        choices=[m.value for m in ResourcePlanningMethod],
        default=ResourcePlanningMethod.HILL_CLIMB.value,
        help="resource-planning search",
    )
    parser.add_argument(
        "--containers",
        type=int,
        default=100,
        help="cluster capacity: maximum concurrent containers",
    )
    parser.add_argument(
        "--container-gb",
        type=float,
        default=10.0,
        help="cluster capacity: maximum container memory (GB)",
    )
    parser.add_argument(
        "--baseline",
        action="store_true",
        help="use the two-step baseline instead of RAQO",
    )
    parser.add_argument(
        "--objective",
        default=None,
        metavar="OBJECTIVE",
        help=f"planning objective: {OBJECTIVE_SPECS}",
    )


def _make_session(
    args: argparse.Namespace, seed: int = 0
) -> RaqoSession:
    """Build the facade session the CLI flags describe.

    A tracer is attached only when an export flag asks for one, so
    untraced invocations keep the null-tracer fast path.
    """
    cluster = ClusterConditions(
        max_containers=args.containers,
        max_container_gb=args.container_gb,
    )
    wants_trace = bool(
        getattr(args, "trace", None)
        or getattr(args, "spans", None)
        or getattr(args, "metrics", False)
        or getattr(args, "trace_dir", None)
    )
    return RaqoSession(
        cluster=cluster,
        seed=seed,
        scale_factor=args.scale_factor,
        planner=PlannerKind(args.planner),
        resource_method=ResourcePlanningMethod(args.resource_method),
        resource_aware=not args.baseline,
        objective=getattr(args, "parsed_objective", None),
        tracer=Tracer(seed=seed) if wants_trace else None,
    )


def _export_trace(session: RaqoSession, args: argparse.Namespace) -> None:
    """Honour the --trace/--spans/--metrics export flags."""
    if getattr(args, "trace", None):
        session.write_trace(args.trace)
        print(f"trace written: {args.trace} (open in Perfetto)")
    if getattr(args, "spans", None):
        count = session.write_spans(args.spans)
        print(f"spans written: {args.spans} ({count} spans)")
    if getattr(args, "metrics", False):
        print()
        print(session.metrics.render_text("session metrics"))


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.analysis.plan_checks import validate_plan

    session = _make_session(args)
    planner = session.planner
    result = session.plan(args.query)
    # Every emitted plan passes the runtime well-formedness checker
    # before it is shown (tree shape, arity, by-name resource bounds).
    validate_plan(
        result.plan,
        cluster=planner.cluster,
        require_resources=planner.resource_aware,
    )
    print(result.plan.explain())
    print(
        f"predicted time: {result.cost.time_s:.1f} s | "
        f"monetary: ${result.cost.money:.3f} | "
        f"planning: {result.wall_time_s * 1000:.1f} ms | "
        f"resource configurations explored: "
        f"{result.resource_iterations} | plan invariants: ok"
    )
    if (
        isinstance(result, ParetoPlanningResult)
        and result.frontier is not None
        and len(result.frontier)
    ):
        frontier = result.frontier
        fastest, cheapest = frontier.fastest, frontier.cheapest
        assert fastest is not None and cheapest is not None
        print(
            f"objective: {result.objective} | frontier: "
            f"{len(frontier)} points "
            f"({fastest.time_s:.1f} s/"
            f"${fastest.money:.3f} fastest .. "
            f"{cheapest.time_s:.1f} s/"
            f"${cheapest.money:.3f} cheapest) | "
            f"dominated pruned: {frontier.dominated_pruned}"
        )
    return 0


def _cmd_execute(args: argparse.Namespace) -> int:
    session = _make_session(args)
    faults, recovery = _make_faults(args)
    result = session.run(
        args.query, faults=faults, recovery=recovery
    )
    run = result.execution
    print(result.planning.plan.explain())
    print(
        f"simulated execution: {run.time_s:.1f} s | "
        f"{run.tb_seconds:.2f} TB*s | ${run.dollars:.3f}"
    )
    if faults is not None:
        print(
            f"faults: {run.faults_injected} injected | "
            f"{run.retries} retries | "
            f"{run.degraded_stages} degraded stage(s) | "
            f"{run.speculative_stages} speculative | "
            f"{'feasible' if run.feasible else 'FAILED'}"
        )
    if not args.baseline:
        baseline = RaqoSession(
            session.catalog,
            cluster=session.cluster,
            resource_aware=False,
        )
        baseline_run = baseline.run(
            args.query, faults=faults, recovery=recovery
        ).execution
        speedup = baseline_run.time_s / run.time_s
        print(
            f"two-step baseline: {baseline_run.time_s:.1f} s "
            f"(RAQO speedup {speedup:.2f}x)"
        )
    _export_trace(session, args)
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.workloads.generator import WorkloadSpec, generate_workload

    if args.parallel < 1:
        print("--parallel must be >= 1", file=sys.stderr)
        return 2
    if args.procs < 0:
        print("--procs must be >= 0", file=sys.stderr)
        return 2
    if args.procs and args.parallel > 1:
        print(
            "--procs and --parallel/--workers are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    session = _make_session(args, seed=args.seed)
    faults, recovery = _make_faults(args)
    queries = generate_workload(
        session.catalog,
        WorkloadSpec(num_queries=args.num_queries),
        np.random.default_rng(args.seed),
    )
    report = session.workload(
        queries,
        parallel=args.parallel,
        processes=args.procs,
        label="baseline" if args.baseline else "raqo",
        faults=faults,
        recovery=recovery,
    )
    for outcome in report.outcomes:
        print(
            f"{outcome.query.name:>12}: "
            f"planning {outcome.planning_ms:8.1f} ms | "
            f"{outcome.resource_iterations:6d} resource iters | "
            f"simulated {outcome.executed_time_s:8.1f} s | "
            f"${outcome.executed_dollars:.3f}"
        )
    print(
        f"\n{report.label}: {len(report.outcomes)} queries "
        + (
            f"({args.procs} process(es)) | "
            if args.procs
            else f"({args.parallel} worker(s)) | "
        )
        +
        f"planning {report.total_planning_ms:.1f} ms | "
        f"{report.total_resource_iterations} resource iters | "
        f"simulated {report.total_executed_time_s:.1f} s | "
        f"${report.total_dollars:.3f}"
    )
    if faults is not None:
        print(
            f"faults: {report.total_faults_injected} injected | "
            f"{report.total_retries} retries | "
            f"{report.total_degraded_stages} degraded | "
            f"{report.infeasible_queries} failed quer(ies)"
        )
    if args.trace_dir:
        written = session.write_trace_dir(
            args.trace_dir, title=f"workload ({report.label})"
        )
        print(
            "trace bundle written: "
            + ", ".join(str(p) for _, p in sorted(written.items()))
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import contextlib

    from repro.obs.prometheus import MetricsServer, parse_metrics_addr
    from repro.serving import PlanRequest

    if args.requests < 1:
        print("--requests must be >= 1", file=sys.stderr)
        return 2
    if args.tenants < 1:
        print("--tenants must be >= 1", file=sys.stderr)
        return 2
    session = _make_session(args)
    service = _make_service(session, args)
    scrape: contextlib.AbstractContextManager[object]
    if args.metrics_addr:
        try:
            host, port = parse_metrics_addr(args.metrics_addr)
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
        server = MetricsServer(host, port, session.exposition)
        bound_host, bound_port = server.address
        print(
            f"metrics endpoint: "
            f"http://{bound_host}:{bound_port}/metrics"
        )
        scrape = server
    else:
        scrape = contextlib.nullcontext()
    names = sorted(_QUERIES)
    with scrape, service:
        futures = [
            service.submit(
                PlanRequest(
                    request_id=index,
                    query=names[index % len(names)],
                    tenant=f"tenant-{index % args.tenants}",
                )
            )
            for index in range(args.requests)
        ]
        for future in futures:
            response = future.result()
            source = (
                "cache hit"
                if response.cache_hit
                else "coalesced"
                if response.coalesced
                else "planned"
            )
            print(
                f"#{response.request.request_id:04d} "
                f"{response.request.tenant:>10} "
                f"{response.result.query.name:>4}: {source:>9} | "
                f"{response.latency_ms:8.2f} ms "
                f"(queued {response.queue_ms:.2f} ms, "
                f"batch of {response.batch_size})"
            )
    cache = service.cache
    if cache is not None:
        snap = cache.snapshot()
        print(
            f"\ncache: {snap['hits']} hits / {snap['misses']} misses "
            f"(rate {cache.hit_rate:.2f}) | {snap['entries']} entries "
            f"across {snap['shards']} shards | "
            f"{snap['evictions']} evictions"
        )
    if args.metrics:
        print()
        print(session.metrics.render_text("session metrics"))
    _export_telemetry(session, args)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import json

    from repro.serving import ReplayConfig, build_requests, replay

    if args.num_requests < 1:
        print("--num-requests must be >= 1", file=sys.stderr)
        return 2
    if args.tenants < 1:
        print("--tenants must be >= 1", file=sys.stderr)
        return 2
    session = _make_session(args, seed=args.seed)
    service = _make_service(session, args)
    config = ReplayConfig(
        num_requests=args.num_requests,
        arrival=args.arrival,
        num_tenants=args.tenants,
        seed=args.seed,
    )
    requests = build_requests(config, catalog=session.catalog)
    with service:
        report = replay(
            service,
            requests,
            label=args.arrival,
            time_scale=args.time_scale,
        )
    print(
        f"{report.label}: {report.completed}/{report.requests} "
        f"completed ({report.rejected} rejected) | "
        f"{report.qps:.0f} qps over {report.elapsed_s:.2f} s"
    )
    print(
        f"latency: p50 {report.latency_ms['p50']:.2f} ms | "
        f"p95 {report.latency_ms['p95']:.2f} ms | "
        f"p99 {report.latency_ms['p99']:.2f} ms | "
        f"max {report.latency_ms['max']:.2f} ms"
    )
    if report.cache:
        print(
            f"cache: {report.cache_hits} request hits | "
            f"{report.coalesced} coalesced | "
            f"hit rate {float(report.cache['hit_rate']):.2f} | "
            f"{report.cache['entries']} entries"
        )
    for row in report.tenants:
        quantiles = row["latency_ms"]
        assert isinstance(quantiles, dict)
        print(
            f"tenant {str(row['tenant']):>10}: "
            f"{row['completed']:>4} completed | "
            f"{row['rejected']:>3} rejected | "
            f"{row['cache_hits']:>4} hits | "
            f"p50 {float(quantiles['p50']):8.2f} ms | "
            f"p95 {float(quantiles['p95']):8.2f} ms | "
            f"p99 {float(quantiles['p99']):8.2f} ms"
        )
    if args.output:
        payload = report.to_json_dict()
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"report written: {args.output}")
    _export_telemetry(session, args)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs.dashboard import render_dashboard_from_files

    if args.events is None and args.stats is None:
        print(
            "top needs --events FILE and/or --stats FILE",
            file=sys.stderr,
        )
        return 2
    if args.interval <= 0:
        print("--interval must be > 0", file=sys.stderr)
        return 2

    def render_once() -> None:
        print(
            render_dashboard_from_files(
                events_path=args.events, stats_path=args.stats
            )
        )

    if not args.follow:
        render_once()
        return 0
    rendered = 0
    try:
        while True:
            render_once()
            rendered += 1
            if args.iterations and rendered >= args.iterations:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import main as lint_main
    from repro.analysis.plan_checks import validate_plan

    argv: List[str] = list(args.paths)
    for selector in args.rule or ():
        argv.extend(["--rule", selector])
    if args.list_rules:
        argv.append("--list-rules")
    if args.format != "text":
        argv.extend(["--format", args.format])
    if args.no_suppress:
        argv.append("--no-suppress")
    if args.sarif:
        argv.extend(["--sarif", args.sarif])
    if args.baseline:
        argv.extend(["--baseline", args.baseline])
    if args.update_baseline:
        argv.append("--update-baseline")
    if args.graph:
        argv.append("--graph")
    status = lint_main(argv)
    if args.plans and not args.list_rules:
        planner = RaqoPlanner.default(tpch.tpch_catalog(100))
        for query in tpch.EVALUATION_QUERIES:
            result = planner.optimize(query)
            validate_plan(
                result.plan,
                cluster=planner.cluster,
                require_resources=True,
            )
        print(
            f"plan invariants: ok "
            f"({len(tpch.EVALUATION_QUERIES)} evaluation queries)"
        )
    return status


def _cmd_figure(args: argparse.Namespace) -> int:
    module = importlib.import_module(FIGURE_MODULES[args.name])
    module.main()
    return 0


def _cmd_trees(args: argparse.Namespace) -> int:
    from repro.core.rules import DefaultThresholdRule
    from repro.experiments import fig11_raqo_trees

    profile = HIVE_PROFILE if args.engine == "hive" else SPARK_PROFILE
    print(f"=== default tree ({args.engine}) ===")
    print(
        DefaultThresholdRule(
            profile.default_broadcast_threshold_gb
        ).export_text()
    )
    print(f"\n=== RAQO tree ({args.engine}) ===")
    result = fig11_raqo_trees.run(profile)
    print(result.rule.export_text())
    print(
        f"max path length: {result.max_path_length}, "
        f"accuracy: {result.training_accuracy:.3f}"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    # Validate --objective centrally: every planning command shares the
    # flag, and a malformed value is a usage error (exit 2), exactly
    # like --tenants.
    args.parsed_objective = None
    if getattr(args, "objective", None):
        try:
            args.parsed_objective = PlanObjective.parse(args.objective)
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
    handlers = {
        "plan": _cmd_plan,
        "execute": _cmd_execute,
        "run": _cmd_execute,
        "figure": _cmd_figure,
        "trees": _cmd_trees,
        "workload": _cmd_workload,
        "serve": _cmd_serve,
        "replay": _cmd_replay,
        "top": _cmd_top,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
