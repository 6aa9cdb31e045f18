"""One benchmark process: set up, run one workload, check it, report.

``run.py`` starts this script in a fresh interpreter for every sample, so
the set-up it times covers imports, session creation (the cost-model
fit), service start and warm-up.  The last line of standard output is
one JSON object; ``run.py`` turns it into the benchmark's result.

    python3 perfbench/worker.py --workload tpch_fastest --seed 1 \
        --seconds 10 --trace 0 --mode measure

``--mode setup`` stops right after set-up and reports only the moment
it became ready (``time.monotonic``, which is shared by every process on
the host, so ``run.py`` can subtract its own spawn time) and the host's
speed right after it.  With ``--signature`` it then also runs the
untimed start of the workload and reports its exact-repeat signature,
which ``run.py`` compares with the measuring process's.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import queue
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.analysis.plan_checks import validate_plan  # noqa: E402
from repro.api import PlanObjective, RaqoSession  # noqa: E402
from repro.catalog.queries import Query  # noqa: E402
from repro.engine.executor import ExecutionResult, execute_plan  # noqa: E402
from repro.planner.cost_interface import PlanningCounters  # noqa: E402
from repro.serving.service import Overloaded, PlanRequest  # noqa: E402
from repro.workloads.generator import WorkloadSpec, generate_workload  # noqa: E402

from spans import SpanRecorder, sum_self  # noqa: E402

#: The paper's TPC-H evaluation set, in the order the client sends it.
TPCH_QUERIES = ("Q12", "Q3", "Q2", "All")
SCALE_FACTOR = 100.0
TENANTS = tuple(f"tenant-{index:02d}" for index in range(16))
#: Requests the generator sends at once before waiting for all of them.
#: ``serve_distinct`` keeps one request in flight, so its latency is
#: admission plus planning.  ``serve_hot`` sends bursts of four over
#: four keys, so cache hits often share a batch and coalesce.  Over
#: five runs on a 2-vCPU host, one request in flight left its
#: throughput spread at 0.32 (thread wake-ups dominate a 0.1 ms hit)
#: and bursts of 16 its p99 spread at 0.53; bursts of 4 gave 0.08 and
#: 0.44 with one outlier run.
BURST = {"serve_distinct": 1, "serve_hot": 4}
#: Requests generated per second of run time: well above what either
#: serving loop completes on a 2-vCPU host, so they never run out.
SERVE_CAPACITY = {"serve_distinct": 400, "serve_hot": 24000}
#: Table counts of the distinct queries and their exact shares (the
#: generator's default size weights), fixed so that the planning-time
#: mix does not vary with the seed.
DISTINCT_SIZES = ((2, 0.4), (3, 0.3), (4, 0.2), (5, 0.1))
#: Generated queries sent before timing, so the first timed request does
#: not pay for first-call work.
DISTINCT_WARMUP = 8
#: ``serve_distinct`` requests whose planning counters form the
#: exact-repeat signature; every run serves at least these.
SIGNATURE_REQUESTS = 64
COUNTER_FIELDS = (
    "resource_iterations",
    "join_costings",
    "cache_hits",
    "cache_misses",
    "memo_hits",
    "batched_calls",
    "batch_memo_hits",
    "dominated_pruned",
    "frontier_points",
)
#: How long the serving loops wait for any one response before the run
#: fails.
DRAIN_TIMEOUT_S = 60.0

#: Seconds between resident-memory readings.
RSS_EVERY_S = 1.0
#: ``speed_probe()`` seconds on the reference machine.  Timed ops are
#: reported as if run at that speed.
PROBE_REFERENCE_S = 0.0015
#: Speed probes run right after set-up, to scale ``setup_s``.
SETUP_PROBES = 20
#: Op time per speed probe, and the most probes run after one op.
PROBE_EVERY_S = 0.025
MAX_PROBES_PER_OP = 20
#: Op time a serving loop's scaling block spans: its ops are scaled by
#: the median of its own probes (the host's slow spells last about a
#: second, so a run-wide factor misses them).  In the TPC-H loops a
#: block is one pass.
BLOCK_S = 0.5
#: Workloads whose op times are reported as measured.  Their ops last
#: seconds, so probes run between them sample the host far more briefly
#: than the op ran: scaling ``tpch_cheapest`` (All takes ~11 s) by them
#: doubled its ``queries_per_s`` spread (0.08 to 0.16 over five runs on
#: a 2-vCPU host).  Probes run from a timer signal inside the op cut
#: that spread to 0.05 but tripled the program's memory growth per pass
#: (4 MB to 14 MB), so they are not used.
UNSCALED = ("tpch_cheapest",)
#: Timed passes every TPC-H run makes.  One All pass under the cheapest
#: objective takes 10-12 s on a 2-vCPU host, so with a 10 s run the
#: pass count flipped between one and two with the host's speed, and
#: ``rss_kb_per_1k_ops`` with it (1.74 and 1.38 MB per op).
MIN_PASSES = 2
#: Latency quantiles are taken per window of at least this many
#: operations, and over at most ``MAX_WINDOWS`` windows.
LATENCY_WINDOW = 1000
MAX_WINDOWS = 15
#: Bursts of ``BURST_SIZE`` requests sent at once in the traced run, to
#: measure batching and coalescing in both serving loops.
BURSTS = 8
BURST_SIZE = 16

clock = time.perf_counter


# -- the layer patch table ----------------------------------------------


def install_layer_spans(recorder: SpanRecorder) -> None:
    """Wrap every layer's entry point at the name its callers bind."""
    import repro.api
    import repro.core.raqo
    from repro.core.cost_model import CostModelSuite
    from repro.core.plan_cache import ResourcePlanCache
    from repro.core.raqo import RaqoCoster
    from repro.obs.events import EventLog
    from repro.obs.metrics import Counter, Histogram
    from repro.obs.telemetry import TelemetryPlane
    from repro.obs.windows import WindowedCounter, WindowedHistogram
    from repro.planner.selinger import SelingerPlanner
    from repro.serving.cache import ShardedPlanCache
    from repro.serving.service import OptimizerService

    table = [
        (SelingerPlanner, "plan", "planner.dp"),
        (RaqoCoster, "cost_batch", "raqo.cost_batch"),
        (
            repro.core.raqo,
            "hill_climb_resource_plan",
            "resource_planner.hill_climb",
        ),
        (CostModelSuite, "predict_time", "cost_model.predict"),
        (CostModelSuite, "predict_time_grid", "cost_model.predict"),
        (CostModelSuite, "predict_time_grid_batch", "cost_model.predict"),
        (CostModelSuite, "predict_time_rows", "cost_model.predict"),
        (ResourcePlanCache, "lookup", "plan_cache.op"),
        (ResourcePlanCache, "insert", "plan_cache.op"),
        (repro.core.raqo, "compute_frontier", "pareto.frontier"),
        (repro.api, "execute_plan", "engine.execute"),
        (OptimizerService, "submit", "serving.submit"),
        (ShardedPlanCache, "lookup", "serving.cache_lookup"),
        (TelemetryPlane, "windowed_counter", "obs.instrument"),
        (TelemetryPlane, "windowed_gauge", "obs.instrument"),
        (TelemetryPlane, "windowed_histogram", "obs.instrument"),
        (WindowedCounter, "inc", "obs.counter_inc"),
        (WindowedHistogram, "observe", "obs.histogram_observe"),
        (EventLog, "emit", "obs.event_emit"),
        (Counter, "inc", "obs.counter_inc"),
        (Histogram, "observe", "obs.histogram_observe"),
    ]
    for owner, attr, name in table:
        recorder.patch(owner, attr, name)


OBS_SPANS = (
    "obs.instrument",
    "obs.counter_inc",
    "obs.histogram_observe",
    "obs.event_emit",
)


# -- small helpers -------------------------------------------------------


def _load_malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None


_MALLOC_TRIM = _load_malloc_trim()
_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def rss_kb() -> float:
    """Resident memory after handing freed heap pages back to the OS.

    Trimming first makes the figure track memory the program still
    holds rather than what the allocator happens to cache.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    with open("/proc/self/statm") as statm:
        return float(int(statm.read().split()[1]) * _PAGE_KB)


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (a real sample; ``inf`` sorts last)."""
    if len(values) == 0:
        return math.nan
    ordered = np.sort(np.asarray(values, dtype=float))
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class _ProbeConfig:
    containers: int
    gb: float


def speed_probe() -> float:
    """Seconds for a fixed slice of planner-like pure-Python work.

    The host's speed drifts by tens of percent between and within runs
    as neighbours come and go.  This slice mixes what the planner
    spends its time on -- frozen-dataclass construction, tuple and
    float arithmetic, dict memo lookups -- so its time moves with the
    planner's (correlation 0.99 over 1 s blocks on a 2-vCPU host,
    against 0.92 for a bare integer loop).

    The collector is off while it runs, so the probe never pays for a
    collection of the program's heap.  Everything it allocates is freed
    by reference counting when it returns, which leaves the collector's
    allocation counts, and so the program's own collections, as they
    were.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        memo: Dict[tuple, float] = {}
        total = 0.0
        for i in range(1000):
            key = (i % 211, i % 13)
            value = memo.get(key)
            if value is None:
                config = _ProbeConfig(i % 50, float(i % 7) + 1.0)
                x = config.gb * 1.5 + config.containers
                features = (
                    x, x * x, config.gb, config.gb * config.gb, x / config.gb
                )
                value = 0.0
                for feature in features:
                    value = value + 0.37 * feature
                value = memo[key] = max(value, 1e-3)
            total += value
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


def ready_report() -> Dict[str, float]:
    """When set-up ended (``time.monotonic``, shared by every process on
    the host), and the host's speed factor right after it, from
    ``SETUP_PROBES`` speed probes."""
    ready = time.monotonic()
    probes = [speed_probe() for _ in range(SETUP_PROBES)]
    return {
        "ready": ready,
        "setup_speed": float(np.median(probes)) / PROBE_REFERENCE_S,
    }


def rss_slope(ops: Sequence[float], rss: Sequence[float]) -> float:
    """KB per op: the least-squares slope through the readings, which
    a single allocator step at either end cannot swing."""
    return float(np.polyfit(np.asarray(ops), np.asarray(rss), 1)[0])


def windowed_quantile(values: Sequence[float], q: float) -> float:
    """Median over consecutive windows of the ``q``-quantile.

    A window holds at least ``LATENCY_WINDOW`` samples, so its p99 has
    ten samples beyond it, and there are at most ``MAX_WINDOWS``, so a
    window of a fast loop still spans many collector pauses.  The
    median window is robust to a single stall on a shared host.
    """
    windows = min(MAX_WINDOWS, max(1, len(values) // LATENCY_WINDOW))
    parts = np.array_split(np.asarray(values, dtype=float), windows)
    return float(np.median([quantile(part, q) for part in parts]))


def counter_tuple(counters: PlanningCounters) -> Tuple[int, ...]:
    return tuple(getattr(counters, name) for name in COUNTER_FIELDS)


def renamed(query: Query, name: str) -> Query:
    return Query(name=name, tables=query.tables, filters=query.filters)


def simulate(session: RaqoSession, plan) -> ExecutionResult:
    """Simulate ``plan`` exactly as ``RaqoSession.run`` does."""
    return execute_plan(
        plan,
        session.planner.estimator,
        session.profile,
        default_resources=session.default_resources,
    )


def join_errors(
    session: RaqoSession, executions: Sequence[ExecutionResult]
) -> List[float]:
    """``|pred - sim| / sim`` per executed join, predicted through the
    session's public cost model."""
    model = session.planner.cost_model
    estimator = session.planner.estimator
    errors = []
    for execution in executions:
        for report in execution.joins:
            if not report.feasible or report.time_s <= 0.0:
                continue
            small_gb, large_gb = estimator.join_io_gb(
                report.left_tables, report.right_tables
            )
            predicted = model.predict_time(
                report.algorithm, small_gb, large_gb, report.resources
            )
            errors.append(abs(predicted - report.time_s) / report.time_s)
    return errors


def plan_quality(
    session: RaqoSession, executions: Sequence[ExecutionResult]
) -> Dict[str, float]:
    errors = join_errors(session, executions)
    return {
        "plan_sim_s": float(sum(e.time_s for e in executions)),
        "plan_dollars": float(sum(e.dollars for e in executions)),
        "err_p50": quantile(errors, 0.5),
        "err_p90": quantile(errors, 0.9),
    }


def signature(totals: Sequence[int], quality: Dict[str, float]) -> dict:
    """What must repeat exactly in every run of a workload and seed."""
    return {
        "counters": dict(zip(COUNTER_FIELDS, (int(t) for t in totals))),
        "plan_sim_s": repr(quality["plan_sim_s"]),
        "plan_dollars": repr(quality["plan_dollars"]),
        "err_p50": repr(quality["err_p50"]),
    }


def counter_metrics(totals: Sequence[int], queries: int) -> Dict[str, float]:
    """Per-query layer counts from summed ``PlanningCounters``."""
    c = dict(zip(COUNTER_FIELDS, totals))
    lookups = c["cache_hits"] + c["cache_misses"]
    return {
        "planner.join_costings": c["join_costings"] / queries,
        "raqo.resource_iterations": c["resource_iterations"] / queries,
        "raqo.memo_hit_ratio": (
            c["memo_hits"] / c["join_costings"] if c["join_costings"] else 0.0
        ),
        "plan_cache.hit_ratio": c["cache_hits"] / lookups if lookups else 0.0,
        "pareto.frontier_points": c["frontier_points"] / queries,
        "pareto.dominated_pruned": c["dominated_pruned"] / queries,
    }


def span_metrics(
    recorder: SpanRecorder, ops: int, root: Optional[str]
) -> Dict[str, float]:
    """Per-operation self times and call counts from a traced phase."""
    summary = recorder.summary()

    def self_ms(*names: str) -> float:
        return sum_self(summary, names)[1] * 1000.0 / ops

    def calls(*names: str) -> int:
        return sum_self(summary, names)[0]

    def per_call_us(name: str) -> float:
        count, seconds = summary.get(name, (0, 0.0))
        return seconds * 1e6 / count if count else 0.0

    unattributed = 0.0
    if root is not None:
        spans = recorder.arrays()
        is_root = spans["name"] == recorder.name_id(root)
        total = float(np.sum(spans["end"][is_root] - spans["start"][is_root]))
        unattributed = summary[root][1] / total if total else 0.0
    return {
        "planner.dp_self_ms": self_ms("planner.dp"),
        "raqo.cost_batch_self_ms": self_ms("raqo.cost_batch"),
        "resource_planner.hill_climb_self_ms": self_ms(
            "resource_planner.hill_climb"
        ),
        "resource_planner.calls": calls("resource_planner.hill_climb") / ops,
        "plan_cache.self_ms": self_ms("plan_cache.op"),
        "cost_model.predict_calls": calls("cost_model.predict") / ops,
        "cost_model.predict_self_ms": self_ms("cost_model.predict"),
        "pareto.frontier_self_ms": self_ms("pareto.frontier"),
        "engine.execute_self_ms": self_ms("engine.execute"),
        "serving.submit_self_us": per_call_us("serving.submit"),
        "serving.cache_lookup_self_us": per_call_us("serving.cache_lookup"),
        "obs.self_us_per_req": self_ms(*OBS_SPANS) * 1000.0,
        "obs.events_per_1k": calls("obs.event_emit") * 1000.0 / ops,
        "obs.histogram_samples_per_1k": (
            calls("obs.histogram_observe") * 1000.0 / ops
        ),
        "harness.unattributed_frac": unattributed,
    }


class Timed:
    """Op wall times, the speed probes that scale them, and memory
    readings of one timed phase.

    With ``scale`` every op is scaled to the reference machine speed.
    After an op, untimed speed probes run, one per ``PROBE_EVERY_S`` of
    op time since the last probe (at most ``MAX_PROBES_PER_OP``).  Ops
    are grouped into blocks of at least ``block_s`` of op time, closed
    only where the loop calls :meth:`boundary`, and each block has at
    least one probe.  An op's scaled time is its time divided by
    ``median(probe) / PROBE_REFERENCE_S`` over its own block's probes.
    Without ``scale`` no probe runs and every op reads as measured.
    """

    def __init__(self, scale: bool, block_s: float) -> None:
        self.scale = scale
        self.block_s = block_s
        self.durations = array("d")
        self.op_block = array("i")
        self.probes = array("d")
        self.probe_block = array("i")
        self.rss_ops = array("d")
        self.rss = array("d")
        self._block = 0
        self._block_s = 0.0
        self._block_probes = 0
        self._unprobed_s = 0.0

    @property
    def ops(self) -> int:
        return len(self.durations)

    def add(self, elapsed: float) -> None:
        """Record one op's wall time, then probe if it is due."""
        self.durations.append(elapsed)
        self.op_block.append(self._block)
        self._block_s += elapsed
        self._unprobed_s += elapsed
        if self.scale and self._unprobed_s >= PROBE_EVERY_S:
            count = int(self._unprobed_s / PROBE_EVERY_S)
            self._probe(min(MAX_PROBES_PER_OP, count))

    def _probe(self, count: int) -> None:
        for _ in range(count):
            self.probes.append(speed_probe())
            self.probe_block.append(self._block)
        self._block_probes += count
        self._unprobed_s = 0.0

    def boundary(self, final: bool = False) -> None:
        """Close the current block if it spans ``BLOCK_S`` (or, at the
        end of the phase, if it holds any op)."""
        if self._block_s >= self.block_s or (final and self._block_s > 0.0):
            if self.scale and not self._block_probes:
                self._probe(1)
            self._block += 1
            self._block_s = 0.0
            self._block_probes = 0

    def factors(self) -> np.ndarray:
        """Per op: how much slower than the reference the host ran."""
        if not self.scale:
            return np.ones(self.ops)
        probes = np.frombuffer(self.probes)
        probe_block = np.frombuffer(self.probe_block, dtype=np.int32)
        op_block = np.frombuffer(self.op_block, dtype=np.int32)
        per_block = np.array(
            [
                np.median(probes[probe_block == block])
                for block in range(int(op_block[-1]) + 1)
            ]
        )
        return per_block[op_block] / PROBE_REFERENCE_S

    def scaled(self) -> np.ndarray:
        return np.frombuffer(self.durations) / self.factors()

    @property
    def speed_factor(self) -> Optional[float]:
        if not self.scale:
            return None
        return float(np.median(self.probes)) / PROBE_REFERENCE_S

    def read_rss(self, ops: int) -> None:
        self.rss_ops.append(ops)
        self.rss.append(rss_kb())

    def rss_kb_per_1k_ops(self) -> float:
        """Least-squares growth of resident memory per 1000 ops."""
        return rss_slope(self.rss_ops, self.rss) * 1000.0


# -- closed loop: the TPC-H evaluation set through RaqoSession.run -------


class ClosedLoop:
    """One client calling ``session.run`` for each TPC-H query in turn."""

    def __init__(
        self, objective: Optional[PlanObjective], scale: bool
    ) -> None:
        self.objective = objective
        self.scale = scale
        self.session = RaqoSession(scale_factor=SCALE_FACTOR)
        self.queries = [self.session.resolve_query(q) for q in TPCH_QUERIES]
        #: Per query: the first pass's exact-repeat signature.
        self.reference: Dict[str, tuple] = {}
        self.first_plans = []
        self.first_executions: List[ExecutionResult] = []
        self.first_counters = [0] * len(COUNTER_FIELDS)
        self.failed = 0
        self.mismatches = 0

    def warm_up(self) -> None:
        # One pass -- but never All under the cheapest objective, which
        # alone costs ~11 s and would swamp the set-up figure.
        for query in self.queries:
            if self.objective is not None and query.name == "All":
                break
            self.session.run(query, objective=self.objective)

    def first_pass(self) -> None:
        """One untimed pass, for the exact-repeat signature."""
        for query in self.queries:
            self._check(query, self.session.run(query, objective=self.objective))

    def measure(self, seconds: float, run=None) -> Timed:
        """Whole passes until ``seconds`` have gone by, and at least
        ``MIN_PASSES``.

        Resident memory is read before the first op, at pass ends about
        every ``RSS_EVERY_S``, and after the last op.
        """
        run = run or self.session.run
        timed = Timed(self.scale, block_s=0.0)
        timed.read_rss(0)
        started = last_read = clock()
        passes = 0
        while True:
            for query in self.queries:
                t0 = clock()
                try:
                    result = run(query, objective=self.objective)
                except Exception as exc:  # one failed op, keep measuring
                    timed.add(clock() - t0)
                    self.failed += 1
                    print(f"op failed: {query.name}: {exc!r}", file=sys.stderr)
                    continue
                timed.add(clock() - t0)
                self._check(query, result)
                del result
            passes += 1
            now = clock()
            if now - started >= seconds and passes >= MIN_PASSES:
                timed.boundary(final=True)
                timed.read_rss(timed.ops)
                return timed
            timed.boundary()
            if now - last_read >= RSS_EVERY_S:
                timed.read_rss(timed.ops)
                last_read = clock()

    def _check(self, query: Query, result) -> None:
        execution = result.execution
        if not execution.feasible:
            self.failed += 1
        signature = (
            counter_tuple(result.planning.counters),
            execution.time_s,
            execution.dollars,
            hash(result.planning.plan),
        )
        reference = self.reference.get(query.name)
        if reference is None:
            self.reference[query.name] = signature
            self.first_plans.append(result.planning.plan)
            self.first_executions.append(execution)
            for i, value in enumerate(signature[0]):
                self.first_counters[i] += value
        elif signature != reference:
            self.mismatches += 1

    def signature(self) -> dict:
        quality = plan_quality(self.session, self.first_executions)
        return signature(self.first_counters, quality)


def run_closed(
    workload: str, seconds: float, trace: bool, mode: str, sign: bool
) -> dict:
    objective = (
        PlanObjective.cheapest() if workload == "tpch_cheapest" else None
    )
    loop = ClosedLoop(objective, scale=workload not in UNSCALED)
    loop.warm_up()
    ready = ready_report()
    if mode == "setup" and not sign:
        return ready
    # The first pass runs untimed: its signature is the exact-repeat
    # check's, and under the cheapest objective it is All's first run,
    # whose one-off memory growth would otherwise weigh on
    # ``rss_kb_per_1k_ops`` by how many timed passes follow it.
    loop.first_pass()
    if mode == "setup":
        ready["repeat"] = loop.signature()
        return ready
    timed = loop.measure(seconds)
    # Latency per pass: single ops differ by query (2 ms to 11 s), so
    # a quantile over ops lands on whichever query type straddles it.
    scaled = timed.scaled()
    passes = scaled.reshape(-1, len(TPCH_QUERIES)).sum(axis=1)
    out = {
        **ready,
        "attempted": timed.ops,
        "metrics": {
            "queries_per_s": timed.ops / float(np.sum(scaled)),
            "latency_p50_ms": windowed_quantile(passes, 0.5) * 1000.0,
            "latency_p99_ms": windowed_quantile(passes, 0.99) * 1000.0,
            "rss_kb_per_1k_ops": timed.rss_kb_per_1k_ops(),
        },
        "samples": {"latency": len(passes), "speed_probes": len(timed.probes)},
        "unscaled": {
            "queries_per_s": timed.ops / sum(timed.durations),
            "speed_factor": timed.speed_factor,
        },
    }
    quality = plan_quality(loop.session, loop.first_executions)
    out["metrics"].update(
        plan_sim_s=quality["plan_sim_s"], plan_dollars=quality["plan_dollars"]
    )
    if trace:
        recorder = SpanRecorder()
        install_layer_spans(recorder)
        try:
            traced_run = recorder.wrap(loop.session.run, "harness.op")
            traced = loop.measure(seconds, run=traced_run)
        finally:
            recorder.restore()
        layers = span_metrics(recorder, traced.ops, "harness.op")
        layers.update(
            counter_metrics(loop.first_counters, len(TPCH_QUERIES))
        )
        layers.update(
            {
                "cost_model.err_p50": quality["err_p50"],
                "cost_model.err_p90": quality["err_p90"],
                "harness.late_p99_ms": 0.0,
                "harness.trace_overhead_frac": (
                    float(np.mean(traced.scaled())) / float(np.mean(scaled))
                    - 1.0
                ),
            }
        )
        layers.update(_no_serving())
        out["layers"] = layers
        out["spans"] = recorder
    checks = {"repeat_mismatches": loop.mismatches}
    invalid = 0
    for plan in loop.first_plans:
        try:
            validate_plan(
                plan, cluster=loop.session.cluster, require_resources=True
            )
        except Exception as exc:
            invalid += 1
            print(f"invalid plan: {exc}", file=sys.stderr)
    checks["invalid_plans"] = invalid
    if workload == "tpch_cheapest":
        checks["cheapest_costlier"] = _cheapest_vs_fastest(loop)
    out["checks"] = checks
    out["failed_ops"] = loop.failed
    out["repeat"] = loop.signature()
    return out


def _cheapest_vs_fastest(loop: ClosedLoop) -> int:
    """Queries whose cheapest plan simulates dearer than the fastest."""
    fresh = RaqoSession(scale_factor=SCALE_FACTOR)
    costlier = 0
    for query, cheapest in zip(loop.queries, loop.first_executions):
        fastest = fresh.run(query).execution
        if not cheapest.dollars <= fastest.dollars:
            costlier += 1
            print(
                f"{query.name}: cheapest ${cheapest.dollars} > fastest "
                f"${fastest.dollars}",
                file=sys.stderr,
            )
    return costlier


def _no_serving() -> Dict[str, float]:
    """The TPC-H loops send no request through ``OptimizerService``."""
    return {
        "serving.queue_ms_p50": 0.0,
        "serving.queue_ms_p99": 0.0,
        "serving.cache_hit_ratio": 0.0,
        "serving.coalesced_frac": 0.0,
        "serving.cache_evictions": 0.0,
        "serving.batch_size_mean": 0.0,
        "serving.struct_dup_frac": 0.0,
    }


# -- sixteen tenants through OptimizerService -----------------------------


class Requests:
    """One phase's pre-generated requests plus per-request result slots.

    The slots hold numbers only and are written in full before the
    clock starts, so the harness's own resident memory stays flat while
    it runs and ``rss_kb_per_1k_ops`` measures the program.
    """

    def __init__(self, queries: List[Query], tenants: np.ndarray) -> None:
        n = len(queries)
        self.queries = queries
        self.tenants = tenants
        self.due = np.full(n, math.nan)
        self.sent = np.full(n, math.nan)
        self.done = np.full(n, math.nan)
        self.failed = np.full(n, False)
        self.cache_hit = np.full(n, False)
        self.coalesced = np.full(n, False)
        self.owner = np.full(n, False)
        self.batch_size = np.full(n, 0.0)
        self.queue_ms = np.full(n, 0.0)
        self.cost_time = np.full(n, 0.0)
        self.cost_money = np.full(n, 0.0)
        self.plan_hash = np.full(n, 0, dtype=np.int64)
        #: Planning counters of the requests every run serves.
        self.counters = np.full(
            (min(n, SIGNATURE_REQUESTS), len(COUNTER_FIELDS)), 0, dtype=np.int64
        )
        self.completions: "queue.SimpleQueue[int]" = queue.SimpleQueue()
        self.count = 0
        self.timed = Timed(scale=True, block_s=BLOCK_S)

    def on_done(self, index: int, future) -> None:
        now = clock()
        try:
            response = future.result()
        except Exception as exc:
            self.failed[index] = True
            print(f"request {index} failed: {exc!r}", file=sys.stderr)
        else:
            self.done[index] = now
            self.cache_hit[index] = response.cache_hit
            self.coalesced[index] = response.coalesced
            self.batch_size[index] = response.batch_size
            self.queue_ms[index] = response.queue_ms
            result = response.result
            self.cost_time[index] = result.cost.time_s
            self.cost_money[index] = result.cost.money
            if not (response.cache_hit or response.coalesced):
                self.owner[index] = True
                self.plan_hash[index] = hash(result.plan)
                if index < len(self.counters):
                    self.counters[index] = counter_tuple(result.counters)
        self.completions.put(index)

    def _send(self, service, index: int, due: float) -> None:
        request = PlanRequest(
            request_id=index,
            query=self.queries[index],
            tenant=TENANTS[self.tenants[index]],
        )
        self.due[index] = due
        self.sent[index] = clock()
        try:
            future = service.submit(request)
        except Overloaded as exc:
            self.failed[index] = True
            print(f"request {index} rejected: {exc}", file=sys.stderr)
            self.completions.put(index)
            return
        future.add_done_callback(lambda f, i=index: self.on_done(i, f))

    def play(
        self, service, seconds: float, burst: int, least: int = 0
    ) -> None:
        """Bursts of ``burst`` requests until ``seconds`` pass and at
        least ``least`` requests are served.

        The generator thread sends a burst's requests back to back --
        they share one due time, the burst's start -- and waits for all
        their responses before it sends the next.  One burst is one op
        of :class:`Timed`.
        """
        timed = self.timed
        timed.read_rss(0)
        started = last_read = clock()
        total = len(self.queries)
        while self.count + burst <= total and (
            clock() - started < seconds or self.count < least
        ):
            first = self.count
            due = clock()
            for index in range(first, first + burst):
                self._send(service, index, due)
            for _ in range(burst):
                self.completions.get(timeout=DRAIN_TIMEOUT_S)
            timed.add(clock() - due)
            self.count += burst
            timed.boundary()
            if clock() - last_read >= RSS_EVERY_S:
                timed.read_rss(self.count)
                last_read = clock()
        timed.boundary(final=True)
        timed.read_rss(self.count)

    def latency_ms(self, burst: int) -> np.ndarray:
        """Due time to response, scaled like the burst it was sent in;
        failed or refused requests read inf."""
        n = self.count
        factors = np.repeat(self.timed.factors(), burst)
        latency = (self.done[:n] - self.due[:n]) * 1000.0 / factors
        return np.where(
            self.failed[:n] | np.isnan(latency), math.inf, latency
        )


class ServeLoop:
    """Sixteen tenants planning through ``session.serve()`` defaults."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.burst = BURST[workload]
        self.capacity = int(SERVE_CAPACITY[workload] * seconds)
        self.capacity = max(self.capacity, SIGNATURE_REQUESTS)
        self.session = RaqoSession(scale_factor=SCALE_FACTOR)
        self.service = self.session.serve()
        self.service.start()
        self.tpch = [self.session.resolve_query(q) for q in TPCH_QUERIES]
        self.warm_results = []

    def warm_up(self) -> None:
        if self.workload == "serve_hot":
            queries = self.tpch
        else:
            queries = self._distinct(DISTINCT_WARMUP, phase=0)
        for query in queries:
            response = self.service.plan(query, tenant=TENANTS[0])
            self.warm_results.append(response.result)

    def _distinct(self, count: int, phase: int) -> List[Query]:
        """``count`` generated queries, each under a name of its own."""
        rng = np.random.default_rng([self.seed, phase, 1])
        generated: List[Query] = []
        for size, share in DISTINCT_SIZES:
            spec = WorkloadSpec(
                num_queries=max(1, round(count * share)),
                sizes=(size,),
                size_weights=(1.0,),
                repeat_probability=0.0,
            )
            generated += generate_workload(self.session.catalog, spec, rng)
        order = rng.permutation(len(generated))[:count]
        return [
            renamed(generated[i], f"p{phase}-{index:06d}")
            for index, i in enumerate(order)
        ]

    def requests(self, phase: int, count: Optional[int] = None) -> Requests:
        """Tenants and queries for one phase, from the seed."""
        rng = np.random.default_rng([self.seed, phase, 0])
        n = count or self.capacity
        tenants = rng.integers(0, len(TENANTS), n)
        if self.workload == "serve_hot":
            picks = rng.integers(0, len(self.tpch), n)
            queries = [self.tpch[pick] for pick in picks]
        else:
            queries = self._distinct(n, phase=phase)
        return Requests(queries, tenants)

    def bursts(self) -> Requests:
        """Untimed bursts for batching and coalescing.  In
        ``serve_distinct`` each new query is sent twice in its burst."""
        count = BURSTS * BURST_SIZE
        phase = self.requests(phase=3, count=count)
        if self.workload == "serve_distinct":
            half = phase.queries[: count // 2]
            pairs = [query for query in half for _ in range(2)]
            phase = Requests(pairs, phase.tenants)
        return phase

    def evictions(self) -> int:
        return self.session.metrics.counter("serving.cache.evictions").value

    def signature(self, measured: Requests, probes) -> Tuple[dict, list, dict]:
        """Planning counters of the requests every run plans, and the
        quality of the TPC-H plans served."""
        if self.workload == "serve_hot":
            planned = [counter_tuple(r.counters) for r in self.warm_results]
        else:
            first = np.flatnonzero(measured.owner[:SIGNATURE_REQUESTS])
            planned = [tuple(row) for row in measured.counters[first]]
        totals = [int(sum(column)) for column in zip(*planned)]
        quality = plan_quality(
            self.session, [simulate(self.session, r.plan) for r in probes]
        )
        return signature(totals, quality), planned, quality


def run_serve(
    workload: str, seed: int, seconds: float, trace: bool, mode: str,
    sign: bool,
) -> dict:
    loop = ServeLoop(workload, seed, seconds)
    burst = loop.burst
    try:
        loop.warm_up()
        measured = loop.requests(phase=1)
        traced = loop.requests(phase=2) if trace else None
        bursts = loop.bursts() if trace else None
        ready = ready_report()
        if mode == "setup":
            if sign:
                measured.play(loop.service, 0.0, burst, SIGNATURE_REQUESTS)
                probes = _probe_tpch(loop)
                ready["repeat"] = loop.signature(measured, probes)[0]
            return ready
        evictions_before = loop.evictions()
        measured.play(loop.service, seconds, burst, SIGNATURE_REQUESTS)
        evictions = loop.evictions() - evictions_before
        recorder = None
        if trace:
            recorder = SpanRecorder()
            install_layer_spans(recorder)
            try:
                traced.play(loop.service, seconds, burst)
            finally:
                recorder.restore()
            bursts.play(loop.service, 0.0, BURST_SIZE, len(bursts.queries))
        probes = _probe_tpch(loop)
    finally:
        loop.service.stop()
    n = measured.count
    timed = measured.timed
    latency = measured.latency_ms(burst)
    out = {
        **ready,
        "attempted": n,
        "failed_ops": sum(
            int(phase.failed[: phase.count].sum())
            for phase in (measured, traced, bursts)
            if phase is not None
        ),
        "samples": {"latency": n, "speed_probes": len(timed.probes)},
        "unscaled": {
            "queries_per_s": n / sum(timed.durations),
            "speed_factor": timed.speed_factor,
        },
    }
    repeat, planned, quality = loop.signature(measured, probes)
    out["metrics"] = {
        "queries_per_s": n / float(np.sum(timed.scaled())),
        "latency_p50_ms": windowed_quantile(latency, 0.5),
        "latency_p99_ms": windowed_quantile(latency, 0.99),
        "rss_kb_per_1k_ops": timed.rss_kb_per_1k_ops(),
        "plan_sim_s": quality["plan_sim_s"],
        "plan_dollars": quality["plan_dollars"],
    }
    if trace:
        traced_latency = traced.latency_ms(burst)
        ok = ~measured.failed[:n]
        done = ~bursts.failed[: bursts.count]
        layers = span_metrics(recorder, traced.count, None)
        totals = [int(value) for value in repeat["counters"].values()]
        layers.update(counter_metrics(totals, len(planned)))
        layers.update(
            {
                "cost_model.err_p50": quality["err_p50"],
                "cost_model.err_p90": quality["err_p90"],
                "serving.queue_ms_p50": quantile(measured.queue_ms[:n][ok], 0.5),
                "serving.queue_ms_p99": quantile(measured.queue_ms[:n][ok], 0.99),
                "serving.cache_hit_ratio": float(measured.cache_hit[:n][ok].mean()),
                "serving.coalesced_frac": float(
                    bursts.coalesced[: bursts.count][done].mean()
                ),
                "serving.cache_evictions": float(evictions),
                "serving.batch_size_mean": float(
                    bursts.batch_size[: bursts.count][done].mean()
                ),
                "serving.struct_dup_frac": struct_dup_frac(measured.queries[:n]),
                "harness.late_p99_ms": (
                    quantile(measured.sent[:n] - measured.due[:n], 0.99)
                    * 1000.0
                ),
                "harness.trace_overhead_frac": (
                    windowed_quantile(traced_latency, 0.5)
                    / windowed_quantile(latency, 0.5)
                    - 1.0
                ),
            }
        )
        out["layers"] = layers
        out["spans"] = recorder
    out["checks"] = _check_served(
        loop, [phase for phase in (measured, bursts) if phase is not None],
        probes,
    )
    out["repeat"] = repeat
    return out


def _probe_tpch(loop: ServeLoop) -> list:
    """Plan the TPC-H set through the running service (untimed).

    ``serve_hot`` already serves these keys, so they come from its
    cache; ``serve_distinct`` sends them under names not used before,
    so the service plans them like any other distinct request.
    """
    results = []
    for query in loop.tpch:
        if loop.workload == "serve_distinct":
            query = renamed(query, f"probe-{query.name}")
        results.append(loop.service.plan(query, tenant=TENANTS[0]).result)
    return results


def struct_dup_frac(queries: Sequence[Query]) -> float:
    """Share of requests whose tables and filters were already served
    under another name: what a structure-only cache key could serve."""
    names_by_structure: Dict[tuple, set] = {}
    duplicates = 0
    for query in queries:
        structure = (query.tables, query.filters)
        names = names_by_structure.setdefault(structure, set())
        if names and query.name not in names:
            duplicates += 1
        names.add(query.name)
    return duplicates / len(queries) if queries else 0.0


def _check_served(
    loop: ServeLoop, phases: Sequence[Requests], probes
) -> dict:
    """Every served plan must equal a fresh session's plan for its query
    and pass the plan validator."""
    fresh = RaqoSession(scale_factor=SCALE_FACTOR)
    cluster = fresh.cluster
    mismatched = 0
    invalid: List[str] = []
    fresh_by_name = {}

    def fresh_plan(query: Query):
        result = fresh_by_name.get(query.name)
        if result is None:
            result = fresh_by_name[query.name] = fresh.plan(query)
            try:
                validate_plan(result.plan, cluster=cluster, require_resources=True)
            except Exception as exc:
                invalid.append(query.name)
                print(f"invalid plan: {exc}", file=sys.stderr)
        return result

    served = [(r.query, r.plan, r.cost) for r in loop.warm_results]
    served += [(q, r.plan, r.cost) for q, r in zip(loop.tpch, probes)]
    for query, plan, cost in served:
        expected = fresh_plan(query)
        if expected.plan != plan or expected.cost != cost:
            mismatched += 1
    for phase in phases:
        for index in range(phase.count):
            if phase.failed[index]:
                continue
            expected = fresh_plan(phase.queries[index])
            same = (
                expected.cost.time_s == phase.cost_time[index]
                and expected.cost.money == phase.cost_money[index]
            )
            if phase.owner[index]:
                same = same and hash(expected.plan) == phase.plan_hash[index]
            if not same:
                mismatched += 1
    return {"plan_mismatches": mismatched, "invalid_plans": len(invalid)}


# -- entry point ----------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    parser.add_argument("--signature", action="store_true")
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    if args.workload.startswith("tpch_"):
        out = run_closed(
            args.workload, args.seconds, trace, args.mode, args.signature
        )
    else:
        out = run_serve(
            args.workload, args.seed, args.seconds, trace, args.mode,
            args.signature,
        )
    recorder = out.pop("spans", None)
    if recorder is not None and args.spans_out is not None:
        recorder.write(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
