"""Cost-based RAQO: resource planning inside the query planner (Sec VI-C).

Two :class:`~repro.planner.cost_interface.PlanCoster` implementations:

- :class:`QueryOptimizerCoster` ("QO") -- the current practice: the query
  planner costs sub-plans against one fixed resource configuration chosen
  up front, resources are not part of the search.
- :class:`RaqoCoster` ("RAQO") -- the paper's approach: every time the
  query planner asks for a sub-plan cost, the coster first *plans the
  resources* for that operator (brute force or Algorithm 1 hill climbing,
  with an optional resource plan cache) and returns the cost at the chosen
  configuration, annotating the join with it.

:class:`RaqoPlanner` is the user-facing facade wiring a catalog, cluster
conditions, a cost model, a query planner (Selinger or FastRandomized) and
a coster together, including the adaptive re-planning flow of Sec IV
("if the cluster conditions change ... the runtime can further adjust the
query/resource plan by consulting the optimizer").
"""

from __future__ import annotations

import dataclasses
import enum
import math
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple, Union

import numpy as np

from repro.catalog.queries import Query
from repro.catalog.schema import Catalog
from repro.catalog.statistics import StatisticsEstimator
from repro.cluster.cluster import ClusterConditions
from repro.cluster.containers import ResourceConfiguration
from repro.cluster.pricing import PriceModel
from repro.core.cost_model import (
    CostModelSuite,
    EXTENDED_FEATURES,
    FeatureMap,
    JoinCostEstimator,
    SimulatorCostModel,
)
from repro.core.pareto import (
    ParetoPlanningResult,
    PlanObjective,
    compute_frontier,
)
from repro.core.plan_cache import LookupMode, ResourcePlanCache
from repro.core.resource_planner import (
    ResourcePlanOutcome,
    ResourcePlanningError,
    brute_force_resource_plan,
    feasible_bhj_start,
    hill_climb_resource_plan,
)
from repro.engine.profiles import EngineProfile, HIVE_PROFILE
from repro.engine.joins import JoinAlgorithm
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.planner.cost_interface import (
    BatchCostResult,
    Cost,
    INFEASIBLE_COST,
    PlanningContext,
    PlanningResult,
    cost_batch_scalar,
)
from repro.planner.plan import CandidateBatch
from repro.planner.randomized import FastRandomizedPlanner
from repro.planner.selinger import SelingerPlanner, _counters_delta

#: The fixed configuration the two-step baseline costs plans against
#: (a typical static Hive deployment default: 10 x 4 GB containers).
DEFAULT_QO_RESOURCES = ResourceConfiguration(
    num_containers=10, container_gb=4.0
)

#: The paper's Sec VII evaluation cluster: 100 containers of up to 10 GB,
#: discrete steps of 1 on both axes.
DEFAULT_CLUSTER = ClusterConditions(
    max_containers=100, max_container_gb=10.0
)


class ResourcePlanningMethod(enum.Enum):
    """How the RAQO coster searches the resource space."""

    HILL_CLIMB = "hill_climb"
    BRUTE_FORCE = "brute_force"

    def __str__(self) -> str:
        return self.value


class PlannerKind(enum.Enum):
    """Which query planner drives the join-order search."""

    SELINGER = "selinger"
    FAST_RANDOMIZED = "fast_randomized"

    def __str__(self) -> str:
        return self.value


@dataclass
class QueryOptimizerCoster:
    """The two-step baseline: cost plans at one fixed configuration."""

    model: JoinCostEstimator
    default_resources: ResourceConfiguration = DEFAULT_QO_RESOURCES
    price_model: PriceModel = field(default_factory=PriceModel)

    def join_cost(
        self,
        left_tables: FrozenSet[str],
        right_tables: FrozenSet[str],
        algorithm: JoinAlgorithm,
        context: PlanningContext,
    ) -> Tuple[Cost, Optional[ResourceConfiguration]]:
        """Cost one join at the fixed default resources."""
        small_gb, large_gb = context.join_io_gb(left_tables, right_tables)
        config = context.cluster.clamp(self.default_resources)
        time_s = self.model.predict_time(
            algorithm, small_gb, large_gb, config
        )
        if not math.isfinite(time_s):
            return INFEASIBLE_COST, None
        money = self.price_model.cost_of_gb_seconds(
            config.gb_seconds(time_s)
        )
        # The two-step baseline does not emit per-operator resources;
        # they are chosen later, outside the optimizer.
        return Cost(time_s=time_s, money=money), None

    def cost_batch(
        self, batch: CandidateBatch, context: PlanningContext
    ) -> BatchCostResult:
        """Batched protocol for the baseline: per-candidate costing.

        The fixed-configuration coster has no resource grid to stack,
        so the batch runs through the scalar reference loop.
        """
        return cost_batch_scalar(self, batch, context)


@dataclass
class RaqoCoster:
    """The RAQO coster: ``getPlanCost`` extended with resource planning.

    ``objective`` says what the resource search minimises: each
    configuration scores :meth:`PlanObjective.scalar` of its predicted
    (time, money). The default, :meth:`PlanObjective.fastest`, optimizes
    execution time as in the paper's main experiments and prices no
    configuration; :class:`RaqoPlanner` hands its one objective to both
    this coster and the query planner.

    Two fast-path layers sit in front of the resource planner:

    - ``memoize``: a per-planning-run memo keyed by ``(algorithm, ss,
      ls)``. Query planners request the same sub-plan costing many times
      (Selinger re-extends overlapping subsets; the randomized planner
      revisits joins across restarts); repeats return the previously
      planned cost without touching the plan cache or the planner.
      The memo lives on the :class:`PlanningContext`, so its lifetime is
      exactly one planning run.
    - ``vectorized``: brute-force resource planning costs the whole
      configuration grid through the model's batched
      ``predict_time_grid`` (a few array operations for learned models)
      instead of one scalar call per configuration. The winner is
      bit-identical to the scalar scan; only the wall-clock changes.
    """

    model: JoinCostEstimator
    method: ResourcePlanningMethod = ResourcePlanningMethod.HILL_CLIMB
    cache: Optional[ResourcePlanCache] = None
    price_model: PriceModel = field(default_factory=PriceModel)
    objective: PlanObjective = PlanObjective.fastest()
    memoize: bool = True
    vectorized: bool = True

    def join_cost(
        self,
        left_tables: FrozenSet[str],
        right_tables: FrozenSet[str],
        algorithm: JoinAlgorithm,
        context: PlanningContext,
    ) -> Tuple[Cost, Optional[ResourceConfiguration]]:
        """Plan resources for this operator, then cost it there."""
        small_gb, large_gb = context.join_io_gb(left_tables, right_tables)
        memo_key = None
        if self.memoize:
            memo_key = (
                self.model.model_key(algorithm),
                small_gb,
                large_gb,
                self.objective.money_weight,
                self.objective.time_weight,
            )
            memoized = context.resource_plan_memo.get(memo_key)
            if memoized is not None:
                context.counters.memo_hits += 1
                return memoized
        result = self._plan_and_cost(
            algorithm, small_gb, large_gb, context
        )
        if memo_key is not None:
            context.resource_plan_memo[memo_key] = result
        return result

    # Candidate classifications used by :meth:`cost_batch`. Finished
    # candidates (memo hits and within-batch aliases) need no further
    # work; CACHED/WALL candidates resolved inline (cache hit / BHJ
    # memory wall); KERNEL candidates go through the stacked grid
    # kernel; TAIL candidates must replay the scalar path sequentially
    # because their cache lookup depends on an earlier candidate's
    # insert.
    _DONE, _CACHED, _WALL, _KERNEL, _TAIL = range(5)

    def cost_batch(
        self, batch: CandidateBatch, context: PlanningContext
    ) -> BatchCostResult:
        """Cost a whole candidate batch through one stacked kernel.

        The batch is partitioned *in candidate order* into memo hits,
        cache hits, and kernel rows; the kernel then costs all rows of
        one algorithm against the full resource grid in a single
        ``predict_time_grid_batch`` call (N candidates x G
        configurations, zero-copy shared grid axes). Candidates whose
        plan-cache lookup could observe an insert made by an *earlier*
        candidate of the same batch are deferred to a sequential tail
        that replays the exact scalar semantics, so every observable --
        chosen configurations, costs, counters, cache statistics, and
        traced span trees -- is bit-identical to costing the candidates
        one at a time. Hill climbing and non-vectorized costers fall
        back to the scalar reference loop.
        """
        if (
            self.method is not ResourcePlanningMethod.BRUTE_FORCE
            or not self.vectorized
        ):
            return cost_batch_scalar(self, batch, context)
        counters = context.counters
        counters.batched_calls += 1
        context.batch_sizes.append(len(batch))
        n = len(batch)
        times = np.full(n, math.inf)
        money = np.full(n, math.inf)
        configs: List[Optional[ResourceConfiguration]] = [None] * n
        kinds = [self._DONE] * n
        cache_hit = [False] * n
        alias_of: Dict[int, int] = {}
        memo_keys: List[Optional[Tuple]] = [None] * n
        #: First in-batch candidate computing each memo key.
        batch_first: Dict[Tuple, int] = {}
        #: (model_key -> smaller-input keys) of candidates that may
        #: still insert into the plan cache (kernel rows and tail).
        pending: Dict[str, List[float]] = {}
        if self.cache is not None and (
            self.cache.mode is not LookupMode.EXACT
        ):
            threshold = self.cache.threshold_gb
        else:
            threshold = 0.0
        money_weight = self.objective.money_weight
        time_weight = self.objective.time_weight

        def commit(
            index: int, result: Tuple[Cost, Optional[ResourceConfiguration]]
        ) -> None:
            cost, config = result
            times[index] = cost.time_s
            money[index] = cost.money
            configs[index] = config
            memo_key = memo_keys[index]
            if memo_key is not None:
                context.resource_plan_memo[memo_key] = result

        # Loop-invariant lookups hoisted out of the per-candidate scan:
        # model keys are pure per-algorithm strings, and the BHJ wall is
        # `feasible_bhj_start(...) is None`, which only compares
        # small_gb / hash_memory_fraction against the largest container.
        model_keys = {
            algorithm: self.model.model_key(algorithm)
            for algorithm in dict.fromkeys(batch.algorithms)
        }
        bhj_fraction = self.model.hash_memory_fraction
        bhj_max_gb = context.cluster.dimension("container_gb").maximum

        # Phase 1 -- partition, visiting candidates in scalar order.
        kernel_rows: List[int] = []
        for i in range(n):
            algorithm = batch.algorithms[i]
            small_gb = float(batch.small_gb[i])
            large_gb = float(batch.large_gb[i])
            model_key = model_keys[algorithm]
            if self.memoize:
                memo_key = (
                    model_key,
                    small_gb,
                    large_gb,
                    money_weight,
                    time_weight,
                )
                memoized = context.resource_plan_memo.get(memo_key)
                if memoized is not None:
                    counters.memo_hits += 1
                    counters.batch_memo_hits += 1
                    cost, config = memoized
                    times[i] = cost.time_s
                    money[i] = cost.money
                    configs[i] = config
                    continue
                first = batch_first.get(memo_key)
                if first is not None:
                    # A duplicate of a still-pending candidate: by the
                    # time the scalar loop reached it, the first
                    # occurrence's result would be memoized.
                    counters.memo_hits += 1
                    counters.batch_memo_hits += 1
                    alias_of[i] = first
                    continue
                batch_first[memo_key] = i
                memo_keys[i] = memo_key
            if self.cache is not None and any(
                abs(small_gb - other) <= threshold
                for other in pending.get(model_key, ())
            ):
                # The scalar loop would have inserted the pending
                # candidate's configuration before this lookup ran;
                # replay this candidate sequentially after the kernel.
                kinds[i] = self._TAIL
                pending.setdefault(model_key, []).append(small_gb)
                continue
            config = self._cached_config(
                algorithm, small_gb, large_gb, context
            )
            if config is not None:
                # Cache hits are validated feasible by _cached_config.
                cache_hit[i] = True
                kinds[i] = self._CACHED
                time_s = self.model.predict_time(
                    algorithm, small_gb, large_gb, config
                )
                if not math.isfinite(time_s):
                    commit(i, (INFEASIBLE_COST, None))
                    continue
                commit(
                    i,
                    (
                        Cost(
                            time_s=time_s,
                            money=self.price_model.cost_of_gb_seconds(
                                config.gb_seconds(time_s)
                            ),
                        ),
                        config,
                    ),
                )
                continue
            if algorithm is JoinAlgorithm.BROADCAST_HASH:
                if small_gb < 0:
                    raise ResourcePlanningError(
                        f"small_gb must be >= 0, got {small_gb}"
                    )
                if small_gb / bhj_fraction > bhj_max_gb:
                    kinds[i] = self._WALL
                    commit(i, (INFEASIBLE_COST, None))
                    continue
            kinds[i] = self._KERNEL
            kernel_rows.append(i)
            pending.setdefault(model_key, []).append(small_gb)

        # Phase 2 -- one stacked kernel call per algorithm present.
        if kernel_rows:
            self._run_kernel(batch, kernel_rows, context, commit)

        # Phase 3 -- sequential tail + span emission, in candidate
        # order (span ordinals under the plan span must match the
        # scalar loop's creation order).
        tracer = context.tracer
        for i in range(n):
            kind = kinds[i]
            if kind == self._TAIL:
                result = self._plan_and_cost(
                    batch.algorithms[i],
                    float(batch.small_gb[i]),
                    float(batch.large_gb[i]),
                    context,
                )
                commit(i, result)
            elif tracer.active and kind != self._DONE:
                self._emit_candidate_span(
                    batch, i, kind, cache_hit[i], times, configs, context
                )
        for i, source in alias_of.items():
            times[i] = times[source]
            money[i] = money[source]
            configs[i] = configs[source]
        feasible = np.isfinite(times) & np.isfinite(money)
        return BatchCostResult(
            time_s=times,
            money=money,
            feasible=feasible,
            configs=tuple(configs),
        )

    def _run_kernel(
        self,
        batch: CandidateBatch,
        kernel_rows: List[int],
        context: PlanningContext,
        commit,
    ) -> None:
        """Grid-cost all kernel rows, one stacked call per algorithm."""
        grid = context.cluster.config_grid()
        if grid.num_configs == 0:
            raise ResourcePlanningError(
                "cluster offers no configurations"
            )
        by_algorithm: Dict[JoinAlgorithm, List[int]] = {}
        for i in kernel_rows:
            by_algorithm.setdefault(batch.algorithms[i], []).append(i)
        #: Winners cluster on few grid points; materialise each once.
        config_cache: Dict[int, ResourceConfiguration] = {}
        for algorithm, rows in by_algorithm.items():
            small = batch.small_gb[rows]
            large = batch.large_gb[rows]
            # Counted exactly like the scalar scan: one resource
            # iteration per (candidate, configuration) pair.
            context.counters.resource_iterations += (
                grid.num_configs * len(rows)
            )
            times = self.model.predict_time_grid_batch(
                algorithm, small, large, grid
            )
            times = np.where(np.isnan(times), math.inf, times)
            if self.objective.money_weight:
                # Same expressions as the scalar grid objective,
                # broadcast over the candidate axis.
                scores = self.objective.scalar_array(
                    times,
                    self.price_model.price(grid.total_memory_gb * times),
                )
            else:
                scores = times
            # First-occurrence argmin per row = the scalar tie-break.
            best = np.argmin(scores, axis=1)
            model_key = self.model.model_key(algorithm)
            # Recompute the winners' unweighted times in one elementwise
            # call (the scalar path re-predicts after its argmin too);
            # each lane is bit-identical to a per-winner predict_time.
            winner_counts = grid.counts[best]
            winner_sizes = grid.sizes[best]
            winner_times = self.model.predict_time_rows(
                algorithm,
                small,
                large,
                winner_sizes,
                winner_counts,
            )
            # Same left-to-right expression as the scalar
            # `cost_of_gb_seconds(config.gb_seconds(time_s))` chain:
            # price((nc * cs) * t), lane for lane.
            winner_money = self.price_model.price(
                winner_counts * winner_sizes * winner_times
            )
            for position, i in enumerate(rows):
                best_index = int(best[position])
                best_cost = float(scores[position, best_index])
                if not math.isfinite(best_cost):
                    raise ResourcePlanningError(
                        "cluster offers no configurations"
                    )
                config = config_cache.get(best_index)
                if config is None:
                    config = grid.config_at(best_index)
                    config_cache[best_index] = config
                small_gb = float(batch.small_gb[i])
                if self.cache is not None:
                    self.cache.insert(model_key, small_gb, config)
                time_s = float(winner_times[position])
                if not math.isfinite(time_s):
                    commit(i, (INFEASIBLE_COST, None))
                    continue
                commit(
                    i,
                    (
                        Cost(
                            time_s=time_s,
                            money=float(winner_money[position]),
                        ),
                        config,
                    ),
                )

    def _emit_candidate_span(
        self,
        batch: CandidateBatch,
        index: int,
        kind: int,
        hit: bool,
        times: np.ndarray,
        configs: List[Optional[ResourceConfiguration]],
        context: PlanningContext,
    ) -> None:
        """Emit the spans the scalar path would have for one candidate.

        Batched costing computes results out of band, so the
        ``resource-planning`` (and, for kernel rows, ``grid-costing``)
        spans are materialized afterwards with the same nesting,
        creation order, and attributes as :meth:`_plan_and_cost` --
        canonical span trees stay byte-identical to the scalar run.
        """
        with context.tracer.span(
            "resource-planning", kind="planner"
        ) as span:
            if kind == self._KERNEL:
                grid = context.cluster.config_grid()
                with context.tracer.span(
                    "grid-costing", kind="planner"
                ) as inner:
                    inner.set_attribute(
                        "iterations", grid.num_configs
                    )
            time_s = float(times[index])
            config = configs[index]
            span.set_attributes(
                {
                    "algorithm": batch.algorithms[index].value,
                    "small_gb": float(batch.small_gb[index]),
                    "large_gb": float(batch.large_gb[index]),
                    "cache_hit": hit,
                    "feasible": math.isfinite(time_s),
                }
            )
            if math.isfinite(time_s):
                span.set_attribute("cost_time_s", time_s)
            if config is not None:
                span.set_attributes(
                    {
                        "num_containers": config.num_containers,
                        "container_gb": config.container_gb,
                    }
                )

    def _plan_and_cost(
        self,
        algorithm: JoinAlgorithm,
        small_gb: float,
        large_gb: float,
        context: PlanningContext,
    ) -> Tuple[Cost, Optional[ResourceConfiguration]]:
        """The memo-miss path: cache lookup, then resource planning."""
        if not context.tracer.active:
            return self._plan_and_cost_impl(
                algorithm, small_gb, large_gb, context
            )
        with context.tracer.span(
            "resource-planning", kind="planner"
        ) as span:
            before_hits = context.counters.cache_hits
            cost, config = self._plan_and_cost_impl(
                algorithm, small_gb, large_gb, context
            )
            span.set_attributes(
                {
                    "algorithm": algorithm.value,
                    "small_gb": small_gb,
                    "large_gb": large_gb,
                    "cache_hit": context.counters.cache_hits
                    > before_hits,
                    "feasible": cost.is_finite,
                }
            )
            if cost.is_finite:
                span.set_attribute("cost_time_s", cost.time_s)
            if config is not None:
                span.set_attributes(
                    {
                        "num_containers": config.num_containers,
                        "container_gb": config.container_gb,
                    }
                )
            return cost, config

    def _plan_and_cost_impl(
        self,
        algorithm: JoinAlgorithm,
        small_gb: float,
        large_gb: float,
        context: PlanningContext,
    ) -> Tuple[Cost, Optional[ResourceConfiguration]]:
        config = self._cached_config(
            algorithm, small_gb, large_gb, context
        )
        if config is None:
            outcome = self._plan_resources(
                algorithm, small_gb, large_gb, context
            )
            if outcome is None or not math.isfinite(outcome.cost):
                return INFEASIBLE_COST, None
            config = outcome.config
            if self.cache is not None:
                self.cache.insert(
                    self.model.model_key(algorithm), small_gb, config
                )
        time_s = self.model.predict_time(
            algorithm, small_gb, large_gb, config
        )
        if not math.isfinite(time_s):
            return INFEASIBLE_COST, None
        money = self.price_model.cost_of_gb_seconds(
            config.gb_seconds(time_s)
        )
        return Cost(time_s=time_s, money=money), config

    def _cached_config(
        self,
        algorithm: JoinAlgorithm,
        small_gb: float,
        large_gb: float,
        context: PlanningContext,
    ) -> Optional[ResourceConfiguration]:
        """Try the resource plan cache; validates feasibility on hits."""
        if self.cache is None:
            return None
        config = self.cache.lookup(
            self.model.model_key(algorithm), small_gb, context.cluster
        )
        if config is not None and not math.isfinite(
            self.model.predict_time(algorithm, small_gb, large_gb, config)
        ):
            # A neighbour's configuration may violate this operator's
            # memory wall; fall back to planning.
            config = None
        if config is None:
            context.counters.cache_misses += 1
        else:
            context.counters.cache_hits += 1
        return config

    def _plan_resources(
        self,
        algorithm: JoinAlgorithm,
        small_gb: float,
        large_gb: float,
        context: PlanningContext,
    ) -> Optional[ResourcePlanOutcome]:
        """Run brute force or Algorithm 1 for one operator."""
        cluster = context.cluster
        counters = context.counters
        # Resolved once per operator: the closures below run once per
        # configuration, and only a money-weighted objective prices one.
        price_money = bool(self.objective.money_weight)
        scalar = self.objective.scalar

        def objective(config: ResourceConfiguration) -> float:
            counters.resource_iterations += 1
            time_s = self.model.predict_time(
                algorithm, small_gb, large_gb, config
            )
            if not math.isfinite(time_s):
                return math.inf
            if price_money:
                return scalar(
                    time_s,
                    self.price_model.cost_of_gb_seconds(
                        config.gb_seconds(time_s)
                    ),
                )
            return time_s

        def grid_objective(grid) -> np.ndarray:
            # One batched model call for the whole grid; counted exactly
            # like the scalar scan (one iteration per configuration).
            counters.resource_iterations += grid.num_configs
            times = self.model.predict_time_grid(
                algorithm, small_gb, large_gb, grid
            )
            times = np.where(np.isnan(times), math.inf, times)
            if price_money:
                # Same expressions as the scalar objective, so the grid
                # is bit-identical to a per-configuration scan.
                return self.objective.scalar_array(
                    times,
                    self.price_model.price(grid.total_memory_gb * times),
                )
            return times

        start: Optional[ResourceConfiguration] = None
        if algorithm is JoinAlgorithm.BROADCAST_HASH:
            start = feasible_bhj_start(
                small_gb, self.model.hash_memory_fraction, cluster
            )
            if start is None:
                return None

        def search() -> Optional[ResourcePlanOutcome]:
            if self.method is ResourcePlanningMethod.BRUTE_FORCE:
                if self.vectorized:
                    return brute_force_resource_plan(
                        objective,
                        cluster,
                        vectorized=True,
                        grid_cost_fn=grid_objective,
                    )
                return brute_force_resource_plan(objective, cluster)
            return hill_climb_resource_plan(
                objective, cluster, start=start
            )

        if not context.tracer.active:
            return search()
        span_name = (
            "grid-costing"
            if self.method is ResourcePlanningMethod.BRUTE_FORCE
            else "hill-climb"
        )
        with context.tracer.span(span_name, kind="planner") as span:
            outcome = search()
            if outcome is not None:
                span.set_attribute("iterations", outcome.iterations)
            return outcome


# Trained default models are expensive to fit; share them per profile.
# The cache is module-level state and therefore shared by every worker
# thread of the parallel WorkloadRunner, so all access is serialized.
_MODEL_CACHE_LOCK = threading.Lock()
_DEFAULT_MODEL_CACHE: Dict[Tuple[str, str], CostModelSuite] = {}  # lint: guarded-by=_MODEL_CACHE_LOCK


def default_cost_model(
    profile: EngineProfile = HIVE_PROFILE,
    feature_map: FeatureMap = EXTENDED_FEATURES,
) -> CostModelSuite:
    """The default learned cost model for an engine profile (memoised).

    Thread-safe: concurrent first calls for the same key serialize on
    the cache lock, so exactly one suite is fitted and every caller
    (including the parallel workload runner's workers) shares it.
    Training is deterministic, so holding the lock across the fit
    trades a one-time wait for never fitting the same model twice.
    """
    key = (profile.name, feature_map.name)
    with _MODEL_CACHE_LOCK:
        suite = _DEFAULT_MODEL_CACHE.get(key)
        if suite is None:
            suite = CostModelSuite.train_from_profile(
                profile, feature_map=feature_map
            )
            _DEFAULT_MODEL_CACHE[key] = suite
        return suite


class RaqoPlanner:
    """The joint Resource-And-Query-Optimization planner facade.

    Wires together a catalog, the current cluster conditions, a cost
    model, a coster (RAQO or the two-step baseline), and a query planner.
    ``optimize`` returns a
    :class:`~repro.planner.cost_interface.PlanningResult` whose plan
    carries per-operator resource configurations (for RAQO).
    """

    def __init__(
        self,
        catalog: Catalog,
        cluster: ClusterConditions = DEFAULT_CLUSTER,
        cost_model: Optional[JoinCostEstimator] = None,
        planner_kind: PlannerKind = PlannerKind.SELINGER,
        resource_method: ResourcePlanningMethod = (
            ResourcePlanningMethod.HILL_CLIMB
        ),
        cache_mode: Optional[LookupMode] = LookupMode.NEAREST,
        cache_threshold_gb: float = 0.0,
        clear_cache_between_queries: bool = True,
        resource_aware: bool = True,
        default_resources: ResourceConfiguration = DEFAULT_QO_RESOURCES,
        price_model: Optional[PriceModel] = None,
        objective: Optional[PlanObjective] = None,
        randomized_iterations: int = 10,
        seed: int = 0,
        memoize_within_run: bool = True,
        vectorized_resource_planning: bool = True,
        batched_costing: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if objective is None:
            objective = PlanObjective.fastest()
        # Everything needed to build an equivalent planner (clone()).
        self._init_kwargs = dict(
            cluster=cluster,
            cost_model=cost_model,
            planner_kind=planner_kind,
            resource_method=resource_method,
            cache_mode=cache_mode,
            cache_threshold_gb=cache_threshold_gb,
            clear_cache_between_queries=clear_cache_between_queries,
            resource_aware=resource_aware,
            default_resources=default_resources,
            price_model=price_model,
            objective=objective,
            randomized_iterations=randomized_iterations,
            seed=seed,
            memoize_within_run=memoize_within_run,
            vectorized_resource_planning=vectorized_resource_planning,
            batched_costing=batched_costing,
            tracer=tracer,
        )
        self.objective = objective
        self.catalog = catalog
        self.cluster = cluster
        #: Shared (thread-safe) observability sink; clones reuse it so a
        #: parallel workload's spans land in one trace.
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self.estimator = StatisticsEstimator(catalog)
        self.cost_model = cost_model or default_cost_model()
        self.price_model = price_model or PriceModel()
        self.clear_cache_between_queries = clear_cache_between_queries
        self.resource_aware = resource_aware

        self.cache: Optional[ResourcePlanCache] = None
        if resource_aware and cache_mode is not None:
            self.cache = ResourcePlanCache(
                mode=cache_mode, threshold_gb=cache_threshold_gb
            )

        if resource_aware:
            self.coster: Union[RaqoCoster, QueryOptimizerCoster] = (
                RaqoCoster(
                    model=self.cost_model,
                    method=resource_method,
                    cache=self.cache,
                    price_model=self.price_model,
                    objective=objective,
                    memoize=memoize_within_run,
                    vectorized=vectorized_resource_planning,
                )
            )
        else:
            self.coster = QueryOptimizerCoster(
                model=self.cost_model,
                default_resources=default_resources,
                price_model=self.price_model,
            )

        if planner_kind is PlannerKind.SELINGER:
            self.query_planner = SelingerPlanner(
                self.coster,
                objective=objective,
                batched=batched_costing,
            )
        else:
            self.query_planner = FastRandomizedPlanner(
                self.coster,
                iterations=randomized_iterations,
                objective=objective,
                seed=seed,
                batched=batched_costing,
            )

    @classmethod
    def default(cls, catalog: Catalog, **kwargs: Any) -> "RaqoPlanner":
        """A RAQO planner with the paper's defaults (Selinger + hill
        climbing + nearest-neighbour cache on the 100 x 10 GB cluster)."""
        return cls(catalog, **kwargs)

    @classmethod
    def two_step_baseline(
        cls, catalog: Catalog, **kwargs: Any
    ) -> "RaqoPlanner":
        """The current-practice baseline ("QO"): plan first, resources
        later, at a fixed default configuration."""
        kwargs.setdefault("resource_aware", False)
        return cls(catalog, **kwargs)

    def clone(self) -> "RaqoPlanner":
        """An independent planner with the same configuration.

        The clone shares the (immutable, already-fitted) cost model but
        gets its own resource plan cache and coster, so clones can plan
        on separate threads without sharing mutable state. The parallel
        workload runner builds one clone per worker.
        """
        kwargs = dict(self._init_kwargs)
        kwargs["cost_model"] = self.cost_model  # skip any re-fitting
        kwargs["cluster"] = self.cluster  # reflect replan() updates
        return type(self)(self.catalog, **kwargs)

    def with_objective(self, objective: PlanObjective) -> "RaqoPlanner":
        """A clone of this planner planning for a different objective.

        The already-fitted cost model is shared (see :meth:`clone`);
        the serving layer and per-call ``objective=`` overrides on
        :class:`~repro.api.RaqoSession` build planners through here.
        """
        kwargs = dict(self._init_kwargs)
        kwargs["cost_model"] = self.cost_model
        kwargs["cluster"] = self.cluster
        kwargs["objective"] = objective
        return type(self)(self.catalog, **kwargs)

    def picklable_init_kwargs(self) -> Dict[str, Any]:
        """Constructor kwargs rebuilding this planner in another process.

        Mirrors :meth:`clone`, except the tracer is dropped -- it holds
        a lock and cannot cross a process boundary; the process-parallel
        workload runner installs a fresh same-seed child tracer in each
        worker instead. The already-fitted cost model ships along so
        workers never re-train.
        """
        kwargs = dict(self._init_kwargs)
        kwargs["cost_model"] = self.cost_model
        kwargs["cluster"] = self.cluster
        kwargs.pop("tracer", None)
        return kwargs

    def make_context(
        self,
        cluster: Optional[ClusterConditions] = None,
        query: Optional[Query] = None,
    ) -> PlanningContext:
        """A fresh planning context against given cluster conditions.

        When ``query`` carries scan filters (the paper's sampling
        filters), the context's estimator applies them to the base
        statistics before any join arithmetic.
        """
        estimator = self.estimator
        if query is not None and query.filters:
            estimator = estimator.with_filters(query.filter_factors)
        return PlanningContext(
            estimator=estimator,
            cluster=cluster or self.cluster,
            tracer=self.tracer,
        )

    def _traced_plan(
        self, query: Query, context: PlanningContext
    ) -> PlanningResult:
        """Run the query planner inside a ``plan`` span."""
        if not self.tracer.active:
            return self.query_planner.plan(query, context)
        with self.tracer.span("plan", kind="planner") as span:
            span.set_attributes(
                {
                    "query": query.name,
                    "resource_aware": self.resource_aware,
                }
            )
            result = self.query_planner.plan(query, context)
            span.set_attributes(
                {
                    "planner": result.planner_name,
                    "feasible": result.cost.is_finite,
                    "resource_iterations": (
                        result.counters.resource_iterations
                    ),
                    "join_costings": result.counters.join_costings,
                    "memo_hits": result.counters.memo_hits,
                    "cache_hits": result.counters.cache_hits,
                    "cache_misses": result.counters.cache_misses,
                    "wall_ms": result.wall_time_s * 1000.0,
                }
            )
            if result.cost.is_finite:
                span.set_attributes(
                    {
                        "cost_time_s": result.cost.time_s,
                        "cost_money": result.cost.money,
                    }
                )
            return result

    def optimize(
        self,
        query: Query,
        context: Optional[PlanningContext] = None,
    ) -> PlanningResult:
        """Produce a joint query and resource plan for ``query``."""
        if (
            self.cache is not None
            and self.clear_cache_between_queries
            and context is None
        ):
            self.cache.clear()
        if context is None:
            context = self.make_context(query=query)
        result = self._traced_plan(query, context)
        return self._finalize(result, context)

    def replan(
        self, query: Query, cluster: ClusterConditions
    ) -> PlanningResult:
        """Adaptive RAQO: re-optimize under changed cluster conditions.

        With ``clear_cache_between_queries`` (the default) the resource
        plan cache is dropped first: configurations planned for a
        different envelope remain *valid* in a larger one but are no
        longer optimal there. Planners configured for across-query
        caching keep the warm cache and accept that trade-off (the
        paper's Fig 15(b) study).
        """
        self.cluster = cluster
        if self.cache is not None and self.clear_cache_between_queries:
            self.cache.clear()
        context = self.make_context(cluster, query=query)
        result = self._traced_plan(query, context)
        return self._finalize(result, context)

    def _finalize(
        self, result: PlanningResult, context: PlanningContext
    ) -> PlanningResult:
        """Frontier selection for objectives that need it.

        ``fastest`` and ``weighted`` objectives return the search
        result untouched (bit-identical to the historic path);
        ``cheapest``/``latency_bounded``/``pareto`` compute the
        per-stage resource frontier of the chosen plan
        (:func:`~repro.core.pareto.compute_frontier`), pick the
        objective's point, and re-annotate the plan's joins with the
        point's per-stage allocations. The search's own cost survives
        as ``search_cost`` and the frontier pass's counters merge into
        the result's.
        """
        objective = self.objective
        if (
            not objective.needs_frontier
            or not self.resource_aware
            or not result.cost.is_finite
        ):
            return result
        before = dataclasses.replace(context.counters)
        if self.tracer.active:
            with self.tracer.span(
                "pareto-frontier", kind="planner"
            ) as span:
                resource_frontier = compute_frontier(
                    result.plan, context, self.cost_model,
                    self.price_model,
                )
                span.set_attributes(
                    {
                        "objective": str(objective),
                        "frontier_points": len(resource_frontier),
                        "dominated_pruned": (
                            resource_frontier.dominated_pruned
                        ),
                    }
                )
        else:
            resource_frontier = compute_frontier(
                result.plan, context, self.cost_model, self.price_model
            )
        counters = dataclasses.replace(result.counters)
        counters.merge(_counters_delta(before, context.counters))
        selected = objective.select(resource_frontier)
        if selected is None or not resource_frontier.stages:
            # No feasible frontier (or a join-free plan): keep the
            # search's plan and cost; the empty frontier still rides
            # along for observability.
            plan, cost = result.plan, result.cost
        else:
            stage_configs = iter(selected.configs)
            plan = result.plan.map_joins(
                lambda join: join.with_resources(next(stage_configs))
            )
            cost = selected.cost
        return ParetoPlanningResult(
            query=result.query,
            plan=plan,
            cost=cost,
            wall_time_s=result.wall_time_s,
            counters=counters,
            planner_name=result.planner_name,
            batch_sizes=result.batch_sizes,
            frontier=resource_frontier,
            objective=objective,
            selected=selected,
            search_cost=result.cost,
        )
