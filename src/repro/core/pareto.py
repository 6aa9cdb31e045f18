"""Pareto-frontier resource search and the first-class plan objective.

The paper frames joint optimization as a latency-vs-money trade-off
(Sec VII) but collapses it to a scalar ``money_weight`` knob.  This
module generalizes that to fine-grained multi-objective resource search
in the style of Lyu et al. (arXiv:2207.02026):

- :class:`PlanObjective` -- the declarative objective a caller hands to
  :class:`~repro.core.raqo.RaqoPlanner` / :class:`~repro.api.RaqoSession`
  instead of a float weight: ``fastest()``, ``cheapest()``,
  ``weighted(w)``, ``latency_bounded(budget_s)``, or ``pareto()``.
- :func:`compute_frontier` -- deterministic **per-stage** resource
  search returning the full latency/dollar Pareto frontier of a chosen
  plan: every pipeline stage (one per join, executed at shuffle
  boundaries in postorder) gets its own container/memory allocation,
  costed through the batched ``predict_time_grid_batch`` kernel.  The
  stage frontiers are combined by a columnar Minkowski fold: the
  accumulated frontier is three arrays (times, money, per-stage grid
  indexes), and each fold keeps its candidates' exact non-dominated
  set with one vectorized strict skyline that computes what the shared
  :func:`~repro.planner.cost_interface.frontier` reference computes.
  No per-point object is built until a caller asks for one.

Determinism contract: frontier points are a pure function of the plan,
the cluster grid, and the cost model -- candidate enumeration follows
grid order (ties fall to the first occurrence, the same discipline as
``cost_batch``'s within-batch memo), kept times are re-predicted
through ``predict_time_rows`` (bit-identical to scalar
``predict_time``), and per-stage costs fold left in stage postorder
(the same summation order as ``get_plan_cost``).  The frontier is
therefore byte-identical across worker counts and process boundaries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import ClusterConditions
from repro.cluster.containers import ResourceConfiguration
from repro.cluster.pricing import PriceModel
from repro.core.cost_model import JoinCostEstimator
from repro.engine.joins import JoinAlgorithm
from repro.planner.cost_interface import Cost, PlanningContext, PlanningResult
from repro.planner.plan import PlanNode

__all__ = [
    "ParetoPlanningResult",
    "ParetoPoint",
    "PlanObjective",
    "ResourceFrontier",
    "StageRequirement",
    "compute_frontier",
]

#: ``PlanObjective.parse`` grammar, shared with the CLI ``--objective``
#: flag's help text and error messages.
OBJECTIVE_SPECS = "fastest|cheapest|weighted:W|latency-bound:S|pareto"


@dataclass(frozen=True)
class PlanObjective:
    """A declarative planning objective over (latency, dollars).

    Construct through the factory classmethods (or :meth:`parse` for
    the CLI spelling); the dataclass fields are an implementation
    detail of the value type::

        session.plan("Q3", objective=PlanObjective.cheapest())
        PlanObjective.parse("latency-bound:30")

    The objective is the only input below the facade that says what a
    plan optimises: the costers' resource search and the query
    planners' join search both rank candidates by :meth:`scalar`
    (``time_weight * t + money_weight * m``). ``fastest`` and
    ``weighted(w)`` need nothing else, so they add zero planning work.
    ``cheapest``, ``latency_bounded`` and ``pareto`` additionally run
    the per-stage frontier search (:func:`compute_frontier`) over the
    chosen plan and pick a frontier point.
    """

    kind: str
    #: Dollars-per-second trade-off for ``weighted``; unused otherwise.
    weight: float = 0.0
    #: Latency budget for ``latency_bounded``; ``inf`` otherwise.
    budget_s: float = math.inf
    #: The scalarisation's time coefficient, derived from ``kind``.
    #: Resolved once here because searches read it per candidate.
    time_weight: float = field(init=False, repr=False, compare=False)
    #: The scalarisation's money coefficient, derived from ``kind``.
    money_weight: float = field(init=False, repr=False, compare=False)

    _KINDS = ("fastest", "cheapest", "weighted", "latency_bounded", "pareto")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown objective kind {self.kind!r} "
                f"(expected one of {', '.join(self._KINDS)})"
            )
        if self.kind == "weighted" and not (
            math.isfinite(self.weight) and self.weight >= 0.0
        ):
            raise ValueError(
                f"weighted objective needs a finite weight >= 0, "
                f"got {self.weight!r}"
            )
        if self.kind == "latency_bounded" and not (
            math.isfinite(self.budget_s) and self.budget_s > 0.0
        ):
            raise ValueError(
                f"latency_bounded objective needs a finite budget > 0 s, "
                f"got {self.budget_s!r}"
            )
        if self.kind == "cheapest":
            weights = (0.0, 1.0)
        elif self.kind == "weighted":
            weights = (1.0, self.weight)
        else:
            weights = (1.0, 0.0)
        object.__setattr__(self, "time_weight", weights[0])
        object.__setattr__(self, "money_weight", weights[1])

    # -- factories ---------------------------------------------------------

    @classmethod
    def fastest(cls) -> "PlanObjective":
        """Minimize execution time (the paper's main experiments)."""
        return cls(kind="fastest")

    @classmethod
    def cheapest(cls) -> "PlanObjective":
        """Minimize dollars; ties fall to the faster point."""
        return cls(kind="cheapest")

    @classmethod
    def weighted(cls, weight: float) -> "PlanObjective":
        """Minimize ``time_s + weight * money``."""
        return cls(kind="weighted", weight=float(weight))

    @classmethod
    def latency_bounded(cls, budget_s: float) -> "PlanObjective":
        """The cheapest frontier point with ``time_s <= budget_s``.

        Falls back to the fastest point when no frontier point meets
        the budget (the budget is then simply unattainable on this
        cluster; the selection is still deterministic).
        """
        return cls(kind="latency_bounded", budget_s=float(budget_s))

    @classmethod
    def pareto(cls) -> "PlanObjective":
        """Return the whole frontier; execute the fastest point."""
        return cls(kind="pareto")

    # -- CLI / serving surface ---------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "PlanObjective":
        """Parse the CLI spelling: ``fastest|cheapest|weighted:W|latency-bound:S|pareto``."""
        text = spec.strip().lower()
        simple = {
            "fastest": cls.fastest,
            "cheapest": cls.cheapest,
            "pareto": cls.pareto,
        }
        if text in simple:
            return simple[text]()
        head, sep, tail = text.partition(":")
        if sep:
            try:
                value = float(tail)
            except ValueError:
                value = math.nan
            if head == "weighted" and math.isfinite(value) and value >= 0:
                return cls.weighted(value)
            if (
                head in ("latency-bound", "latency_bound")
                and math.isfinite(value)
                and value > 0
            ):
                return cls.latency_bounded(value)
        raise ValueError(
            f"invalid objective {spec!r}: expected {OBJECTIVE_SPECS}"
        )

    def fingerprint(self) -> str:
        """A stable string identity for cache keys.

        Two planners share serving-cache entries only when their
        objectives fingerprint identically; ``repr`` of the float
        parameters keeps the string exact and process-stable.
        """
        if self.kind == "weighted":
            return f"weighted:{self.weight!r}"
        if self.kind == "latency_bounded":
            return f"latency-bound:{self.budget_s!r}"
        return self.kind

    def __str__(self) -> str:
        return self.fingerprint()

    # -- planner integration -----------------------------------------------

    def scalar(self, time_s: float, money: float) -> float:
        """The search's score of one cost: ``tw * time_s + mw * money``.

        ``0 * inf`` is NaN (an infeasible cost under ``cheapest``); it
        maps back to ``inf`` so an infeasible cost never wins.
        """
        value = self.time_weight * time_s + self.money_weight * money
        return math.inf if value != value else value

    def scalar_array(
        self, times: np.ndarray, money: np.ndarray
    ) -> np.ndarray:
        """:meth:`scalar` elementwise over numpy arrays."""
        with np.errstate(invalid="ignore"):
            value = self.time_weight * times + self.money_weight * money
        return np.where(np.isnan(value), math.inf, value)

    @property
    def needs_frontier(self) -> bool:
        """True when planning must run the per-stage frontier search."""
        return self.kind in ("cheapest", "latency_bounded", "pareto")

    def select(
        self, resource_frontier: "ResourceFrontier"
    ) -> Optional["ParetoPoint"]:
        """Pick this objective's point from a computed frontier.

        The frontier is sorted by strictly ascending time (strictly
        descending money), so the fastest point is first and the
        cheapest last; only the selected point is materialised.
        Returns ``None`` on an empty frontier.
        """
        size = len(resource_frontier)
        if not size:
            return None
        if self.kind == "cheapest":
            return resource_frontier.point(size - 1)
        if self.kind == "latency_bounded":
            # The cheapest point meeting the budget is the *last* one
            # within it; an unattainable budget degrades to fastest.
            within = int(
                np.searchsorted(
                    resource_frontier.times, self.budget_s, side="right"
                )
            )
            return resource_frontier.point(max(within - 1, 0))
        return resource_frontier.point(0)


@dataclass(frozen=True)
class StageRequirement:
    """What one pipeline stage asks of the cost model.

    The executor runs one stage per join, sequentially at shuffle
    boundaries in postorder, so a stage is fully described by its join
    algorithm and the (smaller, larger) input sizes.
    """

    algorithm: JoinAlgorithm
    small_gb: float
    large_gb: float


@dataclass(frozen=True)
class ParetoPoint:
    """One non-dominated (latency, dollars) point and its allocations.

    ``configs`` holds one :class:`ResourceConfiguration` per pipeline
    stage, in the plan's join postorder -- the per-stage resource axes
    that achieve this trade-off.
    """

    time_s: float
    money: float
    configs: Tuple[ResourceConfiguration, ...]

    @property
    def cost(self) -> Cost:
        """The point as a planner :class:`Cost` vector."""
        return Cost(time_s=self.time_s, money=self.money)


@dataclass(frozen=True, eq=False)
class ResourceFrontier:
    """The exact latency/dollar Pareto frontier of one plan.

    The frontier is columnar: point ``i`` takes ``times[i]`` seconds and
    costs ``money[i]`` dollars, with stage ``j`` (join postorder) running
    on ``cluster``'s grid configuration ``config_indexes[i, j]``.  Points
    are sorted by strictly ascending time (strictly descending money);
    every pair is mutually non-dominated.  ``dominated_pruned`` counts
    the candidate (stage x configuration) points the skyline passes
    discarded on the way.

    :meth:`point` (and :attr:`fastest`/:attr:`cheapest`) build one
    :class:`ParetoPoint` on demand; :attr:`points` builds all of them
    once, when first read.  The frontier is a value: ``==`` and
    ``hash`` look at the arrays, ``dominated_pruned``, ``stages`` and
    ``cluster``, never at the cached points.
    """

    times: np.ndarray
    money: np.ndarray
    config_indexes: np.ndarray
    dominated_pruned: int
    stages: Tuple[StageRequirement, ...]
    cluster: ClusterConditions

    def __post_init__(self) -> None:
        self._freeze()

    def _freeze(self) -> None:
        for array in (self.times, self.money, self.config_indexes):
            array.setflags(write=False)

    def __len__(self) -> int:
        return int(self.times.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceFrontier):
            return NotImplemented
        return (
            self.dominated_pruned == other.dominated_pruned
            and self.stages == other.stages
            and self.cluster == other.cluster
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.money, other.money)
            and np.array_equal(self.config_indexes, other.config_indexes)
        )

    def __hash__(self) -> int:
        # Endpoints stand in for the arrays: equal frontiers share them.
        return hash(
            (
                len(self),
                self.dominated_pruned,
                self.stages,
                self.cluster,
                tuple(self.times[:1].tolist()),
                tuple(self.money[-1:].tolist()),
            )
        )

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("points", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._freeze()

    def point(self, index: int) -> ParetoPoint:
        """Materialise point ``index`` (a negative index counts back)."""
        grid = self.cluster.config_grid()
        return ParetoPoint(
            time_s=float(self.times[index]),
            money=float(self.money[index]),
            configs=tuple(
                grid.config_at(int(j)) for j in self.config_indexes[index]
            ),
        )

    @functools.cached_property
    def points(self) -> Tuple[ParetoPoint, ...]:
        """Every point, fastest first; built once, on first access."""
        grid = self.cluster.config_grid()
        #: Winning configurations cluster on few grid points; build
        #: each configuration once.
        configs = {
            j: grid.config_at(j)
            for j in np.unique(self.config_indexes).tolist()
        }
        return tuple(
            ParetoPoint(
                time_s=time_s,
                money=money,
                configs=tuple(map(configs.__getitem__, row)),
            )
            for time_s, money, row in zip(
                self.times.tolist(),
                self.money.tolist(),
                self.config_indexes.tolist(),
            )
        )

    @property
    def fastest(self) -> Optional[ParetoPoint]:
        """The minimum-latency point (None on an empty frontier)."""
        return self.point(0) if len(self) else None

    @property
    def cheapest(self) -> Optional[ParetoPoint]:
        """The minimum-dollar point (None on an empty frontier)."""
        return self.point(-1) if len(self) else None

    @property
    def time_span(self) -> float:
        """Latency spread between the fastest and cheapest points."""
        if not len(self):
            return 0.0
        return float(self.times[-1]) - float(self.times[0])

    @property
    def money_span(self) -> float:
        """Dollar spread between the fastest and cheapest points."""
        if not len(self):
            return 0.0
        return float(self.money[0]) - float(self.money[-1])


@dataclass(frozen=True)
class ParetoPlanningResult(PlanningResult):
    """A planning result carrying the resource frontier and selection.

    ``cost`` and ``plan`` reflect the frontier point the objective
    selected (per-stage resources annotated onto the joins);
    ``search_cost`` preserves what the join-order search itself found
    before frontier selection.
    """

    frontier: Optional[ResourceFrontier] = None
    objective: Optional[PlanObjective] = None
    selected: Optional[ParetoPoint] = None
    search_cost: Optional[Cost] = None


def _weak_skyline_candidates(
    times: np.ndarray, money: np.ndarray
) -> np.ndarray:
    """Indexes surviving the vectorized weak-dominance skyline pass.

    Sorts by (time, money) -- the stable lexsort keeps candidate order
    within exact ties -- and prunes every point whose money is
    *strictly* above the running minimum of all earlier-sorted points:
    those are dominated outright by a strictly cheaper, no-slower
    point.  Tie candidates (equal money at the running minimum, or
    equal (time, money) duplicates) are deliberately *kept*; the
    per-stage search re-predicts the survivors and resolves them with
    :func:`_strict_skyline`.  Returned indexes are in sorted
    (time, money, candidate) order.
    """
    order = np.lexsort((money, times))
    money_sorted = money[order]
    keep = np.empty(order.shape[0], dtype=bool)
    keep[0] = True
    running = np.minimum.accumulate(money_sorted)
    keep[1:] = money_sorted[1:] <= running[:-1]
    return order[keep]


def _strict_skyline(times: np.ndarray, money: np.ndarray) -> np.ndarray:
    """Indexes of the exact Pareto frontier of finite (time, money) pairs.

    The vectorized form of :func:`~repro.planner.cost_interface.frontier`,
    which sorts by (time, money, input order) and keeps each strict
    money improvement: a point is kept iff it is the first candidate
    holding its equal-time group's minimum money and that minimum is
    strictly below every earlier group's.  A stable sort on time alone
    keeps input order within each group.  Walking that order, the
    candidates strictly cheaper than everything before them form, within
    a group, a strictly falling run whose last member is the group's
    first minimum; it is kept, the rest of the run is not.  Returns the
    kept input indexes in ascending time order.
    """
    order = np.argsort(times, kind="stable")
    sorted_money = money[order]
    improves = np.empty(order.shape[0], dtype=bool)
    improves[:1] = True
    np.less(
        sorted_money[1:],
        np.minimum.accumulate(sorted_money)[:-1],
        out=improves[1:],
    )
    improving = order[improves]
    improving_times = times[improving]
    last_of_group = np.empty(improving.shape[0], dtype=bool)
    last_of_group[-1:] = True
    np.not_equal(
        improving_times[1:], improving_times[:-1], out=last_of_group[:-1]
    )
    return improving[last_of_group]


def _stage_key(
    model: JoinCostEstimator, stage: StageRequirement
) -> Tuple[str, float, float]:
    """The stage-dedup memo key (``cost_batch``'s memo discipline)."""
    return (
        model.model_key(stage.algorithm),
        stage.small_gb,
        stage.large_gb,
    )


#: One stage's exact frontier: ``(times, money, config_indexes)``.
StageFrontier = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _stage_frontiers(
    stages: Sequence[StageRequirement],
    model: JoinCostEstimator,
    price_model: PriceModel,
    context: PlanningContext,
) -> Tuple[Dict[Tuple, StageFrontier], int]:
    """Exact per-stage frontiers for every *distinct* stage.

    Distinct stages (the ``cost_batch`` memo key: model key + input
    sizes) are grouped by algorithm and costed through one stacked
    ``predict_time_grid_batch`` call per algorithm -- the PR-5 numpy
    path.  The weak skyline pass admits candidates, which are
    re-predicted through ``predict_time_rows`` so the frontier's times
    are bit-identical to scalar ``predict_time`` calls, then resolved
    exactly by :func:`_strict_skyline` in grid order.

    Returns ``(stage_key -> (times, money, config_indexes), pruned)``.
    """
    counters = context.counters
    grid = context.cluster.config_grid()
    by_algorithm: Dict[JoinAlgorithm, List[StageRequirement]] = {}
    seen = set()
    for stage in stages:
        key = _stage_key(model, stage)
        if key in seen:
            continue
        seen.add(key)
        by_algorithm.setdefault(stage.algorithm, []).append(stage)

    frontiers: Dict[Tuple, StageFrontier] = {}
    pruned = 0
    for algorithm, rows in by_algorithm.items():
        small = np.asarray([s.small_gb for s in rows])
        large = np.asarray([s.large_gb for s in rows])
        # Counted exactly like the batched kernel: one resource
        # iteration per (stage, configuration) pair, distinct stages
        # only (memo'd repeats are free, as in cost_batch).
        counters.resource_iterations += grid.num_configs * len(rows)
        times = model.predict_time_grid_batch(algorithm, small, large, grid)
        times = np.where(np.isnan(times), math.inf, times)
        money = price_model.price(grid.total_memory_gb * times)
        for position, stage in enumerate(rows):
            stage_times = times[position]
            stage_money = money[position]
            feasible = np.flatnonzero(np.isfinite(stage_times))
            if feasible.size == 0:
                frontiers[_stage_key(model, stage)] = (
                    np.empty(0),
                    np.empty(0),
                    np.empty(0, dtype=np.intp),
                )
                continue
            # Admitted candidates in grid order, so equal-cost couples
            # resolve to the first configuration a scalar scan sees.
            admitted = np.sort(
                feasible[
                    _weak_skyline_candidates(
                        stage_times[feasible], stage_money[feasible]
                    )
                ]
            )
            # Re-predict the admitted candidates lane-for-lane (the
            # kernel's winner-recompute discipline): reported times are
            # then bit-identical to scalar predict_time, and the money
            # expression matches the scalar
            # cost_of_gb_seconds(config.gb_seconds(t)) chain.
            kept_counts = grid.counts[admitted]
            kept_sizes = grid.sizes[admitted]
            kept_times = model.predict_time_rows(
                algorithm,
                np.full(admitted.shape[0], stage.small_gb),
                np.full(admitted.shape[0], stage.large_gb),
                kept_sizes,
                kept_counts,
            )
            kept_money = price_model.price(
                kept_counts * kept_sizes * kept_times
            )
            kept = _strict_skyline(kept_times, kept_money)
            pruned += int(feasible.size) - kept.shape[0]
            frontiers[_stage_key(model, stage)] = (
                kept_times[kept],
                kept_money[kept],
                admitted[kept],
            )
    return frontiers, pruned


def compute_frontier(
    plan: PlanNode,
    context: PlanningContext,
    model: JoinCostEstimator,
    price_model: PriceModel,
) -> ResourceFrontier:
    """The exact latency/dollar Pareto frontier of ``plan``.

    Stage frontiers (one stage per join, postorder) are combined with a
    columnar Minkowski fold: both objectives are additive across
    sequentially executed stages, so each fold sums an accumulated
    frontier with the next stage's and keeps the sums'
    :func:`_strict_skyline`.  Candidate order within a fold is
    accumulated-point major, stage-configuration minor -- deterministic
    and worker-count-independent -- and each kept candidate carries its
    configurations by back-pointer: row ``k // width`` of the
    accumulated indexes plus the stage's index ``k % width``.  The
    fold's left-to-right additions use the same order as
    ``get_plan_cost``'s postorder summation, so a frontier point whose
    per-stage configurations match the search's choices reproduces the
    searched plan cost bit for bit.

    An infeasible stage (no feasible configuration at all) yields an
    empty frontier; a plan with no joins yields the single zero-cost
    point.  Counters: ``resource_iterations`` ticks exactly like the
    batched kernel, ``dominated_pruned``/``frontier_points`` record the
    skyline's work on ``context.counters``.
    """
    stages = tuple(
        StageRequirement(
            algorithm=join.algorithm,
            small_gb=float(small_gb),
            large_gb=float(large_gb),
        )
        for join in plan.joins_postorder()
        for small_gb, large_gb in (
            context.join_io_gb(join.left.tables, join.right.tables),
        )
    )
    counters = context.counters
    if not stages:
        counters.frontier_points += 1
        return ResourceFrontier(
            times=np.zeros(1),
            money=np.zeros(1),
            config_indexes=np.empty((1, 0), dtype=np.intp),
            dominated_pruned=0,
            stages=(),
            cluster=context.cluster,
        )

    stage_frontiers, pruned = _stage_frontiers(
        stages, model, price_model, context
    )
    acc_times: Optional[np.ndarray] = None
    acc_money = np.empty(0)
    acc_configs = np.empty((0, 0), dtype=np.intp)
    for stage in stages:
        s_times, s_money, s_configs = stage_frontiers[
            _stage_key(model, stage)
        ]
        if s_configs.shape[0] == 0:
            return ResourceFrontier(
                times=np.empty(0),
                money=np.empty(0),
                config_indexes=np.empty((0, len(stages)), dtype=np.intp),
                dominated_pruned=pruned,
                stages=stages,
                cluster=context.cluster,
            )
        if acc_times is None:
            acc_times = s_times
            acc_money = s_money
            acc_configs = s_configs[:, None]
            continue
        # Minkowski sum of the accumulated frontier and this stage's;
        # flattened C-order = accumulated-point major, so candidate
        # order (and therefore every tie-break) is deterministic.
        cand_times = (acc_times[:, None] + s_times[None, :]).ravel()
        cand_money = (acc_money[:, None] + s_money[None, :]).ravel()
        kept = _strict_skyline(cand_times, cand_money)
        pruned += cand_times.shape[0] - kept.shape[0]
        width = s_configs.shape[0]
        acc_times = cand_times[kept]
        acc_money = cand_money[kept]
        acc_configs = np.concatenate(
            [acc_configs[kept // width], s_configs[kept % width][:, None]],
            axis=1,
        )

    assert acc_times is not None
    counters.dominated_pruned += pruned
    counters.frontier_points += acc_times.shape[0]
    return ResourceFrontier(
        times=acc_times,
        money=acc_money,
        config_indexes=acc_configs,
        dominated_pruned=pruned,
        stages=stages,
        cluster=context.cluster,
    )
