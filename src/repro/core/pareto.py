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
  costed through the batched ``predict_time_grid_batch`` kernel, and
  the non-dominated set over the stacked (stages x configurations)
  space is computed with a vectorized skyline pass plus an exact scalar
  tail that defers to the shared
  :func:`~repro.planner.cost_interface.frontier` reference.

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

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.containers import ResourceConfiguration
from repro.cluster.pricing import PriceModel
from repro.core.cost_model import JoinCostEstimator
from repro.engine.joins import JoinAlgorithm
from repro.planner.cost_interface import (
    Cost,
    PlanningContext,
    PlanningResult,
    frontier as exact_frontier,
)
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

        The frontier is sorted by ascending time (strictly descending
        money), so the fastest point is first and the cheapest last.
        Returns ``None`` on an empty frontier.
        """
        points = resource_frontier.points
        if not points:
            return None
        if self.kind == "cheapest":
            return points[-1]
        if self.kind == "latency_bounded":
            within = [p for p in points if p.time_s <= self.budget_s]
            # The cheapest point meeting the budget is the *last* one
            # within it; an unattainable budget degrades to fastest.
            return within[-1] if within else points[0]
        return points[0]


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


@dataclass(frozen=True)
class ResourceFrontier:
    """The exact latency/dollar Pareto frontier of one plan.

    ``points`` is sorted by ascending ``time_s`` (strictly descending
    ``money``); every pair of points is mutually non-dominated.
    ``dominated_pruned`` counts the candidate (stage x configuration)
    points the skyline passes discarded on the way.
    """

    points: Tuple[ParetoPoint, ...]
    dominated_pruned: int
    stages: Tuple[StageRequirement, ...]

    def __len__(self) -> int:
        return len(self.points)

    @property
    def fastest(self) -> Optional[ParetoPoint]:
        """The minimum-latency point (None on an empty frontier)."""
        return self.points[0] if self.points else None

    @property
    def cheapest(self) -> Optional[ParetoPoint]:
        """The minimum-dollar point (None on an empty frontier)."""
        return self.points[-1] if self.points else None

    @property
    def time_span(self) -> float:
        """Latency spread between the fastest and cheapest points."""
        if not self.points:
            return 0.0
        return self.points[-1].time_s - self.points[0].time_s

    @property
    def money_span(self) -> float:
        """Dollar spread between the fastest and cheapest points."""
        if not self.points:
            return 0.0
        return self.points[0].money - self.points[-1].money


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
    equal (time, money) duplicates) are deliberately *kept*: they are
    coupled through the first-occurrence discipline and are resolved by
    the exact scalar tail, which defers to the shared
    :func:`~repro.planner.cost_interface.frontier` reference.
    Returned indexes are in sorted (time, money, candidate) order.
    """
    order = np.lexsort((money, times))
    money_sorted = money[order]
    keep = np.empty(order.shape[0], dtype=bool)
    keep[0] = True
    running = np.minimum.accumulate(money_sorted)
    keep[1:] = money_sorted[1:] <= running[:-1]
    return order[keep]


def _stage_key(
    model: JoinCostEstimator, stage: StageRequirement
) -> Tuple[str, float, float]:
    """The stage-dedup memo key (``cost_batch``'s memo discipline)."""
    return (
        model.model_key(stage.algorithm),
        stage.small_gb,
        stage.large_gb,
    )


def _stage_frontiers(
    stages: Sequence[StageRequirement],
    model: JoinCostEstimator,
    price_model: PriceModel,
    context: PlanningContext,
) -> Tuple[Dict[Tuple, Tuple[np.ndarray, np.ndarray, List[int]]], int]:
    """Exact per-stage frontiers for every *distinct* stage.

    Distinct stages (the ``cost_batch`` memo key: model key + input
    sizes) are grouped by algorithm and costed through one stacked
    ``predict_time_grid_batch`` call per algorithm -- the PR-5 numpy
    path.  Kept candidates are re-predicted through
    ``predict_time_rows`` so the frontier's times are bit-identical to
    scalar ``predict_time`` calls, then resolved exactly by the shared
    scalar :func:`~repro.planner.cost_interface.frontier` tail.

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

    frontiers: Dict[Tuple, Tuple[np.ndarray, np.ndarray, List[int]]] = {}
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
                    [],
                )
                continue
            admitted = feasible[
                _weak_skyline_candidates(
                    stage_times[feasible], stage_money[feasible]
                )
            ]
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
            # Exact scalar tail over the admitted survivors, walked in
            # grid order so equal-cost couples resolve to the first
            # configuration the scalar scan would have seen.
            grid_order = np.argsort(admitted, kind="stable")
            entries = [
                (
                    int(admitted[i]),
                    Cost(
                        time_s=float(kept_times[i]),
                        money=float(kept_money[i]),
                    ),
                )
                for i in grid_order
            ]
            kept = exact_frontier(entries)
            pruned += int(feasible.size) - len(kept)
            frontiers[_stage_key(model, stage)] = (
                np.asarray([cost.time_s for _, cost in kept]),
                np.asarray([cost.money for _, cost in kept]),
                [index for index, _ in kept],
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
    Minkowski fold: both objectives are additive across sequentially
    executed stages, so each fold sums an accumulated frontier with the
    next stage's and re-runs the skyline (vectorized weak pass + exact
    scalar tail).  Candidate order within a fold is accumulated-point
    major, stage-configuration minor -- deterministic and
    worker-count-independent.  The fold's left-to-right additions use
    the same order as ``get_plan_cost``'s postorder summation, so a
    frontier point whose per-stage configurations match the search's
    choices reproduces the searched plan cost bit for bit.

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
        frontier = ResourceFrontier(
            points=(ParetoPoint(time_s=0.0, money=0.0, configs=()),),
            dominated_pruned=0,
            stages=(),
        )
        counters.frontier_points += 1
        return frontier

    stage_frontiers, pruned = _stage_frontiers(
        stages, model, price_model, context
    )
    grid = context.cluster.config_grid()
    #: Winning configurations cluster on few grid points (same
    #: observation as the batched kernel); materialise each once.
    config_cache: Dict[int, ResourceConfiguration] = {}

    def config_at(index: int) -> ResourceConfiguration:
        config = config_cache.get(index)
        if config is None:
            config = grid.config_at(index)
            config_cache[index] = config
        return config

    acc_times: Optional[np.ndarray] = None
    acc_money: Optional[np.ndarray] = None
    acc_configs: List[Tuple[int, ...]] = []
    for stage in stages:
        s_times, s_money, s_configs = stage_frontiers[
            _stage_key(model, stage)
        ]
        if len(s_configs) == 0:
            return ResourceFrontier(
                points=(), dominated_pruned=pruned, stages=stages
            )
        if acc_times is None:
            acc_times = s_times
            acc_money = s_money
            acc_configs = [(index,) for index in s_configs]
            continue
        # Minkowski sum of the accumulated frontier and this stage's;
        # flattened C-order = accumulated-point major, so candidate
        # order (and therefore every tie-break) is deterministic.
        cand_times = (acc_times[:, None] + s_times[None, :]).ravel()
        cand_money = (acc_money[:, None] + s_money[None, :]).ravel()
        admitted = _weak_skyline_candidates(cand_times, cand_money)
        admitted = np.sort(admitted)  # back to candidate order
        width = len(s_configs)
        entries = [
            (
                int(flat),
                Cost(
                    time_s=float(cand_times[flat]),
                    money=float(cand_money[flat]),
                ),
            )
            for flat in admitted
        ]
        kept = exact_frontier(entries)
        pruned += cand_times.shape[0] - len(kept)
        acc_times = np.asarray([cost.time_s for _, cost in kept])
        acc_money = np.asarray([cost.money for _, cost in kept])
        acc_configs = [
            acc_configs[flat // width] + (s_configs[flat % width],)
            for flat, _ in kept
        ]

    assert acc_times is not None and acc_money is not None
    points = tuple(
        ParetoPoint(
            time_s=float(acc_times[i]),
            money=float(acc_money[i]),
            configs=tuple(config_at(index) for index in acc_configs[i]),
        )
        for i in range(acc_times.shape[0])
    )
    counters.dominated_pruned += pruned
    counters.frontier_points += len(points)
    return ResourceFrontier(
        points=points, dominated_pruned=pruned, stages=stages
    )
