"""The four RAQO operating modes of the paper's Sec IV.

"The RAQO architecture enables several interesting use-cases":

1. ``r => p``    -- constrained resources (tenant quota): the best plan
   for a given resource budget (:func:`best_plan_for_budget`).
2. ``p => (r, c)`` -- a fixed plan that already meets the SLA: adjust the
   resources to lower the monetary cost
   (:func:`plan_resources_for_plan`).
3. ``(p, r)``    -- abundant resources: jointly pick the best plan and
   resources (:func:`best_joint_plan`).
4. ``c => (p, r)`` -- a monetary budget: the best-performing joint plan
   under a price ceiling (:func:`plan_for_price`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.catalog.queries import Query
from repro.cluster.cluster import ClusterConditions
from repro.cluster.containers import ResourceConfiguration
from repro.core.pareto import PlanObjective
from repro.core.raqo import (
    PlannerKind,
    QueryOptimizerCoster,
    RaqoCoster,
    RaqoPlanner,
)
from repro.planner.cost_interface import (
    Cost,
    PlanningContext,
    PlanningResult,
    get_plan_cost,
)
from repro.planner.plan import PlanNode
from repro.planner.selinger import SelingerPlanner


class UseCaseError(Exception):
    """Raised when a use-case constraint cannot be satisfied."""


def best_plan_for_budget(
    planner: RaqoPlanner,
    query: Query,
    budget: ResourceConfiguration,
) -> PlanningResult:
    """Use-case 1 (``r => p``): the best plan for a fixed resource budget.

    All operators run within ``budget``; the optimizer only searches the
    plan space.
    """
    coster = QueryOptimizerCoster(
        model=planner.cost_model,
        default_resources=budget,
        price_model=planner.price_model,
    )
    selinger = SelingerPlanner(coster)
    context = planner.make_context(
        ClusterConditions(
            max_containers=budget.num_containers,
            max_container_gb=budget.container_gb,
        )
    )
    return selinger.plan(query, context)


def plan_resources_for_plan(
    planner: RaqoPlanner,
    plan: PlanNode,
    context: Optional[PlanningContext] = None,
) -> Tuple[PlanNode, Cost]:
    """Use-case 2 (``p => (r, c)``): keep the plan, replan its resources.

    Returns the plan annotated with per-operator resources and its cost
    (including the monetary component the user asked to minimise).
    """
    coster = RaqoCoster(
        model=planner.cost_model,
        cache=planner.cache,
        price_model=planner.price_model,
        objective=PlanObjective.weighted(1.0),
    )
    context = context or planner.make_context()
    annotated, cost = get_plan_cost(plan, coster, context)
    if not cost.is_finite:
        raise UseCaseError(
            "the given plan is infeasible under the current cluster "
            "conditions"
        )
    return annotated, cost


def best_joint_plan(
    planner: RaqoPlanner, query: Query
) -> PlanningResult:
    """Use-case 3 (``(p, r)``): the full joint optimization."""
    return planner.optimize(query)


@dataclass(frozen=True)
class PricedPlan:
    """The outcome of a price-constrained optimization."""

    plan: PlanNode
    cost: Cost
    within_budget: bool


def plan_for_price(
    catalog_planner: RaqoPlanner,
    query: Query,
    max_dollars: float,
) -> PricedPlan:
    """Use-case 4 (``c => (p, r)``): best performance under a price cap.

    Runs the multi-objective FastRandomized planner, then picks the
    fastest Pareto plan whose monetary cost respects the cap. When no
    frontier plan fits the cap, the cheapest plan is returned with
    ``within_budget=False`` so the caller can renegotiate.
    """
    if max_dollars <= 0:
        raise UseCaseError(
            f"max_dollars must be > 0, got {max_dollars}"
        )
    planner = RaqoPlanner(
        catalog_planner.catalog,
        cluster=catalog_planner.cluster,
        cost_model=catalog_planner.cost_model,
        planner_kind=PlannerKind.FAST_RANDOMIZED,
        price_model=catalog_planner.price_model,
        objective=PlanObjective.weighted(1.0 / max_dollars),
    )
    result = planner.optimize(query)
    frontier = getattr(result, "frontier", ())
    candidates = [
        (plan, cost)
        for plan, cost in frontier
        if cost.money <= max_dollars
    ]
    if candidates:
        plan, cost = min(candidates, key=lambda entry: entry[1].time_s)
        return PricedPlan(plan=plan, cost=cost, within_budget=True)
    pool = list(frontier) or [(result.plan, result.cost)]
    plan, cost = min(pool, key=lambda entry: entry[1].money)
    return PricedPlan(plan=plan, cost=cost, within_budget=False)
