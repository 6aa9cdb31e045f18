"""Bushy dynamic-programming join ordering (DPsize).

The paper's Selinger prototype is left-deep ("we implemented the Selinger
algorithm for left deep trees"), while its FastRandomized planner searches
bushy trees. This module completes the picture with the classic
DPsize-style exhaustive bushy optimizer: for every connected relation
subset, the best plan is the cheapest join of two connected,
complementary sub-plans. It shares the :class:`~repro.planner.
cost_interface.PlanCoster` seam, so it runs as a plain query optimizer or
as cost-based RAQO, and bounds the quality of both other planners on
small queries (see the planner-agreement tests).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.catalog.queries import Query
from repro.core.pareto import PlanObjective
from repro.planner.cost_interface import (
    Cost,
    PlanCoster,
    PlanningContext,
    PlanningResult,
    Stopwatch,
    ZERO_COST,
    dispatch_cost_batch,
)
from repro.planner.operators import JOIN_IMPLEMENTATIONS
from repro.planner.plan import CandidateBatch, JoinNode, PlanNode, ScanNode
from repro.planner.selinger import PlanningError, _counters_delta

#: Exhaustive bushy enumeration is exponential; refuse silly inputs.
MAX_BUSHY_RELATIONS = 12


class BushyPlanner:
    """Exhaustive bushy join-order optimizer (DPsize).

    With ``batched`` (the default) each DP level -- every (left, right,
    implementation) partition of every connected subset of one size --
    is costed through a single ``cost_batch`` call, exactly like the
    left-deep :class:`~repro.planner.selinger.SelingerPlanner`:
    size-``k`` entries only read strictly smaller ``best`` entries, so
    the batched level is bit-identical to the per-candidate loop.
    """

    name = "bushy_dp"

    def __init__(
        self,
        coster: PlanCoster,
        objective: PlanObjective = PlanObjective.fastest(),
        batched: bool = True,
    ) -> None:
        self._coster = coster
        self._objective = objective
        self._batched = batched

    def _scalar(self, cost: Cost) -> float:
        return cost.scalar(self._objective)

    def plan(
        self, query: Query, context: PlanningContext
    ) -> PlanningResult:
        """Optimize ``query`` over the full bushy plan space."""
        if len(query.tables) > MAX_BUSHY_RELATIONS:
            raise PlanningError(
                f"bushy DP is exhaustive; {len(query.tables)} relations "
                f"exceed the {MAX_BUSHY_RELATIONS}-relation limit -- use "
                "the FastRandomized planner"
            )
        query.validate(context.estimator.catalog)
        watch = Stopwatch()
        start = dataclasses.replace(context.counters)
        batches_before = len(context.batch_sizes)

        graph = context.estimator.join_graph
        best: Dict[FrozenSet[str], Tuple[PlanNode, Cost]] = {}
        for table in query.tables:
            best[frozenset((table,))] = (ScanNode(table), ZERO_COST)

        all_tables = frozenset(query.tables)
        for size in range(2, len(query.tables) + 1):
            if self._batched:
                self._split_level(size, all_tables, best, context)
                continue
            for combo in itertools.combinations(sorted(all_tables), size):
                subset = frozenset(combo)
                if not graph.is_connected(subset):
                    continue
                entry = self._best_split(subset, best, context)
                if entry is not None:
                    best[subset] = entry

        if all_tables not in best:
            raise PlanningError(
                f"no connected bushy plan found for {query.name!r}"
            )
        plan, cost = best[all_tables]
        delta = _counters_delta(start, context.counters)
        return PlanningResult(
            query=query,
            plan=plan,
            cost=cost,
            wall_time_s=watch.elapsed_s(),
            counters=delta,
            planner_name=self.name,
            batch_sizes=tuple(context.batch_sizes[batches_before:]),
        )

    def _split_level(
        self,
        size: int,
        all_tables: FrozenSet[str],
        best: Dict[FrozenSet[str], Tuple[PlanNode, Cost]],
        context: PlanningContext,
    ) -> None:
        """Cost one whole DPsize level as a single candidate batch.

        Candidates are collected in exactly the order the scalar
        ``_best_split`` loop costs them, costed in one ``cost_batch``
        call, and the per-subset champion comparisons replayed in that
        order.
        """
        graph = context.estimator.join_graph
        #: (subset, left plan, left cost, right plan, right cost,
        #: algorithm) rows, parallel to the batch.
        rows: List[Tuple] = []
        candidates = []
        for combo in itertools.combinations(sorted(all_tables), size):
            subset = frozenset(combo)
            if not graph.is_connected(subset):
                continue
            names = sorted(subset)
            # Enumerate proper subsets containing the smallest element,
            # so each unordered partition is considered exactly once.
            anchor = names[0]
            restnames = names[1:]
            for mask_size in range(0, len(restnames)):
                for picked in itertools.combinations(
                    restnames, mask_size
                ):
                    left = frozenset((anchor,) + picked)
                    right = subset - left
                    left_entry = best.get(left)
                    right_entry = best.get(right)
                    if left_entry is None or right_entry is None:
                        continue
                    if not graph.edges_between(left, right):
                        continue
                    for algorithm in JOIN_IMPLEMENTATIONS:
                        context.counters.join_costings += 1
                        rows.append(
                            (subset, *left_entry, *right_entry, algorithm)
                        )
                        candidates.append((left, right, algorithm))
        if not rows:
            return
        batch = CandidateBatch.build(candidates, context.join_io_gb)
        costed = dispatch_cost_batch(self._coster, batch, context)
        champions: Dict[FrozenSet[str], Tuple[PlanNode, Cost]] = {}
        for index, (
            subset,
            left_plan,
            left_cost,
            right_plan,
            right_cost,
            algorithm,
        ) in enumerate(rows):
            cost, resources = costed.pair(index)
            total = left_cost + right_cost + cost
            if not total.is_finite:
                continue
            champion = champions.get(subset)
            if champion is None or self._scalar(total) < self._scalar(
                champion[1]
            ):
                node = JoinNode(
                    left=left_plan,
                    right=right_plan,
                    algorithm=algorithm,
                    resources=resources,
                )
                champions[subset] = (node, total)
        best.update(champions)

    def _best_split(
        self,
        subset: FrozenSet[str],
        best: Dict[FrozenSet[str], Tuple[PlanNode, Cost]],
        context: PlanningContext,
    ) -> Optional[Tuple[PlanNode, Cost]]:
        """The cheapest (left, right) partition of ``subset``."""
        graph = context.estimator.join_graph
        names = sorted(subset)
        champion: Optional[Tuple[PlanNode, Cost]] = None
        # Enumerate proper subsets containing the smallest element, so
        # each unordered partition is considered exactly once.
        anchor = names[0]
        rest = names[1:]
        for mask_size in range(0, len(rest)):
            for picked in itertools.combinations(rest, mask_size):
                left = frozenset((anchor,) + picked)
                right = subset - left
                left_entry = best.get(left)
                right_entry = best.get(right)
                if left_entry is None or right_entry is None:
                    continue
                if not graph.edges_between(left, right):
                    continue
                left_plan, left_cost = left_entry
                right_plan, right_cost = right_entry
                for algorithm in JOIN_IMPLEMENTATIONS:  # lint: disable=RAQO010 -- the scalar reference path batched mode is verified against
                    context.counters.join_costings += 1
                    cost, resources = self._coster.join_cost(
                        left, right, algorithm, context
                    )
                    total = left_cost + right_cost + cost
                    if not total.is_finite:
                        continue
                    if champion is None or self._scalar(
                        total
                    ) < self._scalar(champion[1]):
                        node = JoinNode(
                            left=left_plan,
                            right=right_plan,
                            algorithm=algorithm,
                            resources=resources,
                        )
                        champion = (node, total)
        return champion
