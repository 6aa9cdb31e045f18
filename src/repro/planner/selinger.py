"""System R (Selinger) style bottom-up join ordering for left-deep trees.

"For System R style optimization, we implemented the Selinger algorithm for
left deep trees" (Sec VII-A). Dynamic programming over connected relation
subsets: the best plan for a set is the cheapest extension of a best plan
for one of its subsets by a single base relation, considering every join
implementation. All costing goes through the
:class:`~repro.planner.cost_interface.PlanCoster` seam, so the same planner
runs as a plain query optimizer or as cost-based RAQO.
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
    PlanningCounters,
    PlanningResult,
    Stopwatch,
    ZERO_COST,
    dispatch_cost_batch,
)
from repro.planner.operators import JOIN_IMPLEMENTATIONS
from repro.planner.plan import (
    CandidateBatch,
    JoinNode,
    PlanNode,
    ScanNode,
)


class PlanningError(Exception):
    """Raised when no feasible plan exists for a query."""


class SelingerPlanner:
    """Left-deep bottom-up dynamic programming join-order optimizer.

    With ``batched`` (the default) every DP level -- all single-relation
    extensions of all connected subsets of one size -- is costed as one
    stacked :class:`~repro.planner.plan.CandidateBatch` through the
    coster's ``cost_batch`` entry point. Extensions of size-``k``
    subsets only read ``best`` entries of size ``k - 1``, so batching a
    level never reorders any observable work: candidates are collected
    and champions compared in exactly the order the per-candidate loop
    uses, making the two modes bit-identical (plans, costs, counters,
    span trees).
    """

    name = "selinger"

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
        """Optimize ``query``; returns the paper's planning metrics.

        Counters accumulate into ``context.counters`` (so across-query
        caching experiments can aggregate); the returned result carries
        only this run's deltas.
        """
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
                self._extend_level(size, all_tables, best, context)
                continue
            for combo in itertools.combinations(sorted(all_tables), size):
                subset = frozenset(combo)
                if size > 1 and not graph.is_connected(subset):
                    continue
                entry = self._best_extension(subset, best, context)
                if entry is not None:
                    best[subset] = entry

        if all_tables not in best:
            raise PlanningError(
                f"no connected left-deep plan found for query "
                f"{query.name!r}"
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

    def _extend_level(
        self,
        size: int,
        all_tables: FrozenSet[str],
        best: Dict[FrozenSet[str], Tuple[PlanNode, Cost]],
        context: PlanningContext,
    ) -> None:
        """Cost one whole DP level as a single candidate batch.

        Collects every (subset, extension relation, implementation)
        candidate of this level in the scalar iteration order, costs
        them in one ``cost_batch`` call, then replays the per-subset
        champion comparisons in the same order.
        """
        graph = context.estimator.join_graph
        #: (subset, rest plan, rest cost, new table, algorithm) rows,
        #: parallel to the batch.
        rows: List[
            Tuple[FrozenSet[str], PlanNode, Cost, str, "JoinAlgorithm"]  # noqa: F821
        ] = []
        candidates = []
        for combo in itertools.combinations(sorted(all_tables), size):
            subset = frozenset(combo)
            if not graph.is_connected(subset):
                continue
            for table in sorted(subset):
                rest = subset - {table}
                rest_entry = best.get(rest)
                if rest_entry is None:
                    continue
                # Left-deep: the new relation is always the right
                # input, and must actually join (no cross products).
                if not graph.edges_between(rest, {table}):
                    continue
                rest_plan, rest_cost = rest_entry
                for algorithm in JOIN_IMPLEMENTATIONS:
                    context.counters.join_costings += 1
                    rows.append(
                        (subset, rest_plan, rest_cost, table, algorithm)
                    )
                    candidates.append(
                        (rest, frozenset((table,)), algorithm)
                    )
        if not rows:
            return
        batch = CandidateBatch.build(candidates, context.join_io_gb)
        costed = dispatch_cost_batch(self._coster, batch, context)
        champions: Dict[FrozenSet[str], Tuple[PlanNode, Cost]] = {}
        for index, (subset, rest_plan, rest_cost, table, algorithm) in (
            enumerate(rows)
        ):
            cost, resources = costed.pair(index)
            total = rest_cost + cost
            if not total.is_finite:
                continue
            champion = champions.get(subset)
            if champion is None or self._scalar(total) < self._scalar(
                champion[1]
            ):
                node = JoinNode(
                    left=rest_plan,
                    right=ScanNode(table),
                    algorithm=algorithm,
                    resources=resources,
                )
                champions[subset] = (node, total)
        best.update(champions)

    def _best_extension(
        self,
        subset: FrozenSet[str],
        best: Dict[FrozenSet[str], Tuple[PlanNode, Cost]],
        context: PlanningContext,
    ) -> Optional[Tuple[PlanNode, Cost]]:
        """The cheapest way to build ``subset`` by adding one relation."""
        graph = context.estimator.join_graph
        champion: Optional[Tuple[PlanNode, Cost]] = None
        for table in sorted(subset):
            rest = subset - {table}
            rest_entry = best.get(rest)
            if rest_entry is None:
                continue
            # Left-deep: the new relation is always the right input, and
            # must actually join (no cross products).
            if not graph.edges_between(rest, {table}):
                continue
            rest_plan, rest_cost = rest_entry
            for algorithm in JOIN_IMPLEMENTATIONS:  # lint: disable=RAQO010 -- the scalar reference path batched mode is verified against
                context.counters.join_costings += 1
                cost, resources = self._coster.join_cost(
                    rest, frozenset((table,)), algorithm, context
                )
                total = rest_cost + cost
                if not total.is_finite:
                    continue
                if champion is None or self._scalar(total) < self._scalar(
                    champion[1]
                ):
                    node = JoinNode(
                        left=rest_plan,
                        right=ScanNode(table),
                        algorithm=algorithm,
                        resources=resources,
                    )
                    champion = (node, total)
        return champion


def _counters_delta(
    start: PlanningCounters, end: PlanningCounters
) -> PlanningCounters:
    """Per-run counter deltas (context counters keep accumulating)."""
    return PlanningCounters(
        **{
            f.name: getattr(end, f.name) - getattr(start, f.name)
            for f in dataclasses.fields(PlanningCounters)
        }
    )
