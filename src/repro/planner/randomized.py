"""The FastRandomized multi-objective query planner.

Re-implementation of the randomized multi-objective join-ordering algorithm
of Trummer & Koch (SIGMOD 2016) at the granularity the paper uses it:
"we re-implemented the fast randomized algorithm ... we set the same target
approximation precision ... for each node in the plan tree, we considered
the associativity and the exchange mutations as described in [Steinbrunn et
al.]" (Sec VII-A).

The planner runs multi-start randomized hill climbing over bushy join
trees. Each start draws a random connected join tree, then repeatedly
applies a random mutation (commutativity, associativity, exchange, or a
join-implementation flip), accepting improvements of the scalarised cost.
Every costed plan is offered to an alpha-approximate Pareto frontier over
(execution time, monetary cost); the frontier is returned alongside the
best scalar plan.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.catalog.join_graph import JoinGraph
from repro.catalog.queries import Query
from repro.core.pareto import PlanObjective
from repro.planner.cost_interface import (
    Cost,
    PlanCoster,
    PlanningContext,
    PlanningResult,
    Stopwatch,
    frontier,
    get_plan_cost,
    get_plan_cost_batched,
)
from repro.planner.operators import JOIN_IMPLEMENTATIONS
from repro.planner.plan import (
    JoinNode,
    PlanNode,
    ScanNode,
    plan_signature,
)
from repro.planner.selinger import PlanningError, _counters_delta

Path = Tuple[str, ...]


@dataclass(frozen=True)
class MultiObjectiveResult(PlanningResult):
    """A planning result that also carries the Pareto frontier."""

    frontier: Tuple[Tuple[PlanNode, Cost], ...] = ()


class ParetoFrontier:
    """An alpha-approximate Pareto set over (time, money) costs.

    A candidate is admitted only if no existing entry is within a factor
    ``(1 + alpha)`` of it in *both* objectives -- the approximation
    precision knob of Trummer & Koch's algorithm.
    """

    def __init__(self, alpha: float = 0.05) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.alpha = alpha
        self._entries: List[Tuple[PlanNode, Cost]] = []

    def offer(self, plan: PlanNode, cost: Cost) -> bool:
        """Insert if not approximately dominated; returns True on insert."""
        if not cost.is_finite:
            return False
        slack = 1.0 + self.alpha
        for _, existing in self._entries:
            if (
                existing.time_s <= cost.time_s * slack
                and existing.money <= cost.money * slack
            ):
                return False
        self._entries = [
            (p, c) for (p, c) in self._entries if not cost.dominates(c)
        ]
        self._entries.append((plan, cost))
        return True

    def entries(self) -> Tuple[Tuple[PlanNode, Cost], ...]:
        """The frontier, exactly pruned and sorted by execution time.

        ``offer`` already rejects approximately-dominated candidates
        and evicts exactly-dominated entries, so routing the result
        through the shared :func:`~repro.planner.cost_interface.frontier`
        reference only re-sorts -- but it pins this planner's frontier
        semantics to the same single implementation the vectorized
        skyline pass (:mod:`repro.core.pareto`) verifies against.
        """
        return tuple(frontier(self._entries))

    def __len__(self) -> int:
        return len(self._entries)


class FastRandomizedPlanner:
    """Multi-start randomized multi-objective join-order optimizer.

    With ``batched`` (the default) every candidate plan -- the random
    start and each accepted-or-rejected mutation neighbour -- has all
    its joins costed as one :class:`~repro.planner.plan.CandidateBatch`
    instead of per-join coster calls. The search itself (RNG stream,
    mutation choices, acceptance tests) is untouched, so the batched
    mode is bit-identical to the scalar one.
    """

    name = "fast_randomized"

    def __init__(
        self,
        coster: PlanCoster,
        iterations: int = 10,
        alpha: float = 0.05,
        patience: Optional[int] = None,
        objective: PlanObjective = PlanObjective.fastest(),
        seed: int = 0,
        batched: bool = True,
    ) -> None:
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        self._coster = coster
        self._iterations = iterations
        self._alpha = alpha
        self._patience = patience
        self._objective = objective
        self._seed = seed
        self._batched = batched

    def _scalar(self, cost: Cost) -> float:
        return cost.scalar(self._objective)

    def _cost_plan(
        self, plan: PlanNode, context: PlanningContext
    ) -> Tuple[PlanNode, Cost]:
        if self._batched:
            return get_plan_cost_batched(plan, self._coster, context)
        return get_plan_cost(plan, self._coster, context)

    def plan(
        self, query: Query, context: PlanningContext
    ) -> MultiObjectiveResult:
        """Optimize ``query``; see :class:`MultiObjectiveResult`."""
        query.validate(context.estimator.catalog)
        watch = Stopwatch()
        start = dataclasses.replace(context.counters)
        batches_before = len(context.batch_sizes)
        rng = np.random.default_rng(self._seed)
        graph = context.estimator.join_graph
        patience = self._patience or max(20, 8 * len(query.tables))

        frontier = ParetoFrontier(self._alpha)
        best: Optional[Tuple[PlanNode, Cost]] = None
        seen: Set[Tuple] = set()

        for _ in range(self._iterations):
            plan = random_join_tree(query.tables, graph, rng)
            plan, cost = self._cost_plan(plan, context)
            frontier.offer(plan, cost)
            if cost.is_finite and (
                best is None or self._scalar(cost) < self._scalar(best[1])
            ):
                best = (plan, cost)
            current, current_cost = plan, cost
            failures = 0
            while failures < patience:
                candidate = mutate(current, graph, rng)
                if candidate is None:
                    failures += 1
                    continue
                signature = plan_signature(candidate)
                if signature in seen:
                    failures += 1
                    continue
                seen.add(signature)
                candidate, candidate_cost = self._cost_plan(
                    candidate, context
                )
                frontier.offer(candidate, candidate_cost)
                improved = candidate_cost.is_finite and (
                    not current_cost.is_finite
                    or self._scalar(candidate_cost)
                    < self._scalar(current_cost)
                )
                if improved:
                    current, current_cost = candidate, candidate_cost
                    failures = 0
                    if best is None or self._scalar(
                        candidate_cost
                    ) < self._scalar(best[1]):
                        best = (candidate, candidate_cost)
                else:
                    failures += 1

        if best is None:
            raise PlanningError(
                f"randomized planner found no feasible plan for "
                f"{query.name!r}"
            )
        delta = _counters_delta(start, context.counters)
        return MultiObjectiveResult(
            query=query,
            plan=best[0],
            cost=best[1],
            wall_time_s=watch.elapsed_s(),
            counters=delta,
            planner_name=self.name,
            batch_sizes=tuple(context.batch_sizes[batches_before:]),
            frontier=frontier.entries(),
        )


def random_join_tree(
    tables: Sequence[str], graph: JoinGraph, rng: np.random.Generator
) -> PlanNode:
    """A uniformly random *connected* bushy join tree over ``tables``.

    Components are merged pairwise, always along an existing join edge,
    so no join node is a cross product. Join implementations are drawn
    uniformly.
    """
    components: List[PlanNode] = [ScanNode(t) for t in tables]
    while len(components) > 1:
        joinable = [
            (i, j)
            for i in range(len(components))
            for j in range(i + 1, len(components))
            if graph.edges_between(
                components[i].tables, components[j].tables
            )
        ]
        if not joinable:
            raise PlanningError(
                f"tables {sorted(t for c in components for t in c.tables)} "
                "do not form a connected join query"
            )
        i, j = joinable[int(rng.integers(len(joinable)))]
        algorithm = JOIN_IMPLEMENTATIONS[
            int(rng.integers(len(JOIN_IMPLEMENTATIONS)))
        ]
        merged = JoinNode(
            left=components[i], right=components[j], algorithm=algorithm
        )
        components = [
            c for k, c in enumerate(components) if k not in (i, j)
        ]
        components.append(merged)
    return components[0]


def plan_is_valid(plan: PlanNode, graph: JoinGraph) -> bool:
    """True when no join in the plan is a cross product."""
    for join in plan.joins_postorder():
        if not graph.edges_between(join.left.tables, join.right.tables):
            return False
    return True


def _join_paths(node: PlanNode, prefix: Path = ()) -> List[Path]:
    """Paths ('L'/'R' sequences from the root) of all join nodes."""
    if not isinstance(node, JoinNode):
        return []
    paths = [prefix]
    paths.extend(_join_paths(node.left, prefix + ("L",)))
    paths.extend(_join_paths(node.right, prefix + ("R",)))
    return paths


def _node_at(node: PlanNode, path: Path) -> PlanNode:
    for step in path:
        if not isinstance(node, JoinNode):
            raise PlanningError(f"invalid path {path}")
        node = node.left if step == "L" else node.right
    return node


def _replace_at(node: PlanNode, path: Path, new: PlanNode) -> PlanNode:
    if not path:
        return new
    if not isinstance(node, JoinNode):
        raise PlanningError(f"invalid path {path}")
    if path[0] == "L":
        return dataclasses.replace(
            node, left=_replace_at(node.left, path[1:], new)
        )
    return dataclasses.replace(
        node, right=_replace_at(node.right, path[1:], new)
    )


def mutate(
    plan: PlanNode, graph: JoinGraph, rng: np.random.Generator
) -> Optional[PlanNode]:
    """Apply one random mutation; None when it produced an invalid plan.

    Mutations: commutativity (swap inputs), left/right associativity
    rotations, the exchange mutation of Steinbrunn et al., and a join
    implementation flip.
    """
    paths = _join_paths(plan)
    if not paths:
        return None
    path = paths[int(rng.integers(len(paths)))]
    join = _node_at(plan, path)
    assert isinstance(join, JoinNode)
    mutation = int(rng.integers(5))

    if mutation == 0:  # commutativity
        new = dataclasses.replace(join, left=join.right, right=join.left)
    elif mutation == 1:  # left associativity: (A |><| B) |><| C -> A |><| (B |><| C)
        if not isinstance(join.left, JoinNode):
            return None
        a, b, c = join.left.left, join.left.right, join.right
        inner = dataclasses.replace(join.left, left=b, right=c)
        new = dataclasses.replace(join, left=a, right=inner)
    elif mutation == 2:  # right associativity: A |><| (B |><| C) -> (A |><| B) |><| C
        if not isinstance(join.right, JoinNode):
            return None
        a, b, c = join.left, join.right.left, join.right.right
        inner = dataclasses.replace(join.right, left=a, right=b)
        new = dataclasses.replace(join, left=inner, right=c)
    elif mutation == 3:  # exchange: (A |><| B) |><| (C |><| D) -> (A |><| C) |><| (B |><| D)
        if not (
            isinstance(join.left, JoinNode)
            and isinstance(join.right, JoinNode)
        ):
            return None
        a, b = join.left.left, join.left.right
        c, d = join.right.left, join.right.right
        new_left = dataclasses.replace(join.left, left=a, right=c)
        new_right = dataclasses.replace(join.right, left=b, right=d)
        new = dataclasses.replace(join, left=new_left, right=new_right)
    else:  # join implementation flip
        alternatives = [
            alg for alg in JOIN_IMPLEMENTATIONS if alg != join.algorithm
        ]
        new = join.with_algorithm(
            alternatives[int(rng.integers(len(alternatives)))]
        )

    mutated = _replace_at(plan, path, new)
    if mutation in (1, 2, 3) and not plan_is_valid(mutated, graph):
        return None
    return mutated
