"""Properties of the Pareto-frontier resource search.

The frontier (:mod:`repro.core.pareto`) is advertised as *exact* and
*deterministic*: every point is mutually non-dominated, the whole
frontier is a pure function of (plan, grid, cost model) -- byte-identical
across 1/2/8 thread workers and across a process boundary -- and the
objective selectors reduce to brute-force reference computations.
"""

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro.catalog import tpch
from repro.cluster.cluster import ClusterConditions
from repro.core.pareto import PlanObjective
from repro.core.raqo import RaqoPlanner, ResourcePlanningMethod
from repro.planner.cost_interface import frontier as exact_frontier
from repro.workloads.runner import _process_pool_context

#: A mid-sized grid: large enough for multi-point frontiers on every
#: query, small enough that the property sweep stays fast.
CLUSTER = ClusterConditions(max_containers=16, max_container_gb=6.0)

#: Queries swept (the 7-join "All" query's exact frontier has tens of
#: thousands of points on this grid -- correct, but too slow to sweep
#: in a property suite; the three-or-fewer-join queries cover the
#: single-stage, two-stage, and fold paths).
QUERY_NAMES = ("Q12", "Q3", "Q2")


def _queries():
    by_name = {q.name: q for q in tpch.EVALUATION_QUERIES}
    return [by_name[name] for name in QUERY_NAMES]


def _pareto_planner(catalog, objective=None):
    return RaqoPlanner(
        catalog,
        cluster=CLUSTER,
        resource_method=ResourcePlanningMethod.BRUTE_FORCE,
        objective=objective or PlanObjective.pareto(),
    )


def _frontier_bytes(result) -> bytes:
    """The frontier as exact bytes: float hex + per-stage allocations."""
    parts = []
    for point in result.frontier.points:
        parts.append(point.time_s.hex())
        parts.append(point.money.hex())
        for config in point.configs:
            parts.append(
                f"{config.num_containers}x{config.container_gb.hex()}"
            )
    return "|".join(parts).encode("ascii")


def _child_frontier(catalog, kwargs, query) -> bytes:
    """Optimize in a worker process; returns the frontier's bytes."""
    planner = RaqoPlanner(catalog, **kwargs)
    return _frontier_bytes(planner.optimize(query))


class TestFrontierShape:
    def test_points_mutually_non_dominated(self, catalog):
        planner = _pareto_planner(catalog)
        for query in _queries():
            points = planner.optimize(query).frontier.points
            assert len(points) >= 2
            for a in points:
                for b in points:
                    assert not a.cost.dominates(b.cost)

    def test_sorted_and_strictly_improving(self, catalog):
        planner = _pareto_planner(catalog)
        for query in _queries():
            points = planner.optimize(query).frontier.points
            for earlier, later in zip(points, points[1:]):
                assert earlier.time_s < later.time_s
                assert earlier.money > later.money

    def test_frontier_is_its_own_exact_frontier(self, catalog):
        """Re-running the scalar reference must be the identity."""
        planner = _pareto_planner(catalog)
        for query in _queries():
            points = planner.optimize(query).frontier.points
            entries = [(p, p.cost) for p in points]
            assert exact_frontier(entries) == entries

    def test_configs_cover_every_stage(self, catalog):
        planner = _pareto_planner(catalog)
        for query in _queries():
            result = planner.optimize(query)
            joins = list(result.plan.joins_postorder())
            for point in result.frontier.points:
                assert len(point.configs) == len(joins)


class TestFrontierDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_byte_identical_across_worker_counts(self, catalog, workers):
        planner = _pareto_planner(catalog)
        serial = {
            q.name: _frontier_bytes(planner.optimize(q))
            for q in _queries()
        }
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                q.name: pool.submit(
                    lambda query: _frontier_bytes(
                        planner.clone().optimize(query)
                    ),
                    q,
                )
                for q in _queries()
            }
            for name, future in futures.items():
                assert future.result() == serial[name]

    def test_byte_identical_serial_vs_process(self, catalog):
        planner = _pareto_planner(catalog)
        kwargs = planner.picklable_init_kwargs()
        serial = {
            q.name: _frontier_bytes(planner.optimize(q))
            for q in _queries()
        }
        with ProcessPoolExecutor(
            max_workers=2, mp_context=_process_pool_context()
        ) as pool:
            futures = {
                q.name: pool.submit(_child_frontier, catalog, kwargs, q)
                for q in _queries()
            }
            for name, future in futures.items():
                assert future.result() == serial[name]


class TestObjectiveSelection:
    def test_latency_bounded_equals_bruteforce_filter_argmin(
        self, catalog
    ):
        planner = _pareto_planner(catalog)
        for query in _queries():
            points = planner.optimize(query).frontier.points
            times = [p.time_s for p in points]
            budgets = (
                [t for t in times]
                + [(a + b) / 2 for a, b in zip(times, times[1:])]
                + [times[0] / 2, times[-1] * 2]
            )
            for budget in budgets:
                frontier = planner.optimize(query).frontier
                chosen = PlanObjective.latency_bounded(budget).select(
                    frontier
                )
                feasible = [p for p in points if p.time_s <= budget]
                if feasible:
                    expected = min(feasible, key=lambda p: p.money)
                else:
                    expected = points[0]  # unattainable -> fastest
                assert chosen == expected

    def test_cheapest_and_fastest_are_the_endpoints(self, catalog):
        planner = _pareto_planner(catalog)
        for query in _queries():
            frontier = planner.optimize(query).frontier
            cheapest = PlanObjective.cheapest().select(frontier)
            fastest = PlanObjective.fastest().select(frontier)
            assert cheapest == min(
                frontier.points, key=lambda p: p.money
            )
            assert fastest == min(
                frontier.points, key=lambda p: p.time_s
            )
