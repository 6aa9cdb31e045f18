"""Tests for repro.planner.cost_interface."""

import math

import pytest

from repro.catalog.statistics import StatisticsEstimator
from repro.cluster.cluster import ClusterConditions
from repro.core.pareto import PlanObjective
from repro.planner.cost_interface import (
    Cost,
    INFEASIBLE_COST,
    PlanningContext,
    PlanningCounters,
    ZERO_COST,
    get_plan_cost,
)
from repro.planner.plan import left_deep_plan


class TestCost:
    def test_addition(self):
        total = Cost(1.0, 2.0) + Cost(3.0, 4.0)
        assert total == Cost(4.0, 6.0)

    def test_scalar_default_is_time(self):
        assert Cost(5.0, 100.0).scalar(PlanObjective.fastest()) == 5.0

    def test_scalar_weighted(self):
        assert Cost(5.0, 100.0).scalar(
            PlanObjective.weighted(0.1)
        ) == pytest.approx(15.0)

    def test_dominates(self):
        assert Cost(1.0, 1.0).dominates(Cost(2.0, 1.0))
        assert Cost(1.0, 1.0).dominates(Cost(1.0, 2.0))
        assert not Cost(1.0, 1.0).dominates(Cost(1.0, 1.0))
        assert not Cost(1.0, 3.0).dominates(Cost(2.0, 1.0))

    def test_is_finite(self):
        assert Cost(1.0, 1.0).is_finite
        assert not INFEASIBLE_COST.is_finite
        assert not Cost(1.0, math.inf).is_finite

    def test_zero_cost(self):
        assert ZERO_COST.time_s == 0.0
        assert (ZERO_COST + Cost(1.0, 2.0)) == Cost(1.0, 2.0)


class TestPlanningCounters:
    def test_merge(self):
        a = PlanningCounters(resource_iterations=5, join_costings=2)
        b = PlanningCounters(
            resource_iterations=3, cache_hits=1, cache_misses=4
        )
        a.merge(b)
        assert a.resource_iterations == 8
        assert a.join_costings == 2
        assert a.cache_hits == 1
        assert a.cache_misses == 4


class FixedCoster:
    """Returns a constant cost per join, counting invocations."""

    def __init__(self, time_s=10.0):
        self.time_s = time_s
        self.calls = 0

    def join_cost(self, left_tables, right_tables, algorithm, context):
        self.calls += 1
        return Cost(self.time_s, 1.0), None


class TestGetPlanCost:
    def _context(self, catalog):
        return PlanningContext(
            estimator=StatisticsEstimator(catalog),
            cluster=ClusterConditions(
                max_containers=10, max_container_gb=4.0
            ),
        )

    def test_sums_join_costs(self, tpch_catalog_sf100):
        plan = left_deep_plan(("customer", "orders", "lineitem"))
        coster = FixedCoster(time_s=10.0)
        context = self._context(tpch_catalog_sf100)
        _, cost = get_plan_cost(plan, coster, context)
        assert cost == Cost(20.0, 2.0)
        assert coster.calls == 2

    def test_scan_only_plan_costs_zero(self, tpch_catalog_sf100):
        from repro.planner.plan import ScanNode

        coster = FixedCoster()
        context = self._context(tpch_catalog_sf100)
        _, cost = get_plan_cost(ScanNode("orders"), coster, context)
        assert cost == ZERO_COST
        assert coster.calls == 0

    def test_join_io_gb_through_context(self, tpch_catalog_sf100):
        context = self._context(tpch_catalog_sf100)
        small, large = context.join_io_gb(["orders"], ["lineitem"])
        assert 0 < small < large
