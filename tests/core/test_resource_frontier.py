"""``ResourceFrontier`` as a columnar value.

The frontier keeps its points as arrays and materialises
:class:`~repro.core.pareto.ParetoPoint` objects only on request.  These
tests pin what that must not change: equality and hashing look at the
arrays (never at the cached ``points``), a pickled planning result
round-trips equal, and planning the cheapest ``All`` plan end to end
never builds the 635k-point tuple.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.api import RaqoSession
from repro.catalog import tpch
from repro.cluster.cluster import ClusterConditions
from repro.core.pareto import ParetoPlanningResult, PlanObjective
from repro.core.raqo import RaqoPlanner

#: Small enough to plan in milliseconds, large enough for many points.
CLUSTER = ClusterConditions(max_containers=16, max_container_gb=6.0)


def _plan(catalog, query=tpch.QUERY_Q3, objective=None):
    planner = RaqoPlanner(
        catalog,
        cluster=CLUSTER,
        objective=objective or PlanObjective.pareto(),
    )
    result = planner.optimize(query)
    assert isinstance(result, ParetoPlanningResult)
    return result


class TestEquality:
    def test_independent_computations_are_equal(self, tpch_catalog_sf100):
        a = _plan(tpch_catalog_sf100).frontier
        b = _plan(tpch_catalog_sf100).frontier
        assert a is not b and len(a) > 2
        assert a == b
        assert hash(a) == hash(b)

    def test_any_field_difference_breaks_equality(self, tpch_catalog_sf100):
        frontier = _plan(tpch_catalog_sf100).frontier
        money = frontier.money.copy()
        money[1] = np.nextafter(money[1], 0.0)
        indexes = frontier.config_indexes.copy()
        indexes[0, 0] += 1
        for changes in (
            {"money": money},
            {"times": frontier.times[::-1].copy()},
            {"config_indexes": indexes},
            {"dominated_pruned": frontier.dominated_pruned + 1},
            {"stages": frontier.stages[:-1]},
            {
                "cluster": ClusterConditions(
                    max_containers=17, max_container_gb=6.0
                )
            },
        ):
            assert dataclasses.replace(frontier, **changes) != frontier

    def test_arrays_are_read_only(self, tpch_catalog_sf100):
        frontier = _plan(tpch_catalog_sf100).frontier
        for array in (
            frontier.times, frontier.money, frontier.config_indexes
        ):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_cached_points_stay_out_of_eq_and_hash(
        self, tpch_catalog_sf100
    ):
        a = _plan(tpch_catalog_sf100).frontier
        b = _plan(tpch_catalog_sf100).frontier
        before = hash(a)
        assert len(a.points) == len(a)
        assert "points" in a.__dict__ and "points" not in b.__dict__
        assert a == b and b == a
        assert hash(a) == before == hash(b)

    def test_points_agree_with_point(self, tpch_catalog_sf100):
        frontier = _plan(tpch_catalog_sf100).frontier
        assert frontier.points == tuple(
            frontier.point(i) for i in range(len(frontier))
        )
        assert frontier.fastest == frontier.points[0]
        assert frontier.cheapest == frontier.points[-1]
        assert frontier.point(-1) == frontier.points[-1]


class TestPickle:
    def test_cheapest_result_round_trips_equal(self, tpch_catalog_sf100):
        result = _plan(
            tpch_catalog_sf100, objective=PlanObjective.cheapest()
        )
        result.frontier.points  # the cache must not travel
        restored = pickle.loads(pickle.dumps(result))
        assert restored == result
        assert restored.frontier == result.frontier
        assert "points" not in restored.frontier.__dict__
        assert not restored.frontier.times.flags.writeable
        assert restored.selected == result.frontier.cheapest


class TestNoMaterialisation:
    def test_cheapest_all_run_never_builds_points(self):
        session = RaqoSession(scale_factor=100.0)
        run = session.run("All", objective=PlanObjective.cheapest())
        frontier = run.planning.frontier
        assert len(frontier) > 100_000
        assert "points" not in frontier.__dict__
        assert run.planning.selected == frontier.cheapest
