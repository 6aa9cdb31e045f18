"""Frontier properties on the default cluster, checked over the arrays.

``test_pareto_properties.py`` sweeps a shrunken grid, where every
frontier is small enough to walk point by point.  The frontier that
matters most in practice -- the cheapest plan for ``All`` on the
default 100 x 10 GB cluster, 635k points over seven stages -- is
checked here in vectorized form, without materialising its points.
"""

import numpy as np
import pytest

from repro.api import RaqoSession
from repro.core.pareto import ParetoPlanningResult, PlanObjective


@pytest.fixture(scope="module")
def planned():
    session = RaqoSession(scale_factor=100.0)
    result = session.plan("All", objective=PlanObjective.cheapest())
    assert isinstance(result, ParetoPlanningResult)
    return session, result


def _brute_force_pick(frontier, budget_s):
    """Cheapest index within ``budget_s`` by filter + argmin; else fastest."""
    within = np.flatnonzero(frontier.times <= budget_s)
    if within.size == 0:
        return int(np.argmin(frontier.times))
    return int(within[np.argmin(frontier.money[within])])


def test_times_rise_and_money_falls_strictly(planned):
    _, result = planned
    frontier = result.frontier
    assert len(frontier) > 100_000
    assert np.all(np.diff(frontier.times) > 0)
    assert np.all(np.diff(frontier.money) < 0)
    assert np.all(np.isfinite(frontier.times))
    assert np.all(np.isfinite(frontier.money))


def test_every_row_has_one_in_grid_index_per_join(planned):
    session, result = planned
    frontier = result.frontier
    joins = list(result.plan.joins_postorder())
    grid = session.cluster.config_grid()
    assert frontier.cluster == session.cluster
    assert np.issubdtype(frontier.config_indexes.dtype, np.integer)
    assert frontier.config_indexes.shape == (len(frontier), len(joins))
    assert frontier.config_indexes.min() >= 0
    assert frontier.config_indexes.max() < grid.num_configs


def test_cheapest_selection_is_the_money_argmin(planned):
    _, result = planned
    frontier = result.frontier
    expected = frontier.point(int(np.argmin(frontier.money)))
    assert PlanObjective.cheapest().select(frontier) == expected
    assert result.selected == expected
    assert result.cost == expected.cost


def test_latency_bounded_selection_is_filter_then_argmin(planned):
    _, result = planned
    frontier = result.frontier
    times = frontier.times
    budgets = [600.0, float(times[0]) / 2, float(times[-1]) * 2]
    for quantile in (0.0, 0.1, 0.5, 0.9, 1.0):
        budgets.append(float(np.quantile(times, quantile)))
    picks = np.linspace(0, len(frontier) - 1, 7).astype(int)
    budgets += [float(times[i]) for i in picks]
    budgets += [float(np.nextafter(times[i], 0.0)) for i in picks]
    for budget in budgets:
        chosen = PlanObjective.latency_bounded(budget).select(frontier)
        assert chosen == frontier.point(_brute_force_pick(frontier, budget))
    assert "points" not in frontier.__dict__
