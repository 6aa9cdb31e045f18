"""The vectorized strict skyline against its scalar reference.

:func:`repro.core.pareto._strict_skyline` is what every fold of the
columnar frontier keeps; :func:`repro.planner.cost_interface.frontier`
is the reference it must agree with, entry for entry.  The inputs are
drawn from small value pools so that equal-time groups, equal-money
runs and exact (time, money) duplicates are common rather than rare.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.pareto import _strict_skyline
from repro.planner.cost_interface import Cost, frontier

#: Few distinct values: collisions in either objective are the norm.
SMALL_VALUES = st.sampled_from(
    [0.0, 0.1, 0.2, 0.30000000000000004, 0.3, 1.0, 2.5, 7.0]
)

#: Arbitrary finite non-negative floats, including huge and tiny ones.
ANY_VALUES = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)


@st.composite
def cost_arrays(draw):
    """(times, money) with forced exact duplicates, in shuffled order."""
    values = st.one_of(SMALL_VALUES, ANY_VALUES)
    pairs = draw(st.lists(st.tuples(values, values), max_size=60))
    if pairs:
        copies = draw(
            st.lists(st.integers(0, len(pairs) - 1), max_size=len(pairs))
        )
        pairs = pairs + [pairs[i] for i in copies]
        pairs = draw(st.permutations(pairs))
    times = np.array([t for t, _ in pairs], dtype=float)
    money = np.array([m for _, m in pairs], dtype=float)
    return times, money


def _reference(times, money):
    entries = [
        (index, Cost(time_s=t, money=m))
        for index, (t, m) in enumerate(zip(times.tolist(), money.tolist()))
    ]
    return [index for index, _ in frontier(entries)]


@given(cost_arrays())
@settings(max_examples=300, deadline=None)
def test_strict_skyline_keeps_the_reference_entries(arrays):
    times, money = arrays
    assert _strict_skyline(times, money).tolist() == _reference(times, money)


@given(cost_arrays())
@settings(max_examples=100, deadline=None)
def test_strict_skyline_is_a_strict_staircase(arrays):
    times, money = arrays
    kept = _strict_skyline(times, money)
    assert np.all(np.diff(times[kept]) > 0)
    assert np.all(np.diff(money[kept]) < 0)


def test_equal_time_group_keeps_its_first_minimum():
    times = np.array([1.0, 2.0, 2.0, 2.0, 2.0, 3.0])
    money = np.array([5.0, 4.0, 3.0, 3.0, 4.5, 3.0])
    assert _strict_skyline(times, money).tolist() == [0, 2]
    assert _reference(times, money) == [0, 2]


def test_empty_input():
    assert _strict_skyline(np.empty(0), np.empty(0)).tolist() == []
