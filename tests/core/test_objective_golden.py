"""Golden plans, cost floats, counters and span trees per objective.

Every way of saying what a plan optimises -- the Sec IV objectives
behind :class:`~repro.core.pareto.PlanObjective` -- must keep producing
the exact plans, cost bits (``float.hex``), planning counters and
canonical span trees (as SHA-256 digests) recorded in
``golden/objective_plans.json``.  The
golden pins the scalarisation (``time_weight * t + money_weight * m``)
and the price formula along every path that evaluates them: the scalar
hill climb, the vectorized brute-force grid, the stacked batch kernel,
the per-stage frontier, and the randomized and bushy join searches.

To re-record after an intended behaviour change::

    PYTHONPATH=src python tests/core/test_objective_golden.py --update
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.catalog import tpch
from repro.core.pareto import PlanObjective
from repro.core.raqo import PlannerKind, RaqoPlanner, ResourcePlanningMethod
from repro.obs.export import canonical_span_tree_json
from repro.obs.tracing import Tracer
from repro.planner.bushy import BushyPlanner
from repro.planner.plan import plan_signature

GOLDEN_PATH = Path(__file__).parent / "golden" / "objective_plans.json"

QUERIES = {q.name: q for q in tpch.EVALUATION_QUERIES}

METHODS = {
    "hill_climb": ResourcePlanningMethod.HILL_CLIMB,
    "brute_force": ResourcePlanningMethod.BRUTE_FORCE,
}

SCALARISED = {
    "fastest": PlanObjective.fastest(),
    "weighted:2.0": PlanObjective.weighted(2.0),
    "weighted:50.0": PlanObjective.weighted(50.0),
}

#: Frontier objectives skip ``All``: its exact frontier on the default
#: cluster takes seconds per case.
FRONTIER = {
    "cheapest": PlanObjective.cheapest(),
    "latency-bound:600.0": PlanObjective.latency_bounded(600.0),
}


def _cases():
    cases = []
    for method in METHODS:
        for name in ("Q12", "Q3", "Q2", "All"):
            for objective in SCALARISED:
                cases.append(("selinger", method, name, objective))
        for name in ("Q12", "Q3", "Q2"):
            for objective in FRONTIER:
                cases.append(("selinger", method, name, objective))
    # Unbatched brute force takes the per-operator grid objective
    # instead of the stacked batch kernel.
    cases.append(("selinger_unbatched", "brute_force", "Q3", "weighted:2.0"))
    cases.append(("selinger_unbatched", "brute_force", "Q2", "cheapest"))
    cases.append(("fast_randomized", "hill_climb", "Q3", "weighted:8.0"))
    cases.append(("bushy", "hill_climb", "Q3", "weighted:8.0"))
    return cases


def _case_id(case) -> str:
    return "/".join(case)


def _objective(spec: str) -> PlanObjective:
    return {**SCALARISED, **FRONTIER}.get(spec) or PlanObjective.parse(spec)


def observe(catalog, case) -> dict:
    """Plan one case under a fresh seeded tracer."""
    planner_name, method, query_name, spec = case
    objective = _objective(spec)
    tracer = Tracer(seed=0)
    planner = RaqoPlanner(
        catalog,
        planner_kind=(
            PlannerKind.FAST_RANDOMIZED
            if planner_name == "fast_randomized"
            else PlannerKind.SELINGER
        ),
        resource_method=METHODS[method],
        objective=objective,
        batched_costing=planner_name != "selinger_unbatched",
        tracer=tracer,
    )
    if planner_name == "bushy":
        planner.query_planner = BushyPlanner(
            planner.coster, objective=objective
        )
    result = planner.optimize(QUERIES[query_name])
    return {
        "plan_signature": json.loads(
            json.dumps(plan_signature(result.plan))
        ),
        "time_s": result.cost.time_s.hex(),
        "money": result.cost.money.hex(),
        "counters": dataclasses.asdict(result.counters),
        # The canonical trees of the ``All`` cases run to ~170 KB each;
        # their digest pins the same bytes.
        "span_tree_sha256": hashlib.sha256(
            canonical_span_tree_json(tracer).encode()
        ).hexdigest(),
    }


@pytest.fixture(scope="module")
def catalog():
    return tpch.tpch_catalog(100)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_case_id(c) for c in _cases())


@pytest.mark.parametrize("case", _cases(), ids=_case_id)
def test_matches_golden(catalog, golden, case):
    assert observe(catalog, case) == golden[_case_id(case)]


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        catalog = tpch.tpch_catalog(100)
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(
                {_case_id(c): observe(catalog, c) for c in _cases()},
                indent=1,
                sort_keys=True,
            )
            + "\n"
        )
