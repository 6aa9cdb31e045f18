"""Golden frontiers on the default cluster, point for point.

For every TPC-H evaluation query and every frontier objective, the
per-stage latency/dollar frontier that :func:`~repro.core.pareto.
compute_frontier` returns on the default SF-100 session must keep its
exact size, pruning count, planning counters, selected point (as
``float.hex`` bits and per-stage allocations) and a SHA-256 over every
point's ``time_s.hex()|money.hex()|NxG.hex()...`` line, as recorded in
``golden/frontier_digests.json``.  The digest is computed from the
frontier's columns (the ``All``/cheapest frontier has 635,147 points),
and checked against the per-point spelling on the smaller frontiers.

To re-record after an intended behaviour change::

    PYTHONPATH=src python tests/core/test_frontier_golden.py --update
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import RaqoSession
from repro.core.pareto import PlanObjective

GOLDEN_PATH = Path(__file__).parent / "golden" / "frontier_digests.json"

QUERY_NAMES = ("Q12", "Q3", "Q2", "All")

OBJECTIVES = {
    "cheapest": PlanObjective.cheapest(),
    "latency-bound:600.0": PlanObjective.latency_bounded(600.0),
    "pareto": PlanObjective.pareto(),
}


def _cases():
    return [(name, spec) for name in QUERY_NAMES for spec in OBJECTIVES]


def _case_id(case) -> str:
    return "/".join(case)


def _config_text(config) -> str:
    return f"{config.num_containers}x{config.container_gb.hex()}"


def frontier_digest(frontier) -> str:
    """SHA-256 over one line per materialised point, in frontier order."""
    digest = hashlib.sha256()
    for point in frontier.points:
        line = "|".join(
            [point.time_s.hex(), point.money.hex()]
            + [_config_text(config) for config in point.configs]
        )
        digest.update(line.encode("ascii") + b"\n")
    return digest.hexdigest()


_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _text_matrix(texts) -> np.ndarray:
    """ASCII rows, right-padded with zero bytes to one width."""
    width = max(len(text) for text in texts)
    return np.frombuffer(
        b"".join(text.encode("ascii").ljust(width, b"\0") for text in texts),
        dtype=np.uint8,
    ).reshape(len(texts), width)


def _float_hex_matrix(values: np.ndarray) -> np.ndarray:
    """``float.hex`` of zero or positive normal floats, zero-padded rows."""
    bits = values.view(np.uint64)
    biased = (bits >> np.uint64(52)).astype(np.int64)
    assert np.all((biased > 0) & (biased < 0x7FF) | (bits == 0))
    out = np.zeros((values.shape[0], 23), dtype=np.uint8)
    out[:, :4] = np.frombuffer(b"0x1.", dtype=np.uint8)
    for digit in range(13):
        nibble = (bits >> np.uint64(4 * (12 - digit))) & np.uint64(0xF)
        out[:, 4 + digit] = _HEX_DIGITS[nibble.astype(np.int64)]
    out[:, 17] = ord("p")
    exponent = biased - 1023
    out[:, 18] = np.where(exponent < 0, ord("-"), ord("+"))
    magnitude = np.abs(exponent)
    for place, power in enumerate((1000, 100, 10, 1)):
        digit = magnitude // power % 10
        shown = (magnitude >= power) | (power == 1)
        out[:, 19 + place] = np.where(shown, ord("0") + digit, 0)
    zero = bits == 0
    out[zero] = 0
    out[zero, :8] = np.frombuffer(b"0x0.0p+0", dtype=np.uint8)
    return out


def frontier_array_digest(frontier) -> str:
    """:func:`frontier_digest` computed from the columns, no points built."""
    grid = frontier.cluster.config_grid()
    configs = _text_matrix(
        [_config_text(config) for config in grid.configurations()]
    )
    size = len(frontier)
    bar = np.full((size, 1), ord("|"), dtype=np.uint8)
    columns = [_float_hex_matrix(frontier.times), bar]
    columns.append(_float_hex_matrix(frontier.money))
    for stage_indexes in frontier.config_indexes.T:
        columns += [bar, configs[stage_indexes]]
    columns.append(np.full((size, 1), ord("\n"), dtype=np.uint8))
    text = np.concatenate(columns, axis=1).ravel()
    return hashlib.sha256(text[text != 0].tobytes()).hexdigest()


def observe(case) -> dict:
    """Plan one case on a fresh default session."""
    query_name, spec = case
    session = RaqoSession(scale_factor=100.0)
    result = session.plan(query_name, objective=OBJECTIVES[spec])
    frontier = result.frontier
    selected = result.selected
    return {
        "len": len(frontier),
        "dominated_pruned": frontier.dominated_pruned,
        "counters": {
            "resource_iterations": result.counters.resource_iterations,
            "frontier_points": result.counters.frontier_points,
            "dominated_pruned": result.counters.dominated_pruned,
        },
        "selected": {
            "time_s": selected.time_s.hex(),
            "money": selected.money.hex(),
            "configs": [_config_text(c) for c in selected.configs],
        },
        "points_sha256": frontier_array_digest(frontier),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_case_id(c) for c in _cases())


@pytest.mark.parametrize("case", _cases(), ids=_case_id)
def test_matches_golden(golden, case):
    assert observe(case) == golden[_case_id(case)]


def test_array_digest_matches_point_digest():
    """The columnar digest hashes the same bytes as the per-point one."""
    session = RaqoSession(scale_factor=100.0)
    for name in ("Q12", "Q3", "Q2", "All"):
        result = session.plan(name, objective=PlanObjective.pareto())
        frontier = result.frontier
        assert frontier_array_digest(frontier) == frontier_digest(frontier)


def test_float_hex_matrix_matches_float_hex():
    rng = np.random.default_rng(5)
    values = np.concatenate(
        [
            [0.0, 1.0, 0.5, 1e-300, 1e300, 2.0**-1022, 1234.5],
            rng.random(200) * 10.0 ** rng.integers(-30, 30, 200),
        ]
    )
    rows = _float_hex_matrix(values)
    assert [bytes(row[row != 0]).decode() for row in rows] == [
        value.hex() for value in values.tolist()
    ]


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(
                {_case_id(c): observe(c) for c in _cases()},
                indent=1,
                sort_keys=True,
            )
            + "\n"
        )
