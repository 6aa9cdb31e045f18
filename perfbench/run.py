"""The RAQO benchmark: one command per workload run.

    python3 perfbench/run.py --workload tpch_fastest --seed 1 \
        --seconds 10 --trace 0

Run from the repository root.  Every sample runs in a fresh interpreter
(``worker.py``): ``SETUP_RUNS`` processes that only set up, then one
that sets up and measures.  ``setup_s`` is the median of their set-up
times, taken from spawn to the first timed operation and scaled to the
reference machine speed by speed probes run right after set-up.  The
first set-up process then also runs the workload's untimed start; its
exact-repeat signature (planning counters, plan quality, model error)
must equal the measuring process's.

With ``--trace 0`` the result carries every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric (the worker
then also runs a traced phase and writes its spans under
``perfbench/out/``).  Each metric is printed as ``name value unit``; the
last line is the JSON result.  The exit code is 0 only when every
operation succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
SETUP_RUNS = 3
#: Every run must end within 180 s; leave room to report.
DEADLINE_S = 170.0
WORKLOADS = ("tpch_fastest", "tpch_cheapest", "serve_distinct", "serve_hot")


def fail(message: str, code: int = 1) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def spawn_worker(
    args: argparse.Namespace, mode: str, timeout: float, sign: bool = False
) -> Optional[Dict]:
    """One fresh worker process; its JSON result plus ``setup_s``."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", mode,
    ]
    if sign:
        command.append("--signature")
    if args.trace and mode == "measure":
        command += ["--spans-out", str(OUT / f"{args.workload}.spans.npz")]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            timeout=max(1.0, timeout),
            text=True,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: {mode} worker timed out", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(
            f"perfbench: {mode} worker exited {done.returncode}",
            file=sys.stderr,
        )
        return None
    result = json.loads(lines[-1])
    result["setup_s"] = (result["ready"] - spawned) / result["setup_speed"]
    result["setup_s_unscaled"] = result["ready"] - spawned
    return result


def check_repeat(setup: Dict, measured: Dict) -> bool:
    """Counts, plan quality and model error must repeat exactly: the
    signature one set-up process computed equals the measuring one's."""
    if setup["repeat"] == measured["repeat"]:
        return True
    print(
        "perfbench: exact-repeat mismatch between processes:\n"
        f"  set-up    {setup['repeat']}\n  measuring {measured['repeat']}",
        file=sys.stderr,
    )
    return False


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program source under {ROOT / 'src'}", code=2)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found", code=2)
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # Every worker, and so every thread of the program and the speed
    # probe, runs on one CPU.  On a shared 2-vCPU host the two CPUs'
    # speeds drift apart, and a thread woken on the other CPU waits on
    # the hypervisor: over five runs this cut the serve_hot spread from
    # 0.32 to 0.03 (throughput) and from 0.44 to 0.14 (p99), and the
    # serve_distinct spread from 0.20 to 0.06 (throughput).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = time.monotonic()
    setups, unscaled_setups = [], []
    signed = None
    for index in range(SETUP_RUNS):
        remaining = DEADLINE_S - (time.monotonic() - started)
        probe = spawn_worker(args, "setup", remaining, sign=index == 0)
        if probe is None:
            return fail("set-up run failed")
        if index == 0:
            signed = probe
        setups.append(probe["setup_s"])
        unscaled_setups.append(probe["setup_s_unscaled"])
    remaining = DEADLINE_S - (time.monotonic() - started)
    result = spawn_worker(args, "measure", remaining)
    if result is None:
        return fail("measuring worker failed")
    setups.append(result["setup_s"])
    unscaled_setups.append(result["setup_s_unscaled"])

    measured = dict(result.get("layers", {}) if args.trace else result["metrics"])
    measured["setup_s"] = statistics.median(setups)
    checks = result["checks"]
    repeat_ok = check_repeat(signed, result)
    check_failures = sum(checks.values()) + (0 if repeat_ok else 1)
    attempted = result["attempted"]
    failed = min(attempted, result["failed_ops"] + check_failures)

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        value = measured.get(name)
        if value is None or not math.isfinite(value):
            return fail(f"metric {name} missing or not finite: {value}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
        print(f"{name} {value!r} {entry['unit']}")
    print(f"error_frac {failed / attempted!r} fraction")
    unscaled = dict(result.get("unscaled", {}))
    unscaled["setup_s"] = statistics.median(unscaled_setups)
    print(f"unscaled {unscaled}")
    print(f"samples {result['samples']} setup_samples {len(setups)}")
    print(f"checks {checks} exact_repeat {'ok' if repeat_ok else 'MISMATCH'}")
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
