"""Self-test of the exact work counters, and a diff of two traced runs.

    python3 perfbench/selftest.py [--layer memory]
    python3 perfbench/selftest.py --compare A.json B.json

The self-test traces a small fixed workload (reproduce cells, one fuzz
and one mg-fuzz iteration, and one serve replay job run in-process
through the worker function) twice; it must reach every layer and give
identical ``.calls`` counts. It then traces it once more with the
tracer adding one extra wrapped call per event to ``--layer``, and
requires the counter diff to name exactly that layer. Exit 0 when all
hold.

``--compare`` diffs the exact counters of two per-layer records that
traced runs wrote (``.perfbench/layers-<workload>-seed<n>.json``) and
exits 1 when any differ.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import (  # noqa: E402
    LAYER_NAMES,
    Tracer,
    diff_counters,
    exact_counters,
)

#: (benchmark, scale) cells of the self-test workload, run OFF and FULL
CELLS = (("HIST", 0.1), ("SCAN", 0.1))
#: (benchmark, scale, backend) of the self-test's serve replay job
REPLAY_JOB = ("SCAN", 0.05, "haccrg-word")


def write_replay_job() -> Dict[str, Any]:
    """Record a small trace, store it under .perfbench/ and return the
    replay job record a serve worker would receive for it."""
    from repro.harness.trace import dump_binary, parse_trace, record
    from repro.serve.backends import trace_digest
    from repro.serve.worker import REPLAY_JOB_SCHEMA

    bench, scale, backend = REPLAY_JOB
    blob = dump_binary(record(bench, scale=scale))
    path = ROOT / ".perfbench" / "selftest-trace.bin"
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(blob)
    return {"kind": "replay", "schema": REPLAY_JOB_SCHEMA,
            "trace": trace_digest(parse_trace(blob)), "backend": backend,
            "program": None, "trace_path": str(path)}


def traced_counts(replay_job: Dict[str, Any],
                  extra_call_layer: Optional[str] = None) -> Dict[str, int]:
    from workloads import mg_iteration, repro_config, single_iteration
    from repro.harness.runner import run_benchmark
    from repro.serve import worker

    tracer = Tracer(extra_call_layer=extra_call_layer).install()
    try:
        for bench, scale in CELLS:
            for mode in ("OFF", "FULL"):
                run_benchmark(bench, repro_config(mode), scale=scale)
        single_iteration(0)
        mg_iteration(0)
        # through the module, so the call reaches the installed wrapper
        worker.execute_replay_record(replay_job)
    finally:
        tracer.uninstall()
    # one thread, no server: every layer's count is exact here, serve's too
    return {f"{name}.calls": totals["calls"]
            for name, totals in tracer.layer_totals().items()}


def self_test(layer: str) -> int:
    job = write_replay_job()
    first, second = traced_counts(job), traced_counts(job)
    unreached = [name for name in LAYER_NAMES if not first[f"{name}.calls"]]
    if unreached:
        print(f"FAIL: the self-test workload never calls {unreached}")
        return 1
    repeat = diff_counters(first, second)
    print(f"clean vs clean: {repeat or 'identical'}")
    injected = diff_counters(first, traced_counts(job, extra_call_layer=layer))
    print(f"clean vs one extra call per {layer} event: {injected}")
    if repeat:
        print("FAIL: two clean traced runs differ")
        return 1
    if injected != [f"{layer}.calls"]:
        print(f"FAIL: the diff does not name exactly {layer}.calls")
        return 1
    print(f"PASS: the counter diff names {layer}")
    return 0


def compare(a_path: str, b_path: str) -> int:
    a = exact_counters(json.loads(Path(a_path).read_text("utf-8")))
    b = exact_counters(json.loads(Path(b_path).read_text("utf-8")))
    names = diff_counters(a, b)
    for name in names:
        print(f"{name}: {a.get(name)!r} != {b.get(name)!r}")
    print(f"{len(a)} exact counters compared, {len(names)} differ")
    return 1 if names else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--layer", default="memory", choices=LAYER_NAMES)
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    return self_test(args.layer)


if __name__ == "__main__":
    sys.exit(main())
