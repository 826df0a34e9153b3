"""Record the benchmark's reference outputs (perfbench/reference.json).

    python3 perfbench/record_reference.py [reproduce] [fuzz] [serve]

Every ``reproduce`` cell (each input-seed slot x suite benchmark x
{OFF, FULL}), every ``fuzz`` pool iteration and every ``serve`` verdict
of the first SERVE_REFERENCE_TRACES traces is computed once and its
canonical record digested. Naming sections re-records only those and
keeps the others. Benchmark runs compare their outputs with these
digests, so re-record only when a change is meant to alter simulated
results, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from measure import digest  # noqa: E402
from workloads import (  # noqa: E402
    FUZZ_MG_POOL,
    FUZZ_SINGLE_POOL,
    REFERENCE_PATH,
    REPRO_MODES,
    REPRO_SCALE,
    REPRO_SLOTS,
    SERVE_REFERENCE_TRACES,
    mg_iteration,
    mg_problems,
    replay_verdicts,
    repro_cell_record,
    repro_config,
    serve_trace_blob,
    single_iteration,
    single_problems,
)


def record_reproduce() -> dict:
    from repro.bench.suite import SUITE
    from repro.harness.runner import run_benchmark

    slots = {}
    for slot in range(REPRO_SLOTS):
        cells = {}
        for bench in SUITE:
            for mode in REPRO_MODES:
                res = run_benchmark(bench.name, repro_config(mode),
                                    scale=REPRO_SCALE, seed=slot)
                rec = repro_cell_record(res)
                cells[f"{bench.name}/{mode}"] = {
                    "cycles": rec["cycles"],
                    "instructions": rec["stats"]["instructions"],
                    "digest": digest(rec)}
        slots[str(slot)] = cells
        print(f"reproduce slot {slot}: {len(cells)} cells", file=sys.stderr)
    return {"scale": REPRO_SCALE, "slots": slots}


def record_fuzz() -> dict:
    single, mg = [], []
    for s in range(FUZZ_SINGLE_POOL):
        rec = single_iteration(s)
        if single_problems(s, rec):
            raise SystemExit(single_problems(s, rec))
        single.append(digest(rec))
    for s in range(FUZZ_MG_POOL):
        rec = mg_iteration(s)
        if mg_problems(s, rec):
            raise SystemExit(mg_problems(s, rec))
        mg.append(digest(rec))
    print(f"fuzz: {len(single)} single, {len(mg)} mg", file=sys.stderr)
    return {"single": single, "mg": mg}


def record_serve() -> dict:
    traces, verdicts = [], []
    for k in range(SERVE_REFERENCE_TRACES):
        tdigest, per_backend = replay_verdicts(serve_trace_blob(k))
        traces.append(tdigest)
        verdicts.append(per_backend)
    print(f"serve: {len(traces)} traces", file=sys.stderr)
    return {"traces": traces, "verdicts": verdicts}


RECORDERS = {"reproduce": record_reproduce, "fuzz": record_fuzz,
             "serve": record_serve}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sections", nargs="*", choices=sorted(RECORDERS),
                        help="sections to re-record (default: all)")
    sections = parser.parse_args().sections or sorted(RECORDERS)
    reference = (json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
                 if REFERENCE_PATH.is_file() else {})
    for name in sections:
        reference[name] = RECORDERS[name]()
    REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
