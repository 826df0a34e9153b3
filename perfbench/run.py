"""HAccRG reproduction benchmark: one workload per invocation.

    python3 perfbench/run.py --workload {reproduce,serve,fuzz} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. With ``--trace 0`` the workload is timed
with tracing off and the last stdout line is a JSON object carrying every
end-to-end metric; with ``--trace 1`` one fixed pass runs untraced, then
traced, and the JSON carries every per-layer metric. Every run checks the
program's outputs (``correct``) and exits 1 when a check fails. Spans and
the per-layer record of a traced run are written under ``.perfbench/``.
See perfbench/README.md for the workloads, metrics and layer map.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts first
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from measure import start_probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: end-to-end metrics (tracing off), printed by every workload
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "alt_ops_per_s": "ops/s",
}

#: model and service counters reported by traced runs, with their units
COUNTER_UNITS = {
    "sim.instructions": "count",
    "sim.cycles": "cycles",
    "sim.launches": "count",
    "memory.l1_hit_rate": "ratio",
    "memory.l2_hit_rate": "ratio",
    "memory.dram_bytes": "B",
    "memory.dram_shadow_bytes": "B",
    "core.shadow_transactions": "count",
    "core.race_reports": "count",
    "fuzz.oracle_races": "count",
    "mgfuzz.cross_gpu_events": "count",
    "trace.bytes": "B",
    "serve.verdict_bytes": "B",
    "serve.queue_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.replays": "count",
    "serve.retries": "count",
    "serve.rejected": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
}

#: extra set-up samples taken in fresh interpreters after the timed run
SETUP_REPEATS = 2


def per_layer_units() -> Dict[str, str]:
    from tracer import LAYER_NAMES, OTHER
    units = {}
    for name in LAYER_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units[f"{OTHER}.self_s"] = "s"
    units.update(COUNTER_UNITS)
    return units


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("reproduce", "serve", "fuzz"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit "
                             "(used to repeat the set-up measurement)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def repeat_setup(args: argparse.Namespace) -> List[float]:
    """Set-up time of ``SETUP_REPEATS`` fresh interpreters, one at a time."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--setup-only"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120,
            check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up repeat failed: {proc.stderr[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def write_trace_files(workload, args: argparse.Namespace,
                      metrics: Dict[str, float]) -> Path:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    workload.tracer.write_spans(str(out_dir / f"spans-{stem}.tsv.gz"))
    path = out_dir / f"layers-{stem}.json"
    path.write_text(json.dumps(metrics, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    # one probe runs from set-up to the end of the timed ops, so set-up
    # time is normalized like every other time (see measure.HostSpeedProbe)
    probe = start_probe(cls.pinned, cls.probe_exponent)
    try:
        workload = cls(args.seed, ROOT)
        try:
            workload.setup(args.seconds, traced=bool(args.trace))
            setup_end = time.perf_counter()
            if args.setup_only:
                probe.stop()
                print(json.dumps({"setup_s": probe.normalize(PROCESS_START,
                                                             setup_end)}))
                return 0
            # measure() and traced() stop the probe after their timed ops
            if args.trace:
                layer_values = workload.traced(probe)
                attempted, failed = workload.counts()
            else:
                measurement = workload.measure(args.seconds, probe)
                attempted, failed = (measurement.attempted,
                                     measurement.failed)
            problems = workload.check()
        finally:
            workload.close()
    finally:
        probe.stop()
    setup_s = probe.normalize(PROCESS_START, setup_end)

    if args.trace:
        units = per_layer_units()
        values = {name: layer_values.get(name, 0) for name in units}
        path = write_trace_files(workload, args, values)
        lines = [f"per-layer record: {path.relative_to(ROOT)}"]
    else:
        setup_samples = [setup_s] + repeat_setup(args)
        units = END_TO_END_UNITS
        values = dict(measurement.metrics,
                      setup_s=statistics.median(setup_samples))
        lines = measurement.lines + [
            f"setup_s median of {len(setup_samples)} (normalized): "
            + ", ".join(f"{s:.3f}" for s in setup_samples)
            + f"; this process raw {setup_end - PROCESS_START:.3f}"]
    error_rate = failed / attempted if attempted else 1.0
    lines.append(f"error_rate {error_rate:.4f} ({failed} of {attempted} "
                 f"operations failed or were refused)")
    lines += workload.notes
    for line in lines:
        print(f"[{args.workload} seed={args.seed}] {line}")
    for problem in problems[:50]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name in sorted(values):
        print(f"{name} {values[name]!r} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(values)},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


def reap_children() -> None:
    """Wait for every process the run started through multiprocessing:
    the service's worker pool and the resource tracker that spawning it
    starts, which would otherwise end only after this process has."""
    from multiprocessing import resource_tracker, util
    # what multiprocessing does at exit: run the finalizers (which talk
    # to the tracker) and join the children; at exit it then does nothing
    util._exit_function()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        reap_children()
    sys.exit(code)
