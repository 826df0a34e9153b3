"""Fit how strongly a workload's op times follow the host speed probe.

    python3 perfbench/calibrate.py --workload fuzz [--runs 3] \\
        [--seconds 20] [--seed 0]

Runs the workload's timed loop ``--runs`` times with the same seed, so
every op (a reproduce cell, a fuzz program, a serve (trace, backend)
job) repeats, and records each op's host time ``t`` less the share the
hypervisor stole (``measure.HostSpeedProbe.unstolen``) and the probe
cost ``f`` around it (``measure.HostSpeedProbe.factor``). The fitted
exponent is the within-op least-squares slope of ``log t`` on ``log f``:
how much slower the same op runs when the probe runs slower. The workloads
normalize host times with it (``*_PROBE_EXPONENT`` in workloads.py).

Prints the slope, its standard error, how far the probe cost varied
(the fit needs the host to change speed while it runs) and the op-time
scatter left at exponent 0, 1 and the fitted slope.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from measure import start_probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def collect(workload: str, runs: int, seconds: float, seed: int
            ) -> Dict[str, List[Tuple[float, float]]]:
    """op key -> [(log host time, log probe cost)] over all runs."""
    cls = WORKLOADS[workload]
    samples: Dict[str, List[Tuple[float, float]]] = {}
    for run in range(runs):
        probe = start_probe(cls.pinned, cls.probe_exponent)
        w = cls(seed, ROOT)
        try:
            w.setup(seconds, traced=False)
            w.measure(seconds, probe)
        finally:
            probe.stop()
            w.close()
        for key, start, end in w.ops:
            samples.setdefault(key, []).append(
                (math.log(probe.unstolen(start, end)),
                 math.log(probe.factor(start, end))))
        print(f"run {run + 1}/{runs}: {len(w.ops)} ops", file=sys.stderr)
    return samples


def fit(samples: Dict[str, List[Tuple[float, float]]]) -> Dict[str, float]:
    """Within-op slope of log time on log probe cost."""
    xy: List[Tuple[float, float]] = []
    for pairs in samples.values():
        if len(pairs) < 2:
            continue
        my = statistics.mean(y for y, _ in pairs)
        mx = statistics.mean(x for _, x in pairs)
        xy += [(x - mx, y - my) for y, x in pairs]
    sxx = sum(x * x for x, _ in xy)
    slope = sum(x * y for x, y in xy) / sxx
    resid = [y - slope * x for x, y in xy]
    dof = max(1, len(xy) - 1)
    stderr = math.sqrt(sum(r * r for r in resid) / dof / sxx)

    def scatter(b: float) -> float:
        return math.sqrt(sum((y - b * x) ** 2 for x, y in xy) / dof)

    return {"ops": len(xy), "slope": slope, "stderr": stderr,
            "log_probe_sd": math.sqrt(sxx / dof),
            "log_time_sd_raw": scatter(0.0), "log_time_sd_b1": scatter(1.0),
            "log_time_sd_fit": scatter(slope)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    result = fit(collect(args.workload, args.runs, args.seconds, args.seed))
    result["workload"] = args.workload
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
