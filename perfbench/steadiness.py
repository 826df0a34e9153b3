"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload fuzz --seeds 0-4 \\
        --seconds 15 [--trace 0]

For every metric prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the first and third quartile as a share of the median.
Runs are sequential; each one's last stdout line is parsed as the result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="e.g. 0-9 or 1,5,9 (a seed may repeat)")
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    values: Dict[str, List[float]] = {}
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            cwd=str(HERE.parent), capture_output=True, text=True,
            check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: rc={proc.returncode} "
              f"correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{name}={entry['value']:.6g}"
                  for name, entry in sorted(result["metrics"].items())),
              flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    for name in sorted(values):
        vals = values[name]
        med = statistics.median(vals)
        if len(vals) < 2 or med == 0:
            print(f"{name:28s} median {med:.6g}")
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:28s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
              f"  spread {(q3 - q1) / med:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
