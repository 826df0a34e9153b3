"""Small measurement helpers shared by the workloads: percentiles,
peak memory, canonical digests and the host speed probe."""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    """A short, stable content digest of a JSON-safe object."""
    return hashlib.sha256(canonical(obj).encode("utf-8")).hexdigest()[:16]


def tail_percentile(n: int) -> int:
    """The highest percentile, capped at 90, with >= 10 samples beyond it.

    Below 20 samples no percentile above the median qualifies, so the
    median is reported as the tail.
    """
    if n < 20:
        return 50
    return max(50, min(90, math.floor(100 * (n - 10) / n)))


def band_mean(values: Sequence[float], p: float, width: float) -> float:
    """Percentile ``p``, smoothed: the mean of the samples ranked between
    percentiles ``p - width`` and ``p + width`` (the plain median below 7
    samples).

    Op latencies come from a fixed mix of very different ops (trace
    sizes, backends, programs), so a plain percentile of a run can sit at
    the edge of a gap in that mix and jump between two clusters from one
    run to the next; the band mean moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    lo = math.floor(max(0.0, p - width) / 100 * n)
    hi = math.ceil(min(100.0, p + width) / 100 * n)
    band = ordered[lo:hi] if n >= 7 else []
    return sum(band) / len(band) if band else statistics.median(ordered)


def summarize(values: Sequence[float],
              tail_p: Optional[int] = None) -> Dict[str, float]:
    """Smoothed median, smoothed tail percentile and sample count. The
    tail is percentile ``tail_p``, by default ``tail_percentile(n)``."""
    n = len(values)
    if n == 0:
        raise ValueError("no samples to summarize")
    if tail_p is None:
        tail_p = tail_percentile(n)
    return {"n": n, "p50": band_mean(values, 50, 20), "tail_p": tail_p,
            "tail": band_mean(values, tail_p, 5)}


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size of this process (and, optionally, of the
    largest child process it has waited for), in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


#: the probe's CPU time on an unloaded reference host; normalized times
#: are host times rescaled to a host that runs the probe in this long
PROBE_REFERENCE_S = 0.0025
#: seconds between probes on each CPU (a probe takes 1.3-2.5 ms, so the
#: probes use 1-3 % of each CPU)
PROBE_INTERVAL_S = 0.1
#: probes within this many seconds of an op's start or end set its factor
PROBE_WINDOW_S = 0.5


def _probe_work() -> int:
    """A fixed slice of interpreter work: dict, str and call traffic."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(3000):
        key = (i * 7919) & 255
        table[key] = table.get(key, 0) + i
        acc += len(str(i)) + max(i & 15, 3)
    return acc + len(table)


#: the kernel's per-CPU time counters; the steal column is time the
#: hypervisor gave this vCPU's core to another guest
PROC_STAT = "/proc/stat"


def cpu_jiffies(cpu: int) -> Tuple[int, int]:
    """(stolen, total) clock ticks of one CPU so far; (0, 0) where the
    kernel does not report them."""
    try:
        with open(PROC_STAT, encoding="ascii") as f:
            for line in f:
                if line.startswith(f"cpu{cpu} "):
                    ticks = [int(x) for x in line.split()[1:9]]
                    return ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        pass
    return 0, 0


class ProbeSamples:
    """One CPU's probe samples: when each probe ran, what it cost, and
    the CPU's stolen and total clock ticks at that moment."""

    def __init__(self, times: List[float], costs: List[float],
                 stolen: List[int], ticks: List[int]) -> None:
        self.times = times    # wall clock (perf_counter) of each probe
        self.costs = costs    # CPU seconds each probe took
        self.stolen = stolen  # cumulative stolen ticks
        self.ticks = ticks    # cumulative total ticks

    def factor(self, start: float, end: float) -> float:
        """Mean probe cost around ``[start, end]`` (nearest probe if none)."""
        lo = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + PROBE_WINDOW_S)
        if hi > lo:
            window = self.costs[lo:hi]
            return sum(window) / len(window)
        nearest = min(max(lo, 0), len(self.costs) - 1)
        return self.costs[nearest]

    def steal_share(self, start: float, end: float) -> float:
        """Share of this CPU's time stolen by the hypervisor around
        ``[start, end]``, from the last probe before the window to the
        first after it."""
        lo = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + PROBE_WINDOW_S)
        i, j = max(0, lo - 1), min(len(self.times) - 1, hi)
        total = self.ticks[j] - self.ticks[i]
        return (self.stolen[j] - self.stolen[i]) / total if total > 0 else 0.0


def probe_loop(cpu: int) -> None:
    """Probe-process body: every PROBE_INTERVAL_S, time ``_probe_work``
    in CPU time on one CPU and read the CPU's tick counters, until stdin
    reaches its end; then write the samples to stdout as JSON."""
    os.sched_setaffinity(0, {cpu})
    gc.disable()
    samples = ProbeSamples([], [], [], [])
    while True:
        start = time.thread_time()
        _probe_work()
        samples.costs.append(time.thread_time() - start)
        samples.times.append(time.perf_counter())
        stolen, ticks = cpu_jiffies(cpu)
        samples.stolen.append(stolen)
        samples.ticks.append(ticks)
        readable, _, _ = select.select([sys.stdin], [], [], PROBE_INTERVAL_S)
        if readable:
            break
    json.dump([samples.times, samples.costs, samples.stolen, samples.ticks],
              sys.stdout)


class HostSpeedProbe:
    """Tracks how fast each CPU the workload runs on executes Python.

    Shared cloud vCPUs change speed by tens of percent over seconds, the
    CPUs of one host change independently, and the hypervisor takes
    whole slices of time from them (steal), which would swamp any program
    change. One probe process per CPU, pinned to it, times a fixed slice
    of interpreter work in CPU time (so waiting for the CPU does not
    count) every PROBE_INTERVAL_S and reads the CPU's stolen ticks.
    ``normalize`` first takes the stolen share out of an op's host time,
    then rescales it to the reference host's speed by the mean probe cost
    around the op raised to the workload's fitted ``exponent``
    (perfbench/calibrate.py), both averaged over the probed CPUs: a
    program change moves normalized times, a slower host does not.

    The probes are plain child processes (``python3 measure.py CPU``),
    stopped by closing their stdin and waited for in ``stop``.
    """

    def __init__(self, cpus: Sequence[int], exponent: float) -> None:
        self.cpus = list(cpus)
        self.exponent = exponent
        self.samples: List[ProbeSamples] = []
        self._procs: List[subprocess.Popen] = []

    @property
    def costs(self) -> List[float]:
        return [c for s in self.samples for c in s.costs]

    def start(self) -> "HostSpeedProbe":
        try:
            for cpu in self.cpus:
                self._procs.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE))
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Stop every probe process, collect its samples and wait for it.
        Stopping a stopped probe does nothing."""
        procs, self._procs = self._procs, []
        failed = None
        for proc in procs:
            try:
                out, _ = proc.communicate(timeout=30)
                if proc.returncode != 0:
                    raise RuntimeError(
                        f"probe process exited with {proc.returncode}")
                self.samples.append(ProbeSamples(*json.loads(out)))
            except BaseException as exc:  # still wait for the others
                proc.kill()
                proc.wait()
                failed = failed or exc
        if failed is not None:
            raise failed

    def factor(self, start: float, end: float) -> float:
        """Mean over the probed CPUs of the probe cost around the op."""
        return statistics.mean(s.factor(start, end) for s in self.samples)

    def steal_share(self, start: float, end: float) -> float:
        """Mean over the probed CPUs of the stolen share around the op."""
        return statistics.mean(s.steal_share(start, end)
                               for s in self.samples)

    def unstolen(self, start: float, end: float) -> float:
        """``end - start`` less the share the hypervisor stole."""
        return (end - start) * (1.0 - self.steal_share(start, end))

    def normalize(self, start: float, end: float) -> float:
        """``end - start`` without steal, at the reference host's speed."""
        scale = PROBE_REFERENCE_S / self.factor(start, end)
        return self.unstolen(start, end) * scale ** self.exponent


def start_probe(pinned: bool, exponent: float) -> HostSpeedProbe:
    """Start probing the CPUs this process may use. A ``pinned``
    workload runs in this process alone, so the process is first pinned
    to one CPU and only that CPU is probed; otherwise (work in worker
    processes) every CPU is."""
    cpus = sorted(os.sched_getaffinity(0))
    if pinned:
        cpus = cpus[-1:]
        os.sched_setaffinity(0, cpus)
    return HostSpeedProbe(cpus, exponent).start()


if __name__ == "__main__":
    probe_loop(int(sys.argv[1]))
