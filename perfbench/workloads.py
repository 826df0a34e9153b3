"""The benchmark's three workloads, each driven through public entry points.

- ``reproduce``: the paper's Fig. 7 cell set. Every suite benchmark runs
  through ``repro.harness.runner.run_benchmark`` with detection OFF and
  with FULL hardware HAccRG, timing on, no campaign cache, modelled
  caches empty at the start of every cell.
- ``serve``: a closed loop of two clients against an in-process
  ``repro.serve`` endpoint with the default worker pool. Each request
  uploads a HART trace, submits a job and waits for the verdict.
- ``fuzz``: single-device differential fuzz iterations, then 2-device
  mg-fuzz iterations (no static prefilter, the CLI default).

Every workload keeps the outputs it produced and checks them after the
timed region (``check``); every workload can also run one fixed pass
under the tracer (``traced``) for the per-layer split.
"""

from __future__ import annotations

import gc
import json
import math
import random
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from measure import (PROBE_REFERENCE_S, HostSpeedProbe, digest,
                     peak_rss_mb, summarize)
from tracer import LAYER_NAMES, OTHER, Tracer

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: reproduce: the timed cells run at the ``repro reproduce`` default
#: scale; the golden-parity cells (scale 0.25) are checked in an untimed
#: pass after the timed region
REPRO_SCALE = 1.0
#: reproduce: benchmark input seeds with recorded reference outputs;
#: the run seed selects one (seed mod slots) and the cell order
REPRO_SLOTS = 8
REPRO_MODES = ("OFF", "FULL")

#: fuzz: iteration-seed pools with recorded reference digests. Every run
#: covers whole pools, starting at a seed-chosen offset, so every run
#: measures the same program mix and only host noise moves the rates.
FUZZ_SINGLE_POOL = 60
FUZZ_MG_POOL = 300
#: fuzz: share of the run given to single-device iterations
FUZZ_SINGLE_SHARE = 0.65
#: fuzz: warm-up seeds lie outside both pools
FUZZ_WARMUP_BASE = 1_000_000

#: serve: backends a request picks from (the replay backends + oracle)
SERVE_BACKENDS = ("haccrg-full", "haccrg-bloom", "haccrg-word",
                  "swdetect", "oracle")
#: serve: traces whose content does not depend on the input seed; each
#: run uses each once, at these scales
SERVE_FIXED_TRACES = (("SCAN", 0.1), ("REDUCE", 0.1), ("PSUM", 0.1),
                      ("MCARLO", 0.1), ("FWALSH", 0.1))
#: serve: data-dependent traces; the rest of a run's traces cycle
#: through these with a fresh input seed (1, 2, ...) each
SERVE_DATA_TRACES = (("HIST", 0.1), ("SORTNW", 0.1), ("HASH", 0.1),
                     ("KMEANS", 0.05))
#: serve: input seeds of the warm-up traces (data-dependent benchmarks)
SERVE_WARMUP_SEED = 999_999_999
#: serve: traces per second of --seconds (sizes the request schedule)
SERVE_TRACES_PER_SECOND = 2.0
#: serve: traces whose verdict digests reference.json records (enough
#: for --seconds <= 20); later traces are checked by replaying in-process
SERVE_REFERENCE_TRACES = 40
#: serve: traces in the fixed traced-run schedule
SERVE_TRACED_TRACES = 16
#: serve: share of requests that repeat an earlier (trace, backend) pair
SERVE_HIT_SHARE = 0.25
#: serve: a repeat names a pair at least this many requests back
SERVE_REPEAT_DISTANCE = 4
SERVE_CLIENTS = 2
#: serve: job-state poll interval of the waiting clients (the
#: ServiceClient default); the first poll comes at a random phase, so
#: job latencies are not rounded to multiples of the interval
SERVE_POLL_S = 0.02
#: serve: give up on a job after this long
SERVE_JOB_TIMEOUT_S = 300.0

GOLDEN_PATH = Path("tests") / "golden" / "parity.json"

#: how strongly each workload's op times follow the host speed probe: a
#: normalized time is host time x (reference / probe cost) ** exponent.
#: Fitted by perfbench/calibrate.py as the slope of log op time on log
#: probe cost over repeats of the same op; perfbench/README.md has the fits.
REPRO_PROBE_EXPONENT = 0.70
FUZZ_PROBE_EXPONENT = 0.93
SERVE_PROBE_EXPONENT = 0.79


def load_reference() -> Dict[str, Any]:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


class Measurement:
    """What a timed run reports: op counts, metric values, summary lines."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        self.lines: List[str] = []


def probe_line(probe: HostSpeedProbe) -> str:
    costs = sorted(probe.costs)
    times = [t for s in probe.samples for t in s.times]
    return (f"host speed probe: {len(costs)} probes, CPU ms p10 "
            f"{costs[len(costs) // 10] * 1000:.3f}, p50 "
            f"{costs[len(costs) // 2] * 1000:.3f}, p90 "
            f"{costs[len(costs) * 9 // 10] * 1000:.3f} "
            f"(reference {PROBE_REFERENCE_S * 1000:.3f}); stolen "
            f"{100 * probe.steal_share(min(times), max(times)):.1f} %")


def _named_self(tracer: Tracer) -> float:
    return sum(t["self_s"] for t in tracer.layer_totals().values())


def _layer_metrics(tracer: Tracer, probe: HostSpeedProbe,
                   untraced_ops: Sequence[Tuple[float, float]],
                   traced_ops: Sequence[Tuple[float, float]],
                   counters: Dict[str, float],
                   outside_self: float = 0.0) -> Dict[str, float]:
    """Per-layer ``.calls``/``.self_s`` plus ``other`` and trace totals.

    The traced wall time is the sum of the traced ops' host times (the
    benchmark's own bookkeeping between ops is left out). Layer self time
    recorded outside those ops (``outside_self``) is reported under its
    layer but left out of the wall-time accounting. The tracing overhead
    compares normalized times, so a host speed change between the two
    passes does not read as overhead.
    """
    totals = tracer.layer_totals()
    out: Dict[str, float] = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = totals[name]["calls"]
        out[f"{name}.self_s"] = totals[name]["self_s"]
    wall = sum(end - start for start, end in traced_ops)
    named = _named_self(tracer) - outside_self
    out[f"{OTHER}.self_s"] = max(0.0, wall - named)
    out["trace.overhead_s"] = (
        sum(probe.normalize(s, e) for s, e in traced_ops)
        - sum(probe.normalize(s, e) for s, e in untraced_ops))
    out["trace.coverage"] = min(1.0, named / wall) if wall > 0 else 0.0
    out["trace.spans"] = len(tracer.spans)
    out.update(counters)
    return out


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def repro_config(mode: str) -> Any:
    from repro.common.config import DetectionMode, HAccRGConfig
    if mode == "OFF":
        return None
    return HAccRGConfig(mode=DetectionMode[mode])


def repro_cell_record(res: Any) -> Dict[str, Any]:
    """The golden-parity shape of one cell: cycles, stats, race log."""
    from repro.harness.export import kernel_stats_record, race_log_record
    return {
        "cycles": int(res.cycles),
        "stats": kernel_stats_record(res.stats),
        "races": (race_log_record(res.races)
                  if res.races is not None else None),
    }


class Reproduce:
    name = "reproduce"
    #: the cells run in this process alone (see measure.start_probe)
    pinned = True
    #: fitted by perfbench/calibrate.py (see perfbench/README.md)
    probe_exponent = REPRO_PROBE_EXPONENT

    def __init__(self, seed: int, root: Path) -> None:
        self.root = root
        self.slot = seed % REPRO_SLOTS
        self.rng = random.Random(seed)
        #: (cell key, record digest, instructions, cycles) of every cell run
        self.outputs: List[Tuple[str, str, int, int]] = []
        self.failures: List[str] = []
        self.notes: List[str] = []
        #: (cell key, start, end) of every timed cell
        self.ops: List[Tuple[str, float, float]] = []

    def setup(self, seconds: float, traced: bool) -> None:
        from repro.bench.suite import SUITE
        from repro.harness.runner import run_benchmark
        self.names = [b.name for b in SUITE]
        # warm-up: first calls pay lazy imports and cold interpreter caches
        for name in self.names:
            for mode in REPRO_MODES:
                run_benchmark(name, repro_config(mode), scale=0.05,
                              seed=self.slot)

    def _pass_order(self) -> List[Tuple[str, str]]:
        """One pass: OFF and FULL of each benchmark back to back, the
        benchmark order and the mode that goes first drawn from the seed."""
        names = list(self.names)
        self.rng.shuffle(names)
        order = []
        for name in names:
            modes = list(REPRO_MODES)
            self.rng.shuffle(modes)
            order += [(name, mode) for mode in modes]
        return order

    def _run_pass(self, samples: Dict[str, List[Tuple[str, float, float,
                                                         int]]],
                  tracer: Optional[Tracer] = None) -> List[Any]:
        """Run one pass; ``samples[mode]`` gets (benchmark, start, end,
        instructions) of each cell. Only a traced pass returns its cells'
        results: holding them would make the peak RSS depend on the cell
        order."""
        from repro.harness.runner import run_benchmark
        clock = time.perf_counter
        results = []
        for group, (name, mode) in enumerate(self._pass_order(), 1):
            # every cell starts from a collected heap, so neither its time
            # nor the peak RSS depends on which cells ran before it
            gc.collect()
            if tracer is not None:
                tracer.set_group(group)
            start = clock()
            try:
                res = run_benchmark(name, repro_config(mode),
                                    scale=REPRO_SCALE, seed=self.slot)
            except Exception as exc:  # noqa: BLE001 - a failed cell is data
                self.failures.append(f"reproduce {name}/{mode}: "
                                     f"{type(exc).__name__}: {exc}")
                continue
            end = clock()
            instr = int(res.stats.instructions)
            samples[mode].append((name, start, end, instr))
            self.outputs.append((f"{name}/{mode}",
                                 digest(repro_cell_record(res)), instr,
                                 int(res.cycles)))
            if tracer is not None:
                results.append(res)
        if tracer is not None:
            tracer.set_group(0)
        return results

    def measure(self, seconds: float, probe: HostSpeedProbe) -> Measurement:
        passes: List[Dict[str, List[Tuple[str, float, float, int]]]] = []
        start = time.perf_counter()
        while True:
            passes.append({mode: [] for mode in REPRO_MODES})
            self._run_pass(passes[-1])
            if time.perf_counter() - start >= seconds:
                break
        probe.stop()
        self.ops = [(f"{name}/{mode}", s, e) for p in passes
                    for mode in REPRO_MODES for name, s, e, _ in p[mode]]
        m = Measurement()
        m.attempted, m.failed = self.counts()
        rates, raw_rates = {}, {}
        per_bench: Dict[str, Dict[str, List[float]]] = {}
        for mode in REPRO_MODES:
            cells = [c for p in passes for c in p[mode]]
            kinstr = sum(i for *_, i in cells) / 1000.0
            rates[mode] = kinstr / sum(probe.normalize(s, e)
                                       for _, s, e, _ in cells)
            raw_rates[mode] = kinstr / sum(e - s for _, s, e, _ in cells)
            # each benchmark's host ms per k instructions, as its median
            # over the passes, so the percentiles describe the suite mix
            per_bench[mode] = {}
            for name, s, e, instr in cells:
                per_bench[mode].setdefault(name, []).append(
                    1e6 * probe.normalize(s, e) / instr)
        full, off = (summarize([statistics.median(v)
                                for v in per_bench[mode].values()],
                               tail_p=90)
                     for mode in ("FULL", "OFF"))
        m.metrics = {
            "ops_per_s": rates["FULL"],
            "op_p50_ms": full["p50"],
            "op_tail_ms": full["tail"],
            "alt_ops_per_s": rates["OFF"],
            "peak_rss_mb": peak_rss_mb(),
        }
        m.lines = [
            f"sim_full_kips {rates['FULL']:.3f} k warp-instr per normalized "
            f"host s (FULL HAccRG; raw {raw_rates['FULL']:.3f}; "
            f"{len(passes)} passes of {len(passes[0]['FULL'])} cells; "
            f"per-benchmark ms per k instr p50 {full['p50']:.4f}, "
            f"p90 {full['tail']:.4f})",
            f"sim_off_kips {rates['OFF']:.3f} k warp-instr per normalized "
            f"host s (detection OFF; raw {raw_rates['OFF']:.3f}; "
            f"per-benchmark ms per k instr p50 {off['p50']:.4f}, "
            f"p90 {off['tail']:.4f})",
            probe_line(probe),
        ]
        return m

    def counts(self) -> Tuple[int, int]:
        return len(self.outputs) + len(self.failures), len(self.failures)

    def check(self) -> List[str]:
        problems = list(self.failures)
        ref = load_reference()["reproduce"]
        if ref["scale"] != REPRO_SCALE:
            problems.append(f"reference scale {ref['scale']} != "
                            f"{REPRO_SCALE}")
            return problems
        expected = ref["slots"][str(self.slot)]
        for key, got, _, _ in self.outputs:
            if expected[key]["digest"] != got:
                problems.append(f"reproduce {key} seed {self.slot}: output "
                                f"digest {got} != reference "
                                f"{expected[key]['digest']}")
        problems += self._check_golden()
        by_key = {key: cycles for key, _, _, cycles in self.outputs}
        norm = [by_key[f"{n}/FULL"] / by_key[f"{n}/OFF"] for n in self.names
                if f"{n}/FULL" in by_key and f"{n}/OFF" in by_key]
        geomean = math.prod(norm) ** (1.0 / len(norm)) if norm else 0.0
        self.notes.append(
            f"fig7 FULL/OFF cycle geomean {geomean:.3f} at scale "
            f"{REPRO_SCALE}, input seed {self.slot} (paper 1.27; "
            f"EXPERIMENTS.md reports 1.18 at scale 1.0)")
        return problems

    def _check_golden(self) -> List[str]:
        """An untimed pass over the golden-parity cells (OFF and FULL of
        every suite benchmark at the file's scale, granularity and input
        seed) must equal tests/golden/parity.json."""
        from repro.common.config import DetectionMode, HAccRGConfig
        from repro.harness.runner import run_benchmark
        path = self.root / GOLDEN_PATH
        try:
            golden = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"golden parity file unreadable: {exc}"]
        spec = golden["spec"]
        problems = []
        for name in self.names:
            for mode in REPRO_MODES:
                key = f"{name}/{mode}"
                config = None if mode == "OFF" else HAccRGConfig(
                    mode=DetectionMode[mode],
                    shared_granularity=spec["shared_granularity"],
                    global_granularity=spec["global_granularity"])
                try:
                    res = run_benchmark(name, config, scale=spec["scale"],
                                        timing_enabled=spec["timing_enabled"])
                except Exception as exc:  # noqa: BLE001 - reported below
                    problems.append(f"golden parity {key}: "
                                    f"{type(exc).__name__}: {exc}")
                    continue
                got = digest(repro_cell_record(res))
                want = digest(golden["cells"][key])
                if want != got:
                    problems.append(f"golden parity {key}: digest {got} != "
                                    f"{want}")
        return problems

    def traced(self, probe: HostSpeedProbe) -> Dict[str, float]:
        untraced: Dict[str, List[Tuple[str, float, float, int]]] = {
            mode: [] for mode in REPRO_MODES}
        self._run_pass(untraced)
        traced: Dict[str, List[Tuple[str, float, float, int]]] = {
            mode: [] for mode in REPRO_MODES}
        tracer = Tracer().install()
        try:
            results = self._run_pass(traced, tracer)
        finally:
            tracer.uninstall()
        probe.stop()
        counters = {
            "sim.instructions": sum(int(r.stats.instructions)
                                    for r in results),
            "sim.cycles": sum(int(r.cycles) for r in results),
            "sim.launches": sum(int(r.num_launches) for r in results),
            "memory.l1_hit_rate": sum(r.l1_hit_rate for r in results)
            / len(results),
            "memory.l2_hit_rate": sum(r.l2_hit_rate for r in results)
            / len(results),
            "memory.dram_bytes": sum(int(r.dram_bytes) for r in results),
            "memory.dram_shadow_bytes": sum(int(r.dram_shadow_bytes)
                                            for r in results),
            "core.shadow_transactions": sum(int(r.shadow_transactions)
                                            for r in results),
            "core.race_reports": sum(len(r.races.reports) for r in results
                                     if r.races is not None),
        }
        self.tracer = tracer
        return _layer_metrics(
            tracer, probe,
            [(s, e) for cells in untraced.values() for _, s, e, _ in cells],
            [(s, e) for cells in traced.values() for _, s, e, _ in cells],
            counters)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

def single_iteration(seed: int) -> Dict[str, Any]:
    from repro.fuzz.generator import generate_program
    from repro.fuzz.harness import run_iteration
    return run_iteration(generate_program(seed))


def mg_iteration(seed: int) -> Dict[str, Any]:
    from repro.multigpu.fuzz import run_mg_fuzz_iteration
    return run_mg_fuzz_iteration(seed)


def single_problems(seed: int, record: Dict[str, Any]) -> List[str]:
    if record.get("real_bugs", 0):
        return [f"fuzz seed {seed}: {record['real_bugs']} real bug(s)"]
    return []


def mg_problems(seed: int, record: Dict[str, Any]) -> List[str]:
    out = []
    if record["contradictions"]:
        out.append(f"mg-fuzz seed {seed}: {len(record['contradictions'])} "
                   f"detector/oracle contradiction(s)")
    if record["static"]["contradictions"]:
        out.append(f"mg-fuzz seed {seed}: "
                   f"{len(record['static']['contradictions'])} static "
                   f"contradiction(s)")
    return out


class Fuzz:
    name = "fuzz"
    #: the iterations run in this process alone (see measure.start_probe)
    pinned = True
    probe_exponent = FUZZ_PROBE_EXPONENT

    def __init__(self, seed: int, root: Path) -> None:
        #: ("single"|"mg", iteration seed, record digest, problems)
        self.outputs: List[Tuple[str, int, str, List[str]]] = []
        #: ("single/<seed>"|"mg/<seed>", start, end) of every timed iteration
        self.ops: List[Tuple[str, float, float]] = []
        self.single_start = seed % FUZZ_SINGLE_POOL
        self.mg_start = (seed * 7) % FUZZ_MG_POOL
        self.notes: List[str] = []

    def setup(self, seconds: float, traced: bool) -> None:
        for i in range(3):
            single_iteration(FUZZ_WARMUP_BASE + i)
        for i in range(10):
            mg_iteration(FUZZ_WARMUP_BASE + i)

    @staticmethod
    def _band(start: int, pool: int) -> List[int]:
        return [(start + i) % pool for i in range(pool)]

    def _run_band(self, kind: str, seeds: Sequence[int],
                  spans: List[Tuple[int, float, float]],
                  tracer: Optional[Tracer] = None) -> List[Dict[str, Any]]:
        run = single_iteration if kind == "single" else mg_iteration
        problems_of = single_problems if kind == "single" else mg_problems
        clock = time.perf_counter
        records = []
        for s in seeds:
            if tracer is not None:
                tracer.set_group(len(self.outputs) + 1)
            start = clock()
            try:
                record = run(s)
            except Exception as exc:  # noqa: BLE001 - a failed run is data
                self.outputs.append((kind, s, "", [
                    f"{kind} fuzz seed {s}: {type(exc).__name__}: {exc}"]))
                continue
            end = clock()
            spans.append((s, start, end))
            self.outputs.append((kind, s, digest(record),
                                 problems_of(s, record)))
            records.append(record)
        if tracer is not None:
            tracer.set_group(0)
        return records

    def measure(self, seconds: float, probe: HostSpeedProbe) -> Measurement:
        phases = (("single", self._band(self.single_start, FUZZ_SINGLE_POOL),
                   FUZZ_SINGLE_SHARE * seconds),
                  ("mg", self._band(self.mg_start, FUZZ_MG_POOL),
                   (1.0 - FUZZ_SINGLE_SHARE) * seconds))
        spans: Dict[str, List[Tuple[int, float, float]]] = {}
        for kind, band, budget in phases:
            spans[kind] = []
            start = time.perf_counter()
            while True:
                self._run_band(kind, band, spans[kind])
                if time.perf_counter() - start >= budget:
                    break
        probe.stop()
        self.ops = [(f"{kind}/{s}", start, end)
                    for kind, v in spans.items() for s, start, end in v]
        m = Measurement()
        m.attempted, m.failed = self.counts()
        rate, raw, per_program = {}, {}, {}
        for kind, v in spans.items():
            norm: Dict[int, List[float]] = {}
            for s, start, end in v:
                norm.setdefault(s, []).append(probe.normalize(start, end))
            rate[kind] = len(v) / sum(sum(t) for t in norm.values())
            raw[kind] = len(v) / sum(end - start for _, start, end in v)
            # each program's median over the passes, so the percentiles
            # describe the program mix rather than one pass's noise
            per_program[kind] = summarize([statistics.median(t)
                                           for t in norm.values()])
        single, mg = per_program["single"], per_program["mg"]
        m.metrics = {
            "ops_per_s": rate["single"],
            "op_p50_ms": single["p50"] * 1000.0,
            "op_tail_ms": single["tail"] * 1000.0,
            "alt_ops_per_s": rate["mg"],
            "peak_rss_mb": peak_rss_mb(),
        }
        m.lines = [
            f"fuzz_iters_per_s {rate['single']:.3f} it per normalized host s "
            f"(raw {raw['single']:.3f}; {len(spans['single'])} single-device "
            f"iterations of {single['n']} programs; per-program p50 "
            f"{single['p50'] * 1000:.3f} ms, p{single['tail_p']} "
            f"{single['tail'] * 1000:.3f} ms)",
            f"mgfuzz_iters_per_s {rate['mg']:.3f} it per normalized host s "
            f"(raw {raw['mg']:.3f}; {len(spans['mg'])} 2-device iterations "
            f"of {mg['n']} programs; per-program p50 "
            f"{mg['p50'] * 1000:.3f} ms, p{mg['tail_p']} "
            f"{mg['tail'] * 1000:.3f} ms)",
            probe_line(probe),
        ]
        return m

    def counts(self) -> Tuple[int, int]:
        return len(self.outputs), sum(1 for *_, p in self.outputs if p)

    def check(self) -> List[str]:
        ref = load_reference()["fuzz"]
        problems = []
        for kind, s, got, found in self.outputs:
            problems += found
            want = ref[kind][s]
            if want != got:
                problems.append(f"{kind} fuzz seed {s}: record digest {got} "
                                f"!= reference {want}")
        return problems

    def traced(self, probe: HostSpeedProbe) -> Dict[str, float]:
        single = self._band(self.single_start, FUZZ_SINGLE_POOL)
        mg = self._band(self.mg_start, FUZZ_MG_POOL)
        untraced: List[Tuple[int, float, float]] = []
        self._run_band("single", single, untraced)
        self._run_band("mg", mg, untraced)
        traced: List[Tuple[int, float, float]] = []
        tracer = Tracer().install()
        try:
            singles = self._run_band("single", single, traced, tracer)
            mgs = self._run_band("mg", mg, traced, tracer)
        finally:
            tracer.uninstall()
        probe.stop()
        counters = {
            "fuzz.oracle_races": sum(r["oracle_races"] for r in singles)
            + sum(r["oracle_races"] for r in mgs),
            "mgfuzz.cross_gpu_events": sum(r["events"] for r in mgs),
        }
        self.tracer = tracer
        return _layer_metrics(tracer, probe,
                              [(s, e) for _, s, e in untraced],
                              [(s, e) for _, s, e in traced], counters)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def serve_trace_spec(k: int) -> Tuple[str, float, int]:
    """(benchmark, scale, input seed) of a run's k-th trace.

    The traces do not depend on the run seed: every seed replays the same
    job mix (so the same shard balance across the two workers), and the
    seed only orders the requests and picks the repeats.
    """
    if k < len(SERVE_FIXED_TRACES):
        bench, scale = SERVE_FIXED_TRACES[k]
        return bench, scale, 0
    k -= len(SERVE_FIXED_TRACES)
    bench, scale = SERVE_DATA_TRACES[k % len(SERVE_DATA_TRACES)]
    return bench, scale, 1 + k // len(SERVE_DATA_TRACES)


def replay_verdicts(blob: bytes) -> Tuple[str, List[str]]:
    """A trace's digest and, per backend of SERVE_BACKENDS, the digest of
    the verdict ``verdict_bytes(verdict_record(...))`` computes for it
    in-process (the ``repro trace replay`` answer)."""
    from repro.harness.trace import parse_trace
    from repro.serve.backends import (get_backend, trace_digest,
                                      verdict_bytes, verdict_record)
    events = parse_trace(blob)
    tdigest = trace_digest(events)
    return tdigest, [
        digest(verdict_bytes(verdict_record(tdigest, get_backend(backend),
                                            events)).decode("utf-8"))
        for backend in SERVE_BACKENDS]


def serve_trace_blob(k: int) -> bytes:
    from repro.harness.trace import dump_binary, record
    bench, scale, seed = serve_trace_spec(k)
    return dump_binary(record(bench, scale=scale, seed=seed))


class _Request:
    __slots__ = ("trace", "backend", "start", "uploaded", "done", "verdict",
                 "verdict_len", "cached", "coalesced", "elapsed", "digest",
                 "error")

    def __init__(self, trace: int, backend: str) -> None:
        self.trace = trace
        self.backend = backend
        self.start = 0.0
        self.uploaded = 0.0
        self.done = 0.0
        self.verdict = ""
        self.verdict_len = 0
        self.cached = False
        self.coalesced = False
        self.elapsed = 0.0
        self.digest = ""
        self.error: Optional[str] = None


class Serve:
    name = "serve"
    #: the jobs run in worker processes on every CPU
    pinned = False
    probe_exponent = SERVE_PROBE_EXPONENT

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = root / ".perfbench" / f"serve-{seed}-{time.time_ns()}"
        self.server: Any = None
        self.requests: List[_Request] = []
        self.blobs: List[bytes] = []
        self.children_rss_mb = 0.0
        self.notes: List[str] = []
        #: ("<trace>/<backend>[/hit]", uploaded, done) of every timed job
        self.ops: List[Tuple[str, float, float]] = []

    # -- inputs --------------------------------------------------------

    def _record_traces(self, count: int) -> None:
        seen = set()
        for k in range(count):
            blob = serve_trace_blob(k)
            if blob in seen:
                raise RuntimeError(f"serve trace {k} "
                                   f"{serve_trace_spec(k)} duplicates an "
                                   f"earlier trace")
            seen.add(blob)
            self.blobs.append(blob)

    def _schedule(self, traces: int) -> List[_Request]:
        """Every (trace, backend) pair once, in seed order, with a fixed
        share of repeats of pairs at least SERVE_REPEAT_DISTANCE back."""
        misses = [(t, b) for t in range(traces) for b in SERVE_BACKENDS]
        self.rng.shuffle(misses)
        hits = round(len(misses) * SERVE_HIT_SHARE / (1 - SERVE_HIT_SHARE))
        total = len(misses) + hits
        hit_at = set(self.rng.sample(
            range(SERVE_REPEAT_DISTANCE * 2, total), hits))
        order: List[Tuple[int, str]] = []
        pending = iter(misses)
        for pos in range(total):
            if pos in hit_at:
                order.append(self.rng.choice(
                    order[:pos - SERVE_REPEAT_DISTANCE]))
            else:
                order.append(next(pending))
        return [_Request(t, b) for t, b in order]

    def _start_server(self, name: str) -> Any:
        from repro.serve.app import ServerThread, ServiceConfig
        store = self.workdir / name
        config = ServiceConfig(port=0, store=str(store), high_water=100_000,
                               rate=1e9, burst=1e9)
        return ServerThread(config).start()

    def _warm_up(self, server: Any) -> None:
        """Spawn the workers and let them import the replay path."""
        from repro.serve.client import ServiceClient
        client = ServiceClient(server.url, client_id="perfbench-warmup")
        for blob in self.warm_blobs:
            client.detect(blob, "haccrg-word")

    def setup(self, seconds: float, traced: bool) -> None:
        from repro.harness.trace import dump_binary, record
        self.workdir.mkdir(parents=True, exist_ok=True)
        # warm-up traces use input seeds no scheduled trace uses, so they
        # never turn a scheduled request into a cache hit
        self.warm_blobs = [
            dump_binary(record(bench, scale=scale, seed=SERVE_WARMUP_SEED + i))
            for i, (bench, scale) in enumerate(SERVE_DATA_TRACES[:3])]
        # at least two traces, so the schedule has room for its repeats
        traces = SERVE_TRACED_TRACES if traced else \
            max(2, round(seconds * SERVE_TRACES_PER_SECOND))
        self._record_traces(traces)
        self.requests = self._schedule(traces)
        if not traced:
            self.server = self._start_server("timed")
            self._warm_up(self.server)

    # -- the closed loop -----------------------------------------------

    @staticmethod
    def _wait(client: Any, job_id: str, rng: random.Random
              ) -> Dict[str, Any]:
        """Poll one job until it settles, first poll at a random phase."""
        from repro.serve.client import JobFailed
        deadline = time.monotonic() + SERVE_JOB_TIMEOUT_S
        time.sleep(rng.uniform(0.0, SERVE_POLL_S))
        while True:
            state = client.job(job_id)
            if state["status"] == "done":
                return state
            if state["status"] in ("error", "timeout", "crashed"):
                raise JobFailed(state)
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {state['status']}")
            time.sleep(SERVE_POLL_S)

    def _client_loop(self, url: str, client_no: int, todo: List[_Request],
                     cursor: List[int], lock: threading.Lock) -> None:
        from repro.serve.client import JobFailed, ServiceClient, ServiceError
        client = ServiceClient(url, client_id=f"perfbench-{client_no}")
        rng = random.Random(f"{self.seed}/{client_no}")
        clock = time.perf_counter
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(todo):
                return
            req = todo[index]
            try:
                start = clock()
                receipt = client.upload(self.blobs[req.trace])
                uploaded = clock()
                state = client.submit(receipt["digest"], req.backend,
                                      retry_429=False)
                if state["status"] != "done":
                    state = self._wait(client, state["job"], rng)
                body = client.verdict_bytes(state["verdict"])
                done = clock()
            except (ServiceError, JobFailed, TimeoutError, OSError) as exc:
                req.error = f"{type(exc).__name__}: {exc}"
                continue
            req.start, req.uploaded, req.done = start, uploaded, done
            req.digest = receipt["digest"]
            req.verdict = digest(body.decode("utf-8"))
            req.verdict_len = len(body)
            req.cached = bool(state.get("cached"))
            req.coalesced = bool(state.get("coalesced"))
            req.elapsed = float(state.get("elapsed", 0.0))

    def _closed_loop(self, server: Any, todo: List[_Request]
                     ) -> Tuple[float, float]:
        """Run every request of ``todo``; returns the loop's start and end."""
        cursor = [0]
        lock = threading.Lock()
        threads = [threading.Thread(
            target=self._client_loop, args=(server.url, i, todo, cursor, lock),
            name=f"perfbench-client-{i}") for i in range(SERVE_CLIENTS)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return start, time.perf_counter()

    def _server_counters(self, server: Any) -> Dict[str, float]:
        from repro.serve.client import ServiceClient
        metrics = ServiceClient(server.url).metrics()
        submitted = metrics.get("jobs_submitted", 0.0)
        return {
            "serve.cache_hit_ratio": (metrics.get("jobs_cache_hits", 0.0)
                                      / submitted) if submitted else 0.0,
            "serve.replays": metrics.get("jobs_replays", 0.0),
            "serve.retries": metrics.get("pool_retries", 0.0),
            "serve.rejected": metrics.get("jobs_rejected_backpressure", 0.0)
            + metrics.get("jobs_rejected_rate_limit", 0.0),
        }

    def _stop_server(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
            self.children_rss_mb = peak_rss_mb(include_children=True)

    def measure(self, seconds: float, probe: HostSpeedProbe) -> Measurement:
        start, end = self._closed_loop(self.server, self.requests)
        probe.stop()
        self.counters = self._server_counters(self.server)
        self._stop_server()
        done = [r for r in self.requests if r.error is None]
        self.ops = [(f"{r.trace}/{r.backend}"
                     + ("/hit" if r.cached or r.coalesced else ""),
                     r.uploaded, r.done) for r in done]
        m = Measurement()
        m.attempted, m.failed = self.counts()
        wall = probe.normalize(start, end)
        jobs = summarize([probe.normalize(r.uploaded, r.done) * 1000.0
                          for r in done])
        uploads = summarize([probe.normalize(r.start, r.uploaded) * 1000.0
                             for r in done])
        upload_total = sum(probe.normalize(r.start, r.uploaded)
                           for r in done)
        raw_jobs = summarize([(r.done - r.uploaded) * 1000.0 for r in done])
        m.metrics = {
            "ops_per_s": len(done) / wall,
            "op_p50_ms": jobs["p50"],
            "op_tail_ms": jobs["tail"],
            "alt_ops_per_s": len(done) / upload_total,
            "peak_rss_mb": max(peak_rss_mb(), self.children_rss_mb),
        }
        hits = sum(1 for r in done if r.cached)
        m.lines = [
            f"jobs_per_s {len(done) / wall:.3f} jobs per normalized host s "
            f"(raw {len(done) / (end - start):.3f}; {len(done)} jobs, "
            f"{SERVE_CLIENTS} closed-loop clients, {hits} verdict-cache "
            f"hits, {sum(1 for r in done if r.coalesced)} coalesced)",
            f"job_p50_ms {jobs['p50']:.3f} ms; job_p{jobs['tail_p']}_ms "
            f"{jobs['tail']:.3f} ms (n={jobs['n']}; raw p50 "
            f"{raw_jobs['p50']:.3f}, p{raw_jobs['tail_p']} "
            f"{raw_jobs['tail']:.3f})",
            f"upload_p50_ms {uploads['p50']:.3f} ms; upload_p"
            f"{uploads['tail_p']}_ms {uploads['tail']:.3f} ms "
            f"(n={uploads['n']})",
            f"server: cache_hit_ratio "
            f"{self.counters['serve.cache_hit_ratio']:.3f}, replays "
            f"{self.counters['serve.replays']:.0f}, rejected "
            f"{self.counters['serve.rejected']:.0f}",
            probe_line(probe),
        ]
        return m

    # -- checks --------------------------------------------------------

    def counts(self) -> Tuple[int, int]:
        return (len(self.requests),
                sum(1 for r in self.requests if r.error is not None))

    def _expected_verdicts(self, pairs: Sequence[Tuple[int, str]]
                           ) -> Dict[Tuple[int, str], Tuple[str, str]]:
        """(trace digest, verdict digest) for each pair: the recorded
        reference where there is one, else the in-process ``repro trace
        replay`` answer."""
        ref = load_reference()["serve"]
        out = {}
        for trace, backend in pairs:
            if trace < len(ref["traces"]):
                out[(trace, backend)] = (
                    ref["traces"][trace],
                    ref["verdicts"][trace][SERVE_BACKENDS.index(backend)])
        missing = sorted({t for t, _ in pairs} - {t for t, _ in out})
        for trace in missing:
            tdigest, verdicts = replay_verdicts(self.blobs[trace])
            for backend, vdigest in zip(SERVE_BACKENDS, verdicts):
                out[(trace, backend)] = (tdigest, vdigest)
        return out

    def check(self) -> List[str]:
        problems = [f"serve request {i} ({r.backend}): {r.error}"
                    for i, r in enumerate(self.requests) if r.error]
        done = [r for r in self.requests if r.error is None]
        pairs = sorted({(r.trace, r.backend) for r in done})
        expected = self._expected_verdicts(pairs)
        for i, r in enumerate(self.requests):
            if r.error:
                continue
            tdigest, vdigest = expected[(r.trace, r.backend)]
            if r.digest != tdigest:
                problems.append(f"serve request {i}: trace digest "
                                f"{r.digest[:16]} != {tdigest[:16]}")
            if r.verdict != vdigest:
                problems.append(f"serve request {i} ({r.backend} on trace "
                                f"{r.trace}): verdict {r.verdict} != "
                                f"in-process replay {vdigest}")
        return problems

    # -- traced run ----------------------------------------------------

    def traced(self, probe: HostSpeedProbe) -> Dict[str, float]:
        """Service overhead from a live closed loop; worker time split by
        replaying the same jobs in-process through the worker function."""
        from repro.serve.worker import REPLAY_JOB_SCHEMA

        tracer = Tracer().install()
        try:
            server = self._start_server("traced")
            try:
                self._warm_up(server)
                self._closed_loop(server, self.requests)
                counters = self._server_counters(server)
                store = server.service.traces
                records = [{
                    "kind": "replay", "schema": REPLAY_JOB_SCHEMA,
                    "trace": r.digest, "backend": r.backend, "program": None,
                    "trace_path": str(store.path_for(r.digest)),
                } for r in self.requests if r.error is None
                    and not r.cached and not r.coalesced]
            finally:
                server.stop()
            tracer.uninstall()
            self._warm_replay()
            untraced = self._replay(records)
            outside = _named_self(tracer)
            tracer.install()
            traced = self._replay(records, tracer)
        finally:
            tracer.uninstall()
        probe.stop()
        done = [r for r in self.requests if r.error is None]
        queue = sorted((r.done - r.uploaded - r.elapsed) * 1000.0
                       for r in done if not r.cached and not r.coalesced)
        counters.update({
            "trace.bytes": sum(len(self.blobs[r.trace]) for r in done),
            "serve.verdict_bytes": sum(r.verdict_len for r in done),
            "serve.queue_ms": summarize(queue)["p50"] if queue else 0.0,
        })
        self.tracer = tracer
        return _layer_metrics(tracer, probe, untraced, traced, counters,
                              outside)

    @staticmethod
    def _replay(records: Sequence[Dict[str, Any]],
                tracer: Optional[Tracer] = None) -> List[Tuple[float, float]]:
        """Run each job record through the worker function, in-process."""
        from repro.serve.worker import execute_replay_record
        ops = []
        for group, record in enumerate(records, 1):
            if tracer is not None:
                tracer.set_group(group)
            start = time.perf_counter()
            execute_replay_record(record)
            ops.append((start, time.perf_counter()))
        if tracer is not None:
            tracer.set_group(0)
        return ops

    def _warm_replay(self) -> None:
        """Replay a warm-up trace through every backend in this process,
        so the untraced pass does not pay first-call costs the traced
        pass then skips."""
        from repro.harness.trace import parse_trace
        from repro.serve.backends import (get_backend, trace_digest,
                                          verdict_record)
        events = parse_trace(self.warm_blobs[0])
        for backend in SERVE_BACKENDS:
            verdict_record(trace_digest(events), get_backend(backend),
                           events)

    def close(self) -> None:
        self._stop_server()
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Reproduce, Serve, Fuzz)}
