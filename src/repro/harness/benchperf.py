"""Performance benchmarking: simulator, fuzz, detector, and service rates.

``repro bench-perf`` measures six throughput surfaces on pinned
workloads and writes the canonical record to ``BENCH_10.json`` at the
repo root (CI uploads it as an artifact, fails on malformed output, and
diffs it against the previous record with ``tools/bench_compare.py``):

- **simulate** — trace-recording throughput (events/second) over pinned
  benchmark cells;
- **fuzz** — full differential fuzz iterations/second (generate +
  record + oracle + diff across default modes) over pinned seeds;
- **replay** — per-detector-backend replay throughput over one pinned
  trace, with each backend's overhead relative to the fastest;
- **service** — end-to-end jobs/second through a live ``repro.serve``
  endpoint (upload → submit → verdict), plus the cache-hit rate for
  repeat submissions;
- **multigpu** — cross-GPU events/second through the full
  :class:`~repro.multigpu.system.MultiGPUSimulator` stack (simulation +
  merge + directory detection + HB oracle) over pinned benchmark cells;
- **static_prefilter** — mg-fuzz iterations/second with the scope-aware
  static analyzer gating the multi-device simulation
  (``repro fuzz --gpus 2 --static-prefilter``), plus the speedup over
  the same pinned seed band run fully dynamic.

Each measurement is a :class:`PerfJob` — a content-addressed job spec
whose record names the cell in the BENCH file; :func:`measure` runs it
in-process.
"""

from __future__ import annotations

import gc
import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from repro.campaign.jobs import JobSpec, JobSpecError

#: bump whenever the perf record shape changes
PERF_SCHEMA = 1

#: the canonical record name + output file for this PR's bench record
BENCH_NAME = "BENCH_10"
BENCH_FILENAME = "BENCH_10.json"

#: pinned simulator cells: (benchmark, scale)
_SIM_CELLS = (("HIST", 0.25), ("SCAN", 0.25))
_SIM_CELLS_QUICK = (("SCAN", 0.1),)

#: pinned fuzz seeds
_FUZZ_SEEDS = tuple(range(8))
_FUZZ_SEEDS_QUICK = (0, 1)

#: the pinned trace every replay backend is timed on
_REPLAY_CELL = ("HIST", 0.25)
_REPLAY_CELL_QUICK = ("SCAN", 0.1)

#: service-throughput shape: (distinct traces, jobs per trace)
_SERVICE_LOAD = (4, 2)
_SERVICE_LOAD_QUICK = (2, 2)

#: pinned multi-GPU cells: (benchmark, devices, scale)
_MG_CELLS = (("MG_RING", 2, 0.5), ("MG_PRODCONS", 2, 0.5))
_MG_CELLS_QUICK = (("MG_RING", 2, 0.25),)

#: pinned mg-fuzz band for the static-prefilter section: (seed, iterations)
_PREFILTER_BAND = (0, 12)
_PREFILTER_BAND_QUICK = (0, 6)


class PerfSpecError(JobSpecError):
    """A perf job spec or BENCH record is malformed."""


# ---------------------------------------------------------------------------
# measurement cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerfJob(JobSpec):
    """One content-addressed perf measurement cell.

    ``metric`` selects the measurement:

    - ``"simulate"`` — record ``bench`` at ``scale``; value = events/s;
    - ``"fuzz"`` — run one differential fuzz iteration for ``seed``;
      value = iterations/s;
    - ``"replay"`` — replay ``bench``/``scale`` through ``backend``;
      value = events/s through that backend;
    - ``"multigpu"`` — run multi-GPU ``bench`` at ``scale`` on ``gpus``
      devices (detector + oracle attached); value = cross-GPU events/s.

    Its record is the ``job`` field of each measurement in the BENCH file.
    """

    kind = "perf"
    schema = PERF_SCHEMA

    metric: str
    bench: str = ""
    scale: float = 1.0
    seed: int = 0
    backend: str = ""
    repeats: int = 1
    gpus: int = 2

    _METRICS = ("simulate", "fuzz", "replay", "multigpu")

    def __post_init__(self) -> None:
        if self.metric not in self._METRICS:
            raise PerfSpecError(
                f"unknown perf metric {self.metric!r} "
                f"(known: {', '.join(self._METRICS)})")
        if self.repeats < 1:
            raise PerfSpecError("repeats must be >= 1")

    def describe(self) -> str:
        if self.metric == "simulate":
            return f"simulate {self.bench}@{self.scale}"
        if self.metric == "fuzz":
            return f"fuzz seed={self.seed}"
        if self.metric == "multigpu":
            return f"multigpu {self.bench}@{self.scale} x{self.gpus}"
        return f"replay {self.bench}@{self.scale} via {self.backend}"


def measure(job: PerfJob) -> Dict[str, Any]:
    """Run one cell ``job.repeats`` times; the fastest attempt wins."""
    best: Optional[Dict[str, Any]] = None
    for _ in range(job.repeats):
        out = _measure_once(job)
        if best is None or out["elapsed"] < best["elapsed"]:
            best = out
    assert best is not None
    best["job"] = job.record()
    return best


def _measure_once(job: PerfJob) -> Dict[str, Any]:
    # Timed regions run with the cyclic GC paused (collected beforehand):
    # a generational collection landing inside a ~30 ms cell is pure
    # measurement noise, and min-of-repeats should reflect the work, not
    # the collector's schedule. Collection resumes right after the region.
    if job.metric == "simulate":
        from repro.harness.trace import record as record_trace
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            events = record_trace(job.bench, scale=job.scale)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        return {"metric": "simulate", "events": len(events),
                "elapsed": elapsed,
                "rate": len(events) / elapsed if elapsed else 0.0,
                "unit": "events/s"}
    if job.metric == "fuzz":
        from repro.fuzz.generator import generate_program
        from repro.fuzz.harness import run_iteration
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            program = generate_program(job.seed)
            result = run_iteration(program)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        return {"metric": "fuzz", "seed": job.seed,
                "oracle_races": result.get("oracle_races", 0),
                "real_bugs": result.get("real_bugs", 0),
                "elapsed": elapsed,
                "rate": 1.0 / elapsed if elapsed else 0.0,
                "unit": "iterations/s"}
    if job.metric == "multigpu":
        from repro.common.config import HAccRGConfig
        from repro.multigpu.runner import run_mg_benchmark
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            res = run_mg_benchmark(job.bench, gpus=job.gpus,
                                   detector_config=HAccRGConfig(),
                                   scale=job.scale, timing_enabled=False)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        return {"metric": "multigpu", "events": res.events,
                "gpus": job.gpus,
                "contradictions": len(res.contradictions),
                "elapsed": elapsed,
                "rate": res.events / elapsed if elapsed else 0.0,
                "unit": "events/s"}
    # replay: record once (untimed), time only the backend replay
    from repro.harness.trace import record as record_trace
    from repro.serve.backends import get_backend, run_backend
    backend = get_backend(job.backend)
    events = record_trace(job.bench, scale=job.scale)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        run_backend(backend, events)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return {"metric": "replay", "backend": backend.name,
            "events": len(events), "elapsed": elapsed,
            "rate": len(events) / elapsed if elapsed else 0.0,
            "unit": "events/s"}


# ---------------------------------------------------------------------------
# the full bench-perf run
# ---------------------------------------------------------------------------

#: replay backends timed by bench-perf (static needs a program spec and
#: is exercised by the serve test suite instead)
_TIMED_BACKENDS = ("haccrg-bloom", "haccrg-full", "haccrg-word",
                   "swdetect", "oracle")


def run_bench_perf(quick: bool = False, workers: int = 0) -> Dict[str, Any]:
    """Run every section and return the canonical bench record."""
    sections = {
        "simulate": _section_simulate(quick),
        "fuzz": _section_fuzz(quick),
        "replay": _section_replay(quick),
        "service": _section_service(quick, workers),
        "multigpu": _section_multigpu(quick),
        "static_prefilter": _section_static_prefilter(quick),
    }
    return {
        "schema": PERF_SCHEMA,
        "bench": BENCH_NAME,
        "quick": bool(quick),
        "python": platform.python_version(),
        "platform": sys.platform,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "sections": sections,
    }


def _section_simulate(quick: bool) -> Dict[str, Any]:
    cells = _SIM_CELLS_QUICK if quick else _SIM_CELLS
    runs = []
    total_events = 0
    total_elapsed = 0.0
    for bench, scale in cells:
        out = measure(
            PerfJob("simulate", bench=bench, scale=scale,
                    repeats=1 if quick else 3))
        runs.append({"bench": bench, "scale": scale,
                     "events": out["events"],
                     "elapsed": round(out["elapsed"], 6),
                     "events_per_sec": round(out["rate"], 1)})
        total_events += out["events"]
        total_elapsed += out["elapsed"]
    return {
        "unit": "events/s",
        "runs": runs,
        "events_per_sec": round(total_events / total_elapsed, 1)
        if total_elapsed else 0.0,
    }


def _section_fuzz(quick: bool) -> Dict[str, Any]:
    seeds = _FUZZ_SEEDS_QUICK if quick else _FUZZ_SEEDS
    elapsed = 0.0
    real_bugs = 0
    for seed in seeds:
        out = measure(PerfJob("fuzz", seed=seed))
        elapsed += out["elapsed"]
        real_bugs += out["real_bugs"]
    return {
        "unit": "iterations/s",
        "iterations": len(seeds),
        "seeds": list(seeds),
        "elapsed": round(elapsed, 6),
        "iterations_per_sec": round(len(seeds) / elapsed, 2)
        if elapsed else 0.0,
        "real_bugs": real_bugs,
    }


def _section_replay(quick: bool) -> Dict[str, Any]:
    bench, scale = _REPLAY_CELL_QUICK if quick else _REPLAY_CELL
    backends: Dict[str, Dict[str, Any]] = {}
    events = 0
    total_elapsed = 0.0
    for name in _TIMED_BACKENDS:
        out = measure(
            PerfJob("replay", bench=bench, scale=scale, backend=name,
                    repeats=1 if quick else 3))
        events = out["events"]
        total_elapsed += out["elapsed"]
        backends[name] = {"elapsed": round(out["elapsed"], 6),
                          "events_per_sec": round(out["rate"], 1)}
    fastest = max(b["events_per_sec"] for b in backends.values()) or 1.0
    for entry in backends.values():
        entry["overhead_vs_fastest"] = round(
            fastest / entry["events_per_sec"], 3) \
            if entry["events_per_sec"] else None
    # aggregate throughput: every backend replays the same pinned trace,
    # so the section-level rate is (backends * events) / total elapsed
    aggregate = (len(backends) * events / total_elapsed
                 if total_elapsed else 0.0)
    return {"unit": "events/s", "bench": bench, "scale": scale,
            "events": events, "elapsed": round(total_elapsed, 6),
            "events_per_sec": round(aggregate, 1), "backends": backends}


def _section_multigpu(quick: bool) -> Dict[str, Any]:
    cells = _MG_CELLS_QUICK if quick else _MG_CELLS
    runs = []
    total_events = 0
    total_elapsed = 0.0
    for bench, gpus, scale in cells:
        out = measure(
            PerfJob("multigpu", bench=bench, scale=scale, gpus=gpus,
                    repeats=1 if quick else 3))
        runs.append({"bench": bench, "gpus": gpus, "scale": scale,
                     "events": out["events"],
                     "contradictions": out["contradictions"],
                     "elapsed": round(out["elapsed"], 6),
                     "events_per_sec": round(out["rate"], 1)})
        total_events += out["events"]
        total_elapsed += out["elapsed"]
    return {
        "unit": "events/s",
        "runs": runs,
        "events_per_sec": round(total_events / total_elapsed, 1)
        if total_elapsed else 0.0,
    }


def _section_static_prefilter(quick: bool) -> Dict[str, Any]:
    """mg-fuzz throughput with the static analyzer as a simulation gate.

    Runs the same pinned seed band twice — fully dynamic, then with
    ``static_prefilter`` — so the record carries both the gated rate
    and the honest speedup (prefiltered cells skip the multi-device
    simulation but still pay for generation + static analysis).
    """
    from repro.multigpu.fuzz import run_mg_fuzz

    seed, iterations = _PREFILTER_BAND_QUICK if quick else _PREFILTER_BAND
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        full = run_mg_fuzz(seed, iterations)
        full_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        pre = run_mg_fuzz(seed, iterations, static_prefilter=True)
        pre_elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return {
        "unit": "iterations/s",
        "seed": seed,
        "iterations": iterations,
        "prefiltered": pre["prefiltered"],
        "static_contradictions": len(pre["static_contradictions"])
        + len(full["static_contradictions"]),
        "full_elapsed": round(full_elapsed, 6),
        "elapsed": round(pre_elapsed, 6),
        "speedup": round(full_elapsed / pre_elapsed, 3)
        if pre_elapsed else 0.0,
        "iterations_per_sec": round(iterations / pre_elapsed, 2)
        if pre_elapsed else 0.0,
    }


def _section_service(quick: bool, workers: int) -> Dict[str, Any]:
    """End-to-end throughput through a live in-process service."""
    from repro.harness.trace import dump_binary
    from repro.harness.trace import record as record_trace
    from repro.serve.app import ServerThread, ServiceConfig
    from repro.serve.client import ServiceClient

    n_traces, per_trace = _SERVICE_LOAD_QUICK if quick else _SERVICE_LOAD
    backends = ("haccrg-word", "oracle")[:per_trace]
    blobs = []
    for i in range(n_traces):
        scale = 0.1 + 0.02 * i
        blobs.append(dump_binary(record_trace("SCAN", scale=scale)))

    import tempfile
    with tempfile.TemporaryDirectory(prefix="benchperf-") as tmp:
        config = ServiceConfig(port=0, store=tmp, workers=workers,
                               high_water=256, rate=10_000.0,
                               burst=10_000.0)
        with ServerThread(config) as server:
            client = ServiceClient(server.url, client_id="bench-perf")
            start = time.perf_counter()
            digests = [client.upload(blob)["digest"] for blob in blobs]
            states = []
            for digest in digests:
                for backend in backends:
                    states.append(client.submit(digest, backend))
            for state in states:
                if state["status"] not in ("done",):
                    client.wait(state["job"], timeout=300.0)
            elapsed = time.perf_counter() - start

            # repeat submissions: every one must be a verdict-cache hit
            start_hit = time.perf_counter()
            hits = 0
            for digest in digests:
                for backend in backends:
                    state = client.submit(digest, backend)
                    hits += 1 if state.get("cached") else 0
            hit_elapsed = time.perf_counter() - start_hit
            metrics = client.metrics()

    jobs = len(digests) * len(backends)
    return {
        "unit": "jobs/s",
        "workers": workers,
        "traces": len(digests),
        "jobs": jobs,
        "elapsed": round(elapsed, 6),
        "jobs_per_sec": round(jobs / elapsed, 2) if elapsed else 0.0,
        "cache_hits": hits,
        "cache_hit_elapsed": round(hit_elapsed, 6),
        "cache_hits_per_sec": round(jobs / hit_elapsed, 1)
        if hit_elapsed else 0.0,
        "server_replays": int(metrics.get("jobs_replays", -1)),
        "server_cache_hits": int(metrics.get("jobs_cache_hits", -1)),
    }


# ---------------------------------------------------------------------------
# output file + validation
# ---------------------------------------------------------------------------

def repo_root() -> Path:
    """The repository root (three levels above this file's package)."""
    return Path(__file__).resolve().parents[3]


def bench_path(output: Optional[str] = None) -> Path:
    return Path(output) if output else repo_root() / BENCH_FILENAME


def write_bench_file(record: Dict[str, Any],
                     output: Optional[str] = None) -> Path:
    """Validate and write the canonical bench record; returns the path."""
    validate_bench_record(record)
    path = bench_path(output)
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text(payload + "\n", encoding="utf-8")
    return path


def validate_bench_record(record: Dict[str, Any]) -> None:
    """Raise ``PerfSpecError`` unless the record is well-formed."""
    if not isinstance(record, dict):
        raise PerfSpecError("bench record is not an object")
    if record.get("schema") != PERF_SCHEMA:
        raise PerfSpecError(
            f"bench schema {record.get('schema')!r} != {PERF_SCHEMA}")
    if record.get("bench") != BENCH_NAME:
        raise PerfSpecError(f"bench name {record.get('bench')!r} "
                            f"!= {BENCH_NAME!r}")
    sections = record.get("sections")
    if not isinstance(sections, dict):
        raise PerfSpecError("bench record has no 'sections' object")
    required = {
        "simulate": "events_per_sec",
        "fuzz": "iterations_per_sec",
        "replay": "backends",
        "service": "jobs_per_sec",
        "multigpu": "events_per_sec",
        "static_prefilter": "iterations_per_sec",
    }
    for name, field in required.items():
        section = sections.get(name)
        if not isinstance(section, dict):
            raise PerfSpecError(f"missing bench section {name!r}")
        if field not in section:
            raise PerfSpecError(
                f"bench section {name!r} is missing {field!r}")
    for name in ("simulate", "fuzz", "service", "multigpu",
                 "static_prefilter"):
        rate = sections[name][required[name]]
        if not isinstance(rate, (int, float)) or rate <= 0:
            raise PerfSpecError(
                f"bench section {name!r} reports non-positive rate "
                f"{rate!r}")
    backends = sections["replay"]["backends"]
    if not isinstance(backends, dict) or not backends:
        raise PerfSpecError("bench section 'replay' measured no backends")
    for backend, entry in backends.items():
        rate = entry.get("events_per_sec")
        if not isinstance(rate, (int, float)) or rate <= 0:
            raise PerfSpecError(
                f"replay backend {backend!r} reports non-positive rate "
                f"{rate!r}")


def validate_bench_file(path: Optional[str] = None) -> Dict[str, Any]:
    """Load + validate a bench file (the CI gate); returns the record."""
    target = bench_path(path)
    try:
        record = json.loads(target.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise PerfSpecError(f"bench file {target} does not exist") \
            from None
    except ValueError as exc:
        raise PerfSpecError(f"bench file {target} is not valid JSON: "
                            f"{exc}") from None
    validate_bench_record(record)
    return record


def render_summary(record: Dict[str, Any]) -> str:
    """Human-readable digest of a bench record."""
    s = record["sections"]
    lines = [
        f"bench-perf ({'quick' if record.get('quick') else 'full'}, "
        f"python {record.get('python')})",
        f"  simulate  {s['simulate']['events_per_sec']:>10.1f} events/s "
        f"({len(s['simulate']['runs'])} cells)",
        f"  fuzz      {s['fuzz']['iterations_per_sec']:>10.2f} iters/s "
        f"({s['fuzz']['iterations']} iterations)",
    ]
    for name in sorted(s["replay"]["backends"]):
        entry = s["replay"]["backends"][name]
        lines.append(f"  replay    {entry['events_per_sec']:>10.1f} "
                     f"events/s  {name} "
                     f"(x{entry['overhead_vs_fastest']} vs fastest)")
    svc = s["service"]
    lines.append(f"  service   {svc['jobs_per_sec']:>10.2f} jobs/s "
                 f"({svc['jobs']} jobs, {svc['workers']} workers); "
                 f"cache hits {svc['cache_hits_per_sec']:.1f}/s")
    mg = s.get("multigpu")
    if mg is not None:
        lines.append(f"  multigpu  {mg['events_per_sec']:>10.1f} events/s "
                     f"({len(mg['runs'])} cells)")
    sp = s.get("static_prefilter")
    if sp is not None:
        lines.append(f"  prefilter {sp['iterations_per_sec']:>10.2f} "
                     f"iters/s  ({sp['prefiltered']}/{sp['iterations']} "
                     f"cells skipped, x{sp['speedup']} vs full)")
    return "\n".join(lines)
