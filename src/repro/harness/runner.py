"""Uniform benchmark runner used by every experiment.

``run_benchmark`` builds a fresh simulator with the requested detector
configuration, runs a benchmark's full plan (all kernel launches), and
collects a :class:`RunResult` with everything any experiment needs: cycles,
instruction statistics, race log, DRAM utilization, cache statistics.

When a campaign session is installed (see :mod:`repro.campaign`),
``run_benchmark`` routes through it instead: the call is canonically
hashed into a job key, served from the content-addressed result store on
a hit, and executed + stored on a miss. Experiments never know the
difference — a cached :class:`RunResult` compares equal to a live one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from repro.bench.common import Injection, NO_INJECTION
from repro.bench.suite import get_benchmark
from repro.common.config import (
    DetectionMode,
    DetectorBackend,
    GPUConfig,
    HAccRGConfig,
    scaled_gpu_config,
)
from repro.common.types import KernelStats, MemSpace
from repro.core.clocks import ClockStats
from repro.core.detector import HAccRGDetector
from repro.core.races import RaceLog
from repro.events import PhaseStats, Subscriber
from repro.gpu.simulator import GPUSimulator
from repro.swdetect.grace import GRaceAddrDetector
from repro.swdetect.software_haccrg import SoftwareHAccRG


@dataclass
class RunResult:
    """Everything one benchmark run produced.

    Every field except ``detector`` is plain data that survives a
    JSON round trip (see :func:`repro.harness.export.run_result_record`)
    — campaign workers ship these across process boundaries. ``detector``
    is a *live-only* convenience handle on the in-process detector; it is
    ``None`` for cache-served results, excluded from equality, and never
    serialized. Experiments must read detector-derived numbers from the
    ``id_stats`` / ``shared_shadow_misses`` fields instead.
    """

    name: str
    cycles: int
    stats: KernelStats
    dram_utilization: float
    dram_bytes: int
    dram_shadow_bytes: int
    l1_hit_rate: float
    l2_hit_rate: float
    races: Optional[RaceLog] = None
    #: live-only simulator handle; not part of the serializable record
    detector: Optional[object] = field(default=None, repr=False,
                                       compare=False)
    verified: Optional[bool] = None
    data_bytes: int = 0
    num_launches: int = 1
    #: §VI-A2 sync/fence ID increment statistics (hardware backend only)
    id_stats: Optional[ClockStats] = None
    #: Fig. 8 split-shadow L1 misses (0 unless shared_shadow_in_global)
    shared_shadow_misses: int = 0
    #: global-RDU shadow-line transactions (write-back ablation metric)
    shadow_transactions: int = 0
    #: per-phase cycle breakdown from the event pipeline's metrics
    #: collector (issue/idle split, detector-induced stalls, shadow
    #: traffic); None for results cached before the field existed
    phases: Optional[PhaseStats] = None
    #: TLB statistics (repro.vm TLBStats.record() shape: counters plus
    #: app/shadow miss rates) for runs that model address translation;
    #: None otherwise and for results cached before the field existed
    tlb: Optional[Dict[str, Any]] = None

    def shared_races(self) -> int:
        return self.races.count(space=MemSpace.SHARED) if self.races else 0

    def global_races(self) -> int:
        return (len(self.races) - self.shared_races()) if self.races else 0


def make_detector(config: HAccRGConfig, sim: GPUSimulator):
    """Instantiate the detector for ``config.backend`` (None when OFF)."""
    if config.mode == DetectionMode.OFF:
        return None
    if config.backend == DetectorBackend.HARDWARE:
        return HAccRGDetector(config, sim)
    if config.backend == DetectorBackend.SOFTWARE:
        return SoftwareHAccRG(config, sim)
    return GRaceAddrDetector(config, sim)


# ---------------------------------------------------------------------------
# campaign session hook
# ---------------------------------------------------------------------------

#: when set, run_benchmark routes through the installed campaign session
#: (cache lookup + store) instead of simulating directly
_session = None


def install_session(session) -> Optional[object]:
    """Install a campaign session; returns the previously installed one.

    The session object must expose ``run_call(**kwargs) -> RunResult``
    receiving exactly the keyword arguments of :func:`run_benchmark`.
    Pass ``None`` to uninstall. Used by
    :func:`repro.campaign.engine.session`.
    """
    global _session
    previous = _session
    _session = session
    return previous


def active_session():
    """The currently installed campaign session (or None)."""
    return _session


def run_benchmark(name: str,
                  detector_config: Optional[HAccRGConfig] = None,
                  gpu_config: Optional[GPUConfig] = None,
                  scale: float = 1.0,
                  seed: int = 0,
                  injection: Injection = NO_INJECTION,
                  timing_enabled: bool = True,
                  verify: bool = False,
                  **overrides) -> RunResult:
    """Run one benchmark under one detection configuration.

    ``detector_config=None`` (or mode OFF) runs the unmodified GPU — the
    Fig. 7 baseline. ``timing_enabled=False`` skips the cache/DRAM timing
    for detection-only experiments (granularity sweeps run ~3x faster).
    ``overrides`` are forwarded to the benchmark's builder (e.g.
    ``num_blocks=1`` for the race-free SCAN configuration).
    """
    if _session is not None:
        return _session.run_call(
            name=name, detector_config=detector_config,
            gpu_config=gpu_config, scale=scale, seed=seed,
            injection=injection, timing_enabled=timing_enabled,
            verify=verify, overrides=overrides)
    return run_benchmark_direct(
        name, detector_config, gpu_config, scale=scale, seed=seed,
        injection=injection, timing_enabled=timing_enabled, verify=verify,
        **overrides)


def run_benchmark_direct(name: str,
                         detector_config: Optional[HAccRGConfig] = None,
                         gpu_config: Optional[GPUConfig] = None,
                         scale: float = 1.0,
                         seed: int = 0,
                         injection: Injection = NO_INJECTION,
                         timing_enabled: bool = True,
                         verify: bool = False,
                         observers: Optional[Sequence[Subscriber]] = None,
                         **overrides) -> RunResult:
    """Simulate unconditionally, bypassing any installed campaign session.

    This is the execution path campaign workers use: the session wraps
    *around* it, so cache misses and pool jobs always land here.

    ``observers`` are event-bus subscribers (tracers, probes) added at
    observer priority alongside any detector — they watch the same live
    run. They are live objects, so this parameter exists only on the
    direct path: it never reaches a campaign session's cache key.
    """
    bench = get_benchmark(name)
    sim = GPUSimulator(gpu_config or scaled_gpu_config(),
                       timing_enabled=timing_enabled)
    detector = None
    if detector_config is not None and detector_config.mode != DetectionMode.OFF:
        detector = make_detector(detector_config, sim)
        sim.attach_detector(detector)
    for obs in observers or ():
        sim.add_observer(obs)

    plan = bench.plan(sim, scale=scale, seed=seed, injection=injection,
                      **overrides)
    results = plan.run(sim)

    verified: Optional[bool] = None
    if verify and plan.verify is not None:
        plan.verify()  # raises on functional mismatch
        verified = True

    # translation-modeling observers (e.g. TLBProbe) publish their stats
    # into the run's metrics so RunResult.tlb / the export carry them
    for obs in observers or ():
        tlb_record = getattr(obs, "tlb_record", None)
        if callable(tlb_record):
            sim.metrics.note_tlb(tlb_record())

    # Per-launch SimulationResults snapshot *cumulative* simulator counters:
    # SM stats/cycles and the cache/DRAM statistics are never reset between
    # launches of one simulator, so the final launch's snapshot already
    # aggregates the whole run. Its hit rates are the accesses-weighted
    # means over all launches and its DRAM utilization is the
    # cycles-weighted mean — summing or averaging the per-launch snapshots
    # would double-count earlier launches.
    last = results[-1] if results else None
    stats = KernelStats()
    if last is not None:
        stats.merge(last.stats)

    id_stats: Optional[ClockStats] = None
    clock = getattr(getattr(detector, "rrf", None), "stats", None)
    if isinstance(clock, ClockStats):
        id_stats = ClockStats(
            max_sync_increments=clock.max_sync_increments,
            max_fence_increments=clock.max_fence_increments,
            sync_overflows=clock.sync_overflows,
            fence_overflows=clock.fence_overflows,
        )

    return RunResult(
        name=name,
        cycles=last.cycles if last else 0,
        stats=stats,
        dram_utilization=last.dram_utilization if last else 0.0,
        dram_bytes=last.dram_bytes if last else 0,
        dram_shadow_bytes=last.dram_shadow_bytes if last else 0,
        l1_hit_rate=last.l1_hit_rate if last else 0.0,
        l2_hit_rate=last.l2_hit_rate if last else 0.0,
        races=detector.log if detector is not None else None,
        detector=detector,
        verified=verified,
        data_bytes=plan.data_bytes,
        num_launches=len(results),
        id_stats=id_stats,
        shared_shadow_misses=int(getattr(detector, "shared_shadow_misses",
                                         0) or 0),
        shadow_transactions=int(getattr(
            getattr(detector, "global_rdu", None), "shadow_transactions",
            0) or 0),
        phases=last.phases if last else None,
        tlb=sim.metrics.tlb,
    )
