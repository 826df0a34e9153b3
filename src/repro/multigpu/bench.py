"""Multi-GPU benchmarks: peer exchange, unified memory, halo patterns.

Four workloads exercise the cross-device sharing idioms the directory
detector and the extended HB oracle must judge:

- ``MG_RING`` — peer ring exchange: every device writes its neighbor's
  inbox in phase 0 and reduces its own in phase 1. Cross-phase, so safe;
  the ``overlap`` injection adds a same-phase write into the device's own
  (concurrently written) inbox → a ``XGPU_SHARING`` WAW race.
- ``MG_PRODCONS`` — unified-memory producer/consumer in *one* phase:
  device 0 writes, publishes with ``__threadfence_system``, and signals
  an atomic flag; device 1 polls the flag atomically and reads. Safe as
  written; the ``nofence`` injection downgrades the fence to device scope
  → every data byte becomes a ``XGPU_FENCE`` RAW race (the flagship
  missing-system-fence case).
- ``MG_HALO`` — same-phase halo exchange published with device-scope
  fences only: racy by design (``XGPU_FENCE``), the multi-GPU analogue of
  the paper's documented-real-race benchmarks.
- ``MG_UNIFIED`` — system-atomic reduction into unified counters: safe
  because peer atomics serialize at the home node; the ``plain``
  injection converts the last device's atomics into load+store pairs →
  ``XGPU_SHARING`` WAW and ``XGPU_FENCE`` RAW races. Functional
  verification still passes under the sequential phase execution — the
  bug is a concurrency defect only the detectors can see.

All kernels use 4-byte, word-aligned elements, so byte-exact oracle races
and granule-level detector reports cover identical entry sets (the
differential harness diffs at entry level; see ``docs/MULTIGPU.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.bench.common import Injection, NO_INJECTION, scaled
from repro.common.types import RaceCategory, RaceKind
from repro.gpu.device import DeviceArray
from repro.gpu.kernel import Kernel
from repro.multigpu.memory import SharedPagePool
from repro.multigpu.system import MGLaunch

_BLOCK = 32


@dataclass
class MGPlan:
    """One multi-GPU run: launches grouped by host phase."""

    name: str
    phases: List[List[MGLaunch]]
    verify: Optional[Callable[[], None]] = None
    racy_by_design: bool = False
    data_bytes: int = 0


@dataclass
class MGBenchmark:
    """A registered multi-GPU benchmark: metadata + plan builder."""

    name: str
    description: str
    build: Callable[..., MGPlan]
    injection_sites: Dict[str, str] = field(default_factory=dict)
    has_real_race: bool = False

    def plan(self, alloc: SharedPagePool, gpus: int, scale: float = 1.0,
             seed: int = 0, injection: str = "") -> MGPlan:
        return self.build(alloc, gpus=gpus, scale=scale, seed=seed,
                          injection=injection)


@dataclass(frozen=True)
class MGInjectionSpec:
    """One oracle-asserted cross-GPU race configuration."""

    bench: str
    injection: str           #: "" for a documented design race
    omit: Tuple[str, ...]
    emit: Tuple[str, ...]
    expected_kinds: FrozenSet[RaceKind]
    expected_categories: FrozenSet[RaceCategory]
    description: str


MG_INJECTION_CATALOG: Tuple[MGInjectionSpec, ...] = (
    MGInjectionSpec(
        bench="MG_RING", injection="overlap",
        omit=(), emit=("overlap",),
        expected_kinds=frozenset({RaceKind.WAW}),
        expected_categories=frozenset({RaceCategory.XGPU_SHARING}),
        description="same-phase write into the device's own inbox, which "
                    "its neighbor is concurrently filling",
    ),
    MGInjectionSpec(
        bench="MG_PRODCONS", injection="nofence",
        omit=("sysfence",), emit=(),
        expected_kinds=frozenset({RaceKind.RAW}),
        expected_categories=frozenset({RaceCategory.XGPU_FENCE}),
        description="producer publishes with a device-scope fence only; "
                    "the peer consumer reads unpublished data",
    ),
    MGInjectionSpec(
        bench="MG_UNIFIED", injection="plain",
        omit=("atomic",), emit=(),
        expected_kinds=frozenset({RaceKind.RAW, RaceKind.WAW}),
        expected_categories=frozenset({RaceCategory.XGPU_FENCE,
                                       RaceCategory.XGPU_SHARING}),
        description="one device updates the unified counters with plain "
                    "load+store instead of system atomics",
    ),
    MGInjectionSpec(
        bench="MG_HALO", injection="",
        omit=(), emit=(),
        expected_kinds=frozenset({RaceKind.RAW}),
        expected_categories=frozenset({RaceCategory.XGPU_FENCE}),
        description="design race: halo cells exchanged in one phase with "
                    "device-scope fences only",
    ),
)


def mg_injection(bench: str, name: str) -> Injection:
    """Resolve an injection *name* (payload-serializable) to sites."""
    if not name:
        return NO_INJECTION
    for spec in MG_INJECTION_CATALOG:
        if spec.bench == bench and spec.injection == name:
            return Injection(omit=spec.omit, emit=spec.emit)
    raise KeyError(f"unknown injection {name!r} for benchmark {bench}")


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def mg_ring_write(ctx: Any, dst: DeviceArray, own: DeviceArray, n: int,
                  writer: int, inj: Injection) -> Any:
    """Phase 0: fill the neighbor's inbox with writer-stamped values."""
    gtid = ctx.global_tid_x
    stride = ctx.num_threads
    for i in range(gtid, n, stride):
        yield ctx.store(dst, i, float(writer * 1000 + i))
    if inj.inject("overlap") and gtid == 0:
        # stomp on the device's OWN inbox, which its other neighbor is
        # filling in this same phase -> cross-device WAW
        yield ctx.store(own, 0, -1.0)


def mg_ring_reduce(ctx: Any, src: DeviceArray, out: DeviceArray,
                   n: int) -> Any:
    """Phase 1: per-thread strided partial sums of the device's inbox."""
    gtid = ctx.global_tid_x
    stride = ctx.num_threads
    acc = 0.0
    for i in range(gtid, n, stride):
        v = yield ctx.load(src, i)
        acc += v
    yield ctx.store(out, gtid, acc)


def mg_produce(ctx: Any, data: DeviceArray, flag: DeviceArray, n: int,
               inj: Injection) -> Any:
    """Write the payload, publish system-wide, signal the atomic flag."""
    gtid = ctx.global_tid_x
    stride = ctx.num_threads
    for i in range(gtid, n, stride):
        yield ctx.store(data, i, float(2 * i + 1))
    # every producing warp publishes its own stores; scope decides
    # whether the peer device observes the publication
    if inj.keep("sysfence"):
        yield ctx.threadfence_system()
    else:
        yield ctx.threadfence()
    if gtid == 0:
        yield ctx.atomic_exch(flag, 0, 1.0)


def mg_consume(ctx: Any, data: DeviceArray, flag: DeviceArray,
               sink: DeviceArray, n: int) -> Any:
    """Poll the flag atomically, then read the peer-produced payload."""
    gtid = ctx.global_tid_x
    stride = ctx.num_threads
    if gtid == 0:
        # cross-device flag polling must be atomic: atomic/atomic pairs
        # serialize at the home node and are race-exempt
        yield ctx.atomic_add(flag, 0, 0.0)
    acc = 0.0
    for i in range(gtid, n, stride):
        v = yield ctx.load(data, i)
        acc += v
    yield ctx.store(sink, gtid, acc)


def mg_halo_kernel(ctx: Any, left: Optional[DeviceArray],
                   right: Optional[DeviceArray], h: int, device: int,
                   out: DeviceArray) -> Any:
    """Write own halo halves, device-fence, read the neighbors' halves.

    ``left`` is the halo shared with device-1 (this device owns its upper
    half), ``right`` the halo shared with device+1 (this device owns its
    lower half). The publication fence is device-scope only — the
    same-phase neighbor reads are the documented design race.
    """
    gtid = ctx.global_tid_x
    stride = ctx.num_threads
    half = h // 2
    if right is not None:
        for i in range(gtid, half, stride):
            yield ctx.store(right, i, float(device * 100 + i))
    if left is not None:
        for i in range(gtid + half, h, stride):
            yield ctx.store(left, i, float(device * 100 + i))
    yield ctx.threadfence()  # device scope: never published to peers
    acc = 0.0
    if right is not None:
        for i in range(gtid + half, h, stride):
            v = yield ctx.load(right, i)
            acc += v
    if left is not None:
        for i in range(gtid, half, stride):
            v = yield ctx.load(left, i)
            acc += v
    yield ctx.store(out, gtid, acc)


def mg_atomic_accum(ctx: Any, counters: DeviceArray, c: int, n: int,
                    device: int, plain: bool, inj: Injection) -> Any:
    """Fold a strided slice into the unified counters."""
    gtid = ctx.global_tid_x
    stride = ctx.num_threads
    for i in range(gtid, n, stride):
        value = float(device + 1)
        if inj.keep("atomic") or not plain:
            yield ctx.atomic_add(counters, i % c, value)
        else:
            # the injected bug: one device does a plain read-modify-write
            # on unified memory, racing the peers' atomics
            v = yield ctx.load(counters, i % c)
            yield ctx.store(counters, i % c, v + value)


def mg_unified_collect(ctx: Any, counters: DeviceArray, c: int,
                       result: DeviceArray) -> Any:
    """Phase 1 on device 0: fold the counters (host-phase ordered)."""
    gtid = ctx.global_tid_x
    if gtid == 0:
        total = 0.0
        for i in range(c):
            v = yield ctx.load(counters, i)
            total += v
        yield ctx.store(result, 0, total)


# ---------------------------------------------------------------------------
# plan builders
# ---------------------------------------------------------------------------


def build_ring(alloc: SharedPagePool, gpus: int, scale: float = 1.0,
               seed: int = 0, injection: str = "") -> MGPlan:
    inj = mg_injection("MG_RING", injection)
    n = scaled(256, scale, minimum=32, multiple=32)
    grid = 2
    nthreads = grid * _BLOCK
    bufs = [alloc.alloc(f"ring_buf{d}", n, home=d, shared=True)
            for d in range(gpus)]
    outs = [alloc.alloc(f"ring_out{d}", nthreads, home=d)
            for d in range(gpus)]
    kernel_w = Kernel(mg_ring_write, name="mg_ring_write")
    kernel_r = Kernel(mg_ring_reduce, name="mg_ring_reduce")
    phase0 = [
        MGLaunch(d, kernel_w, grid, _BLOCK,
                 (bufs[(d + 1) % gpus], bufs[d], n, d, inj))
        for d in range(gpus)
    ]
    phase1 = [
        MGLaunch(d, kernel_r, grid, _BLOCK, (bufs[d], outs[d], n))
        for d in range(gpus)
    ]

    def verify() -> None:
        for d in range(gpus):
            writer = (d - 1) % gpus
            want = float(sum(writer * 1000 + i for i in range(n)))
            got = float(outs[d].host_read().sum())
            assert got == want, f"ring device {d}: {got} != {want}"

    return MGPlan(name="MG_RING", phases=[phase0, phase1],
                  verify=None if injection else verify,
                  data_bytes=gpus * (n + nthreads) * 4)


def build_prodcons(alloc: SharedPagePool, gpus: int, scale: float = 1.0,
                   seed: int = 0, injection: str = "") -> MGPlan:
    inj = mg_injection("MG_PRODCONS", injection)
    n = scaled(256, scale, minimum=32, multiple=32)
    grid = 2
    nthreads = grid * _BLOCK
    data = alloc.alloc("pc_data", n, home=0, shared=True)
    flag = alloc.alloc("pc_flag", 1, home=0, shared=True)
    sinks = [alloc.alloc(f"pc_sink{d}", nthreads, home=d)
             for d in range(1, gpus)]
    kernel_p = Kernel(mg_produce, name="mg_produce")
    kernel_c = Kernel(mg_consume, name="mg_consume")
    phase0 = [MGLaunch(0, kernel_p, grid, _BLOCK, (data, flag, n, inj))]
    phase0 += [
        MGLaunch(d, kernel_c, grid, _BLOCK, (data, flag, sinks[d - 1], n))
        for d in range(1, gpus)
    ]

    def verify() -> None:
        want = float(sum(2 * i + 1 for i in range(n)))
        for d in range(1, gpus):
            got = float(sinks[d - 1].host_read().sum())
            assert got == want, f"prodcons device {d}: {got} != {want}"

    return MGPlan(name="MG_PRODCONS", phases=[phase0],
                  verify=None if injection else verify,
                  data_bytes=(n + 1 + (gpus - 1) * nthreads) * 4)


def build_halo(alloc: SharedPagePool, gpus: int, scale: float = 1.0,
               seed: int = 0, injection: str = "") -> MGPlan:
    mg_injection("MG_HALO", injection)  # validates the name ("" only)
    h = scaled(64, scale, minimum=16, multiple=16)
    grid = 1
    nthreads = grid * _BLOCK
    halos = [alloc.alloc(f"halo{j}", h, home=j, shared=True)
             for j in range(gpus - 1)]
    outs = [alloc.alloc(f"halo_out{d}", nthreads, home=d)
            for d in range(gpus)]
    kernel = Kernel(mg_halo_kernel, name="mg_halo")
    phase0 = [
        MGLaunch(d, kernel, grid, _BLOCK,
                 (halos[d - 1] if d > 0 else None,
                  halos[d] if d < gpus - 1 else None, h, d, outs[d]))
        for d in range(gpus)
    ]
    return MGPlan(name="MG_HALO", phases=[phase0], verify=None,
                  racy_by_design=True,
                  data_bytes=((gpus - 1) * h + gpus * nthreads) * 4)


def build_unified(alloc: SharedPagePool, gpus: int, scale: float = 1.0,
                  seed: int = 0, injection: str = "") -> MGPlan:
    inj = mg_injection("MG_UNIFIED", injection)
    n = scaled(128, scale, minimum=32, multiple=32)
    c = 8
    grid = 1
    counters = alloc.alloc("uni_counters", c, home=0, shared=True)
    result = alloc.alloc("uni_result", 1, home=0)
    kernel_a = Kernel(mg_atomic_accum, name="mg_atomic_accum")
    kernel_f = Kernel(mg_unified_collect, name="mg_unified_collect")
    phase0 = [
        MGLaunch(d, kernel_a, grid, _BLOCK,
                 (counters, c, n, d, d == gpus - 1, inj))
        for d in range(gpus)
    ]
    phase1 = [MGLaunch(0, kernel_f, grid, _BLOCK, (counters, c, result))]

    def verify() -> None:
        want = float(n * sum(d + 1 for d in range(gpus)))
        got = float(result.host_read()[0])
        assert got == want, f"unified: {got} != {want}"

    return MGPlan(name="MG_UNIFIED", phases=[phase0, phase1],
                  verify=None if injection else verify,
                  data_bytes=(c + 1) * 4)


# ---------------------------------------------------------------------------
# registry + shard rebuild
# ---------------------------------------------------------------------------

MG_BENCHMARKS: Tuple[MGBenchmark, ...] = (
    MGBenchmark(
        name="MG_RING",
        description="peer ring exchange: write neighbor inbox, reduce own",
        build=build_ring,
        injection_sites={"overlap": "xgpu-waw"},
    ),
    MGBenchmark(
        name="MG_PRODCONS",
        description="unified producer/consumer: system fence + atomic flag",
        build=build_prodcons,
        injection_sites={"nofence": "xgpu-fence"},
    ),
    MGBenchmark(
        name="MG_HALO",
        description="halo exchange with device-scope fences (design race)",
        build=build_halo,
        has_real_race=True,
    ),
    MGBenchmark(
        name="MG_UNIFIED",
        description="system-atomic reduction into unified counters",
        build=build_unified,
        injection_sites={"plain": "xgpu-sharing+fence"},
    ),
)

_BY_NAME: Dict[str, MGBenchmark] = {b.name: b for b in MG_BENCHMARKS}


def get_mg_benchmark(name: str) -> MGBenchmark:
    """Look up a multi-GPU benchmark by name (case-insensitive)."""
    try:
        return _BY_NAME[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown multi-GPU benchmark {name!r}; "
            f"choose from {sorted(_BY_NAME)}"
        ) from None

