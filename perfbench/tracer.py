"""Outside-in span tracer: wraps public entry points of each repro layer.

Nothing under ``src/`` knows about this module. ``Tracer.install()``
monkeypatches the functions and methods named in :data:`LAYERS` with
wrappers that record one span per call (name, start, end, parent, group)
and count calls per layer. ``Tracer.uninstall()`` puts every original
back. Module-level functions are also re-bound in every loaded ``repro``
module that imported them by name, so ``from x import f`` call sites are
traced too.

Self time of a span is its duration minus the time its direct child
spans cover; a layer's self time is the sum over its spans. Time that no
named layer covers (the benchmark's own loop, unwrapped glue in the
runner) is reported as ``other``.
"""

from __future__ import annotations

import fnmatch
import gzip
import importlib
import inspect
import itertools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer -> ``module:pattern`` targets. A pattern names a module-level
#: function or ``Class.method``; ``*`` matches within one name and never
#: matches a private (``_x``) or dunder name unless the pattern starts
#: with ``_``. Subclass patterns also cover inherited methods, so calls
#: on a software detector count as ``swdetect`` even where it reuses the
#: hardware detector's code.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("bench", (
        "repro.bench.common:Benchmark.plan",
    )),
    ("gpu.functional", (
        "repro.gpu.functional:decode_warp",
        "repro.gpu.functional:execute_*",
    )),
    ("gpu.sm", (
        "repro.gpu.simulator:GPUSimulator.run",
    )),
    ("gpu.timing", (
        "repro.gpu.timing:lane_hit_flags",
        "repro.gpu.timing:coalesce_fast",
        "repro.gpu.timing:TimingModel.*",
    )),
    ("memory", (
        "repro.memory.system:MemorySystem.warp_access",
        "repro.memory.system:MemorySystem.background_access",
    )),
    ("events.bus", (
        "repro.events.bus:EventBus.emit_*",
        "repro.events.bus:EventBus.lock_*",
    )),
    ("core.detector", (
        "repro.core.detector:HAccRGDetector.on_*",
    )),
    ("core.shadow", (
        "repro.core.shadow:SharedShadowTable.*",
        "repro.core.shadow_memory:GlobalShadowMemory.*",
        "repro.core.rdu_global:GlobalRDU.*",
        "repro.core.rdu_shared:SharedRDU.*",
    )),
    ("core.races", (
        "repro.core.races:RaceLog.report",
        "repro.core.races:RaceLog.trip*",
        "repro.core.races:RaceLog.note_pairs",
    )),
    ("core.groundtruth", (
        "repro.core.groundtruth:oracle_races",
        "repro.core.groundtruth:oracle_entries",
        "repro.core.groundtruth:detector_entries",
        "repro.core.groundtruth:cross_device_entries",
        "repro.core.groundtruth:MultiDeviceOracle.*",
    )),
    ("swdetect", (
        "repro.swdetect.software_haccrg:SoftwareHAccRG.on_*",
        "repro.swdetect.grace:GRaceAddrDetector.on_*",
    )),
    ("harness.trace", (
        "repro.harness.trace:record",
        "repro.harness.trace:replay",
        "repro.harness.trace:dump_binary",
        "repro.harness.trace:load_binary",
        "repro.harness.trace:parse_trace",
        "repro.harness.trace:TraceRecorder.on_*",
    )),
    ("serve.backends", (
        "repro.serve.backends:run_backend",
        "repro.serve.backends:verdict_record",
        "repro.serve.backends:verdict_bytes",
        "repro.serve.backends:trace_digest",
    )),
    ("serve", (
        "repro.serve.app:Service._post_trace",
        "repro.serve.app:Service._post_job",
        "repro.serve.app:Service._get_job",
        "repro.serve.app:Service._get_verdict",
        "repro.serve.httpd:serialize_response",
        "repro.serve.scheduler:Scheduler.submit",
        "repro.serve.scheduler:Scheduler._finish",
        "repro.serve.scheduler:ShardedWorkerPool.submit",
        "repro.serve.traces:TraceStore.put_bytes",
        "repro.serve.verdicts:VerdictCache.put",
        "repro.serve.verdicts:VerdictCache.get_bytes",
        "repro.serve.worker:execute_replay_record",
    )),
    ("fuzz", (
        "repro.fuzz.generator:generate_program",
        "repro.fuzz.program:run_program",
        "repro.fuzz.program:record_program",
        "repro.fuzz.harness:run_iteration",
        "repro.fuzz.harness:_evaluate_mode",
        "repro.fuzz.harness:triage_*",
        "repro.multigpu.fuzz:generate_mg_program",
        "repro.multigpu.fuzz:run_mg_fuzz_iteration",
    )),
    ("analyze", (
        "repro.analyze.verdict:analyze_program",
        "repro.analyze.validate:cross_check",
        "repro.analyze.multidevice:mg_fuzz_model",
        "repro.analyze.multidevice:build_mg_report",
        "repro.analyze.multidevice:mg_cross_check",
    )),
    ("multigpu", (
        "repro.multigpu.system:MultiGPUSimulator.run_phase",
        "repro.multigpu.system:MultiGPUSimulator.finalize",
        "repro.multigpu.detector:DirectoryDetector.*",
        "repro.multigpu.recorder:RemoteTrafficRecorder.*",
        "repro.gpu.interconnect:PeerFabric.*",
        "repro.gpu.interconnect:PageDirectory.*",
    )),
)

#: every layer name, in report order; ``other`` is the unattributed rest
LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS)
OTHER = "other"

#: no-op protocol bases: their default hooks are not layer work
_PROTOCOLS = ("builtins.object", "repro.events.bus.Subscriber",
              "repro.gpu.hooks.DetectorHooks")

_ORIGINAL = "__perfbench_original__"


def _matches(pattern: str, name: str) -> bool:
    if name.startswith("__"):
        return False
    if name.startswith("_") and not pattern.startswith("_"):
        return False
    return fnmatch.fnmatchcase(name, pattern)


def _plain(fn: Any) -> bool:
    """A synchronous, non-generator Python function we can wrap."""
    return (inspect.isfunction(fn)
            and not inspect.isgeneratorfunction(fn)
            and not inspect.iscoroutinefunction(fn))


def resolve(target: str) -> List[Tuple[Any, str, Callable[..., Any]]]:
    """``module:pattern`` -> ``(owner, attribute, original function)``."""
    module_name, _, pattern = target.partition(":")
    module = importlib.import_module(module_name)
    found: List[Tuple[Any, str, Callable[..., Any]]] = []
    if "." in pattern:
        cls_name, _, meth_pattern = pattern.partition(".")
        cls = getattr(module, cls_name)
        names = {name for base in cls.__mro__
                 if f"{base.__module__}.{base.__qualname__}" not in _PROTOCOLS
                 for name in vars(base)}
        for name in sorted(names):
            if not _matches(meth_pattern, name):
                continue
            fn = inspect.getattr_static(cls, name)
            fn = getattr(fn, _ORIGINAL, fn)
            if _plain(fn):
                found.append((cls, name, fn))
    else:
        for name in sorted(vars(module)):
            fn = getattr(module, name)
            fn = getattr(fn, _ORIGINAL, fn)
            if (_matches(pattern, name) and _plain(fn)
                    and fn.__module__ == module.__name__):
                found.append((module, name, fn))
    if not found:
        raise LookupError(f"trace target {target!r} matched nothing")
    return found


class _ThreadState(threading.local):
    """Per-thread span stack and counters (merged when the run ends)."""

    def __init__(self) -> None:
        self.stack: List[List[int]] = []   # [span id, child ns]
        self.group = 0
        self.calls: Optional[List[int]] = None
        self.self_ns: Optional[List[int]] = None


class Tracer:
    """Records spans and per-layer counts at the :data:`LAYERS` boundaries.

    ``extra_call_layer`` is the self-test hook: every call into that
    layer is followed by one more traced call into the same layer, so
    its ``.calls`` count rises by one per event and nothing else moves.
    """

    def __init__(self, extra_call_layer: Optional[str] = None) -> None:
        if extra_call_layer is not None and \
                extra_call_layer not in LAYER_NAMES:
            raise ValueError(f"unknown layer {extra_call_layer!r}")
        self.extra_call_layer = extra_call_layer
        self.spans: List[Tuple[int, int, int, int, int, int, int]] = []
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._state = _ThreadState()
        self._counters: List[Tuple[List[int], List[int]]] = []
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any, bool]] = []

    # -- span bookkeeping ----------------------------------------------

    def _thread(self) -> _ThreadState:
        st = self._state
        if st.calls is None:
            st.calls = [0] * len(LAYER_NAMES)
            st.self_ns = [0] * len(LAYER_NAMES)
            with self._lock:
                self._counters.append((st.calls, st.self_ns))
        return st

    def set_group(self, group: int) -> None:
        """Tag every span this thread opens from now on with ``group``."""
        self._thread().group = group

    def _name(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            with self._lock:
                idx = self._name_index.setdefault(name, len(self.names))
                if idx == len(self.names):
                    self.names.append(name)
        return idx

    def wrap(self, fn: Callable[..., Any], layer: str, name: str,
             extra_call: bool = True) -> Callable[..., Any]:
        """Return a span-recording wrapper around ``fn``."""
        layer_idx = LAYER_NAMES.index(layer)
        name_idx = self._name(f"{layer}:{name}")
        thread = self._thread
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            st = thread()
            stack = st.stack
            parent = stack[-1][0] if stack else 0
            frame = [next(ids), 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st.calls[layer_idx] += 1
                st.self_ns[layer_idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.append((frame[0], parent, st.group, name_idx,
                              start, end, threading.get_ident()))

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        setattr(traced, _ORIGINAL, fn)
        if not extra_call or layer != self.extra_call_layer:
            return traced
        extra = self.wrap(_noop, layer, "extra-call", extra_call=False)

        def traced_with_extra(*args: Any, **kwargs: Any) -> Any:
            try:
                return traced(*args, **kwargs)
            finally:
                extra()

        setattr(traced_with_extra, _ORIGINAL, fn)
        return traced_with_extra

    # -- install / uninstall -------------------------------------------

    def install(self) -> "Tracer":
        """Patch every :data:`LAYERS` target; idempotent per tracer."""
        if self._patched:
            return self
        rebinds: Dict[int, Tuple[Callable[..., Any], Callable[..., Any]]] = {}
        # resolve() unwraps what it finds, so a subclass target wraps an
        # inherited method's original even after its base class is patched
        for layer, targets in LAYERS:
            for target in targets:
                for owner, attr, fn in resolve(target):
                    qual = (f"{owner.__name__}.{attr}"
                            if inspect.isclass(owner) else attr)
                    wrapped = self.wrap(fn, layer, qual)
                    in_dict = attr in vars(owner)
                    self._patched.append(
                        (owner, attr, vars(owner).get(attr), in_dict))
                    setattr(owner, attr, wrapped)
                    if not inspect.isclass(owner):
                        rebinds[id(fn)] = (fn, wrapped)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                original = getattr(value, _ORIGINAL, value)
                hit = rebinds.get(id(original))
                if hit is not None and hit[0] is original:
                    self._patched.append((module, attr, value, True))
                    setattr(module, attr, hit[1])
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order).

        Modules first imported while tracing bound wrappers by name; the
        final sweep puts their originals back too.
        """
        for owner, attr, original, in_dict in reversed(self._patched):
            if in_dict:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                original = getattr(value, _ORIGINAL, None)
                if original is not None:
                    setattr(module, attr, original)

    # -- results -------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-layer ``calls`` and ``self_s`` summed over all threads."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in LAYER_NAMES}
        with self._lock:
            counters = list(self._counters)
        for calls, self_ns in counters:
            for i, name in enumerate(LAYER_NAMES):
                out[name]["calls"] += calls[i]
                out[name]["self_s"] += self_ns[i] / 1e9
        return out

    def write_spans(self, path: str) -> int:
        """Write every span as a gzip TSV; returns the span count.

        Columns: id, parent, group, name, start_ns, end_ns, thread.
        """
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("id\tparent\tgroup\tname\tstart_ns\tend_ns\tthread\n")
            names = self.names
            for sid, parent, group, name_idx, start, end, tid in self.spans:
                fh.write(f"{sid}\t{parent}\t{group}\t{names[name_idx]}\t"
                         f"{start}\t{end}\t{tid}\n")
        return len(self.spans)


def _noop() -> None:
    return None


def _repro_modules() -> List[Any]:
    return [m for name, m in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]


#: counters that depend on how concurrent serve clients interleave
#: (polls, coalesced jobs versus cache hits): reported, never compared.
#: ``trace.spans`` counts the serve layer's spans too.
INTERLEAVING_COUNTERS = ("serve.calls", "serve.cache_hit_ratio",
                         "serve.replays", "serve.retries", "serve.rejected",
                         "serve.queue_ms", "trace.spans")


def exact_counters(record: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic subset of a traced run's per-layer metrics.

    Keeps every ``<layer>.calls`` and every model counter; drops host
    times (names ending ``_s`` or ``_ms``), the traced-time share
    ``trace.coverage`` and :data:`INTERLEAVING_COUNTERS`.
    """
    out = {}
    for name, entry in record.items():
        if name.endswith(("_s", "_ms")) or name == "trace.coverage" \
                or name in INTERLEAVING_COUNTERS:
            continue
        out[name] = entry["value"] if isinstance(entry, dict) else entry
    return out


def diff_counters(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Names whose exact value differs between two counter sets."""
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
