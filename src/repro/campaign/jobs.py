"""Content-addressed job specifications.

Every unit of work the campaign engine or the detection service runs is a
frozen :class:`JobSpec`: plain data with one canonical JSON ``record()``
whose SHA-256 hash is its ``key()`` — stable across processes, Python
versions and dict insertion orders. The key addresses the on-disk result
store (:mod:`repro.campaign.store`): two invocations that would compute
identically share one cache entry.

A record is a header (``schema``, the ``kind`` that picks the worker-side
executor, and per-kind ``*_schema`` versions) followed by the spec's
fields: tuples as lists, enums by name, nested dataclasses as their own
records. :meth:`JobSpec.from_record` checks the header and every field's
type against the dataclass annotations, so a malformed record raises
:class:`JobSpecError` before any work starts.

:class:`Job` is the benchmark cell — one ``run_benchmark`` call — with
these canonicalization rules:

- ``gpu_config=None`` resolves to :func:`scaled_gpu_config` *before*
  hashing, so the key pins the actual hardware parameters rather than a
  default that could drift;
- a detector config in mode OFF collapses to ``None`` (``run_benchmark``
  treats them identically);
- injection sites and override keys are sorted.

``JOB_SCHEMA`` is part of the hashed payload — bump it whenever the
simulator's observable behaviour changes in a way that invalidates old
cached results.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import typing
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Optional, Tuple, Type, TypeVar

from repro.bench.common import Injection, NO_INJECTION
from repro.common.config import (
    DetectionMode,
    GPUConfig,
    HAccRGConfig,
    scaled_gpu_config,
)
from repro.common.errors import ConfigError, ReproError

#: bump to invalidate every previously cached result
JOB_SCHEMA = 1

_JSON_PRIMITIVES = (str, int, float, bool, type(None))


class JobSpecError(ConfigError):
    """A job record or argument is malformed or cannot be serialized."""


# ---------------------------------------------------------------------------
# canonical encoding
# ---------------------------------------------------------------------------

def _encode(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if hasattr(value, "record"):
        return value.record()
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return value


@functools.lru_cache(maxsize=None)
def _hints(cls: type) -> Dict[str, Any]:
    return typing.get_type_hints(cls)


def _decode(tp: Any, value: Any, where: str) -> Any:
    """``value`` from a JSON record as an instance of annotation ``tp``."""
    origin = typing.get_origin(tp)
    if origin is typing.Union:        # Optional[X]
        if value is None:
            return None
        (inner,) = [a for a in typing.get_args(tp) if a is not type(None)]
        return _decode(inner, value, where)
    if origin is tuple:
        args = typing.get_args(tp)
        if isinstance(value, list):
            if len(args) == 2 and args[1] is Ellipsis:
                return tuple(_decode(args[0], v, where) for v in value)
            if len(value) == len(args):
                return tuple(_decode(a, v, where)
                             for a, v in zip(args, value))
    elif tp is Any:
        if isinstance(value, _JSON_PRIMITIVES):
            return value
    elif tp is bool or tp is str:
        if isinstance(value, tp):
            return value
    elif tp is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif tp is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:
                pass
    elif isinstance(tp, type) and issubclass(tp, enum.Enum):
        if isinstance(value, str) and value in tp.__members__:
            return tp[value]
    elif dataclasses.is_dataclass(tp) and isinstance(value, dict):
        return _build(tp, value, where)
    raise JobSpecError(f"{where}: expected {getattr(tp, '__name__', tp)}, "
                       f"got {value!r}")


def _build(cls: type, record: Dict[str, Any], where: str) -> Any:
    """Construct dataclass ``cls`` from the record's typed fields."""
    hints = _hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in record:
            raise JobSpecError(f"{where}: missing field {f.name!r}")
        kwargs[f.name] = _decode(hints[f.name], record[f.name],
                                 f"{where}.{f.name}")
    try:
        return cls(**kwargs)
    except JobSpecError:
        raise
    except (ReproError, ArithmeticError, TypeError, ValueError) as exc:
        # the constructor's own validation rejected the fields
        raise JobSpecError(f"{where}: {type(exc).__name__}: {exc}") \
            from exc


# ---------------------------------------------------------------------------
# the spec base
# ---------------------------------------------------------------------------

S = TypeVar("S", bound="JobSpec")


@dataclass(frozen=True)
class JobSpec:
    """Base of every job kind: canonical record, content key, parser."""

    #: the record's ``kind``, the executor lookup key in
    #: :data:`JOB_EXECUTORS` (benchmark records predate the field and
    #: omit it)
    kind: ClassVar[str] = "bench"
    #: the record's ``schema`` header
    schema: ClassVar[int] = JOB_SCHEMA
    #: per-kind schema versions carried in the header
    schemas: ClassVar[Dict[str, int]] = {}
    #: stored results whose own ``schema`` differs are never served
    result_schema: ClassVar[Optional[int]] = None

    @classmethod
    def header(cls) -> Dict[str, Any]:
        head: Dict[str, Any] = {"schema": cls.schema}
        if cls.kind != "bench":
            head["kind"] = cls.kind
        head.update(cls.schemas)
        return head

    def record(self) -> Dict[str, Any]:
        """The canonical, JSON-safe form (what gets hashed and stored)."""
        rec = self.header()
        for f in dataclasses.fields(self):
            rec[f.name] = _encode(getattr(self, f.name))
        return rec

    def key(self) -> str:
        """Stable content hash of the canonical form."""
        payload = json.dumps(self.record(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @classmethod
    def from_record(cls: Type[S], record: Any) -> S:
        """Rebuild a spec from its canonical form (worker-side)."""
        if not isinstance(record, dict):
            raise JobSpecError(f"a {cls.kind} job record must be an object")
        head = cls.header()
        got = {k: record.get(k) for k in head}
        if any(type(got[k]) is not type(v) or got[k] != v
               for k, v in head.items()):
            raise JobSpecError(f"not a {cls.kind} job record: header "
                               f"{got} != {head}")
        return _build(cls, record, cls.kind)


# ---------------------------------------------------------------------------
# benchmark cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Job(JobSpec):
    """One canonicalized ``run_benchmark`` cell.

    Its record nests the injection sites (``{"omit", "emit"}``) and
    writes the overrides as an object.
    """

    bench: str
    detector: Optional[HAccRGConfig]
    gpu: GPUConfig
    scale: float
    seed: int
    omit: Tuple[str, ...]
    emit: Tuple[str, ...]
    timing_enabled: bool
    verify: bool
    overrides: Tuple[Tuple[str, Any], ...]

    @classmethod
    def from_call(cls, name: str,
                  detector_config: Optional[HAccRGConfig] = None,
                  gpu_config: Optional[GPUConfig] = None,
                  scale: float = 1.0,
                  seed: int = 0,
                  injection: Injection = NO_INJECTION,
                  timing_enabled: bool = True,
                  verify: bool = False,
                  overrides: Optional[Dict[str, Any]] = None) -> "Job":
        """Canonicalize the arguments of one ``run_benchmark`` call."""
        overrides = overrides or {}
        for key, value in overrides.items():
            if not isinstance(value, _JSON_PRIMITIVES):
                raise JobSpecError(
                    f"override {key!r} has non-JSON value {value!r}; "
                    f"campaign jobs only accept primitive overrides")
        if detector_config is not None and \
                detector_config.mode == DetectionMode.OFF:
            detector_config = None
        return cls(
            bench=name.upper(),
            detector=detector_config,
            gpu=gpu_config or scaled_gpu_config(),
            scale=float(scale),
            seed=int(seed),
            omit=injection.omit_sites,
            emit=injection.emit_sites,
            timing_enabled=bool(timing_enabled),
            verify=bool(verify),
            overrides=tuple(sorted(overrides.items())),
        )

    def record(self) -> Dict[str, Any]:
        rec = super().record()
        rec["injection"] = {"omit": rec.pop("omit"), "emit": rec.pop("emit")}
        rec["overrides"] = dict(self.overrides)
        return rec

    @classmethod
    def from_record(cls, record: Any) -> "Job":
        if not isinstance(record, dict) \
                or not isinstance(record.get("injection"), dict) \
                or not isinstance(record.get("overrides"), dict):
            raise JobSpecError("a bench job record needs 'injection' and "
                               "'overrides' objects")
        flat = {k: v for k, v in record.items()
                if k not in ("injection", "omit", "emit")}
        flat.update((k, v) for k, v in record["injection"].items()
                    if k in ("omit", "emit"))
        flat["overrides"] = [list(kv)
                             for kv in sorted(record["overrides"].items())]
        return super().from_record(flat)

    # ------------------------------------------------------------------
    # execution

    def run_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for ``run_benchmark_direct``."""
        kwargs: Dict[str, Any] = {
            "detector_config": self.detector,
            "gpu_config": self.gpu,
            "scale": self.scale,
            "seed": self.seed,
            "injection": Injection(omit=self.omit, emit=self.emit),
            "timing_enabled": self.timing_enabled,
            "verify": self.verify,
        }
        kwargs.update(dict(self.overrides))
        return kwargs

    def describe(self) -> str:
        """Short human-readable cell description for progress lines."""
        mode = self.detector.mode.name.lower() if self.detector else "off"
        extras = []
        if self.omit or self.emit:
            extras.append("inject=" + ",".join(self.omit + self.emit))
        if self.overrides:
            extras.append(",".join(f"{k}={v}" for k, v in self.overrides))
        suffix = (" [" + " ".join(extras) + "]") if extras else ""
        return f"{self.bench}/{mode}{suffix}"


def execute(job: Job) -> Dict[str, Any]:
    """Run one job to completion and return its lossless result record.

    This is what pool workers call: everything in, everything out is
    plain data, so it crosses ``spawn`` process boundaries without
    pickling simulator state.
    """
    from repro.harness.export import run_result_record
    from repro.harness.runner import run_benchmark_direct

    res = run_benchmark_direct(job.bench, **job.run_kwargs())
    return run_result_record(res)


def execute_bench_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side entry point for benchmark jobs (the default kind)."""
    return execute(Job.from_record(record))


# ---------------------------------------------------------------------------
# job-kind registry
#
# The pool executes *records*, not spec instances, so any subsystem rides
# the same workers/cache/retry machinery by contributing a JobSpec
# subclass and an executor for its ``kind``. Targets are
# "module:function" strings imported lazily so the supervisor process
# never pays for subsystems a campaign doesn't use.

JOB_EXECUTORS: Dict[str, str] = {
    "bench": "repro.campaign.jobs:execute_bench_record",
    "fuzz": "repro.fuzz.worker:execute_fuzz_record",
    "analyze": "repro.analyze.worker:execute_analyze_record",
    "replay": "repro.serve.worker:execute_replay_record",
    "multigpu": "repro.multigpu.runner:execute_mg_record",
    "mganalyze": "repro.analyze.mgworker:execute_mg_analyze_record",
}


def _load_env_executors() -> None:
    """Pick up out-of-tree job kinds from ``REPRO_JOB_EXECUTORS``.

    Spawn workers import this module fresh, so only the environment
    reaches them. Format: ``kind=module:function[,kind=module:function]``.
    """
    import os

    for part in os.environ.get("REPRO_JOB_EXECUTORS", "").split(","):
        kind, _, target = part.strip().partition("=")
        if kind and ":" in target:
            JOB_EXECUTORS[kind] = target


_load_env_executors()


def execute_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one job record, dispatching on its ``kind`` field."""
    import importlib

    kind = record.get("kind", "bench")
    try:
        target = JOB_EXECUTORS[kind]
    except (KeyError, TypeError):
        raise JobSpecError(f"no executor registered for job kind "
                           f"{kind!r}") from None
    mod_name, fn_name = target.split(":", 1)
    fn = getattr(importlib.import_module(mod_name), fn_name)
    return fn(record)
