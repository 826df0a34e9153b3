"""Worker-side execution of service replay jobs.

A :class:`ReplayJob` is the service's unit of work: replay one stored
trace through one backend. Like every campaign job kind it is plain
data with a canonical ``record()`` and a content-hash ``key()`` — the
key is the verdict-cache key, so a job's identity *is* its verdict's
identity: ``(trace digest, backend, config digest, program)``. The
trace's on-disk path rides along in the record (workers are separate
``spawn`` processes and need to find the bytes) but never participates
in the hash — keys are host-independent.

``execute_replay_record`` is registered under job kind ``"replay"`` in
:data:`repro.campaign.jobs.JOB_EXECUTORS`, so service jobs run on the
same supervisor core (timeout, retry, crash isolation) as campaign
cells.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from repro.campaign.jobs import JobSpec, JobSpecError
from repro.common.errors import TraceFormatError
from repro.serve.backends import (
    canonical_json,
    get_backend,
    verdict_key,
    verdict_record,
)

REPLAY_JOB_SCHEMA = 1


@dataclass(frozen=True)
class ReplayJob(JobSpec):
    """One (trace, backend[, program]) replay request."""

    kind = "replay"
    schema = REPLAY_JOB_SCHEMA

    trace: str                               # content digest of the trace
    backend: str                             # resolved backend name
    trace_path: str                          # where the worker reads bytes
    program: Optional[str] = None            # canonical JSON program record

    def __post_init__(self) -> None:
        # fail at construction, not in key(): the backend must exist and
        # the program must be a JSON object
        get_backend(self.backend)
        if not isinstance(self.program_record(), (dict, type(None))):
            raise JobSpecError("a replay job's program must be an object")

    @classmethod
    def create(cls, trace_digest: str, backend_name: str,
               trace_path: os.PathLike | str,
               program_record: Optional[Dict[str, Any]] = None
               ) -> "ReplayJob":
        return cls(
            trace=trace_digest,
            backend=get_backend(backend_name).name,
            trace_path=str(trace_path),
            program=(canonical_json(program_record)
                     if program_record is not None else None),
        )

    def program_record(self) -> Optional[Dict[str, Any]]:
        return json.loads(self.program) if self.program is not None else None

    def key(self) -> str:
        """The verdict-cache key (trace_path intentionally excluded)."""
        return verdict_key(self.trace, get_backend(self.backend),
                           self.program_record())

    def describe(self) -> str:
        return f"{self.backend}@{self.trace[:12]}"


def execute_replay_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side entry point for job kind ``replay``.

    Reads the trace bytes, verifies they still hash to the requested
    digest (a corrupted store must surface as an error, not a wrong
    verdict), replays, and returns the canonical verdict record.
    """
    from repro.harness.trace import parse_trace
    from repro.serve.backends import trace_digest as digest_of

    job = ReplayJob.from_record(record)
    try:
        data = Path(job.trace_path).read_bytes()
    except OSError as exc:
        raise TraceFormatError(f"trace file unreadable: {exc}") from exc
    events = parse_trace(data)
    actual = digest_of(events)
    if actual != job.trace:
        raise TraceFormatError(
            f"stored trace digest mismatch: expected {job.trace[:12]} "
            f"got {actual[:12]} (corrupted store entry)")
    return verdict_record(job.trace, get_backend(job.backend), events,
                          job.program_record())
