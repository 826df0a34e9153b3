"""Digest-keyed verdict cache over the campaign result store.

Verdicts are cached in a :class:`repro.campaign.store.ResultStore` under
the replay job's content key — SHA-256 over ``(trace digest, backend,
config digest, program)``. Repeat submissions of a trace the service has
already judged are served straight from disk, no worker replay; the
store's corruption semantics carry over (a bad entry is evicted and the
job recomputes).

``get_by_key`` serves ``GET /verdicts/{digest}`` lookups where only the
key is known; it applies the same validation as the keyed read.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro.campaign.store import ResultStore
from repro.serve.backends import verdict_bytes
from repro.serve.worker import ReplayJob


class VerdictCache:
    """Content-addressed verdict records keyed by replay-job hash."""

    def __init__(self, root: os.PathLike | str) -> None:
        self.store = ResultStore(root)

    # ------------------------------------------------------------------

    def get(self, job: ReplayJob) -> Optional[Dict[str, Any]]:
        return self.store.get(job)

    def put(self, job: ReplayJob, verdict: Dict[str, Any],
            elapsed: Optional[float] = None) -> None:
        self.store.put(job, verdict, elapsed=elapsed)

    def get_by_key(self, key: str) -> Optional[Dict[str, Any]]:
        """Lookup by bare verdict key (the public /verdicts/{digest})."""
        return self.store.lookup(key, ReplayJob.header())

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The canonical wire bytes of a cached verdict, or None."""
        record = self.get_by_key(key)
        return verdict_bytes(record) if record is not None else None

    def stats(self) -> Dict[str, int]:
        return self.store.stats()

    def __len__(self) -> int:
        return len(self.store)
