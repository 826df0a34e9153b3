"""Multiprocessing worker pool for campaign jobs.

Workers are persistent ``spawn`` processes (spawn is fork-safe on every
platform and never inherits simulator state); each receives one job at a
time on a private queue and reports outcomes on a shared result queue.
The supervisor enforces a per-job wall-clock timeout by terminating the
worker and respawning a replacement, retries transient failures a bounded
number of times, and treats a crashed worker (segfault, ``os._exit``,
OOM-kill) as a job failure rather than a campaign failure — one bad cell
never kills the run.

``workers <= 1`` (or an unusable multiprocessing platform) degrades to a
serial in-process loop with the same retry semantics; per-job timeouts
are not enforceable without a second process and are ignored there.

Everything that crosses a process boundary is plain data: job records in,
result records out (see :mod:`repro.campaign.jobs`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.campaign.jobs import Job, execute_record

#: outcome status values
OK = "ok"
ERROR = "error"
TIMEOUT = "timeout"
CRASHED = "crashed"


@dataclass
class JobOutcome:
    """Terminal result of one job after all retries."""

    key: str
    status: str                       # ok | error | timeout | crashed
    record: Optional[Dict[str, Any]]  # result record when status == ok
    error: Optional[str]
    attempts: int
    elapsed: float                    # last attempt's wall-clock seconds

    @property
    def ok(self) -> bool:
        return self.status == OK


DispatchFn = Callable[[str, int, int], None]
OutcomeFn = Callable[[JobOutcome], None]


def _worker_main(worker_id: int, task_q, result_q) -> None:
    """Worker loop: pull one job record, execute, report, repeat."""
    while True:
        item = task_q.get()
        if item is None:
            return
        key, job_record = item
        start = time.perf_counter()
        try:
            record = execute_record(job_record)
            result_q.put((worker_id, key, OK, record, None,
                          time.perf_counter() - start))
        except Exception as exc:  # crash isolation: report, keep serving
            result_q.put((worker_id, key, ERROR, None,
                          f"{type(exc).__name__}: {exc}",
                          time.perf_counter() - start))


class SpawnWorker:
    """Supervisor-side handle on one spawned worker process.

    The child runs :func:`_worker_main`. A ``None`` on the task queue
    means "shut down".
    """

    def __init__(self, ctx, worker_id: int, result_q) -> None:
        self.ctx = ctx
        self.worker_id = worker_id
        self.result_q = result_q
        self.task_q = ctx.SimpleQueue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.task_q, result_q),
            daemon=True,
        )
        self.process.start()
        self.current: Optional[str] = None    # key being executed
        self.deadline: Optional[float] = None
        self.busy_seconds = 0.0
        self._started_at: Optional[float] = None

    def dispatch(self, key: str, job_record: Dict[str, Any],
                 timeout: Optional[float]) -> None:
        now = time.monotonic()
        self.current = key
        self._started_at = now
        self.deadline = now + timeout if timeout else None
        self.task_q.put((key, job_record))

    def finish(self) -> None:
        if self._started_at is not None:
            self.busy_seconds += time.monotonic() - self._started_at
        self.current = None
        self.deadline = None
        self._started_at = None

    def timed_out(self) -> bool:
        return (self.deadline is not None
                and time.monotonic() > self.deadline)

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5)

    def stop(self) -> None:
        """Graceful shutdown: sentinel, short join, then terminate."""
        try:
            self.task_q.put(None)
        except (OSError, ValueError):
            pass
        self.process.join(timeout=2)
        self.kill()


class WorkerPool:
    """Run jobs across N processes with timeout + retry + crash isolation."""

    def __init__(self, workers: int = 1,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 start_method: str = "spawn") -> None:
        self.workers = max(1, int(workers))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.start_method = start_method
        self.worker_busy_seconds: List[float] = []

    # ------------------------------------------------------------------

    def run(self, jobs: Dict[str, Job],
            on_dispatch: Optional[DispatchFn] = None,
            on_outcome: Optional[OutcomeFn] = None
            ) -> Dict[str, JobOutcome]:
        """Execute every job; returns final outcomes keyed by job hash.

        ``on_dispatch(key, worker_id, attempt)`` fires when a job starts
        (attempt is 1-based); ``on_outcome`` fires once per job with its
        terminal outcome. Both run in the supervisor process.
        """
        if not jobs:
            return {}
        if self.workers == 1 or not self._mp_usable():
            return self._run_serial(jobs, on_dispatch, on_outcome)
        return self._run_parallel(jobs, on_dispatch, on_outcome)

    # ------------------------------------------------------------------
    # serial fallback

    def _run_serial(self, jobs: Dict[str, Job],
                    on_dispatch: Optional[DispatchFn],
                    on_outcome: Optional[OutcomeFn]
                    ) -> Dict[str, JobOutcome]:
        outcomes: Dict[str, JobOutcome] = {}
        busy = 0.0
        for key, job in jobs.items():
            attempts = 0
            while True:
                attempts += 1
                if on_dispatch:
                    on_dispatch(key, 0, attempts)
                start = time.perf_counter()
                try:
                    record = execute_record(job.record())
                    elapsed = time.perf_counter() - start
                    busy += elapsed
                    outcome = JobOutcome(key, OK, record, None, attempts,
                                         elapsed)
                    break
                except Exception as exc:
                    elapsed = time.perf_counter() - start
                    busy += elapsed
                    if attempts > self.retries:
                        outcome = JobOutcome(
                            key, ERROR, None,
                            f"{type(exc).__name__}: {exc}", attempts,
                            elapsed)
                        break
            outcomes[key] = outcome
            if on_outcome:
                on_outcome(outcome)
        self.worker_busy_seconds = [busy]
        return outcomes

    # ------------------------------------------------------------------
    # parallel path

    @staticmethod
    def _mp_usable() -> bool:
        try:
            import multiprocessing
            multiprocessing.get_context("spawn")
            return True
        except (ImportError, ValueError):  # pragma: no cover - exotic OS
            return False

    def _run_parallel(self, jobs: Dict[str, Job],
                      on_dispatch: Optional[DispatchFn],
                      on_outcome: Optional[OutcomeFn]
                      ) -> Dict[str, JobOutcome]:
        import multiprocessing
        import queue as queue_mod

        ctx = multiprocessing.get_context(self.start_method)
        result_q = ctx.Queue()
        records = {key: job.record() for key, job in jobs.items()}
        attempts: Dict[str, int] = {key: 0 for key in jobs}
        pending: List[str] = list(jobs)
        outcomes: Dict[str, JobOutcome] = {}
        n_workers = min(self.workers, len(jobs))
        pool: List[SpawnWorker] = [
            SpawnWorker(ctx, wid, result_q) for wid in range(n_workers)
        ]

        def dispatch_to(worker: SpawnWorker) -> None:
            key = pending.pop(0)
            attempts[key] += 1
            worker.dispatch(key, records[key], self.timeout)
            if on_dispatch:
                on_dispatch(key, worker.worker_id, attempts[key])

        def settle(key: str, status: str, record, error: str,
                   elapsed: float) -> None:
            """Retry a failed attempt or record the terminal outcome."""
            if status != OK and attempts[key] <= self.retries:
                pending.append(key)
                return
            outcome = JobOutcome(key, status, record, error,
                                 attempts[key], elapsed)
            outcomes[key] = outcome
            if on_outcome:
                on_outcome(outcome)

        try:
            while len(outcomes) < len(jobs):
                for worker in pool:
                    if worker.current is None and pending:
                        dispatch_to(worker)

                try:
                    wid, key, status, record, error, elapsed = \
                        result_q.get(timeout=0.05)
                except queue_mod.Empty:
                    pass
                else:
                    worker = next(w for w in pool if w.worker_id == wid)
                    if worker.current == key:
                        worker.finish()
                        settle(key, status, record, error, elapsed)
                    continue  # drain results before health checks

                # health checks: hung or dead workers
                for i, worker in enumerate(pool):
                    if worker.current is None:
                        continue
                    key = worker.current
                    if worker.timed_out():
                        worker.finish()
                        worker.kill()
                        pool[i] = self._respawn(ctx, worker, result_q)
                        settle(key, TIMEOUT, None,
                               f"timed out after {self.timeout:.1f}s",
                               self.timeout or 0.0)
                    elif not worker.process.is_alive():
                        worker.finish()
                        worker.kill()
                        pool[i] = self._respawn(ctx, worker, result_q)
                        settle(key, CRASHED, None,
                               "worker process died "
                               f"(exit code {worker.process.exitcode})",
                               0.0)
        finally:
            self.worker_busy_seconds = [w.busy_seconds for w in pool]
            for worker in pool:
                worker.stop()
            result_q.close()
            result_q.join_thread()
        return outcomes

    def _respawn(self, ctx, dead: SpawnWorker, result_q) -> SpawnWorker:
        replacement = SpawnWorker(ctx, dead.worker_id, result_q)
        replacement.busy_seconds = dead.busy_seconds
        return replacement
