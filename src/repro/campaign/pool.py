"""The job supervisor: worker processes, retries, timeouts, crash isolation.

:class:`Supervisor` is the one copy of the machinery that runs job
records (:mod:`repro.campaign.jobs`) for both the campaign engine and the
detection service:

- persistent ``spawn`` workers (spawn is fork-safe on every platform and
  never inherits simulator state); each receives one record at a time on
  a private queue and reports on a shared result queue;
- one settle rule: a failed attempt is retried up to ``retries`` times,
  except one that failed with an :class:`~repro.common.errors.InputError`
  — a malformed spec fails the same way on every attempt, so it takes
  exactly one;
- a per-job wall-clock timeout, enforced by killing and respawning the
  worker; a worker that dies (segfault, ``os._exit``, OOM-kill) fails its
  job, never the run;
- an in-process attempt loop with the same settle rule, for callers that
  run without worker processes (no timeout kill or crash isolation
  there).

Two front ends sit on it: the batch :class:`WorkerPool` below (any idle
worker takes any job; ``workers <= 1`` runs in process) and the streaming
:class:`repro.serve.scheduler.ShardedWorkerPool` (futures, shard
affinity).

Everything that crosses a process boundary is plain data: job records in,
result records out.
"""

from __future__ import annotations

import queue
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.campaign.jobs import JobSpec, execute_record
from repro.common.errors import InputError

#: outcome status values
OK = "ok"
ERROR = "error"
TIMEOUT = "timeout"
CRASHED = "crashed"

#: the supervisor's counter for each terminal status
_STAT = {OK: "completed", ERROR: "errors", TIMEOUT: "timeouts",
         CRASHED: "crashes"}


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


@dataclass
class Task:
    """One job record on its way through the supervisor."""

    key: str
    record: Dict[str, Any]
    shard: int = 0                    # backlog index (mod backlog count)
    attempts: int = 0
    future: Optional[Future] = None   # streaming front end only


#: (status, result record, error, failed with an InputError, seconds)
Attempt = Tuple[str, Optional[Dict[str, Any]], Optional[str], bool, float]


def _attempt(record: Dict[str, Any]) -> Attempt:
    """Execute one job record, catching whatever it raises."""
    start = time.perf_counter()
    try:
        result = execute_record(record)
    except Exception as exc:  # crash isolation: report, keep serving
        return (ERROR, None, f"{type(exc).__name__}: {exc}",
                isinstance(exc, InputError), time.perf_counter() - start)
    return OK, result, None, False, time.perf_counter() - start


def _worker_main(worker_id: int, task_q, result_q) -> None:
    """Worker loop: pull one job record, execute, report, repeat."""
    while True:
        item = task_q.get()
        if item is None:
            return
        key, record = item
        result_q.put((worker_id, key) + _attempt(record))


class SpawnWorker:
    """Supervisor-side handle on one spawned worker process.

    The child runs :func:`_worker_main`. A ``None`` on the task queue
    means "shut down".
    """

    def __init__(self, ctx, worker_id: int, result_q,
                 busy_seconds: float = 0.0) -> None:
        self.worker_id = worker_id
        self.task_q = ctx.SimpleQueue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.task_q, result_q),
            daemon=True,
        )
        self.process.start()
        self.current: Optional[Task] = None
        self.deadline: Optional[float] = None
        self.busy_seconds = busy_seconds
        self._started_at = 0.0

    def dispatch(self, task: Task, timeout: Optional[float]) -> None:
        self._started_at = time.monotonic()
        self.current = task
        self.deadline = self._started_at + timeout if timeout else None
        self.task_q.put((task.key, task.record))

    def finish(self) -> Task:
        """Free the worker; returns the task it was running."""
        task = self.current
        assert task is not None
        self.busy_seconds += time.monotonic() - self._started_at
        self.current = None
        self.deadline = None
        return task

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


DeliverFn = Callable[[Task, JobOutcome], None]
DispatchedFn = Callable[[Task, int], None]


class Supervisor:
    """Runs tasks in process or on spawn workers; front ends feed it.

    ``deliver(task, outcome)`` receives each task's terminal outcome;
    ``dispatched(task, worker_id)`` fires as each attempt starts. Both run
    on the thread driving the supervisor. ``stats`` counts terminal
    outcomes by status, retries, and worker respawns.
    """

    def __init__(self, timeout: Optional[float], retries: int,
                 deliver: DeliverFn,
                 dispatched: Optional[DispatchedFn] = None) -> None:
        self.timeout = timeout
        self.retries = retries
        self.deliver = deliver
        self.dispatched = dispatched
        self.stats = dict.fromkeys(
            ("completed", "errors", "timeouts", "crashes", "retries",
             "respawns"), 0)
        self.workers: List[SpawnWorker] = []
        self.inline_busy = 0.0
        self._ctx: Any = None
        self._result_q: Any = None

    # -- settle ----------------------------------------------------------

    def settle(self, task: Task, attempt: Attempt) -> bool:
        """Retry a failed attempt (returns True) or deliver the outcome."""
        status, result, error, input_error, elapsed = attempt
        if status != OK and not input_error \
                and task.attempts <= self.retries:
            self.stats["retries"] += 1
            return True
        self.conclude(task, JobOutcome(task.key, status, result, error,
                                       task.attempts, elapsed))
        return False

    def conclude(self, task: Task, outcome: JobOutcome) -> None:
        """Count and deliver a terminal outcome."""
        self.stats[_STAT[outcome.status]] += 1
        self.deliver(task, outcome)

    def _begin(self, task: Task, worker_id: int) -> None:
        task.attempts += 1
        if self.dispatched is not None:
            self.dispatched(task, worker_id)

    # -- in process --------------------------------------------------------

    def run_inline(self, task: Task) -> None:
        """Attempt ``task`` in this process until it settles."""
        while True:
            self._begin(task, 0)
            attempt = _attempt(task.record)
            self.inline_busy += attempt[4]
            if not self.settle(task, attempt):
                return

    # -- worker processes --------------------------------------------------

    def start(self, workers: int) -> None:
        """Spawn ``workers`` worker processes."""
        import multiprocessing

        self._ctx = multiprocessing.get_context("spawn")
        self._result_q = self._ctx.Queue()
        self.workers = [SpawnWorker(self._ctx, wid, self._result_q)
                        for wid in range(workers)]

    def wake(self) -> None:
        """End a :meth:`step` blocked waiting for results (thread-safe)."""
        try:
            self._result_q.put(None)
        except (OSError, ValueError):  # closed: nothing left to wake
            pass

    def step(self, backlogs: Sequence[Deque[Task]], poll: float) -> None:
        """One turn: feed idle workers, then settle one result or check
        worker health after ``poll`` seconds without one.

        Worker ``i`` takes from ``backlogs[i % len(backlogs)]``, and a
        retried task goes back to ``backlogs[task.shard % len(backlogs)]``.
        """
        for worker in self.workers:
            backlog = backlogs[worker.worker_id % len(backlogs)]
            if worker.current is None and backlog:
                task = backlog.popleft()
                worker.dispatch(task, self.timeout)
                self._begin(task, worker.worker_id)
        try:
            item = self._result_q.get(timeout=poll)
        except queue.Empty:
            self._check_health(backlogs)
            return
        if item is None:  # a wake-up
            return
        worker = self.workers[item[0]]
        if worker.current is not None and worker.current.key == item[1]:
            self._settle_into(backlogs, worker.finish(), item[2:])

    def _settle_into(self, backlogs: Sequence[Deque[Task]], task: Task,
                     attempt: Attempt) -> None:
        if self.settle(task, attempt):
            backlogs[task.shard % len(backlogs)].append(task)

    def _check_health(self, backlogs: Sequence[Deque[Task]]) -> None:
        """Kill hung workers, replace dead ones, and settle their tasks."""
        for i, worker in enumerate(self.workers):
            if worker.current is None:
                continue
            if worker.timed_out():
                attempt: Attempt = (
                    TIMEOUT, None, f"timed out after {self.timeout:.1f}s",
                    False, self.timeout or 0.0)
            elif not worker.process.is_alive():
                attempt = (CRASHED, None, "worker process died (exit code "
                           f"{worker.process.exitcode})", False, 0.0)
            else:
                continue
            task = worker.finish()
            worker.kill()
            self.workers[i] = SpawnWorker(self._ctx, i, self._result_q,
                                          worker.busy_seconds)
            self.stats["respawns"] += 1
            self._settle_into(backlogs, task, attempt)

    def busy_seconds(self) -> List[float]:
        """Seconds each worker (or the in-process loop) spent on jobs."""
        if self.workers:
            return [w.busy_seconds for w in self.workers]
        return [self.inline_busy]

    def close(self) -> List[Task]:
        """Stop every worker; returns the tasks they were still running."""
        running = [w.current for w in self.workers if w.current is not None]
        for worker in self.workers:
            worker.stop()
        self._result_q.close()
        self._result_q.join_thread()
        return running


DispatchFn = Callable[[str, int, int], None]
OutcomeFn = Callable[[JobOutcome], None]


class WorkerPool:
    """Batch front end: run a dict of jobs across N processes."""

    #: seconds between worker health checks while no result arrives
    POLL = 0.05

    def __init__(self, workers: int = 1,
                 timeout: Optional[float] = None,
                 retries: int = 1) -> None:
        self.workers = max(1, int(workers))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.worker_busy_seconds: List[float] = []
        #: the last run's :attr:`Supervisor.stats`
        self.stats: Dict[str, int] = {}

    def run(self, jobs: Mapping[str, JobSpec],
            on_dispatch: Optional[DispatchFn] = None,
            on_outcome: Optional[OutcomeFn] = None
            ) -> Dict[str, JobOutcome]:
        """Execute every job; returns final outcomes keyed by job hash.

        ``on_dispatch(key, worker_id, attempt)`` fires when an attempt
        starts (1-based); ``on_outcome`` fires once per job with its
        terminal outcome. Both run in the calling process. With one
        worker the jobs run in this process, and timeouts are not
        enforced.
        """
        if not jobs:
            return {}
        outcomes: Dict[str, JobOutcome] = {}

        def deliver(task: Task, outcome: JobOutcome) -> None:
            outcomes[outcome.key] = outcome
            if on_outcome:
                on_outcome(outcome)

        def dispatched(task: Task, worker_id: int) -> None:
            if on_dispatch:
                on_dispatch(task.key, worker_id, task.attempts)

        core = Supervisor(self.timeout, self.retries, deliver, dispatched)
        backlog = deque(Task(key, job.record()) for key, job in jobs.items())
        if self.workers == 1:
            for task in backlog:
                core.run_inline(task)
        else:
            core.start(min(self.workers, len(backlog)))
            try:
                while len(outcomes) < len(jobs):
                    core.step([backlog], self.POLL)
            finally:
                core.close()
        self.worker_busy_seconds = core.busy_seconds()
        self.stats = core.stats
        return outcomes


J = TypeVar("J", bound=JobSpec)


def run_cached(jobs: Iterable[J], workers: int = 1,
               timeout: Optional[float] = None,
               cache_dir: Optional[str] = None,
               progress: Optional[Callable[[J, JobOutcome], None]] = None
               ) -> Tuple[List[Dict[str, Any]], List[Tuple[J, JobOutcome]],
                          int]:
    """Run ``jobs`` through a :class:`ResultStore` and a :class:`WorkerPool`.

    Jobs with equal keys run once. Stored results whose ``schema``
    matches the job's ``result_schema`` are served from ``cache_dir``;
    the rest run on the pool and successes are stored. Returns
    ``(results, failures, cache_hits)``: result records (cached ones
    first), ``(job, outcome)`` for each failed job, and how many came
    from the store. ``progress(job, outcome)`` fires per executed job.
    """
    from repro.campaign.store import ResultStore

    store = ResultStore(cache_dir) if cache_dir else None
    results: List[Dict[str, Any]] = []
    failures: List[Tuple[J, JobOutcome]] = []
    to_run: Dict[str, J] = {}
    for job in {job.key(): job for job in jobs}.values():
        cached = store.get(job) if store is not None else None
        if cached is not None and cached.get("schema") == job.result_schema:
            results.append(cached)
        else:
            to_run[job.key()] = job
    hits = len(results)

    def on_outcome(outcome: JobOutcome) -> None:
        job = to_run[outcome.key]
        if outcome.record is not None:  # status ok
            results.append(outcome.record)
            if store is not None:
                store.put(job, outcome.record, outcome.elapsed)
        else:
            failures.append((job, outcome))
        if progress:
            progress(job, outcome)

    WorkerPool(workers=workers, timeout=timeout).run(
        to_run, on_outcome=on_outcome)
    return results, failures, hits
