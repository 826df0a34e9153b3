"""Worker-pool fault handling: retries, crash isolation, timeouts.

The expensive parts (spawning real worker processes) are concentrated in
a handful of tests; each uses the smallest grid that exercises the path.
A "bad" job is one whose overrides name a parameter the benchmark builder
does not accept — hashable (so it reaches the worker) but guaranteed to
raise TypeError inside ``execute``.
"""

import pytest

from repro.campaign.jobs import Job
from repro.campaign.pool import ERROR, OK, TIMEOUT, WorkerPool
from repro.common.config import DetectionMode, HAccRGConfig

WORD = HAccRGConfig(mode=DetectionMode.FULL, shared_granularity=4,
                    global_granularity=4)


def _good(seed=0):
    return Job.from_call("SCAN", WORD, scale=0.1, seed=seed,
                         timing_enabled=False)


def _bad(seed=0):
    return Job.from_call("SCAN", WORD, scale=0.1, seed=seed,
                         timing_enabled=False,
                         overrides={"no_such_parameter": 1})


def _keyed(*jobs):
    return {job.key(): job for job in jobs}


class TestSerial:
    def test_success(self):
        job = _good()
        outcomes = WorkerPool(workers=1).run(_keyed(job))
        out = outcomes[job.key()]
        assert out.status == OK and out.attempts == 1
        assert out.record["name"] == "SCAN"

    def test_failure_after_n_retries(self):
        job = _bad()
        dispatches = []
        outcomes = WorkerPool(workers=1, retries=2).run(
            _keyed(job),
            on_dispatch=lambda key, wid, attempt: dispatches.append(attempt))
        out = outcomes[job.key()]
        assert out.status == ERROR
        assert out.attempts == 3  # retries=2 means three attempts
        assert dispatches == [1, 2, 3]
        assert "TypeError" in out.error

    def test_one_failure_does_not_stop_the_rest(self):
        jobs = _keyed(_bad(), _good(1), _good(2))
        outcomes = WorkerPool(workers=1, retries=0).run(jobs)
        statuses = {key: out.status for key, out in outcomes.items()}
        assert sorted(statuses.values()) == [ERROR, OK, OK]

    def test_empty_job_dict(self):
        assert WorkerPool(workers=1).run({}) == {}


@pytest.mark.slow
class TestParallel:
    def test_mixed_grid_completes_with_failures_recorded(self):
        bad = _bad()
        jobs = _keyed(bad, _good(1), _good(2), _good(3))
        pool = WorkerPool(workers=2, retries=1)
        terminal = []
        outcomes = pool.run(jobs, on_outcome=lambda o: terminal.append(o.key))
        assert len(outcomes) == 4
        assert sorted(terminal) == sorted(jobs)
        assert outcomes[bad.key()].status == ERROR
        assert outcomes[bad.key()].attempts == 2
        assert "TypeError" in outcomes[bad.key()].error
        oks = [o for o in outcomes.values() if o.key != bad.key()]
        assert all(o.status == OK for o in oks)
        assert all(o.record["name"] == "SCAN" for o in oks)
        assert len(pool.worker_busy_seconds) == 2

    def test_timeout_kills_and_reports(self):
        # the deadline starts at dispatch; 50 ms is far below worker
        # startup + import, so the job deterministically times out and
        # the supervisor must kill + respawn rather than hang
        job = _good()
        pool = WorkerPool(workers=2, timeout=0.05, retries=0)
        outcomes = pool.run(_keyed(job))
        out = outcomes[job.key()]
        assert out.status == TIMEOUT
        assert out.attempts == 1
        assert "timed out" in out.error

    def test_timeout_retry_then_terminal(self):
        job = _good()
        dispatches = []
        pool = WorkerPool(workers=2, timeout=0.05, retries=1)
        outcomes = pool.run(
            _keyed(job),
            on_dispatch=lambda key, wid, attempt: dispatches.append(attempt))
        assert outcomes[job.key()].status == TIMEOUT
        assert outcomes[job.key()].attempts == 2
        assert dispatches == [1, 2]


class _Malformed:
    """A job whose record fails ``FuzzJob.from_record`` in the worker."""

    def record(self):
        return {"schema": 1, "kind": "fuzz"}


class TestInputErrorsAreNotRetried:
    def _check(self, pool):
        dispatches = []
        outcomes = pool.run(
            {"bad": _Malformed()},
            on_dispatch=lambda key, wid, attempt: dispatches.append(attempt))
        out = outcomes["bad"]
        assert out.status == ERROR
        assert out.attempts == 1 and dispatches == [1]
        assert out.error.startswith("JobSpecError:")
        assert pool.stats["retries"] == 0

    def test_in_process(self):
        self._check(WorkerPool(workers=1, retries=2))

    @pytest.mark.slow
    def test_worker_processes(self):
        self._check(WorkerPool(workers=2, retries=2))
