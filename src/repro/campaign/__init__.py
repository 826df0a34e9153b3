"""Parallel experiment-campaign engine.

Turns the one-shot experiment harness into an orchestration layer:

- :mod:`~repro.campaign.jobs` — content-addressed job specs (the
  :class:`~repro.campaign.jobs.JobSpec` base; one canonical hash per
  cell);
- :mod:`~repro.campaign.store` — on-disk result store keyed by job hash
  (every re-run of a known cell is a cache hit);
- :mod:`~repro.campaign.queue` — resumable pending/running/done/failed
  campaign state that survives Ctrl-C;
- :mod:`~repro.campaign.pool` — the job supervisor: spawn-safe worker
  processes with per-job timeout, bounded retry, and crash isolation;
- :mod:`~repro.campaign.progress` — live progress lines + structured
  JSON campaign report;
- :mod:`~repro.campaign.campaigns` — declarative grids covering the
  paper's experiment index;
- :mod:`~repro.campaign.engine` — the driver tying it together, plus
  the :func:`~repro.campaign.engine.session` context manager that makes
  any ``run_benchmark`` caller cache-transparent.

See ``docs/CAMPAIGNS.md`` for the architecture and cache-key definition.
"""

from repro.campaign.campaigns import CAMPAIGNS, Campaign, get_campaign
from repro.campaign.engine import (
    CampaignInterrupted,
    CampaignRun,
    CampaignSession,
    run_campaign,
    session,
)
from repro.campaign.jobs import (
    JOB_SCHEMA,
    Job,
    JobSpec,
    JobSpecError,
    execute,
)
from repro.campaign.pool import JobOutcome, WorkerPool
from repro.campaign.progress import ProgressReporter
from repro.campaign.queue import CampaignState, JobState
from repro.campaign.store import ResultStore

__all__ = [
    "CAMPAIGNS",
    "Campaign",
    "CampaignInterrupted",
    "CampaignRun",
    "CampaignSession",
    "CampaignState",
    "JOB_SCHEMA",
    "Job",
    "JobOutcome",
    "JobSpec",
    "JobSpecError",
    "JobState",
    "ProgressReporter",
    "ResultStore",
    "WorkerPool",
    "execute",
    "get_campaign",
    "run_campaign",
    "session",
]
