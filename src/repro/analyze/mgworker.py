"""Multi-device static analyses as cached, parallel campaign jobs.

The multi-device twin of :mod:`repro.analyze.worker`: an
:class:`MGAnalyzeJob` names one multi-device program — a benchmark model
(``source="bench"``: a :func:`repro.analyze.benchmodels.build_mg_model`
variant) or an mg-fuzz seed (``source="mgfuzz"``) — plus whether to
differentially validate the static verdicts against the
:class:`~repro.core.groundtruth.MultiDeviceOracle` (which costs one
multi-device simulation). Records carry ``kind: "mganalyze"``, so
multi-device analyze sweeps run on the campaign pool and result store
exactly like the single-device sweeps.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.campaign.jobs import JobSpec

#: results with a different schema are never served from cache
MGANALYZE_SCHEMA = 1


@dataclass(frozen=True)
class MGAnalyzeJob(JobSpec):
    """One content-addressed multi-device static analysis."""

    kind = "mganalyze"
    schemas = {"mganalyze_schema": MGANALYZE_SCHEMA}
    result_schema = MGANALYZE_SCHEMA

    source: str = "bench"         # 'bench' | 'mgfuzz'
    bench: str = "MG_RING"
    injection: str = ""
    seed: int = 0                 #: mgfuzz iteration seed
    gpus: int = 2
    scale: float = 1.0
    validate: bool = True

    def describe(self) -> str:
        if self.source == "mgfuzz":
            return f"mganalyze[mgfuzz] seed={self.seed} x{self.gpus}"
        suffix = f"+{self.injection}" if self.injection else ""
        return f"mganalyze[{self.bench}{suffix}] x{self.gpus}"


def _check_expected(check: Dict[str, Any], expected: Any,
                    report: Dict[str, Any]) -> Dict[str, Any]:
    """Model-level FN guard: every expected category must surface racy."""
    racy_categories = {c for r in report["regions"]
                       if r["status"] == "racy"
                       for c in r["categories"]}
    missing = sorted(c for c in expected if c not in racy_categories)
    if missing:
        check["contradictions"] = list(check["contradictions"]) + [{
            "type": "expected-category-missing",
            "categories": missing,
        }]
        check["ok"] = False
    return check


def execute_mg_analyze_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side entry point for job kind ``mganalyze``."""
    from repro.analyze.multidevice import build_mg_report, mg_cross_check
    from repro.analyze.verdict import report_json

    job = MGAnalyzeJob.from_record(record)
    if job.source == "mgfuzz":
        return _execute_mgfuzz(job)
    from repro.analyze.benchmodels import build_mg_model

    program = build_mg_model(job.bench, gpus=job.gpus, scale=job.scale,
                             injection=job.injection)
    report = build_mg_report(program)
    result: Dict[str, Any] = {
        "schema": MGANALYZE_SCHEMA,
        "hash": program.digest(),
        "note": program.note,
        "source": job.source,
        "gpus": job.gpus,
        "verdicts": dict(report["verdicts"]),
        "report_sha": hashlib.sha256(
            report_json(report).encode("utf-8")).hexdigest(),
        "report": report,
    }
    if job.validate:
        from repro.multigpu.runner import run_mg_benchmark

        res = run_mg_benchmark(
            job.bench, gpus=job.gpus, scale=job.scale,
            injection=job.injection, timing_enabled=False,
            detector_config=None)
        result["validation"] = _check_expected(
            mg_cross_check(report, res.cross_races), program.expected,
            report)
    return result


def _execute_mgfuzz(job: MGAnalyzeJob) -> Dict[str, Any]:
    from repro.analyze.multidevice import build_mg_report, mg_fuzz_model
    from repro.analyze.verdict import report_json
    from repro.multigpu.fuzz import (
        MGFuzzParams,
        generate_mg_program,
        run_mg_fuzz_iteration,
    )

    params = MGFuzzParams(gpus=job.gpus)
    record = generate_mg_program(job.seed, params)
    program = mg_fuzz_model(record)
    report = build_mg_report(program)
    result: Dict[str, Any] = {
        "schema": MGANALYZE_SCHEMA,
        "hash": program.digest(),
        "note": program.note,
        "source": job.source,
        "gpus": job.gpus,
        "verdicts": dict(report["verdicts"]),
        "report_sha": hashlib.sha256(
            report_json(report).encode("utf-8")).hexdigest(),
        "report": report,
    }
    if job.validate:
        iteration = run_mg_fuzz_iteration(job.seed, params)
        static = iteration["static"]
        result["validation"] = {
            "schema": MGANALYZE_SCHEMA,
            "program": report["program"],
            "note": program.note,
            "racy_confirmed": static["racy_confirmed"],
            "race_free_clean": static["race_free_clean"],
            "unknown": static["unknown"],
            "contradictions": static["contradictions"],
            "ok": not static["contradictions"],
        }
    return result


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------


@dataclass
class MGAnalyzeCampaignResult:
    """Aggregate outcome of one multi-device analyze campaign."""

    results: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[Dict[str, Any]] = field(default_factory=list)
    cache_hits: int = 0

    @property
    def contradictions(self) -> int:
        return sum(len(r.get("validation", {}).get("contradictions", ()))
                   for r in self.results) + len(self.failures)

    def summary(self) -> Dict[str, Any]:
        from repro.analyze.multidevice import mg_validation_table

        verdicts = {"racy": 0, "unknown": 0, "race_free": 0}
        for rec in self.results:
            for k in verdicts:
                verdicts[k] += rec.get("verdicts", {}).get(k, 0)
        validated = [rec["validation"] for rec in self.results
                     if "validation" in rec]
        return {
            "schema": MGANALYZE_SCHEMA,
            "programs": len(self.results),
            "errors": len(self.failures),
            "cache_hits": self.cache_hits,
            "verdicts": verdicts,
            "contradictions": self.contradictions,
            "validation": mg_validation_table(validated),
        }


def run_mg_analyze_campaign(gpus: int = 2,
                            seed: int = 0, iterations: int = 0,
                            workers: int = 1,
                            scale: float = 1.0,
                            benchmarks: bool = True,
                            injected: bool = False,
                            validate: bool = True,
                            cache_dir: Optional[str] = None,
                            timeout: Optional[float] = None,
                            progress: Optional[Callable[..., None]] = None
                            ) -> MGAnalyzeCampaignResult:
    """Analyze the MG benchmark models and/or an mg-fuzz seed range.

    ``benchmarks`` adds the four baseline models (``MG_HALO``'s design
    race included — expected racy); ``injected`` adds every
    ``MG_INJECTION_CATALOG`` variant.
    """
    from repro.campaign.pool import run_cached

    jobs: List[MGAnalyzeJob] = []
    if benchmarks:
        from repro.analyze.benchmodels import MG_BENCHES

        jobs.extend(MGAnalyzeJob(source="bench", bench=bench, gpus=gpus,
                                 scale=scale, validate=validate)
                    for bench in MG_BENCHES)
    if injected:
        from repro.multigpu.bench import MG_INJECTION_CATALOG

        jobs.extend(MGAnalyzeJob(source="bench", bench=spec.bench,
                                 injection=spec.injection, gpus=gpus,
                                 scale=scale, validate=validate)
                    for spec in MG_INJECTION_CATALOG)
    jobs.extend(MGAnalyzeJob(source="mgfuzz", seed=seed + i, gpus=gpus,
                             validate=validate)
                for i in range(iterations))

    result = MGAnalyzeCampaignResult()
    records, failed, result.cache_hits = run_cached(
        jobs, workers=workers, timeout=timeout, cache_dir=cache_dir,
        progress=progress)
    result.failures = [{"job": job.describe(), "status": outcome.status,
                        "error": outcome.error} for job, outcome in failed]
    result.results = sorted(
        records,
        key=lambda r: (str(r.get("source", "")), str(r.get("note", ""))))
    return result


__all__ = [
    "MGANALYZE_SCHEMA",
    "MGAnalyzeCampaignResult",
    "MGAnalyzeJob",
    "execute_mg_analyze_record",
    "run_mg_analyze_campaign",
]
