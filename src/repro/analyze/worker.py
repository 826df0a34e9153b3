"""Campaign-engine adapter: static analyses as cached, parallel jobs.

An :class:`AnalyzeJob` names one program to analyze — either a fuzz
seed (``source="fuzz"``: the program `generate_program` derives from
``seed + index``) or a benchmark model (``source="bench"``: a
:mod:`repro.analyze.benchmodels` variant) — plus whether to
differentially validate the verdicts against the ground-truth oracle
(which costs one simulator run). Records carry ``kind: "analyze"``, so
analyze sweeps run on the campaign pool and result store like any other
job kind.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.campaign.jobs import JobSpec
from repro.fuzz.generator import GeneratorParams

if TYPE_CHECKING:
    from repro.fuzz.program import FuzzProgram

#: results with a different analyze schema are never served from cache
ANALYZE_SCHEMA = 1


@dataclass(frozen=True)
class AnalyzeJob(JobSpec):
    """One content-addressed static analysis."""

    kind = "analyze"
    schemas = {"analyze_schema": ANALYZE_SCHEMA}
    result_schema = ANALYZE_SCHEMA

    source: str = "fuzz"          # 'fuzz' | 'bench'
    seed: int = 0
    index: int = 0
    params: GeneratorParams = GeneratorParams()
    bench: str = ""
    omit: Tuple[str, ...] = ()
    emit: Tuple[str, ...] = ()
    validate: bool = True

    @property
    def iteration_seed(self) -> int:
        return self.seed + self.index

    def describe(self) -> str:
        if self.source == "bench":
            tag = ",".join(self.omit + self.emit) or "safe"
            return f"analyze[{self.bench}:{tag}]"
        return f"analyze[{self.index}] seed={self.iteration_seed}"

    def program(self) -> "FuzzProgram":
        if self.source == "bench":
            from repro.analyze.benchmodels import build_model

            return build_model(self.bench, omit=self.omit, emit=self.emit)
        from repro.fuzz.generator import generate_program

        return generate_program(self.iteration_seed, self.params)


def execute_analyze_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side entry point for job kind ``analyze``."""
    from repro.analyze.validate import cross_check
    from repro.analyze.verdict import analyze_program, report_json

    job = AnalyzeJob.from_record(record)
    program = job.program()
    report = analyze_program(program)
    result: Dict[str, Any] = {
        "schema": ANALYZE_SCHEMA,
        "hash": program.digest(),
        "note": program.note,
        "index": job.index,
        "source": job.source,
        "verdicts": report["verdicts"],
        "report_sha": hashlib.sha256(
            report_json(report).encode("utf-8")).hexdigest(),
        "report": report,
    }
    if job.validate:
        from repro.core.groundtruth import oracle_races
        from repro.fuzz.program import record_program

        races = oracle_races(record_program(program))
        result["validation"] = cross_check(report, races)
    return result


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------

@dataclass
class AnalyzeCampaignResult:
    """Aggregate outcome of one analyze campaign."""

    results: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[Dict[str, Any]] = field(default_factory=list)
    cache_hits: int = 0

    @property
    def contradictions(self) -> int:
        return sum(len(r.get("validation", {}).get("contradictions", ()))
                   for r in self.results) + len(self.failures)

    def summary(self) -> Dict[str, Any]:
        from repro.analyze.validate import validation_table

        verdicts = {"racy": 0, "unknown": 0, "race_free": 0}
        for rec in self.results:
            for k in verdicts:
                verdicts[k] += rec.get("verdicts", {}).get(k, 0)
        validated = [rec["validation"] for rec in self.results
                     if "validation" in rec]
        return {
            "schema": ANALYZE_SCHEMA,
            "programs": len(self.results),
            "errors": len(self.failures),
            "cache_hits": self.cache_hits,
            "verdicts": verdicts,
            "contradictions": self.contradictions,
            "validation": validation_table(validated),
        }


def run_analyze_campaign(seed: int = 0, iterations: int = 0,
                         workers: int = 1,
                         params: Optional[GeneratorParams] = None,
                         benchmarks: bool = False,
                         injected: bool = False,
                         validate: bool = True,
                         cache_dir: Optional[str] = None,
                         timeout: Optional[float] = None,
                         progress: Optional[Callable[..., None]] = None
                         ) -> AnalyzeCampaignResult:
    """Analyze a fuzz-seed range and/or the benchmark models.

    ``benchmarks`` adds the ten race-free baseline models; ``injected``
    adds every distinct injected variant of the 41-spec catalog.
    """
    from repro.campaign.pool import run_cached

    params = params or GeneratorParams()
    jobs: List[AnalyzeJob] = [
        AnalyzeJob(source="fuzz", seed=seed, index=i, params=params,
                   validate=validate)
        for i in range(iterations)]
    if benchmarks:
        from repro.analyze.benchmodels import BENCHES

        jobs.extend(AnalyzeJob(source="bench", bench=bench,
                               validate=validate) for bench in BENCHES)
    if injected:
        from repro.bench.injection import INJECTION_CATALOG

        jobs.extend(AnalyzeJob(source="bench", bench=spec.bench,
                               omit=spec.omit, emit=spec.emit,
                               validate=validate)
                    for spec in INJECTION_CATALOG)

    result = AnalyzeCampaignResult()
    records, failed, result.cache_hits = run_cached(
        jobs, workers=workers, timeout=timeout, cache_dir=cache_dir,
        progress=progress)
    result.failures = [{"job": job.describe(), "status": outcome.status,
                        "error": outcome.error} for job, outcome in failed]
    result.results = sorted(
        records, key=lambda r: (r.get("source", ""), r.get("index", 0),
                                r.get("note", "")))
    return result


__all__ = [
    "ANALYZE_SCHEMA",
    "AnalyzeCampaignResult",
    "AnalyzeJob",
    "execute_analyze_record",
    "run_analyze_campaign",
]
