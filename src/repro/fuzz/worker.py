"""Campaign-engine adapter: fuzz iterations as cached, parallel jobs.

A :class:`FuzzJob` is the content-addressed spec of one iteration —
base seed, iteration index, generator parameters, and mode names. Its
record carries ``kind: "fuzz"`` so the campaign pool dispatches it to
:func:`execute_fuzz_record`, and the campaign
:class:`~repro.campaign.store.ResultStore` caches the
iteration verdicts exactly like benchmark cells: re-running a campaign
replays cached iterations instantly and a killed run resumes where it
stopped.

Per-iteration seeds are derived arithmetically (``base + index``), so a
campaign is fully determined by ``(seed, iterations, params, modes)``
and two identical invocations produce identical corpus digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign.jobs import JobSpec
from repro.fuzz.corpus import CorpusStore, corpus_digest
from repro.fuzz.generator import GeneratorParams, generate_program
from repro.fuzz.harness import ITERATION_SCHEMA, mode_by_name, run_iteration

#: results with a different fuzz schema are never served from cache
FUZZ_SCHEMA = 3


@dataclass(frozen=True)
class FuzzJob(JobSpec):
    """One content-addressed fuzz iteration."""

    kind = "fuzz"
    schemas = {"fuzz_schema": FUZZ_SCHEMA}
    result_schema = ITERATION_SCHEMA

    seed: int
    index: int
    params: GeneratorParams = GeneratorParams()
    modes: Tuple[str, ...] = ()   # empty = all default modes
    #: skip the simulator when the static analyzer proves the whole
    #: program race-free (and the generator expected no race/artifact)
    static_prefilter: bool = False

    @property
    def iteration_seed(self) -> int:
        return self.seed + self.index

    def describe(self) -> str:
        return f"fuzz[{self.index}] seed={self.iteration_seed}"


def _prefilter_record(program, report) -> Dict[str, Any]:
    """Slim iteration record for a statically-proved-safe program.

    Shape-compatible with :func:`repro.fuzz.harness.run_iteration` so
    corpus digests, label extraction, and summaries treat prefiltered
    iterations uniformly; ``modes`` is empty because no simulation ran.
    """
    return {
        "schema": ITERATION_SCHEMA,
        "hash": program.digest(),
        "note": program.note,
        "program": program.record(),
        "oracle_races": 0,
        "oracle_categories": [],
        "expected_ok": True,
        "prefiltered": True,
        "static": {"verdicts": report["verdicts"], "contradictions": [],
                   "real_bugs": 0, "prefiltered": True},
        "modes": {},
        "real_bugs": 0,
    }


def execute_fuzz_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side entry point for job kind ``fuzz``."""
    job = FuzzJob.from_record(record)
    program = generate_program(job.iteration_seed, job.params)
    if job.static_prefilter and not program.expected \
            and not program.expected_fp_labels:
        from repro.analyze import analyze_program

        report = analyze_program(program)
        verdicts = report["verdicts"]
        if not verdicts["racy"] and not verdicts["unknown"]:
            result = _prefilter_record(program, report)
            result["index"] = job.index
            result["iteration_seed"] = job.iteration_seed
            return result
    modes = ([mode_by_name(n) for n in job.modes] if job.modes
             else None)
    result = run_iteration(program, modes)
    result["index"] = job.index
    result["iteration_seed"] = job.iteration_seed
    return result


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------

@dataclass
class FuzzCampaignResult:
    """Aggregate outcome of one fuzz campaign."""

    iterations: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[Dict[str, Any]] = field(default_factory=list)
    digest: str = ""
    cache_hits: int = 0
    real_bug_hashes: List[str] = field(default_factory=list)
    minimized: Dict[str, Any] = field(default_factory=dict)

    @property
    def real_bugs(self) -> int:
        return sum(r.get("real_bugs", 0) for r in self.iterations) \
            + len(self.failures)

    def summary(self) -> Dict[str, Any]:
        fp: Dict[str, int] = {}
        fn: Dict[str, int] = {}
        notes: Dict[str, int] = {}
        per_mode: Dict[str, Dict[str, Any]] = {}
        for rec in self.iterations:
            notes[rec.get("note", "")] = notes.get(rec.get("note", ""), 0) + 1
            for name, res in rec.get("modes", {}).items():
                slot = per_mode.setdefault(
                    name, {"fp": {}, "fn": {}, "detected": 0, "oracle": 0})
                slot["detected"] += res.get("detected", 0)
                slot["oracle"] += res.get("oracle", 0)
                for lab, n in res.get("fp", {}).items():
                    slot["fp"][lab] = slot["fp"].get(lab, 0) + n
                    fp[lab] = fp.get(lab, 0) + n
                for lab, n in res.get("fn", {}).items():
                    slot["fn"][lab] = slot["fn"].get(lab, 0) + n
                    fn[lab] = fn.get(lab, 0) + n
        return {
            "schema": FUZZ_SCHEMA,
            "iterations": len(self.iterations),
            "errors": len(self.failures),
            "digest": self.digest,
            "cache_hits": self.cache_hits,
            "prefiltered": sum(1 for r in self.iterations
                               if r.get("prefiltered")),
            "static_contradictions": sum(
                len(r.get("static", {}).get("contradictions", ()))
                for r in self.iterations),
            "real_bugs": self.real_bugs,
            "real_bug_hashes": sorted(self.real_bug_hashes),
            "minimized": self.minimized,
            "fp_by_label": fp,
            "fn_by_label": fn,
            "programs_by_note": notes,
            "modes": per_mode,
        }


def run_fuzz_campaign(seed: int, iterations: int,
                      workers: int = 1,
                      params: Optional[GeneratorParams] = None,
                      modes: Sequence[str] = (),
                      cache_dir: Optional[str] = None,
                      corpus_dir: Optional[str] = None,
                      minimize: bool = False,
                      static_prefilter: bool = False,
                      timeout: Optional[float] = None,
                      progress=None) -> FuzzCampaignResult:
    """Run a budgeted differential-fuzzing campaign.

    Iterations fan out over the campaign worker pool; the campaign
    result store makes re-runs and interrupted runs resume from cache;
    the corpus store persists interesting programs, real-bug reproducer
    traces (binary format), and the aggregate summary.
    ``static_prefilter`` skips the simulator for programs the static
    analyzer proves race-free (the flag participates in job keys, so
    prefiltered and full campaigns never share cache entries).
    """
    from repro.campaign.pool import run_cached

    params = params or GeneratorParams()
    result = FuzzCampaignResult()
    records, failed, result.cache_hits = run_cached(
        (FuzzJob(seed, i, params, tuple(modes), static_prefilter)
         for i in range(iterations)),
        workers=workers, timeout=timeout, cache_dir=cache_dir,
        progress=progress)
    result.failures = [{"index": job.index,
                        "iteration_seed": job.iteration_seed,
                        "status": outcome.status, "error": outcome.error}
                       for job, outcome in failed]
    result.iterations = sorted(records, key=lambda r: r.get("index", 0))
    result.digest = corpus_digest(result.iterations)

    corpus = CorpusStore(corpus_dir) if corpus_dir else None
    for rec in result.iterations:
        has_mismatch = any(
            res.get("fp") or res.get("fn") or not res.get("parity_ok", True)
            for res in rec.get("modes", {}).values())
        buggy = bool(rec.get("real_bugs", 0))
        if buggy:
            result.real_bug_hashes.append(rec["hash"])
        if corpus is not None and (buggy or has_mismatch
                                   or rec.get("note") != "safe"):
            from repro.fuzz.program import FuzzProgram, record_program

            program = FuzzProgram.from_record(rec["program"])
            corpus.put_program(program)
            if buggy:
                corpus.put_trace(rec["hash"], record_program(program))
                if minimize:
                    from repro.fuzz.minimize import minimize_program

                    mode_objs = ([mode_by_name(n) for n in modes]
                                 if modes else None)
                    small = minimize_program(program, mode_objs)
                    result.minimized[rec["hash"]] = {
                        "stmts": len(small.stmts),
                        "digest": corpus.put_program(small),
                    }

    if corpus is not None:
        corpus.write_summary(result.summary())
    return result


__all__ = [
    "FUZZ_SCHEMA",
    "FuzzCampaignResult",
    "FuzzJob",
    "execute_fuzz_record",
    "run_fuzz_campaign",
]
