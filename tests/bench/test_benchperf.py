"""bench-perf: perf cells, record validation, and the canonical BENCH file."""

import json

import pytest

from repro.campaign.jobs import JobSpecError
from repro.harness.benchperf import (
    BENCH_FILENAME,
    BENCH_NAME,
    PERF_SCHEMA,
    PerfJob,
    PerfSpecError,
    bench_path,
    measure,
    render_summary,
    repo_root,
    validate_bench_file,
    validate_bench_record,
    write_bench_file,
)


class TestPerfJob:
    def test_record_round_trips_and_keys_are_stable(self):
        job = PerfJob("replay", bench="SCAN", scale=0.1,
                      backend="oracle", repeats=2)
        assert PerfJob.from_record(job.record()) == job
        assert job.key() == PerfJob.from_record(job.record()).key()

    def test_distinct_cells_get_distinct_keys(self):
        keys = {PerfJob("simulate", bench="SCAN", scale=0.1).key(),
                PerfJob("simulate", bench="SCAN", scale=0.2).key(),
                PerfJob("fuzz", seed=1).key(),
                PerfJob("replay", bench="SCAN", scale=0.1,
                        backend="oracle").key()}
        assert len(keys) == 4

    def test_unknown_metric_rejected(self):
        with pytest.raises(PerfSpecError, match="unknown perf metric"):
            PerfJob("warp-speed")

    def test_schema_mismatch_rejected(self):
        record = PerfJob("fuzz").record()
        record["schema"] = PERF_SCHEMA + 1
        with pytest.raises(JobSpecError, match="schema"):
            PerfJob.from_record(record)


class TestExecution:
    def test_simulate_measures_events_per_sec(self):
        out = measure(PerfJob("simulate", bench="SCAN", scale=0.1))
        assert out["events"] > 0
        assert out["rate"] > 0
        assert out["unit"] == "events/s"
        assert out["job"]["metric"] == "simulate"

    def test_replay_measures_backend_rate(self):
        out = measure(PerfJob("replay", bench="SCAN", scale=0.1,
                              backend="haccrg-word"))
        assert out["backend"] == "haccrg-word"
        assert out["rate"] > 0

    def test_repeats_keep_the_best_attempt(self):
        out = measure(PerfJob("simulate", bench="SCAN", scale=0.1,
                              repeats=2))
        assert out["elapsed"] > 0


def _minimal_record():
    return {
        "schema": PERF_SCHEMA,
        "bench": BENCH_NAME,
        "quick": True,
        "sections": {
            "simulate": {"events_per_sec": 100.0, "runs": []},
            "fuzz": {"iterations_per_sec": 1.0, "iterations": 1},
            "replay": {"events_per_sec": 50.0, "backends": {
                "oracle": {"events_per_sec": 50.0,
                           "overhead_vs_fastest": 1.0}}},
            "service": {"jobs_per_sec": 2.0, "jobs": 2, "workers": 0,
                        "cache_hits_per_sec": 10.0},
            "multigpu": {"events_per_sec": 80.0, "runs": []},
            "static_prefilter": {"iterations_per_sec": 3.0, "seed": 0,
                                 "iterations": 6, "prefiltered": 2,
                                 "speedup": 1.5},
        },
    }


class TestValidation:
    def test_minimal_record_validates(self):
        validate_bench_record(_minimal_record())

    @pytest.mark.parametrize("mutate, match", [
        (lambda r: r.update(schema=99), "schema"),
        (lambda r: r.update(bench="BENCH_5"), "BENCH_10"),
        (lambda r: r["sections"].pop("multigpu"), "multigpu"),
        (lambda r: r["sections"].pop("static_prefilter"),
         "static_prefilter"),
        (lambda r: r["sections"]["static_prefilter"].update(
            iterations_per_sec=0), "non-positive"),
        (lambda r: r["sections"]["multigpu"].update(events_per_sec=0),
         "non-positive"),
        (lambda r: r.pop("sections"), "sections"),
        (lambda r: r["sections"].pop("service"), "service"),
        (lambda r: r["sections"]["fuzz"].update(iterations_per_sec=0),
         "non-positive"),
        (lambda r: r["sections"]["replay"].update(backends={}),
         "no backends"),
        (lambda r: r["sections"]["replay"]["backends"]["oracle"].update(
            events_per_sec=-1), "non-positive"),
    ])
    def test_malformed_records_rejected(self, mutate, match):
        record = _minimal_record()
        mutate(record)
        with pytest.raises(PerfSpecError, match=match):
            validate_bench_record(record)

    def test_write_is_canonical_json(self, tmp_path):
        path = write_bench_file(_minimal_record(),
                                str(tmp_path / "bench.json"))
        text = path.read_text(encoding="utf-8")
        record = json.loads(text)
        canonical = json.dumps(record, sort_keys=True,
                               separators=(",", ":")) + "\n"
        assert text == canonical
        assert validate_bench_file(str(path)) == record

    def test_write_refuses_malformed_record(self, tmp_path):
        bad = _minimal_record()
        bad["sections"].pop("fuzz")
        with pytest.raises(PerfSpecError):
            write_bench_file(bad, str(tmp_path / "bench.json"))
        assert not (tmp_path / "bench.json").exists()

    def test_validate_missing_file_raises(self, tmp_path):
        with pytest.raises(PerfSpecError, match="does not exist"):
            validate_bench_file(str(tmp_path / "nope.json"))

    def test_default_path_is_repo_root(self):
        assert bench_path() == repo_root() / BENCH_FILENAME
        assert (repo_root() / "pyproject.toml").exists()

    def test_render_summary_mentions_every_section(self):
        text = render_summary(_minimal_record())
        for word in ("simulate", "fuzz", "replay", "service", "multigpu",
                     "prefilter"):
            assert word in text


class TestCheckedInBenchFile:
    def test_repo_bench_file_exists_and_validates(self):
        """BENCH_10.json at the repo root is the canonical perf record."""
        record = validate_bench_file()
        assert record["bench"] == BENCH_NAME
        assert record["quick"] is False
        # the replay section carries the aggregate rate bench_compare diffs
        assert record["sections"]["replay"]["events_per_sec"] > 0


class TestBenchCompareTrajectory:
    """tools/bench_compare.py --trajectory: latest vs every predecessor."""

    @staticmethod
    def _tool():
        import importlib.util
        import sys

        spec = importlib.util.spec_from_file_location(
            "bench_compare", repo_root() / "tools" / "bench_compare.py")
        mod = importlib.util.module_from_spec(spec)
        sys.modules.setdefault("bench_compare", mod)
        spec.loader.exec_module(mod)
        return mod

    @staticmethod
    def _write(tmp_path, n, simulate):
        rec = {"bench": f"BENCH_{n}", "sections": {
            "simulate": {"events_per_sec": simulate},
            "fuzz": {"iterations_per_sec": 10.0},
            "replay": {"events_per_sec": 100.0},
            "service": {"jobs_per_sec": 5.0},
        }}
        (tmp_path / f"BENCH_{n}.json").write_text(json.dumps(rec))

    def test_discovery_orders_numerically(self, tmp_path):
        tool = self._tool()
        for n in (10, 2, 9):
            self._write(tmp_path, n, 100.0)
        paths = tool.discover_trajectory(str(tmp_path))
        assert [p.rsplit("/", 1)[-1] for p in paths] == [
            "BENCH_2.json", "BENCH_9.json", "BENCH_10.json"]

    def test_latest_compared_against_every_predecessor(self, tmp_path):
        tool = self._tool()
        # latest beats its immediate predecessor but gives back the
        # speedup an earlier record banked: the trajectory must fail
        self._write(tmp_path, 1, 200.0)
        self._write(tmp_path, 2, 50.0)
        self._write(tmp_path, 3, 60.0)
        assert tool.main(["--trajectory", str(tmp_path)]) == 1

    def test_monotone_trajectory_passes(self, tmp_path):
        tool = self._tool()
        for n, rate in ((1, 100.0), (2, 150.0), (3, 160.0)):
            self._write(tmp_path, n, rate)
        assert tool.main(["--trajectory", str(tmp_path)]) == 0

    def test_checked_in_trajectory_passes(self):
        """The repo's own BENCH_* records satisfy the gate CI runs."""
        tool = self._tool()
        assert tool.main(["--trajectory", str(repo_root())]) == 0

    def test_two_file_mode_still_works(self, tmp_path):
        tool = self._tool()
        self._write(tmp_path, 1, 100.0)
        self._write(tmp_path, 2, 90.0)
        assert tool.main([str(tmp_path / "BENCH_1.json"),
                          str(tmp_path / "BENCH_2.json")]) == 0
