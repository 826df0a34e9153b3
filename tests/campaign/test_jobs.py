"""Job canonicalization and content-addressed hashing."""

import json
import subprocess
import sys

import pytest

from repro.bench.common import Injection
from repro.campaign.jobs import Job, JobSpecError
from repro.common.config import (
    DetectionMode,
    DetectorBackend,
    HAccRGConfig,
    scaled_gpu_config,
)

WORD = HAccRGConfig(mode=DetectionMode.FULL, shared_granularity=4,
                    global_granularity=4)


class TestCanonicalization:
    def test_key_is_sha256_hex(self):
        key = Job.from_call("SCAN").key()
        assert len(key) == 64
        int(key, 16)

    def test_same_call_same_key(self):
        a = Job.from_call("SCAN", WORD, scale=0.5, seed=3)
        b = Job.from_call("SCAN", WORD, scale=0.5, seed=3)
        assert a.key() == b.key()

    def test_override_dict_order_irrelevant(self):
        a = Job.from_call("SCAN", overrides={"num_blocks": 1, "x": 2})
        b = Job.from_call("SCAN", overrides={"x": 2, "num_blocks": 1})
        assert a.key() == b.key()

    def test_injection_site_order_irrelevant(self):
        a = Job.from_call("SCAN", injection=Injection(omit=["a", "b"]))
        b = Job.from_call("SCAN", injection=Injection(omit=["b", "a"]))
        assert a.key() == b.key()

    def test_off_mode_collapses_to_baseline(self):
        off = Job.from_call("SCAN", HAccRGConfig(mode=DetectionMode.OFF))
        none = Job.from_call("SCAN", None)
        assert off.key() == none.key()

    def test_default_gpu_resolved_before_hashing(self):
        implicit = Job.from_call("SCAN")
        explicit = Job.from_call("SCAN", gpu_config=scaled_gpu_config())
        assert implicit.key() == explicit.key()

    def test_bench_name_case_insensitive(self):
        assert Job.from_call("scan").key() == Job.from_call("SCAN").key()

    def test_non_primitive_override_rejected(self):
        with pytest.raises(JobSpecError):
            Job.from_call("SCAN", overrides={"bad": object()})


class TestKeySensitivity:
    """Every simulation-relevant argument must change the key."""

    @pytest.mark.parametrize("a,b", [
        (dict(), dict(detector_config=WORD)),
        (dict(detector_config=WORD),
         dict(detector_config=WORD.with_granularity(shared=8))),
        (dict(detector_config=WORD),
         dict(detector_config=WORD.with_backend(DetectorBackend.SOFTWARE))),
        (dict(), dict(scale=0.5)),
        (dict(), dict(seed=1)),
        (dict(), dict(timing_enabled=False)),
        (dict(), dict(verify=True)),
        (dict(), dict(injection=Injection(omit=["s"]))),
        (dict(), dict(overrides={"num_blocks": 1})),
        (dict(), dict(gpu_config=scaled_gpu_config(num_sms=10,
                                                   num_clusters=5))),
    ])
    def test_argument_changes_key(self, a, b):
        assert Job.from_call("SCAN", **a).key() != \
            Job.from_call("SCAN", **b).key()

    def test_granularity_4_to_8_misses(self):
        # the cache-contract example from the issue: 4B vs 8B granularity
        four = Job.from_call("HIST", WORD)
        eight = Job.from_call("HIST", WORD.with_granularity(global_=8))
        assert four.key() != eight.key()


class TestRoundTrip:
    def test_record_round_trip_preserves_key(self):
        job = Job.from_call("REDUCE", WORD, scale=0.25, seed=2,
                            injection=Injection(omit=["fence"]),
                            timing_enabled=False, verify=True,
                            overrides={"num_blocks": 1})
        clone = Job.from_record(json.loads(json.dumps(job.record())))
        assert clone == job
        assert clone.key() == job.key()

    def test_pinned_keys(self):
        """Keys are on-disk cache addresses: a change here orphans every
        stored campaign result, so it needs a ``JOB_SCHEMA`` bump."""
        assert Job.from_call("SCAN").key() == (
            "000eb2a8d36916fd65bd1c6848e3197f46db32e955431f4baeb46b765c79865c")
        assert Job.from_call("HIST", HAccRGConfig(), scale=0.25,
                             seed=3).key() == (
            "6e6528ce1efe38d4d7a3c32f9c71d3ff9905073a64cbe9cd310c4b31cc4bdd70")

    @pytest.mark.parametrize("kind,key", [
        ("fuzz", "fc9824dcf9a7066bab4ac544018c1467"
                 "ad75b3ac6f18a7c89af56db2236f5ee8"),
        ("analyze", "4c7744d448e49af9fa049695e33ce5d4"
                    "31f16cfe201e7ea5352690ba1df01ccc"),
        ("mganalyze", "04a841d9a7463493fee22f6437dccf54"
                      "d19a92c3e24d1ca0acaba139a2020c0c"),
        ("multigpu", "66039a4817cb7c48b334d87409feaa86"
                     "8fe2816be422c823dcdc5d7ff9a4d0ba"),
        ("replay", "33dcc190d068b836f7191d230509d705"
                   "f520010486857d84ea214c0d2cc0d7ed"),
    ])
    def test_pinned_keys_per_kind(self, kind, key):
        """Every kind's key addresses stored results (replay: verdicts)."""
        from repro.analyze.mgworker import MGAnalyzeJob
        from repro.analyze.worker import AnalyzeJob
        from repro.fuzz.worker import FuzzJob
        from repro.multigpu.runner import MGJob
        from repro.serve.worker import ReplayJob

        job = {
            "fuzz": lambda: FuzzJob(seed=7, index=3, modes=("haccrg",),
                                    static_prefilter=True),
            "analyze": lambda: AnalyzeJob(source="bench", bench="SCAN",
                                          omit=("fence",), validate=False),
            "mganalyze": lambda: MGAnalyzeJob(source="mgfuzz", seed=5,
                                              gpus=3, scale=0.5,
                                              validate=False),
            "multigpu": lambda: MGJob("MG_RING", gpus=2, scale=0.25,
                                      injection="x", detect=False),
            "replay": lambda: ReplayJob(trace="ab" * 32,
                                        backend="haccrg-word",
                                        trace_path="x.hart"),
        }[kind]()
        assert job.record()["kind"] == kind
        assert job.key() == key

    def test_schema_mismatch_rejected(self):
        record = Job.from_call("SCAN").record()
        record["schema"] = 999
        with pytest.raises(JobSpecError):
            Job.from_record(record)


class TestCrossProcessStability:
    def test_key_stable_across_interpreters(self):
        """Hashes must not depend on interpreter state (e.g. hash seed)."""
        job = Job.from_call("SCAN", WORD, scale=0.5,
                            overrides={"num_blocks": 1, "z": 3})
        code = (
            "from repro.campaign.jobs import Job\n"
            "from repro.common.config import (DetectionMode, HAccRGConfig)\n"
            "WORD = HAccRGConfig(mode=DetectionMode.FULL,"
            " shared_granularity=4, global_granularity=4)\n"
            "print(Job.from_call('SCAN', WORD, scale=0.5,"
            " overrides={'z': 3, 'num_blocks': 1}).key())\n"
        )
        import os
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        env["PYTHONHASHSEED"] = "99"  # prove no dependence on str hashing
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env=env)
        assert out.stdout.strip() == job.key()
