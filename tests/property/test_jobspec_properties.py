"""Property suite for job-record parsing (hypothesis).

Job records reach workers from the campaign store, the detection service
and the ``REPRO_JOB_EXECUTORS`` seam, so every ``from_record`` must turn
arbitrary JSON into either a spec or a :class:`JobSpecError` — never a
``KeyError``, ``TypeError`` or anything else a supervisor would retry.
A record it accepts must survive the round trip to the same key.
"""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyze.mgworker import MGAnalyzeJob
from repro.analyze.worker import AnalyzeJob
from repro.bench.common import Injection
from repro.campaign.jobs import Job, JobSpecError
from repro.common.config import HAccRGConfig
from repro.fuzz.worker import FuzzJob
from repro.harness.benchperf import PerfJob
from repro.multigpu.runner import MGJob
from repro.serve.backends import canonical_json
from repro.serve.worker import ReplayJob

#: one valid spec per JobSpec subclass
VALID = [
    Job.from_call("SCAN", HAccRGConfig(), scale=0.5, seed=1,
                  injection=Injection(omit=["fence"]),
                  overrides={"num_blocks": 1}),
    FuzzJob(seed=1, index=2, modes=("software",)),
    AnalyzeJob(source="bench", bench="SCAN", omit=("fence",)),
    MGAnalyzeJob(source="mgfuzz", seed=3),
    MGJob("MG_RING", injection="x"),
    ReplayJob(trace="ab" * 32, backend="static", trace_path="t.hart",
              program=canonical_json({"blocks": 1, "stmts": []})),
    PerfJob("replay", bench="SCAN", backend="oracle"),
]
IDS = [type(spec).__name__ for spec in VALID]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner,
                                     max_size=4)),
    max_leaves=8)

_DELETE = object()


def _check(cls, record):
    try:
        spec = cls.from_record(record)
    except JobSpecError:
        return
    again = cls.from_record(json.loads(json.dumps(spec.record())))
    assert again.key() == spec.key()


@pytest.mark.parametrize("valid", VALID, ids=IDS)
class TestFromRecord:
    def test_valid_record_round_trips(self, valid):
        assert type(valid).from_record(valid.record()).key() == valid.key()

    @settings(max_examples=25, deadline=None)
    @given(record=st.dictionaries(st.text(max_size=12), json_values,
                                  max_size=6))
    def test_arbitrary_dicts(self, valid, record):
        _check(type(valid), record)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_valid_records(self, valid, data):
        record = copy.deepcopy(valid.record())
        paths = [(k,) for k in record] + [
            (k, inner) for k, v in record.items() if isinstance(v, dict)
            for inner in v]
        for path in data.draw(st.lists(st.sampled_from(paths), min_size=1,
                                       max_size=3)):
            parent = record
            for step in path[:-1]:
                parent = parent.get(step)
            if not isinstance(parent, dict):
                continue
            value = data.draw(st.just(_DELETE) | json_values)
            if value is _DELETE:
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = value
        _check(type(valid), record)
