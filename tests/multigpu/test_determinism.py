"""Multi-GPU runs are deterministic.

Two runs of the same cell must produce the same full-system digest
(canonical merged stream + canonical result record). The cells are the
two fence-bearing benchmarks plus the missing-system-fence injection,
where a scope or ordering bug would show up first; the ``mg_cells``
golden digests pin their values.
"""

import pytest

from repro.common.config import HAccRGConfig
from repro.multigpu.runner import run_mg_benchmark

CELLS = [
    pytest.param("MG_RING", "", id="MG_RING"),
    pytest.param("MG_PRODCONS", "", id="MG_PRODCONS"),
    pytest.param("MG_PRODCONS", "nofence", id="MG_PRODCONS+nofence"),
]


def digest_of(name, injection=""):
    res = run_mg_benchmark(
        name, gpus=2, detector_config=HAccRGConfig(), scale=0.25,
        injection=injection, timing_enabled=True)
    return res.digest


@pytest.mark.slow
@pytest.mark.parametrize("name,injection", CELLS)
def test_digest_identical_across_runs(name, injection):
    assert digest_of(name, injection) == digest_of(name, injection)
