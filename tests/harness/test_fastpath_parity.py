"""Fast-path parity gate: the two engines must be indistinguishable.

Every benchmark in the suite, in every detection mode, is run twice —
warp-batch fast path on and off — and the two :class:`RunResult`\\ s must
be equal: identical cycle counts, identical instruction statistics,
identical memory-system counters, and a bit-identical race log. This is
the whole-system counterpart of the per-kernel properties in
``tests/property/test_fastpath_properties.py``.

The runs here reuse the golden-parity spec (scale, granularities,
timing) so this gate and the golden gate exercise the same cells.
"""

import dataclasses

import pytest

from repro.bench.suite import SUITE
from repro.common.config import DetectionMode, HAccRGConfig
from repro.harness.runner import run_benchmark_direct, scaled_gpu_config

SCALE = 0.25
MODES = ("OFF", "SHARED", "GLOBAL", "FULL")


def _run(name: str, mode: str, fast: bool):
    gpu = dataclasses.replace(scaled_gpu_config(), fast_path=fast)
    det = None
    if mode != "OFF":
        det = HAccRGConfig(mode=DetectionMode[mode],
                           shared_granularity=4, global_granularity=4)
    return run_benchmark_direct(name, det, gpu, scale=SCALE,
                                timing_enabled=True)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(b.name for b in SUITE))
def test_fast_and_slow_results_are_equal(name, mode):
    fast = _run(name, mode, True)
    slow = _run(name, mode, False)
    # the dataclass equality covers cycles, stats, dram/l1/l2 counters,
    # id_stats, and the race log (RaceLog defines __eq__ over reports,
    # trip counts, and distinct pairs); detector handles are excluded
    assert fast == slow, f"{name}/{mode}: fast and slow engines diverged"
