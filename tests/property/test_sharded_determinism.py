"""Determinism property: sharding must never move a bit.

The epoch-sliced merge orders all globally-visible traffic by
``(epoch, sm_id, seq)``, so the *same* program must produce identical
results for any worker count — and independently of the warp-batch fast
path, which is a digest-excluded execution strategy of its own. This is
the property the whole refactor hangs on; the benchmarks in
``tests/gpu/test_epoch_sharding.py`` cover the timing-on path, this file
sweeps randomized fuzz programs through the detector modes.
"""

import pytest

from repro.common.config import (
    DetectionMode,
    HAccRGConfig,
    scaled_gpu_config,
)
from repro.fuzz.generator import generate_program
from repro.fuzz.program import run_program

WORKER_COUNTS = (0, 1, 2, 4)


def _log_sig(log):
    """Order-sensitive, content-complete race-log signature."""
    if log is None:
        return None
    return (
        tuple(repr(r) for r in log.reports),
        tuple(sorted(log.trip_counts.items())),
        tuple(sorted(log._pair_keys)),
    )


def _run_sig(seed, mode, sm_workers, fast_path):
    program = generate_program(seed)
    run = run_program(
        program,
        HAccRGConfig(mode=mode),
        gpu_config=scaled_gpu_config(sm_workers=sm_workers,
                                     fast_path=fast_path))
    return _log_sig(run.races)


@pytest.mark.parametrize("fast_path", [True, False])
@pytest.mark.parametrize("seed", [42, 77])
def test_fuzz_bit_identical_across_worker_counts(seed, fast_path):
    """sm_workers in {0, 1, 2, 4} x fast_path on/off: one signature."""
    sigs = {
        w: _run_sig(seed, DetectionMode.FULL, w, fast_path)
        for w in WORKER_COUNTS
    }
    assert len(set(sigs.values())) == 1, sigs


@pytest.mark.parametrize("mode", [DetectionMode.SHARED,
                                  DetectionMode.GLOBAL])
def test_fuzz_half_modes_match_inline(mode):
    """Each detector half alone survives the shard split unchanged."""
    sigs = {w: _run_sig(42, mode, w, True) for w in (0, 2)}
    assert len(set(sigs.values())) == 1, sigs


def test_benchmark_record_identical_across_worker_counts():
    """Full RunResult records (timing on) agree for 0 vs 2 workers."""
    from repro.harness.export import run_result_record
    from repro.harness.runner import run_benchmark_direct

    records = [
        run_result_record(run_benchmark_direct(
            "HASH", HAccRGConfig(mode=DetectionMode.FULL),
            scaled_gpu_config(sm_workers=w), scale=0.05, seed=7))
        for w in (0, 2)
    ]
    assert records[0] == records[1]
