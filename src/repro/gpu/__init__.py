"""GPU execution substrate: a warp-lockstep, event-driven GPGPU simulator.

This package is the reproduction's stand-in for GPGPU-Sim. It provides:

- a CUDA-style kernel programming model (:mod:`repro.gpu.kernel`,
  :mod:`repro.gpu.context`): kernels are Python generator functions that
  yield device operations (loads, stores, atomics, barriers, fences, lock
  markers) and receive load results back;
- warp-lockstep execution with divergence masking (:mod:`repro.gpu.warp`);
- thread-block lifecycle and barrier semantics (:mod:`repro.gpu.block`);
- streaming multiprocessors with round-robin warp scheduling and
  event-driven timing (:mod:`repro.gpu.sm`);
- timing: memory coalescing (:mod:`repro.gpu.coalescer`), banked shared
  memory conflicts and pipeline costs (:mod:`repro.gpu.timing`);
- the top-level :class:`repro.gpu.simulator.GPUSimulator` that dispatches
  blocks to SMs, advances SMs in global-time order, and exposes hook points
  for the race-detection units.
"""

from repro.gpu.device import DeviceMemory, DeviceArray
from repro.gpu.kernel import Kernel, KernelLaunch
from repro.gpu.simulator import GPUSimulator, SimulationResult

__all__ = [
    "DeviceMemory",
    "DeviceArray",
    "Kernel",
    "KernelLaunch",
    "GPUSimulator",
    "SimulationResult",
]
