"""GPU hardware models.

A :class:`GPUSpec` is a static description of a device (the knobs that
drive the timing model); a :class:`GPUDevice` is the live simulation
object: it owns the device-memory allocator, the kernel execution engine
(one kernel at a time, FCFS across contexts — the CUDA 3.x behaviour the
paper describes) and a DMA copy engine, and it can fail and recover.

The three presets are the cards of the paper's testbed (§5.1):

========== ===== ========= ========= ========== =========
card        SMs  cores/SM  clock GHz  memory     role
========== ===== ========= ========= ========== =========
C2050        14        32      1.15      3 GB    fast
C1060        30         8      1.30      4 GB    medium
Quadro2000    4        48      1.25      1 GB    slow
========== ===== ========= ========= ========== =========
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Dict, Optional

from repro.sim import Container, Environment, Resource
from repro.simcuda.allocator import DeviceAllocator

__all__ = [
    "GPUSpec",
    "GPUDevice",
    "TESLA_C2050",
    "TESLA_C1060",
    "QUADRO_2000",
    "TESLA_T4",
    "TESLA_P100",
    "TESLA_V100",
    "DEVICE_SPECS",
    "device_spec",
]

GIB = 1024**3
MIB = 1024**2


@dataclasses.dataclass(frozen=True)
class GPUSpec:
    """Static description of a GPU model.

    Attributes
    ----------
    name:
        Marketing name, e.g. ``"Tesla C2050"``.
    sm_count, cores_per_sm, clock_ghz:
        Compute configuration; effective throughput is derived from these.
    memory_bytes:
        Device memory capacity.
    pcie_gbps:
        Host↔device bandwidth in GB/s (PCIe 2.0 x16 era: ~5 GB/s).
    efficiency:
        Fraction of peak FLOPs the benchmark kernels sustain.
    max_contexts:
        Hard limit on concurrent CUDA contexts the runtime can support
        (the paper experimentally observed 8 on a C2050).
    context_reservation_bytes:
        Device memory reserved per CUDA context at creation.
    """

    name: str
    sm_count: int
    cores_per_sm: int
    clock_ghz: float
    memory_bytes: int
    pcie_gbps: float = 5.0
    efficiency: float = 0.55
    max_contexts: int = 8
    context_reservation_bytes: int = 64 * MIB

    @property
    def core_count(self) -> int:
        return self.sm_count * self.cores_per_sm

    @property
    def peak_gflops(self) -> float:
        """Peak single-precision GFLOPS (2 FLOPs/cycle, fused multiply-add)."""
        return self.core_count * self.clock_ghz * 2.0

    @functools.cached_property
    def effective_gflops(self) -> float:
        """Sustained throughput used by the timing model, placement, the
        cost model and migration; computed once per spec (a spec is
        frozen, and ``dataclasses.replace`` builds a new one)."""
        return self.peak_gflops * self.efficiency

    def relative_speed(self, other: "GPUSpec") -> float:
        """How many times faster this device is than ``other``."""
        return self.effective_gflops / other.effective_gflops


TESLA_C2050 = GPUSpec(
    name="Tesla C2050",
    sm_count=14,
    cores_per_sm=32,
    clock_ghz=1.15,
    memory_bytes=3 * GIB,
)

TESLA_C1060 = GPUSpec(
    name="Tesla C1060",
    sm_count=30,
    cores_per_sm=8,
    clock_ghz=1.30,
    memory_bytes=4 * GIB,
    # The evaluation's benchmarks are largely bandwidth-bound; at the
    # application level a C1060 (102 GB/s) delivers ~85% of an ECC-on
    # C2050 (~120 GB/s effective), far better than its FLOPs ratio.  The
    # higher sustained-efficiency factor encodes that calibration.
    efficiency=0.77,
)

QUADRO_2000 = GPUSpec(
    name="Quadro 2000",
    sm_count=4,
    cores_per_sm=48,
    clock_ghz=1.25,
    memory_bytes=1 * GIB,
)

#: The paper's §7 future work: "we intend to extend our runtime to
#: support other many-core devices, such as the Intel MIC."  The runtime
#: is device-agnostic — any accelerator with separate memory and a
#: library-call interface fits — so a Knights-Corner-era MIC is just
#: another spec: 61 in-order cores with 512-bit (16-lane) vector units.
INTEL_MIC = GPUSpec(
    name="Intel MIC (Knights Corner)",
    sm_count=61,
    cores_per_sm=16,
    clock_ghz=1.1,
    memory_bytes=8 * GIB,
    pcie_gbps=5.0,
    efficiency=0.45,
    max_contexts=16,  # a full Linux on the card: more generous than CUDA
    context_reservation_bytes=32 * MIB,
)

#: Cluster-trace-era datacenter cards (Alibaba ``cluster-trace-gpu-v2020``
#: heterogeneity: T4 inference boxes, P100/V100 training boxes).  The
#: paper's timing model only needs SM geometry, clocks, memory size and
#: host-link bandwidth; the efficiency factors are calibrated the same
#: way as the testbed cards — application-level sustained throughput,
#: not marketing FLOPs.  These presets back the trace-replay harness's
#: ``gpu_type`` column (:mod:`repro.workloads.trace_replay`).

TESLA_T4 = GPUSpec(
    name="Tesla T4",
    sm_count=40,
    cores_per_sm=64,
    clock_ghz=1.59,
    memory_bytes=16 * GIB,
    pcie_gbps=12.0,          # PCIe 3.0 x16
    efficiency=0.35,         # 70 W inference card: heavily power-capped
    max_contexts=16,
    context_reservation_bytes=96 * MIB,
)

TESLA_P100 = GPUSpec(
    name="Tesla P100",
    sm_count=56,
    cores_per_sm=64,
    clock_ghz=1.30,
    memory_bytes=16 * GIB,
    pcie_gbps=12.0,          # PCIe 3.0 x16 (NVLink variants exist; the
    efficiency=0.50,         # trace boxes are the PCIe flavor)
    max_contexts=16,
    context_reservation_bytes=96 * MIB,
)

TESLA_V100 = GPUSpec(
    name="Tesla V100",
    sm_count=80,
    cores_per_sm=64,
    clock_ghz=1.38,
    memory_bytes=32 * GIB,
    pcie_gbps=20.0,          # NVLink-era host link (NVLink 2.0 bricks)
    efficiency=0.55,
    max_contexts=32,
    context_reservation_bytes=128 * MIB,
)

#: Registry keyed by the strings production traces use in their
#: ``gpu_type`` column (plus the paper-testbed names for completeness).
#: Lookup is case-insensitive via :func:`device_spec`.
DEVICE_SPECS: Dict[str, GPUSpec] = {
    "T4": TESLA_T4,
    "P100": TESLA_P100,
    "V100": TESLA_V100,
    "C2050": TESLA_C2050,
    "C1060": TESLA_C1060,
    "QUADRO2000": QUADRO_2000,
    "MIC": INTEL_MIC,
}


def device_spec(gpu_type: str) -> GPUSpec:
    """Resolve a trace ``gpu_type`` string to its :class:`GPUSpec`.

    Raises :class:`KeyError` with the known names for typo'd types, so a
    malformed trace fails loudly at load time rather than mid-replay.
    """
    key = gpu_type.strip().upper()
    try:
        return DEVICE_SPECS[key]
    except KeyError:
        raise KeyError(
            f"unknown gpu_type {gpu_type!r}; known: {sorted(DEVICE_SPECS)}"
        ) from None


_device_ids = itertools.count()


class GPUDevice:
    """A live GPU in the simulation.

    The device serializes kernel executions (``exec_engine``) and DMA
    transfers (``copy_engine``); the two can overlap, matching real
    hardware with a dedicated copy engine.
    """

    def __init__(self, env: Environment, spec: GPUSpec, device_id: Optional[int] = None):
        self.env = env
        self.spec = spec
        self.device_id = device_id if device_id is not None else next(_device_ids)
        self.allocator = DeviceAllocator(spec.memory_bytes)
        self.exec_engine = Resource(env, capacity=1)
        self.copy_engine = Resource(env, capacity=1)
        #: SM pool used when kernel consolidation (space-sharing) is
        #: enabled; exclusive launches drain it completely.
        self.sm_slots = Container(env, capacity=spec.sm_count, init=spec.sm_count)
        self.failed = False
        #: Cumulative busy seconds of the execution engine (for utilization
        #: reporting in the experiments).
        self.busy_seconds = 0.0
        #: Cumulative busy seconds of the DMA copy engine.
        self.copy_busy_seconds = 0.0
        #: Simulated seconds during which the copy engine and the exec
        #: engine were busy *simultaneously* — the paper's §4.5
        #: computation/communication overlap, measured on the device.
        self.copy_exec_overlap_seconds = 0.0
        self._engine_active = {"exec": 0, "copy": 0}
        self._overlap_since: Optional[float] = None
        self.kernels_executed = 0
        self.bytes_copied = 0

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"{self.spec.name}#{self.device_id}"

    @property
    def memory_capacity(self) -> int:
        return self.spec.memory_bytes

    @property
    def free_memory(self) -> int:
        return self.allocator.free_bytes

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the execution engine was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / elapsed)

    # ------------------------------------------------------------------
    # engine occupancy (overlap accounting)
    # ------------------------------------------------------------------
    def engine_begin(self, engine: str) -> None:
        """An operation started occupying ``engine`` ("exec"/"copy").

        With space-sharing several kernels may hold the exec engine at
        once, so occupancy is a counter; the overlap window opens when
        both engines first become simultaneously active."""
        active = self._engine_active
        active[engine] += 1
        if self._overlap_since is None and active["exec"] and active["copy"]:
            self._overlap_since = self.env.now

    def engine_end(self, engine: str) -> None:
        active = self._engine_active
        active[engine] -= 1
        if self._overlap_since is not None and (
            not active["exec"] or not active["copy"]
        ):
            self.copy_exec_overlap_seconds += self.env.now - self._overlap_since
            self._overlap_since = None

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Mark the device failed (GPU removal / hardware fault)."""
        self.failed = True

    def __repr__(self) -> str:
        state = "FAILED" if self.failed else "ok"
        return (
            f"<GPUDevice {self.name} {state} "
            f"free={self.free_memory / MIB:.0f}MiB/{self.memory_capacity / MIB:.0f}MiB>"
        )
