"""Matrix-multiplication workloads (paper Table 2, long-running).

MM-S and MM-L are the paper's probes for CPU/GPU-phase interleaving
(injected CPU phases of configurable size, §5.3.3) and for conflicting
memory requirements: MM-L's three 10K×10K matrices occupy 1.2 GB, so two
jobs fit a Tesla C2050 but a third forces swapping.
"""

from __future__ import annotations

from repro.workloads.base import WorkloadSpec

__all__ = ["MATMUL_SMALL", "MATMUL_LARGE"]

MIB = 1024**2

MATMUL_SMALL = WorkloadSpec(
    name="Small Matrix Multiplication",
    tag="MM-S",
    description="200 matrix multiplications of 2Kx2K square matrices and variable CPU phases",
    kernel_calls=200,
    gpu_seconds_c2050=40.0,
    buffer_bytes=(16 * MIB, 16 * MIB, 16 * MIB),  # 2K×2K × 4 B each
    read_only_buffers=(0, 1),
    cpu_fraction=0.0,  # injected per-experiment via with_cpu_fraction
    long_running=True,
)

MATMUL_LARGE = WorkloadSpec(
    name="Large Matrix Multiplication",
    tag="MM-L",
    description="10 matrix multiplications of 10Kx10K square matrices and variable CPU phases",
    kernel_calls=10,
    gpu_seconds_c2050=20.0,
    buffer_bytes=(400 * MIB, 400 * MIB, 400 * MIB),  # 10K×10K × 4 B each
    read_only_buffers=(0, 1),
    cpu_fraction=0.0,
    long_running=True,
)
