"""Multi-tenant QoS isolation: a memory-hog tenant vs a light tenant.

One vGPU on a ~2 GiB device.  The *heavy* tenant runs a single job with
a 1.2 GiB working set and long kernels; the *light* tenant runs three
short small-footprint jobs.  Three configurations:

``solo``
    The light tenant alone — its best-case turnaround.
``qos off``
    Both tenants, stock runtime: the heavy job binds first and runs to
    completion, so every light job waits out its entire runtime.
``qos on``
    Both tenants with the QoS subsystem engaged: a device-memory quota
    on the heavy tenant, weighted-fair scheduling (light weight 4) and
    a 0.25 s vGPU quantum preempting at call boundaries.

Writes ``BENCH_qos.json``.  The tentpole claim: with QoS on, the light
tenant's mean turnaround co-running with the hog stays within 2x of its
solo run, while with QoS off it degrades unboundedly (tracks the heavy
job's full runtime instead).
"""

import json

from repro.cluster.jobs import Job
from repro.core import RuntimeConfig
from repro.core.frontend import Frontend
from repro.experiments.report import format_table
from repro.experiments.harness import run_node_batch
from repro.qos import Tenant
from repro.simcuda import GPUSpec
from repro.simcuda.fatbin import FatBinary
from repro.simcuda.kernels import KernelDescriptor

MIB = 1024**2

BENCH_GPU = GPUSpec(
    name="BenchGPU",
    sm_count=14,
    cores_per_sm=32,
    clock_ghz=1.15,
    memory_bytes=2048 * MIB,
)

HEAVY_MIB = 1200
HEAVY_ROUNDS = 20
HEAVY_KERNEL_S = 0.5
LIGHT_JOBS = 3
LIGHT_MIB = 64
LIGHT_KERNELS = 4
LIGHT_KERNEL_S = 0.05
#: Light jobs arrive once the hog is mid-kernel-train (its 1.2 GiB h2d
#: alone takes ~1.5 s of PCIe time).  The same stagger applies in every
#: configuration, so turnarounds compare.
LIGHT_DELAY_S = 2.0
QUANTUM_S = 0.25
HEAVY_QUOTA_MIB = 768
LIGHT_WEIGHT = 4.0

TENANT_CONTRACTS = {
    "heavy": dict(weight=1.0, device_quota_bytes=HEAVY_QUOTA_MIB * MIB),
    "light": dict(weight=LIGHT_WEIGHT),
}


def _ensure_tenant(node, name):
    runtime = node.runtime
    if runtime is not None and name not in runtime.qos:
        runtime.qos.register(Tenant(name, **TENANT_CONTRACTS[name]))


def make_heavy(name="hog"):
    def body(node):
        _ensure_tenant(node, "heavy")
        fe = Frontend(node.env, node.runtime.listener, name=name, tenant="heavy")
        yield from fe.open()
        k = KernelDescriptor(
            name="crunch", flops=HEAVY_KERNEL_S * BENCH_GPU.effective_gflops * 1e9
        )
        fb = FatBinary()
        handle = yield from fe.register_fat_binary(fb)
        yield from fe.register_function(handle, k)
        buf = yield from fe.cuda_malloc(HEAVY_MIB * MIB)
        yield from fe.cuda_memcpy_h2d(buf, HEAVY_MIB * MIB)
        # Back-to-back launches: the hog never enters a CPU phase, so
        # nothing short of quantum preemption takes the vGPU from it.
        for _ in range(HEAVY_ROUNDS):
            yield from fe.launch_kernel(k, [buf])
        yield from fe.cuda_memcpy_d2h(buf, HEAVY_MIB * MIB)
        yield from fe.cuda_free(buf)
        yield from fe.cuda_thread_exit()

    return Job(name, body, tag="HEAVY")


def make_light(name):
    def body(node):
        yield from node.cpu_phase(LIGHT_DELAY_S)
        _ensure_tenant(node, "light")
        fe = Frontend(node.env, node.runtime.listener, name=name, tenant="light")
        yield from fe.open()
        k = KernelDescriptor(
            name="ping", flops=LIGHT_KERNEL_S * BENCH_GPU.effective_gflops * 1e9
        )
        fb = FatBinary()
        handle = yield from fe.register_fat_binary(fb)
        yield from fe.register_function(handle, k)
        buf = yield from fe.cuda_malloc(LIGHT_MIB * MIB)
        yield from fe.cuda_memcpy_h2d(buf, LIGHT_MIB * MIB)
        for _ in range(LIGHT_KERNELS):
            yield from fe.launch_kernel(k, [buf])
        yield from fe.cuda_memcpy_d2h(buf, LIGHT_MIB * MIB)
        yield from fe.cuda_free(buf)
        yield from fe.cuda_thread_exit()

    return Job(name, body, tag="LIGHT")


def _config(qos):
    kwargs = dict(vgpus_per_device=1)
    if qos:
        kwargs.update(
            qos_enabled=True,
            policy="wfq",
            vgpu_quantum_s=QUANTUM_S,
        )
    return RuntimeConfig(**kwargs)


def _light_jobs():
    return [make_light(f"light{i}") for i in range(LIGHT_JOBS)]


def run_solo():
    return run_node_batch(_light_jobs(), [BENCH_GPU], _config(qos=False))


def run_corun(qos):
    jobs = [make_heavy()] + _light_jobs()
    return run_node_batch(jobs, [BENCH_GPU], _config(qos=qos))


def _light_mean(result):
    return result.avg_by_tag()["LIGHT"]


def test_qos_bounds_light_tenant_slowdown(once):
    def experiment():
        return {
            "solo": run_solo(),
            "qos_off": run_corun(qos=False),
            "qos_on": run_corun(qos=True),
        }

    results = once(experiment)
    for name, result in results.items():
        assert result.errors == 0, f"{name}: {result.errors} job errors"

    solo = _light_mean(results["solo"])
    off = _light_mean(results["qos_off"])
    on = _light_mean(results["qos_on"])

    print(
        f"\n== QoS isolation: {LIGHT_JOBS} light jobs vs a "
        f"{HEAVY_MIB} MiB hog on one vGPU ==\n"
        + format_table(
            ["config", "light mean (s)", "slowdown vs solo", "preemptions",
             "quota evictions"],
            [
                [
                    name,
                    f"{_light_mean(r):.2f}",
                    f"{_light_mean(r) / solo:.1f}x",
                    str(r.stats.get("preemptions", 0)),
                    str(r.stats.get("quota_evictions", 0)),
                ]
                for name, r in results.items()
            ],
        )
    )

    # The isolation claim: QoS keeps the light tenant within 2x of its
    # solo turnaround despite the co-running hog...
    assert on <= 2.0 * solo, f"qos_on light mean {on:.2f}s > 2x solo {solo:.2f}s"
    # ...while the stock runtime lets the hog starve it unboundedly.
    assert off > 2.0 * solo
    assert on < off
    # The mechanisms actually engaged.
    assert results["qos_on"].stats["preemptions"] >= 1
    assert results["qos_off"].stats["preemptions"] == 0

    with open("BENCH_qos.json", "w") as fh:
        json.dump(
            {
                "workload": {
                    "heavy_mib": HEAVY_MIB,
                    "heavy_rounds": HEAVY_ROUNDS,
                    "heavy_kernel_s": HEAVY_KERNEL_S,
                    "light_jobs": LIGHT_JOBS,
                    "light_mib": LIGHT_MIB,
                    "light_kernels": LIGHT_KERNELS,
                    "light_kernel_s": LIGHT_KERNEL_S,
                    "quantum_s": QUANTUM_S,
                    "heavy_quota_mib": HEAVY_QUOTA_MIB,
                    "light_weight": LIGHT_WEIGHT,
                    "gpu_memory_mib": BENCH_GPU.memory_bytes // MIB,
                },
                "light_mean_turnaround_s": {
                    "solo": solo, "qos_off": off, "qos_on": on,
                },
                "light_slowdown_vs_solo": {
                    "qos_off": off / solo, "qos_on": on / solo,
                },
                "heavy_makespan_s": {
                    name: results[name].avg_by_tag().get("HEAVY")
                    for name in ("qos_off", "qos_on")
                },
                "preemptions": {
                    name: results[name].stats.get("preemptions", 0)
                    for name in ("qos_off", "qos_on")
                },
            },
            fh,
            indent=2,
        )
        fh.write("\n")
