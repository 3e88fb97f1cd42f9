"""Golden sweep: the simulated results of every feature, bit for bit.

Each feature configuration runs on two job mixes, and two trace replays
run on two peered nodes with offloading on.  A fixture holds the
SHA-256 of each run's total time, per-job times, failed-job count and
``RuntimeStats``; a change that moves any simulated figure moves a
hash.  Only a change that names the model bug it fixes may re-record
the fixture::

    PYTHONPATH=src python -m tests.core.test_golden_sweep --record

Hash equality alone would also pass for a feature that never runs, so
every configuration must show it reached its feature (``REACHED``).
"""

import hashlib
import json
import pathlib
import sys

import pytest

from repro.cluster.jobs import Job
from repro.core.config import RuntimeConfig
from repro.core.frontend import Frontend
from repro.experiments.harness import run_node_batch
from repro.simcuda import FatBinary, KernelDescriptor
from repro.simcuda.device import QUADRO_2000, TESLA_C2050
from repro.workloads.trace_replay import (
    REPLAY_SWAP_CAPACITY_BYTES,
    replay_trace,
    synthetic_trace,
)

MIB = 1024**2
FIXTURE = pathlib.Path(__file__).with_name("golden_sweep.json")


def _app(name, alloc_mib, rounds, kernel_s, cpu_s, buffers=1, update=True,
         app_id=None):
    """malloc + h2d per buffer, then ``rounds`` of (re-upload, CPU phase,
    kernel over every buffer, CPU phase), then d2h + free + exit.  With
    two buffers each re-upload first writes half of the first one, so
    deferred transfers have something to coalesce."""

    def body(node):
        fe = Frontend(
            node.env, node.runtime.listener, name=name, application_id=app_id,
            batch_max_calls=node.runtime.config.batch_max_calls,
        )
        yield from fe.open()
        kernel = KernelDescriptor(
            name=f"{name}-k", flops=kernel_s * TESLA_C2050.effective_gflops * 1e9
        )
        handle = yield from fe.register_fat_binary(FatBinary())
        yield from fe.register_function(handle, kernel)
        size = alloc_mib * MIB // buffers
        ptrs = []
        for _ in range(buffers):
            ptr = yield from fe.cuda_malloc(size)
            yield from fe.cuda_memcpy_h2d(ptr, size)
            ptrs.append(ptr)
        for r in range(rounds):
            if update and r:
                if buffers > 1:
                    yield from fe.cuda_memcpy_h2d(ptrs[0], size // 2)
                yield from fe.cuda_memcpy_h2d(ptrs[0], size)
            yield from node.cpu_phase(cpu_s)
            yield from fe.launch_kernel(kernel, ptrs)
            yield from node.cpu_phase(cpu_s)
        for ptr in ptrs:
            yield from fe.cuda_memcpy_d2h(ptr, size)
            yield from fe.cuda_free(ptr)
        yield from fe.cuda_thread_exit()

    return Job(name, body)


def _pressure_mix():
    """Eight update-heavy 900 MiB jobs on one 3 GiB C2050 with 4 vGPUs:
    inter-application swapping, coalescing and eviction."""
    jobs = [_app(f"p{i}", 900, 4, 0.3, 0.3, buffers=1 + i % 2) for i in range(8)]
    return jobs, [TESLA_C2050], 4


def _hetero_mix():
    """Twelve small jobs with CPU phases on a C2050 and a slower Quadro
    2000, 2 vGPUs each, paired into applications: queueing, migration
    and CPU-phase unbinds."""
    jobs = [
        _app(f"h{i}", 96, 2 if i % 2 else 6, 0.3, 0.4 + 0.1 * (i % 3),
             update=False, app_id=f"app{i // 2}")
        for i in range(12)
    ]
    return jobs, [TESLA_C2050, QUADRO_2000], 2


MIXES = {"pressure": _pressure_mix, "hetero": _hetero_mix}

#: The feature configurations, each a set of ``RuntimeConfig`` fields.
CONFIGS = {
    "defer": {},
    "eager": dict(defer_transfers=False),
    "overlap": dict(overlap_transfers=True),
    "overlap_prefetch": dict(overlap_transfers=True, prefetch_enabled=True),
    "chunked_lru": dict(swap_chunk_bytes=64 * MIB, eviction_mode="partial"),
    "chunked_cost_aware_locality": dict(
        swap_chunk_bytes=64 * MIB, eviction_mode="partial",
        eviction_policy="cost_aware", policy="locality", locality_binding=True,
    ),
    "locality_reaper": dict(
        policy="locality", locality_binding=True, unbind_on_cpu_phase_s=0.05
    ),
    "quantum": dict(vgpu_quantum_s=0.5),
    "auto_checkpoint": dict(checkpoint_kernel_seconds=0.1),
    "migration": dict(migration_enabled=True),
    "cuda4": dict(cuda4_semantics=True, migration_enabled=True),
    "no_inter_swap": dict(enable_inter_swap=False),
    "batch8": dict(batch_max_calls=8),
}

#: Trace replays on two peered nodes; every request leg of an offloaded
#: connection crosses the proxy.
REPLAYS = {
    "offload_2node": dict(offload_enabled=True),
    "offload_2node_batch8": dict(offload_enabled=True, batch_max_calls=8),
}


def _run_mix(config_name, mix_name):
    jobs, gpus, vgpus = MIXES[mix_name]()
    config = RuntimeConfig(vgpus_per_device=vgpus, **CONFIGS[config_name])
    result = run_node_batch(jobs, gpus, config)
    return {
        "total_time": result.total_time,
        "job_times": result.job_times,
        "errors": result.errors,
        "stats": result.stats,
    }


def _run_replay(name):
    config = RuntimeConfig(
        host_swap_capacity_bytes=REPLAY_SWAP_CAPACITY_BYTES, **REPLAYS[name]
    )
    result = replay_trace(synthetic_trace(40, seed=3), nodes=2, config=config)
    return {
        "total_time": max(r["finished"] for r in result.records),
        "job_times": [r["jct"] for r in result.records],
        "errors": result.errors,
        "stats": result.stats,
    }


def _digest(run):
    # json.dumps writes floats as repr(): exact, so any bit moves a hash.
    return hashlib.sha256(json.dumps(run, sort_keys=True).encode()).hexdigest()


KEYS = [f"{c}/{m}" for c in CONFIGS for m in MIXES] + list(REPLAYS)


class _Sweep:
    """The sweep's runs, each made once on first use (the hash, failure
    and reach checks share them)."""

    def __init__(self):
        self._runs = {}

    def __getitem__(self, key):
        if key not in self._runs:
            config, _, mix = key.partition("/")
            self._runs[key] = (
                _run_replay(config) if config in REPLAYS else _run_mix(config, mix)
            )
        return self._runs[key]

    def stat(self, key, name):
        return self[key]["stats"][name]

    def both(self, config, name):
        """``name`` summed over the config's runs on both mixes."""
        return sum(self.stat(f"{config}/{m}", name) for m in MIXES)


def _coalesced(sweep):
    """Device transfers deferral saved on the pressure mix."""
    return sweep.stat("eager/pressure", "h2d_device_transfers") - sweep.stat(
        "defer/pressure", "h2d_device_transfers"
    )


#: How each configuration shows it reached its feature: a count that
#: must be nonzero.  Transfer mode has no counter of its own, so defer,
#: eager and overlap are measured against each other on the pressure mix.
REACHED = {
    "defer": _coalesced,
    "eager": _coalesced,
    "overlap": lambda s: s["overlap/pressure"]["total_time"]
    != s["defer/pressure"]["total_time"],
    "overlap_prefetch": lambda s: s.both("overlap_prefetch", "prefetch_hits"),
    "chunked_lru": lambda s: s.both("chunked_lru", "evictions_partial"),
    "chunked_cost_aware_locality": lambda s: s.both(
        "chunked_cost_aware_locality", "evictions_partial"
    ),
    "locality_reaper": lambda s: s.both("locality_reaper", "locality_hits"),
    "quantum": lambda s: s.both("quantum", "preemptions"),
    "auto_checkpoint": lambda s: s.both("auto_checkpoint", "checkpoints"),
    "migration": lambda s: s.both("migration", "migrations"),
    "cuda4": lambda s: s.both("cuda4", "migrations_p2p"),
    "no_inter_swap": lambda s: s.both("defer", "swaps_inter")
    - s.both("no_inter_swap", "swaps_inter"),
    "batch8": lambda s: s.both("batch8", "batches_submitted"),
    "offload_2node": lambda s: s.stat("offload_2node", "offloads_out"),
    "offload_2node_batch8": lambda s: s.stat("offload_2node_batch8", "offloads_out")
    * s.stat("offload_2node_batch8", "batches_submitted"),
}


def _load_fixture():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def sweep():
    return _Sweep()


@pytest.mark.parametrize("key", KEYS)
def test_results_match_golden_hash(sweep, key):
    assert _digest(sweep[key]) == _load_fixture()[key]


@pytest.mark.parametrize("key", KEYS)
def test_failed_jobs_are_the_known_ones(sweep, key):
    """No run has a failed job: a job that fails in the sweep is a model
    bug, not a pinned result."""
    assert sweep[key]["errors"] == 0


@pytest.mark.parametrize("config", [*CONFIGS, *REPLAYS])
def test_each_config_reaches_its_feature(sweep, config):
    assert REACHED[config](sweep)


def test_fixture_names_exactly_the_sweep():
    assert set(_load_fixture()) == set(KEYS)
    assert set(REACHED) == set(CONFIGS) | set(REPLAYS)


def _record():
    sweep = _Sweep()
    FIXTURE.write_text(
        json.dumps({key: _digest(sweep[key]) for key in KEYS}, indent=1) + "\n"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.core.test_golden_sweep --record")
    _record()
