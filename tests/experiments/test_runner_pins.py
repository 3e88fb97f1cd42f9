"""Runner pins: TORQUE batches and open-loop arrivals, bit for bit.

The golden sweep pins single-node batches and trace replays; this file
pins the other two entry points of the experiment runner.  Each TORQUE
mode runs on two small mixes on the paper's unbalanced two-node
cluster, plus one run with the node runtimes peered for offloading,
and a seeded Poisson arrival process runs on one node with and without
the runtime.  A fixture holds the SHA-256 of each run's result record
(total and average time, per-job times, failed jobs, ``RuntimeStats``
and the per-class and per-device breakdowns).  Only a change that names
the model bug it fixes may re-record the fixture::

    PYTHONPATH=src python -m tests.experiments.test_runner_pins --record
"""

import dataclasses
import hashlib
import json
import pathlib
import sys

import pytest

from repro.cluster.torque import TorqueMode
from repro.core.config import RuntimeConfig
from repro.experiments.figures import CLUSTER_NODES, NODE_3GPU
from repro.experiments.harness import run_arrival_process, run_cluster_batch
from repro.sim import RngStreams
from repro.workloads import make_job, workload

FIXTURE = pathlib.Path(__file__).with_name("runner_pins.json")


def _short_mix(use_runtime):
    tags = ["HS", "BFS", "MM-S", "BS-S", "HS", "BFS", "MM-S", "BS-S"]
    return [
        make_job(workload(tag), name=f"{tag}#{i}", use_runtime=use_runtime,
                 static_device=i)
        for i, tag in enumerate(tags)
    ]


def _long_mix(use_runtime):
    """Figure 11's 16-job point (25/75 BS-L/MM-L): the runtimes swap,
    and the one-GPU node is loaded enough to offload."""
    bsl = workload("BS-L")
    mml = workload("MM-L").with_cpu_fraction(1.0)
    return [
        make_job(bsl if i % 4 == 0 else mml, name=f"L#{i}",
                 use_runtime=use_runtime, static_device=i)
        for i in range(16)
    ]


MIXES = {"short": _short_mix, "long": _long_mix}

#: TORQUE runs: mode and runtime config (``None`` is the bare CUDA
#: baseline, whose jobs bypass the runtime).
CLUSTER_RUNS = {
    "oblivious": (TorqueMode.OBLIVIOUS, RuntimeConfig(vgpus_per_device=4)),
    "gpu_aware": (TorqueMode.GPU_AWARE, RuntimeConfig(vgpus_per_device=4)),
    "native": (TorqueMode.NATIVE, None),
    "offload": (
        TorqueMode.OBLIVIOUS,
        RuntimeConfig(vgpus_per_device=4, offload_enabled=True),
    ),
}

ARRIVAL_RUNS = {
    "arrivals": RuntimeConfig(vgpus_per_device=4),
    "arrivals_bare": None,
}


def _record_of(result):
    record = dataclasses.asdict(result)
    del record["label"]
    # Device names carry a process-wide counter; keep the values in
    # device order.
    for key in ("gpu_utilization", "copy_overlap"):
        record[key] = list(record[key].values())
    return record


def _run(key):
    if key in ARRIVAL_RUNS:
        config = ARRIVAL_RUNS[key]
        rng = RngStreams(7).stream("arrivals")
        specs = [workload(t) for t in ("HS", "BFS", "MM-S", "BS-L")]
        return _record_of(run_arrival_process(
            specs, NODE_3GPU, config, rng, arrival_rate_per_s=0.5, horizon_s=40.0
        ))
    name, _, mix = key.partition("/")
    mode, config = CLUSTER_RUNS[name]
    jobs = MIXES[mix](use_runtime=config is not None)
    return _record_of(run_cluster_batch(jobs, CLUSTER_NODES, config, mode=mode))


def _digest(run):
    # json.dumps writes floats as repr(): exact, so any bit moves a hash.
    return hashlib.sha256(json.dumps(run, sort_keys=True).encode()).hexdigest()


KEYS = [f"{c}/{m}" for c in CLUSTER_RUNS for m in MIXES] + list(ARRIVAL_RUNS)


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(key):
        if key not in cache:
            cache[key] = _run(key)
        return cache[key]

    return get


@pytest.mark.parametrize("key", KEYS)
def test_results_match_pinned_hash(runs, key):
    assert _digest(runs(key)) == json.loads(FIXTURE.read_text())[key]


@pytest.mark.parametrize("key", KEYS)
def test_every_job_finishes(runs, key):
    run = runs(key)
    assert run["errors"] == 0
    assert run["job_times"] and all(t > 0 for t in run["job_times"])


def test_long_mix_swaps_and_offload_reaches_the_peer(runs):
    assert runs("oblivious/long")["stats"]["swaps_total"] > 0
    assert runs("offload/long")["stats"]["offloads_out"] > 0


def test_fixture_names_exactly_the_runs():
    assert set(json.loads(FIXTURE.read_text())) == set(KEYS)


def _record():
    FIXTURE.write_text(
        json.dumps({key: _digest(_run(key)) for key in KEYS}, indent=1) + "\n"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.experiments.test_runner_pins --record")
    _record()
