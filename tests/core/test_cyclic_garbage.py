"""Retry waits and finished processes never pile up while a run's
collector is paused.

Every golden-sweep feature config runs the pressure mix with 4 and with
8 jobs.  Eight jobs retry their launches far more often than four, and
each retry waits on ``any_of([timeout(backoff), memory_freed.wait()])``.
If finished kernel objects were kept alive by cycles, the collector
would find more of them after the larger run.  What it may find is the
same at both sizes: the node's daemon processes, still blocked when the
run ends, and the events they wait on.
"""

import pytest

from repro.core.config import RuntimeConfig
from repro.experiments.harness import run_node_batch
from tests.core.test_golden_sweep import CONFIGS, MIXES
from tests.sim.test_refcount import cyclic_garbage


def _pressure_run(config, njobs):
    def run():
        jobs, gpus, vgpus = MIXES["pressure"]()
        result = run_node_batch(
            jobs[:njobs], gpus, RuntimeConfig(vgpus_per_device=vgpus, **CONFIGS[config])
        )
        assert result.errors == 0

    return run


@pytest.mark.parametrize("config", CONFIGS)
def test_kernel_garbage_does_not_grow_with_jobs(config):
    small = cyclic_garbage(_pressure_run(config, 4))
    large = cyclic_garbage(_pressure_run(config, 8))
    assert large == small
    assert not {"AnyOf", "Timeout"} & set(large)
