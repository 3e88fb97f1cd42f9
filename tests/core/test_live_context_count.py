"""The dispatcher holds live contexts only, wherever placement and
offloading read the load (paper §4.6, §4.7)."""

from repro.core import RuntimeConfig
from repro.core.context import ContextState
from repro.core.runtime import NodeRuntime
from repro.obs import ObsCollector
from repro.workloads.trace_replay import (
    REPLAY_SWAP_CAPACITY_BYTES,
    replay_trace,
    synthetic_trace,
)


def test_live_count_equals_a_rescan_at_every_placement(monkeypatch):
    checked = []
    load_per_vgpu = NodeRuntime.load_per_vgpu

    def checked_load(runtime):
        contexts = runtime.dispatcher.contexts
        checked.append(
            (runtime, len(contexts), [c.state is ContextState.DONE for c in contexts])
        )
        return load_per_vgpu(runtime)

    monkeypatch.setattr(NodeRuntime, "load_per_vgpu", checked_load)
    config = RuntimeConfig(
        offload_enabled=True, host_swap_capacity_bytes=REPLAY_SWAP_CAPACITY_BYTES
    )
    result = replay_trace(
        synthetic_trace(40, seed=3), nodes=2, config=config, collector=ObsCollector()
    )
    assert result.errors == 0
    assert result.stats["offloads_out"] > 0
    runtimes = {runtime for runtime, _, _ in checked}
    assert len(runtimes) == 2
    assert any(live > 0 for _, live, _ in checked)
    assert not any(any(done) for _, _, done in checked)
    # Every context finished: the dispatcher holds none.
    for runtime in runtimes:
        assert runtime.dispatcher.contexts == []
