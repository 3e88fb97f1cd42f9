"""OffloadManager.choose_peer edge cases (paper §4.7)."""

from repro.core import NodeRuntime, RuntimeConfig
from repro.core.context import ContextState
from repro.sim import Environment
from repro.simcuda import CudaDriver, TESLA_C2050


def _node(env, name, vgpus=1, margin=0.5):
    driver = CudaDriver(env, [TESLA_C2050])
    node = NodeRuntime(
        env, driver,
        RuntimeConfig(vgpus_per_device=vgpus, offload_enabled=True,
                      offload_load_margin=margin),
        name=name,
    )
    env.process(node.start())
    env.run()  # spawn the vGPUs so capacities are real
    return node


def _load(env, node, n):
    """Open n live (pending) contexts on a node through the dispatcher,
    which holds them until they exit."""
    for i in range(n):
        node.dispatcher.open_context(f"{node.name}-c{i}")


def test_no_peers_returns_none():
    env = Environment()
    node = _node(env, "solo")
    _load(env, node, 5)  # overloaded, but nowhere to go
    assert node.offloader.choose_peer() is None


def test_unsaturated_local_gpus_keep_the_job():
    env = Environment()
    a, b = _node(env, "a", vgpus=4), _node(env, "b")
    a.offloader.add_peer(b)
    _load(env, a, 2)  # 2 live < 4 vGPUs: not saturated
    assert a.offloader.choose_peer() is None


def test_all_peers_equally_saturated_returns_none():
    env = Environment()
    a, b, c = _node(env, "a"), _node(env, "b"), _node(env, "c")
    a.offloader.add_peer(b)
    a.offloader.add_peer(c)
    _load(env, a, 3)
    _load(env, b, 4)
    _load(env, c, 4)
    # projected local load (3+1)/1 = 4 vs best peer 4 + 0.5 margin:
    # shipping the job would not beat keeping it.
    assert a.offloader.choose_peer() is None


def test_margin_blocks_marginal_wins():
    env = Environment()
    a, b = _node(env, "a", margin=2.0), _node(env, "b")
    a.offloader.add_peer(b)
    _load(env, a, 2)  # projected (2+1)/1 = 3
    _load(env, b, 1)  # peer load 1; 3 <= 1 + 2.0 margin
    assert a.offloader.choose_peer() is None


def test_least_loaded_peer_wins():
    env = Environment()
    a = _node(env, "a")
    busy, idle = _node(env, "busy"), _node(env, "idle")
    a.offloader.add_peer(busy)
    a.offloader.add_peer(idle)
    _load(env, a, 3)
    _load(env, busy, 2)
    peer = a.offloader.choose_peer()
    assert peer is not None and peer.runtime is idle


def test_tie_breaks_to_first_registered_peer():
    env = Environment()
    a = _node(env, "a")
    p1, p2 = _node(env, "p1"), _node(env, "p2")
    a.offloader.add_peer(p1)
    a.offloader.add_peer(p2)
    _load(env, a, 3)  # both peers idle and tied at load 0
    peer = a.offloader.choose_peer()
    assert peer is not None and peer.runtime is p1


def test_done_contexts_do_not_count_as_load():
    env = Environment()
    a, b = _node(env, "a"), _node(env, "b")
    a.offloader.add_peer(b)
    _load(env, a, 3)
    opened = list(a.dispatcher.contexts)
    for ctx in opened:
        env.process(a.dispatcher._exit(ctx))
    env.run()
    assert all(c.state is ContextState.DONE for c in opened)
    assert a.dispatcher.contexts == []
    # All local work finished: the node is not saturated.
    assert a.offloader.choose_peer() is None


def test_zero_capacity_node_always_offloads():
    """A node whose every device failed (capacity 0) hands work away to
    any finite-load peer."""
    env = Environment()
    a, b = _node(env, "a"), _node(env, "b")
    a.offloader.add_peer(b)
    a.driver.devices[0].fail()
    a.note_device_failure(a.driver.devices[0])
    _load(env, a, 1)
    peer = a.offloader.choose_peer()
    assert peer is not None and peer.runtime is b


class _Unscannable(list):
    """A context list whose iteration fails: the load metric must not
    scan every context a node has served."""

    def __iter__(self):
        raise AssertionError("load scanned Dispatcher.contexts")


def test_load_and_peer_choice_read_the_live_count():
    env = Environment()
    a, b = _node(env, "a"), _node(env, "b")
    a.offloader.add_peer(b)
    _load(env, a, 3)
    _load(env, b, 1)
    for node in (a, b):
        node.dispatcher.contexts = _Unscannable(node.dispatcher.contexts)
    assert a.load_per_vgpu() == 3.0
    assert b.load_per_vgpu() == 1.0
    peer = a.offloader.choose_peer()
    assert peer is not None and peer.runtime is b
