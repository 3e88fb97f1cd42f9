"""Characterization of the dispatcher's call-serving rules.

Every call kind — a plain call, a batch frame's calls and a graph replay —
is served through one device-failure recovery loop (§4.6) and one
memory-pressure retry loop (§4.5).  These tests pin the simulated finish
time and counters of the paths where those loops meet, so a refactor of
the serving code cannot move a result silently.
"""

from repro.core import RuntimeConfig, dispatcher
from repro.obs import PhaseBreakdown
from repro.simcuda import TESLA_C1060, TESLA_C2050

from tests.core.conftest import Harness, MIB
from tests.core.test_batching import make_kernel, open_and_register
from tests.core.test_swapping import SMALL_GPU, kernel as small_kernel


def test_device_failure_during_auto_detected_graph_replay_frame():
    """The device dies while an auto-instantiated graph replays a batch
    frame: the frame's recovery loop rebinds, replays the journal and
    re-issues the whole graph on the surviving device."""
    h = Harness(
        specs=[TESLA_C2050, TESLA_C1060],
        config=RuntimeConfig(
            graph_replay_enabled=True,
            launch_control_plane_s=40e-6,
            batch_max_calls=8,
        ),
    )
    kernel = make_kernel("looped", seconds=0.2)
    done = {}
    at_kill = {}

    def app():
        fe = h.frontend("replayer", batch_max_calls=8)
        yield from open_and_register(h, fe, kernel)
        ptr = yield from fe.cuda_malloc(16 * MIB)
        yield from fe.cuda_memcpy_h2d(ptr, 16 * MIB)
        yield from fe.flush()
        for _ in range(6 * 4):  # 6 identical frames of 4 cfg/launch pairs
            yield from fe.launch_kernel(kernel, [ptr])
        yield from fe.cuda_memcpy_d2h(ptr, 16 * MIB)
        yield from fe.cuda_thread_exit()
        done["at"] = h.env.now

    def killer():
        yield h.env.timeout(3.5)
        at_kill["replays"] = h.stats.graph_replays
        at_kill["graphs"] = h.stats.graphs_instantiated
        h.runtime.fail_device(h.driver.devices[0])

    h.spawn(app())
    h.spawn(killer())
    h.run()
    # The kill lands inside the second replay frame (frame 4).
    assert at_kill == {"replays": 1, "graphs": 1}
    stats = h.stats
    assert done["at"] == 9.800719542933352
    assert stats.failures_recovered == 1
    assert stats.graph_replays == 4
    assert stats.graph_replayed_kernels == 16
    # Recovery replays the 14 journaled kernels, then the whole graph of
    # the interrupted frame runs again: 24 + 14 + 2 re-issued launches.
    assert stats.replayed_kernels == 14
    assert stats.kernels_launched == 40
    assert stats.calls_served == 55


def test_graph_replay_backs_off_under_memory_pressure():
    """A graph replay that finds no device memory and no victim unbinds,
    backs off and retries (§4.5).  The lost time is off-device time: the
    call's span charges it to ``preempted``, nested inside
    ``graph_replay``, exactly as the plain launch and journal replay do."""
    h = Harness(
        specs=[SMALL_GPU],
        config=RuntimeConfig(
            vgpus_per_device=2,
            enable_inter_swap=False,
            swap_retry_backoff_s=1e-3,
            graph_replay_enabled=True,
            tracing=True,
        ),
    )
    buf = 300 * MIB
    done = {}

    def holder():
        fe = h.frontend("holder")
        k = small_kernel("hold-k")
        yield from open_and_register(h, fe, k)
        a = yield from fe.cuda_malloc(buf)
        yield from fe.cuda_memcpy_h2d(a, buf)
        yield from fe.launch_kernel(k, [a])
        yield h.env.timeout(1.0)  # CPU phase, still resident
        yield from fe.launch_kernel(k, [a])
        yield from fe.cuda_thread_exit()
        done["holder"] = h.env.now

    def grapher():
        fe = h.frontend("grapher")
        k = small_kernel("graph-k")
        yield from open_and_register(h, fe, k)
        yield h.env.timeout(0.2)  # let the holder take the memory first
        b = yield from fe.cuda_malloc(buf)
        yield from fe.cuda_memcpy_h2d(b, buf)
        yield from fe.graph_begin_capture()
        for _ in range(3):
            yield from fe.launch_kernel(k, [b])
        graph = yield from fe.graph_end_capture()
        yield from fe.graph_launch(graph)
        yield from fe.cuda_thread_exit()
        done["grapher"] = h.env.now

    h.spawn(holder())
    h.spawn(grapher())
    h.run()
    stats = h.stats
    assert done == {"holder": 1.4435596640000004, "grapher": 1.6567292560000002}
    assert stats.graph_replays == 1
    assert stats.graph_replayed_kernels == 3
    assert stats.swap_retries == 10
    [replay] = [
        e
        for e in h.runtime.obs.events_of(PhaseBreakdown)
        if e.context == "grapher" and e.method == "reproGraphLaunch"
    ]
    phases = dict(replay.phases)
    assert replay.wall == 1.176022024
    # The cold replay pays no replay-level control-plane charge, so the
    # time inside graph_replay is all nested: fault-in, execution and the
    # back-off while the holder keeps the device memory.
    assert phases["preempted"] == 0.9619044320000006
    assert "graph_replay" not in phases
    assert abs(sum(phases.values()) - replay.wall) < 1e-9


def test_plain_call_retried_after_device_failure_repays_overhead(monkeypatch):
    """A plain call that meets a dead device is marked failed and served
    again from the top: the retry re-pays ``DISPATCHER_OVERHEAD_S`` before
    recovery replays the journal on the surviving device."""
    monkeypatch.setattr(dispatcher, "DISPATCHER_OVERHEAD_S", 0.05)
    h = Harness(specs=[TESLA_C2050, TESLA_C1060])
    kernel = make_kernel("plain-k", seconds=0.3)
    done = {}

    def app():
        fe = h.frontend("plain")
        yield from open_and_register(h, fe, kernel)
        ptr = yield from fe.cuda_malloc(32 * MIB)
        yield from fe.cuda_memcpy_h2d(ptr, 32 * MIB)
        for _ in range(4):
            yield from fe.launch_kernel(kernel, [ptr])
        yield from fe.cuda_memcpy_d2h(ptr, 32 * MIB)
        yield from fe.cuda_thread_exit()
        done["at"] = h.env.now

    def killer():
        yield h.env.timeout(1.9)
        h.runtime.fail_device(h.driver.devices[0])

    h.spawn(app())
    h.spawn(killer())
    h.run()
    stats = h.stats
    # The third launch meets the dead device; served again, it pays the
    # 50 ms overhead a second time before the journal replays.
    assert done["at"] == 3.8033585625846147
    assert stats.failures_recovered == 1
    assert stats.calls_served == 15
    assert stats.replayed_kernels == 2
    assert stats.kernels_launched == 6
