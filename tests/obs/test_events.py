"""Tracer and typed-event semantics."""

from types import SimpleNamespace

from repro.obs import (
    Bind,
    CallSpan,
    EVENT_TYPES,
    PhaseBreakdown,
    QueueDepthChanged,
    SwapOut,
    Tracer,
    event_to_dict,
)
from repro.sim import Environment


def ctx(owner="app0", vgpu=None):
    return SimpleNamespace(owner=owner, vgpu=vgpu)


def vgpu(name="vGPU0-1", device_id=0):
    return SimpleNamespace(name=name, device=SimpleNamespace(device_id=device_id))


def test_disabled_tracer_records_nothing():
    tracer = Tracer(Environment())
    assert not tracer.enabled
    tracer.phase_breakdown(ctx(), "launch_kernel", CallSpan(tracer.env))
    tracer.swap_out(ctx(), 1024)
    tracer.swap_in(ctx(), 1024)
    tracer.bind(ctx(), vgpu())
    tracer.unbind(ctx(), vgpu())
    tracer.queue_depth("waiting_contexts", 3)
    tracer.offload("conn", "node1")
    tracer.checkpoint(ctx(), 64)
    tracer.failure_recovered(ctx(), replayed_kernels=2)
    assert tracer.events == []


def test_call_span_emission():
    """One record per call: the finished span carries the server
    interval and the serving vGPU, wherever the context sits now."""
    env = Environment()
    tracer = Tracer(env, enabled=True, node="n0")

    def driver():
        span = CallSpan(env)
        yield env.timeout(1.0)
        t0 = env.now
        yield env.timeout(2.0)
        span.served(t0, vgpu())
        yield env.timeout(0.5)  # the reply's wire leg
        tracer.phase_breakdown(ctx(vgpu=None), "launch_kernel", span)

    env.process(driver())
    env.run()
    (record,) = tracer.events
    assert isinstance(record, PhaseBreakdown)
    assert record.method == "launch_kernel"
    assert record.vgpu == "vGPU0-1" and record.device_id == 0
    assert record.served_at == 1.0 and record.served_s == 2.0
    assert record.begin_at == 0.0 and record.wall == record.at == 3.5
    assert record.error is None
    assert record.node == "n0"


def test_phase_breakdown_without_span_is_noop():
    """A call that started while tracing was off has no span and must
    not produce a record."""
    tracer = Tracer(Environment(), enabled=True)
    tracer.phase_breakdown(ctx(), "launch_kernel", None)
    assert tracer.events == []


def test_unbound_context_has_no_location():
    tracer = Tracer(Environment(), enabled=True)
    tracer.swap_out(ctx(vgpu=None), 4096)
    (event,) = tracer.events
    assert isinstance(event, SwapOut)
    assert event.device_id is None and event.vgpu is None
    assert event.nbytes == 4096


def test_events_of_and_clear():
    tracer = Tracer(Environment(), enabled=True)
    tracer.bind(ctx(), vgpu())
    tracer.queue_depth("waiting_contexts", 1)
    tracer.queue_depth("waiting_contexts", 0)
    assert len(tracer.events_of(Bind)) == 1
    assert len(tracer.events_of(QueueDepthChanged)) == 2
    assert len(tracer.events_of(Bind, QueueDepthChanged)) == 3
    tracer.clear()
    assert tracer.events == []


def test_subscribers_see_events_synchronously():
    tracer = Tracer(Environment(), enabled=True)
    seen = []
    tracer.subscribers.append(seen.append)
    tracer.queue_depth("pending_connections", 2)
    assert len(seen) == 1
    assert seen[0] is tracer.events[0]


def test_event_to_dict_folds_kind_in():
    for cls in EVENT_TYPES:
        assert isinstance(cls.kind, str)
    tracer = Tracer(Environment(), enabled=True, node="n0")
    tracer.queue_depth("q", 5)
    d = event_to_dict(tracer.events[0])
    assert d == {"kind": "QueueDepthChanged", "at": 0.0, "queue": "q",
                 "depth": 5, "node": "n0"}


def test_method_enum_is_stringified():
    from repro.core.protocol import CallType

    env = Environment()
    tracer = Tracer(env, enabled=True)
    tracer.phase_breakdown(ctx(), CallType.LAUNCH, CallSpan(env))
    (record,) = tracer.events
    assert record.method == CallType.LAUNCH.value
