"""Tracer and typed-event semantics."""

from types import SimpleNamespace

from repro.obs import (
    Bind,
    CallSpan,
    CheckpointTaken,
    EVENT_TYPES,
    FailureRecovered,
    Offload,
    PhaseBreakdown,
    QueueDepthChanged,
    SwapIn,
    SwapOut,
    Tracer,
    Unbind,
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
    tracer.record(SwapOut, ctx(), nbytes=1024)
    tracer.record(SwapIn, ctx(), nbytes=1024)
    tracer.record(Bind, ctx(), vgpu="vGPU0-1", device_id=0)
    tracer.record(Unbind, ctx(), vgpu="vGPU0-1", device_id=0)
    tracer.record(QueueDepthChanged, queue="waiting_contexts", depth=3)
    tracer.record(Offload, context="conn", dst_node="node1")
    tracer.record(CheckpointTaken, ctx(), nbytes=64)
    tracer.record(FailureRecovered, ctx(), replayed_kernels=2)
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
    tracer.record(SwapOut, ctx(vgpu=None), nbytes=4096)
    (event,) = tracer.events
    assert isinstance(event, SwapOut)
    assert event.device_id is None and event.vgpu is None
    assert event.nbytes == 4096


def test_events_of_and_clear():
    tracer = Tracer(Environment(), enabled=True)
    tracer.record(Bind, ctx(), vgpu="vGPU0-1", device_id=0)
    tracer.record(QueueDepthChanged, queue="waiting_contexts", depth=1)
    tracer.record(QueueDepthChanged, queue="waiting_contexts", depth=0)
    assert len(tracer.events_of(Bind)) == 1
    assert len(tracer.events_of(QueueDepthChanged)) == 2
    assert len(tracer.events_of(Bind, QueueDepthChanged)) == 3
    tracer.clear()
    assert tracer.events == []


def test_subscribers_see_events_synchronously():
    tracer = Tracer(Environment(), enabled=True)
    seen = []
    tracer.subscribers.append(seen.append)
    tracer.record(QueueDepthChanged, queue="pending_connections", depth=2)
    assert len(seen) == 1
    assert seen[0] == tracer.events[0]


def test_event_to_dict_folds_kind_in():
    for cls in EVENT_TYPES:
        assert isinstance(cls.kind, str)
    tracer = Tracer(Environment(), enabled=True, node="n0")
    tracer.record(QueueDepthChanged, queue="q", depth=5)
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


def test_record_fills_declared_fields_from_ctx():
    """Fields the kind declares and the caller leaves out come from the
    context; explicit arguments win, undeclared ones are never added."""
    tracer = Tracer(Environment(), enabled=True, node="n0")
    bound = SimpleNamespace(
        owner="app0", vgpu=vgpu("vGPU1-0", 1), tenant=SimpleNamespace(name="acme")
    )
    tracer.record(SwapOut, bound, nbytes=64)
    tracer.record(Bind, bound, vgpu="vGPU0-1", device_id=0)
    swap, bind = tracer.events
    assert (swap.context, swap.device_id, swap.vgpu, swap.tenant) == (
        "app0", 1, "vGPU1-0", "acme"
    )
    assert (bind.context, bind.device_id, bind.vgpu) == ("app0", 0, "vGPU0-1")
    assert swap.node == bind.node == "n0" and swap.at == bind.at == 0.0
