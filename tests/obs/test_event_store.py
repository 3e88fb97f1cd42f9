"""The tracer's event store: every event reads back as it was emitted.

Two traced runs have their JSON-lines stream and Chrome trace pinned by
SHA-256, so a change to how events are held cannot move a byte of what
the exporters write.  A round trip over every kind in ``EVENT_TYPES``
checks each field's value *and type*: an int in a float field must come
back an int, or the JSON changes.  Further round trips cover each
column kind's edge values (the int column's None entry, bools, ints
past int64, non-str values in str fields) and the intern table's switch
to 32-bit codes.  Two memory checks keep the store small and the
dispatcher free of finished contexts.
"""

import dataclasses
import gc
import hashlib
import importlib
import itertools
import json
import tracemalloc
import weakref

import pytest

from repro.cli import _parse_jobs
from repro.core import RuntimeConfig
from repro.core.dispatcher import Dispatcher
from repro.experiments.harness import run_node_batch
from repro.obs import (
    EVENT_TYPES,
    PHASES,
    Migration,
    ObsCollector,
    PhaseBreakdown,
    QueueDepthChanged,
    SwapOut,
    TenantAdmission,
    Tracer,
    chrome_trace,
    json_lines,
)
from repro.sim import Environment
from repro.simcuda.device import TESLA_C2050
from repro.workloads.trace_replay import (
    REPLAY_SWAP_CAPACITY_BYTES,
    replay_trace,
    synthetic_trace,
)

#: Process-wide id counters whose values reach the event stream
#: (socket, request, trace and span ids; device ids and the vGPU names
#: built from them).  Each pinned run restarts them, so its digests do
#: not depend on what ran earlier in the process.
_ID_COUNTERS = (
    ("repro.net.socket", "_socket_ids", 1),
    ("repro.net.rpc", "_request_ids", 1),
    ("repro.net.rpc", "_trace_ids", 1),
    ("repro.obs.span", "_span_ids", 1),
    ("repro.simcuda.streams", "_stream_ids", 1),
    ("repro.simcuda.context", "_context_ids", 1),
    ("repro.simcuda.device", "_device_ids", 0),
    ("repro.core.dispatcher", "_graph_ids", 1),
    ("repro.core.context", "_context_ids", 1),
)

#: (events, SHA-256 of ``json_lines``, SHA-256 of the Chrome trace's
#: ``json.dumps``) per run, recorded with events held as one frozen
#: dataclass object each.
PINNED = {
    "replay": (
        1314,
        "bd418afb25ccb7d855548008931ea354651a04c33bc5b6485a7af91f66336959",
        "51b342388b6b065cb0ac04a5dc10edf83ca058b2416e57ab73f4c0f259cf9c53",
    ),
    "default_mix": (
        3634,
        "ca017af5bbff8e13c4117df82613f0dcb8c6bd57597c044a6e34c51a49a761ec",
        "64b9f693098e3310adb338046d37ecc3afaafdc0ea0b5bf9fcf337bf5ac57aba",
    ),
}


@pytest.fixture
def fresh_ids(monkeypatch):
    for module, name, start in _ID_COUNTERS:
        monkeypatch.setattr(importlib.import_module(module), name, itertools.count(start))


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _replay(collector):
    """A small traced trace replay: 40 jobs on two peered nodes with
    offloading on."""
    config = RuntimeConfig(
        offload_enabled=True, host_swap_capacity_bytes=REPLAY_SWAP_CAPACITY_BYTES
    )
    return replay_trace(
        synthetic_trace(40, seed=3), nodes=2, config=config, collector=collector
    )


def _default_mix(collector):
    """The CLI's default mix (`repro-sim run --vgpus 4 --jobs 8`), traced."""
    return run_node_batch(
        _parse_jobs(["8"], 0.0), [TESLA_C2050],
        RuntimeConfig(vgpus_per_device=4, tracing=True), collector=collector,
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_exported_output_is_pinned(fresh_ids, name):
    collector = ObsCollector()
    {"replay": _replay, "default_mix": _default_mix}[name](collector)
    events = collector.events
    digest = (
        len(events),
        _sha(json_lines(events)),
        _sha(json.dumps(chrome_trace(events))),
    )
    assert digest == PINNED[name]
    assert sum(len(r.obs) for r in collector.runtimes) == len(events)


# ---------------------------------------------------------------------------
# Per-kind round trip
# ---------------------------------------------------------------------------

def _sample(kind, variant):
    """Fields for one ``kind`` event: variant 0 puts None in every
    optional field, variant 1 a value of the declared type."""
    fields = {}
    for i, f in enumerate(dataclasses.fields(kind)):
        if f.name in ("at", "node"):
            continue  # stamped by the tracer
        ann = f.type
        if ann.startswith("Optional") and variant == 0:
            value = None
        elif "float" in ann and ann.startswith("Tuple"):
            if f.name == "phases":
                names = sorted(PHASES[variant::3])
                value = tuple((name, 0.125 * (j + 1)) for j, name in enumerate(names))
            else:
                value = (("vGPU0.1", 0.5), ("vGPU1.0", 1.0 / 3.0))[: variant + 1]
        elif "float" in ann:
            value = 0.1 * (i + 1) + variant
        elif "int" in ann:
            value = (2**40 + i) if variant else i
        elif "bool" in ann:
            value = bool(variant)
        else:
            value = f"{f.name}-{variant}"
        fields[f.name] = value
    if kind is PhaseBreakdown and variant:
        fields["error"] = "cudaErrorMemoryAllocation"
    return fields


def _expected(kind, tracer, fields):
    return kind(at=tracer.env.now, node=tracer.node, **fields)


def test_every_kind_round_trips_with_its_types():
    env = Environment()
    tracer = Tracer(env, enabled=True, node="n0")
    expected = []

    def emit_all(kinds, variant):
        for kind in kinds:
            fields = _sample(kind, variant)
            tracer.record(kind, **fields)
            expected.append(_expected(kind, tracer, fields))

    emit_all(EVENT_TYPES, 0)
    env.run(until=1.5)
    emit_all(reversed(EVENT_TYPES), 1)
    # Ints in float fields and phase values come back as ints.
    odd = [
        (TenantAdmission, dict(context="c", tenant="t", decision="queued", waited_s=3)),
        (PhaseBreakdown, dict(context="c", method="m", wall=2, phases=(("exec", 1),))),
        (PhaseBreakdown, dict(context="c", method="m", phases=(("custom", 0.5),))),
    ]
    for kind, fields in odd:
        tracer.record(kind, **fields)
        expected.append(_expected(kind, tracer, fields))

    events = tracer.events
    assert len(tracer) == len(events) == len(expected) == 2 * len(EVENT_TYPES) + 3
    assert events == expected
    for got, want in zip(events, expected):
        for f in dataclasses.fields(want):
            assert type(getattr(got, f.name)) is type(getattr(want, f.name)), f.name
    assert json_lines(events) == json_lines(expected)
    assert json.dumps(chrome_trace(events)) == json.dumps(chrome_trace(expected))


class _Label(str):
    """A str subclass: equal to its plain-str value, but not the same type."""


def test_column_kinds_round_trip_every_value():
    """Each column gives back what was emitted, types included; only
    values the column cannot hold unchanged are kept aside, one field
    per row of ``aside``."""
    tracer = Tracer(Environment(), enabled=True, node="n0")
    kept = [
        (QueueDepthChanged, dict(queue="q", depth=-5)),
        (QueueDepthChanged, dict(queue="q", depth=-(2**63) + 1)),
        (QueueDepthChanged, dict(queue="q", depth=2**63 - 1)),
        (SwapOut, dict(context="c", nbytes=0, device_id=None, vgpu=None, tenant="")),
        (Migration, dict(context="c", src_device=3, p2p=True)),
        (PhaseBreakdown, dict(context="c", method="m", error="e", span_id=None)),
    ]
    aside = [
        # The int column's entry for None, as a value of its own.
        (QueueDepthChanged, dict(queue="q", depth=-(2**63))),
        (QueueDepthChanged, dict(queue="q", depth=True)),
        (QueueDepthChanged, dict(queue="q", depth=2**63)),
        (QueueDepthChanged, dict(queue="q", depth=-(2**63) - 1)),
        (QueueDepthChanged, dict(queue="q", depth=2.0)),
        (SwapOut, dict(context=7, nbytes=1)),
        (SwapOut, dict(context="c", nbytes=1, vgpu=["vGPU0.0"])),
        (SwapOut, dict(context=_Label("c"), nbytes=1)),
        # 1 and 1.0 equal True, which the table holds by now.
        (SwapOut, dict(context="c", nbytes=1, vgpu=1)),
        (Migration, dict(context="c", p2p=1.0)),
    ]
    expected = []
    for kind, fields in kept + aside:
        tracer.record(kind, **fields)
        expected.append(_expected(kind, tracer, fields))
    events = tracer.events
    assert events == expected
    for got, want in zip(events, expected):
        for f in dataclasses.fields(want):
            assert type(getattr(got, f.name)) is type(getattr(want, f.name)), f.name
    assert json_lines(events) == json_lines(expected)
    assert sum(len(log.odd) for log in tracer._logs) == len(aside)


def test_intern_table_widens_codes_past_16_bits():
    """Past 65,536 distinct values every code column holds 32-bit codes,
    in logs opened before the switch and after it; a row that crosses
    it keeps every field."""
    tracer = Tracer(Environment(), enabled=True, node="n0")
    expected = []

    def record(kind, **fields):
        tracer.record(kind, **fields)
        expected.append(_expected(kind, tracer, fields))

    record(QueueDepthChanged, queue="q", depth=0)
    i = 0
    while len(tracer._values) < 0x10000:
        record(SwapOut, context=f"c{i}", nbytes=i, tenant="t")
        i += 1
    assert all(
        column.typecode == "H" for log in tracer._logs for _, _, column in log.coded
    )
    # The first 17-bit code is handed out in ``context``; ``vgpu`` then
    # finds it and ``tenant`` an old one, both after the switch.
    record(SwapOut, context="wide", nbytes=1, vgpu="wide", tenant="t")
    record(QueueDepthChanged, queue="wide", depth=1)
    record(PhaseBreakdown, context="wide", method="after", vgpu="wide")
    assert len(tracer._values) > 0x10000
    assert all(
        column.typecode == "I" for log in tracer._logs for _, _, column in log.coded
    )
    assert all(
        log.columns[name] is column for log in tracer._logs for name, _, column in log.coded
    )
    assert tracer.events == expected


def test_each_tracer_has_its_own_intern_table():
    env = Environment()
    a, b = Tracer(env, enabled=True, node="a"), Tracer(env, enabled=True, node="b")
    a.record(SwapOut, context="only-a", nbytes=1)
    b.record(SwapOut, context="only-b", nbytes=1)
    assert "only-b" not in a._codes and "only-a" not in b._codes
    assert [e.context for e in a.events] == ["only-a"]
    assert [e.context for e in b.events] == ["only-b"]
    a.clear()
    assert a._values == [] and a._codes == {}
    assert [e.context for e in b.events] == ["only-b"]
    a.record(SwapOut, context="again", nbytes=2)
    assert [(e.context, e.node) for e in a.events] == [("again", "a")]


def test_events_of_keeps_emission_order_across_kinds():
    tracer = Tracer(Environment(), enabled=True)
    for depth in range(4):
        tracer.record(QueueDepthChanged, queue="q", depth=depth)
        tracer.record(SwapOut, context=f"c{depth}", nbytes=depth)
        tracer.record(PhaseBreakdown, context=f"c{depth}", method="m")
    both = tracer.events_of(SwapOut, QueueDepthChanged)
    assert [type(e) for e in both] == [QueueDepthChanged, SwapOut] * 4
    assert [e.depth for e in tracer.events_of(QueueDepthChanged)] == [0, 1, 2, 3]
    assert tracer.events_of() == []
    assert tracer.events_of(SwapOut, QueueDepthChanged, PhaseBreakdown) == tracer.events
    tracer.clear()
    assert len(tracer) == 0 and tracer.events == []
    tracer.record(SwapOut, context="again", nbytes=1)
    assert [e.context for e in tracer.events] == ["again"]


def test_record_rejects_unknown_and_missing_fields():
    tracer = Tracer(Environment(), enabled=True)
    with pytest.raises(TypeError):
        tracer.record(SwapOut, context="c", nbytes=1, bogus=2)
    with pytest.raises(TypeError):
        tracer.record(SwapOut, context="c")
    assert tracer.events == []


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

#: Bytes per event the tracers free on ``clear`` after ``_replay``
#: (CPython 3.11.7): 116 B run alone, 115 B after the other tests in
#: this file, plus 9% headroom.  One frozen dataclass object per event
#: (the object, its ``phases`` tuples, and the floats and ints only it
#: referenced) took 365 B, columns of references 159 B.
STORE_BYTES_PER_EVENT = 127


def test_tracer_holds_at_most_half_the_object_store_per_event():
    """Bytes the tracers free on ``clear`` after a small traced replay
    (1,314 events), per event, under tracemalloc."""
    collector = ObsCollector()
    tracemalloc.start()
    try:
        _replay(collector)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        recorded = sum(len(r.obs) for r in collector.runtimes)
        for runtime in collector.runtimes:
            runtime.obs.clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert recorded > 1000
    per_event = freed / recorded
    assert per_event <= STORE_BYTES_PER_EVENT, f"{per_event:.0f} B per event"


def test_finished_contexts_are_not_retained(monkeypatch):
    """Once a replay returns, no finished ``Context`` is reachable, even
    while the collector still holds every node runtime."""
    refs = []
    open_context = Dispatcher.open_context

    def tracked(self, owner):
        ctx = open_context(self, owner)
        refs.append(weakref.ref(ctx))
        return ctx

    monkeypatch.setattr(Dispatcher, "open_context", tracked)
    collector = ObsCollector()
    result = _replay(collector)
    gc.collect()
    assert result.errors == 0 and len(refs) >= 40
    assert all(r.dispatcher.contexts == [] for r in collector.runtimes)
    assert sum(1 for ref in refs if ref() is not None) == 0
