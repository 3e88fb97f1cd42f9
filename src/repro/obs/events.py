"""Structured event bus keyed on the simulation clock.

The paper's dispatcher "may expose some information to the cluster-level
scheduler" (§2); this module generalizes that introspection surface into
a zero-dependency tracing bus.  Components emit *typed events* — call
spans, swap traffic, binding changes, migrations, offloads, checkpoints,
recoveries, queue depths — through :meth:`Tracer.record` on the
:class:`Tracer` owned by the node runtime.  When tracing is disabled (the
default) it returns before gathering any field, so the hot paths pay
one attribute check and nothing else; simulated time is never affected
either way.

Event kinds are plain frozen dataclasses so exporters
(:mod:`repro.obs.export`) can serialize them without reflection
surprises, and tests can assert on them structurally.  The tracer keeps
no event objects, though: it stores each kind as columns and builds the
objects when they are read (see :class:`Tracer`).
"""

from __future__ import annotations

import dataclasses
from array import array
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

from repro.obs.span import PHASES

__all__ = [
    "EngineSpan",
    "SwapOut",
    "SwapIn",
    "Eviction",
    "Bind",
    "Unbind",
    "Migration",
    "Offload",
    "CheckpointTaken",
    "FailureRecovered",
    "TenantAdmission",
    "Preemption",
    "BindingDecision",
    "QueueDepthChanged",
    "PhaseBreakdown",
    "BatchSubmit",
    "GraphInstantiate",
    "GraphReplay",
    "EVENT_TYPES",
    "Tracer",
    "event_to_dict",
]


@dataclasses.dataclass(frozen=True, slots=True)
class EngineSpan:
    """One occupancy of a device engine: a DMA transfer on the copy
    engine or a kernel on the exec engine.  Emitted from the driver at
    operation end (it carries its own begin time), so the span covers
    only actual engine time — queueing for the engine is excluded.
    Concurrent copy/exec spans on one device are the §4.5
    computation/communication overlap, rendered as overlapping rows in
    the Chrome trace."""

    kind: ClassVar[str] = "EngineSpan"
    at: float
    context: str
    engine: str          # "exec" | "copy"
    op: str              # kernel name or memcpy_{h2d,d2h,peer}
    nbytes: int = 0
    begin_at: float = 0.0
    duration: float = 0.0
    device_id: Optional[int] = None
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class SwapOut:
    """One page-table entry written back / released from device memory."""

    kind: ClassVar[str] = "SwapOut"
    at: float
    context: str
    nbytes: int
    device_id: Optional[int] = None
    vgpu: Optional[str] = None
    node: str = ""
    tenant: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class SwapIn:
    """A deferred/bulk host→device transfer faulted data back in."""

    kind: ClassVar[str] = "SwapIn"
    at: float
    context: str
    nbytes: int
    device_id: Optional[int] = None
    vgpu: Optional[str] = None
    node: str = ""
    tenant: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class Eviction:
    """One device-wide partial eviction resolved a launch's memory
    pressure: the policy freed ``bytes_freed`` across ``victims``
    contexts, writing back ``dirty_bytes`` of device-dirty data."""

    kind: ClassVar[str] = "Eviction"
    at: float
    context: str          # the requester whose launch triggered it
    policy: str
    bytes_freed: int
    dirty_bytes: int
    victims: int = 0
    device_id: Optional[int] = None
    node: str = ""
    tenant: str = ""      # the requester's tenant


@dataclasses.dataclass(frozen=True, slots=True)
class Bind:
    """A context was granted a vGPU."""

    kind: ClassVar[str] = "Bind"
    at: float
    context: str
    vgpu: str
    device_id: Optional[int] = None
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class Unbind:
    """A context released (or was evicted from) its vGPU."""

    kind: ClassVar[str] = "Unbind"
    at: float
    context: str
    vgpu: str
    device_id: Optional[int] = None
    reason: str = ""
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class Migration:
    """Dynamic binding moved a job between devices (§5.3.4)."""

    kind: ClassVar[str] = "Migration"
    at: float
    context: str
    src_device: Optional[int] = None
    dst_device: Optional[int] = None
    p2p: bool = False
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class Offload:
    """A pending connection was redirected to a peer node (§4.7)."""

    kind: ClassVar[str] = "Offload"
    at: float
    context: str
    dst_node: str = ""
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class CheckpointTaken:
    """Dirty device state was written back to the swap area (§4.6)."""

    kind: ClassVar[str] = "CheckpointTaken"
    at: float
    context: str
    nbytes: int = 0
    device_id: Optional[int] = None
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class FailureRecovered:
    """A failed context was rebound and its journal replayed (§4.6)."""

    kind: ClassVar[str] = "FailureRecovered"
    at: float
    context: str
    replayed_kernels: int = 0
    device_id: Optional[int] = None
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class TenantAdmission:
    """Admission control decided on a connection's handshake: admitted
    (possibly after queueing ``waited_s``) or queued."""

    kind: ClassVar[str] = "TenantAdmission"
    at: float
    context: str
    tenant: str
    decision: str        # "admitted" | "queued"
    waited_s: float = 0.0
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class Preemption:
    """A context exhausted its vGPU quantum while others waited and was
    unbound at a call boundary (repro.qos time-slicing)."""

    kind: ClassVar[str] = "Preemption"
    at: float
    context: str
    vgpu: str
    quantum_s: float
    used_s: float
    tenant: str = ""
    device_id: Optional[int] = None
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class BindingDecision:
    """The transfer-cost model scored the idle vGPUs for a binding
    (§4.4 locality-aware dynamic binding): ``scores`` holds every
    candidate's (vgpu name, modeled time-to-first-kernel seconds) and
    ``chosen`` the winner."""

    kind: ClassVar[str] = "BindingDecision"
    at: float
    context: str
    chosen: str
    device_id: Optional[int] = None
    scores: Tuple[Tuple[str, float], ...] = ()
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class QueueDepthChanged:
    """A runtime queue (waiting contexts, pending connections) changed
    depth."""

    kind: ClassVar[str] = "QueueDepthChanged"
    at: float
    queue: str
    depth: int
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class PhaseBreakdown:
    """One completed call: the only per-call record.

    Emitted by the dispatcher when the response hits the wire, from the
    :class:`repro.obs.span.CallSpan` that travelled with the call.  The
    ``phases`` tuple decomposes ``wall`` (response time as the frontend
    experiences it: wire out, queueing, memory work, execution, wire
    back) into named buckets that sum to it exactly; ``trace_id`` groups
    all calls of one connection and ``span_id`` is the RPC request id.
    ``served_at``/``served_s`` are the server-side interval (lock
    acquired to the call's bookkeeping) and ``device_id``/``vgpu`` the
    vGPU that served it — binding may happen mid-call, and the context
    may sit elsewhere once the reply lands.
    """

    kind: ClassVar[str] = "PhaseBreakdown"
    at: float
    context: str
    method: str
    trace_id: Optional[int] = None
    span_id: Optional[int] = None
    begin_at: float = 0.0
    wall: float = 0.0
    served_at: float = 0.0
    served_s: float = 0.0
    phases: Tuple[Tuple[str, float], ...] = ()
    tenant: str = ""
    error: Optional[str] = None
    device_id: Optional[int] = None
    vgpu: Optional[str] = None
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class BatchSubmit:
    """A batch frame arrived at the dispatcher: ``calls`` journaled calls
    executing in one scheduler round-trip (control-plane batching)."""

    kind: ClassVar[str] = "BatchSubmit"
    at: float
    context: str
    calls: int
    wire_bytes: int = 0
    node: str = ""
    tenant: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class GraphInstantiate:
    """A launch sequence was instantiated as a replayable graph —
    explicitly (stream capture) or by journal repeat detection."""

    kind: ClassVar[str] = "GraphInstantiate"
    at: float
    context: str
    graph_id: int
    kernels: int
    explicit: bool = False
    node: str = ""
    tenant: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class GraphReplay:
    """An instantiated graph was re-issued whole.  ``invalidated`` marks
    replays whose cached translations had gone stale (a journaled buffer
    was evicted between replays), forcing the full per-launch path."""

    kind: ClassVar[str] = "GraphReplay"
    at: float
    context: str
    graph_id: int
    kernels: int
    invalidated: bool = False
    device_id: Optional[int] = None
    node: str = ""
    tenant: str = ""


EVENT_TYPES: Tuple[type, ...] = (
    EngineSpan,
    SwapOut,
    SwapIn,
    Eviction,
    Bind,
    Unbind,
    Migration,
    Offload,
    CheckpointTaken,
    FailureRecovered,
    TenantAdmission,
    Preemption,
    BindingDecision,
    QueueDepthChanged,
    PhaseBreakdown,
    BatchSubmit,
    GraphInstantiate,
    GraphReplay,
)


def event_to_dict(event: Any) -> Dict[str, Any]:
    """A JSON-ready dict of the event's fields in declaration order,
    with its ``kind`` folded in.  Shallow: events are frozen and hold
    only immutable values, so the dict shares them instead of copying."""
    d = {name: getattr(event, name) for name in _FIELD_NAMES[type(event)]}
    d["kind"] = event.kind
    return d


#: Per event kind, its field names in declaration order.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {
    kind: tuple(f.name for f in dataclasses.fields(kind)) for kind in EVENT_TYPES
}


#: Per event kind, the fields :meth:`Tracer.record` can take from a
#: runtime context: the kind declares them and the caller may leave
#: them out.
_CTX_FIELDS: Dict[type, Tuple[str, ...]] = {
    kind: tuple(
        name
        for name in ("context", "device_id", "vgpu", "tenant")
        if name in kind.__dataclass_fields__
    )
    for kind in EVENT_TYPES
}

#: Column index of each named phase in a stored ``phases`` tuple.
_PHASE_INDEX: Dict[str, int] = {name: i for i, name in enumerate(PHASES)}


#: Declared field types whose values are stored as codes into the
#: tracer's intern table.
_CODED_TYPES = frozenset({"str", "Optional[str]", "bool"})
#: Declared field types stored in an ``array('q')``.
_INT_TYPES = frozenset({"int", "Optional[int]"})
#: An int column's entry for None (the smallest int64), and the end of
#: the int64 range: a value outside ``(_NONE, _INT_END)`` goes to ``odd``.
_NONE = -(2**63)
_INT_END = 2**63


class _KindLog:
    """One event kind's rows, held as columns.

    Each field's column depends on its declared type:

    - ``float``: an ``array('d')``;
    - ``str``, ``Optional[str]`` and ``bool``: an ``array('H')`` of codes
      into the tracer's intern table (``'I'`` once the table outgrows
      16-bit codes);
    - ``int`` and ``Optional[int]``: an ``array('q')``, ``_NONE`` for None;
    - ``phases``: three arrays: each row's end offset, then per phase
      its index in ``PHASES`` and its seconds;
    - anything else (``BindingDecision.scores``): a list of references.

    A value its column would not give back unchanged (an int in a float
    field, a bool or an int outside int64 or ``_NONE`` itself in an int
    field, a non-str in a str field, a ``phases`` that is not a tuple of
    ``(PHASES name, float)`` pairs) is kept as given in ``odd``, keyed
    by ``(field, row)``, over a placeholder in the column.
    """

    __slots__ = (
        "kind", "index", "rows", "names", "required", "columns", "floats",
        "coded", "ints", "refs", "phase_ends", "phase_ids", "phase_seconds",
        "odd",
    )

    def __init__(self, kind: type, index: int):
        self.kind = kind
        self.index = index
        self.rows = 0
        fields = dataclasses.fields(kind)
        self.names = frozenset(f.name for f in fields)
        #: The fields without a default, except ``at``, which every row
        #: carries (:meth:`Tracer.record` and
        #: :meth:`Tracer.phase_breakdown` stamp it).
        self.required = tuple(
            f.name
            for f in fields
            if f.default is dataclasses.MISSING and f.name != "at"
        )
        #: Field name → column, in the dataclass's field order (None
        #: for ``phases``, which lives in the three phase arrays).
        self.columns: Dict[str, Any] = {}
        floats, ints, refs = [], [], []
        #: A list, not a tuple: promotion to 32-bit codes swaps its
        #: entries in place, so an :meth:`Tracer.emit` loop over it
        #: picks the new arrays up mid-row.
        self.coded: List[Tuple[str, Any, array]] = []
        self.phase_ends = self.phase_ids = self.phase_seconds = None
        for f in fields:
            if f.name == "phases":
                self.phase_ends = array("I")
                self.phase_ids = array("B")
                self.phase_seconds = array("d")
                self.columns[f.name] = None
                continue
            if f.type in ("float", float):
                column, group = array("d"), floats
            elif f.type in _CODED_TYPES:
                column, group = array("H"), self.coded
            elif f.type in _INT_TYPES:
                column, group = array("q"), ints
            else:
                column, group = [], refs
            self.columns[f.name] = column
            group.append((f.name, f.default, column))
        self.floats = tuple(floats)
        self.ints = tuple(ints)
        self.refs = tuple(refs)
        self.odd: Dict[Tuple[str, int], Any] = {}

    def widen_codes(self) -> None:
        """Move every code column to 32-bit codes."""
        coded = self.coded
        for i, (name, default, column) in enumerate(coded):
            column = self.columns[name] = array("I", column)
            coded[i] = (name, default, column)

    def _phases(self) -> List[Any]:
        ids, seconds = self.phase_ids, self.phase_seconds
        out, begin = [], 0
        for end in self.phase_ends:
            out.append(tuple(zip([PHASES[i] for i in ids[begin:end]], seconds[begin:end])))
            begin = end
        return out

    def objects(self, table: List[Any]) -> List[Any]:
        """Every row as a fresh event object, in emission order;
        ``table`` is the tracer's intern table."""
        values: Dict[str, Any] = dict.fromkeys(self.columns)
        for name, _, column in self.floats + self.refs:
            values[name] = list(column)
        for name, _, column in self.coded:
            values[name] = list(map(table.__getitem__, column))
        for name, _, column in self.ints:
            values[name] = [None if v == _NONE else v for v in column]
        if self.phase_ends is not None:
            values["phases"] = self._phases()
        for (name, row), value in self.odd.items():
            values[name][row] = value
        kind = self.kind
        return [kind(*row) for row in zip(*values.values())]


class Tracer:
    """Per-runtime event log.

    ``enabled`` gates everything: :meth:`record` returns immediately when
    it is False, and instrumented hot paths check it before gathering
    any field, so they cost one attribute load.

    Events are stored as columns, one :class:`_KindLog` per kind plus a
    one-byte kind index per event that keeps emission order across
    kinds; no event object is kept.  Each distinct str, bool or None is
    interned once per tracer: ``_values`` lists them, ``_codes`` maps
    each to its index, and the code columns hold the indexes.
    :attr:`events` and :meth:`events_of` build fresh objects equal to the
    ones emitted, on every read.  Subscribers (live consumers such as a streaming
    exporter) are called synchronously with an object built for them,
    only while one is registered.
    """

    __slots__ = (
        "env", "enabled", "node", "subscribers", "_logs", "_log_of", "_order",
        "_values", "_codes",
    )

    def __init__(self, env, enabled: bool = False, node: str = ""):
        self.env = env
        self.enabled = enabled
        self.node = node
        self.subscribers: List[Callable[[Any], None]] = []
        self.clear()

    # ------------------------------------------------------------------
    def emit(self, kind: type, fields: Dict[str, Any]) -> None:
        """Append one ``kind`` event with these fields (no enabled
        check: :meth:`record` guards before gathering them).  ``fields``
        holds ``at``, as both callers stamp it; fields left out take the
        kind's defaults, and an unknown field, or a missing one without
        a default, raises ``TypeError``."""
        log = self._log_of.get(kind)
        if log is None:
            log = self._open(kind)
        # Every key known; a row naming all of the kind's fields has
        # every required one, so only a shorter row is checked for them.
        names = log.names
        if not names.issuperset(fields):
            self._reject(log, fields)
        if len(fields) < len(names):
            for name in log.required:
                if name not in fields:
                    self._reject(log, fields)
        row = log.rows
        log.rows = row + 1
        self._order.append(log.index)
        get = fields.get
        for name, default, column in log.floats:
            value = get(name, default)
            if type(value) is not float:
                log.odd[name, row] = value
                value = 0.0
            column.append(value)
        codes = self._codes
        for name, default, column in log.coded:
            value = get(name, default)
            if type(value) is not str and value is not None and type(value) is not bool:
                log.odd[name, row] = value
                value = None
            try:
                code = codes[value]
            except KeyError:
                code = self._intern(value)
                column = log.columns[name]
            column.append(code)
        for name, default, column in log.ints:
            value = get(name, default)
            if type(value) is not int or not _NONE < value < _INT_END:
                if value is not None:
                    log.odd[name, row] = value
                value = _NONE
            column.append(value)
        for name, default, column in log.refs:
            column.append(get(name, default))
        ends = log.phase_ends
        if ends is not None:
            phases = get("phases", ())
            ids, seconds = log.phase_ids, log.phase_seconds
            begin = len(seconds)
            kept = type(phases) is tuple
            if kept:
                for name, value in phases:
                    index = _PHASE_INDEX.get(name)
                    if index is None or type(value) is not float:
                        kept = False
                        break
                    ids.append(index)
                    seconds.append(value)
            if not kept:
                del ids[begin:], seconds[begin:]
                log.odd["phases", row] = phases
            ends.append(len(seconds))
        if self.subscribers:
            event = kind(**fields)
            for fn in self.subscribers:
                fn(event)

    @staticmethod
    def _reject(log: _KindLog, fields: Dict[str, Any]) -> None:
        keys = fields.keys()
        missing = [name for name in ("at",) + log.required if name not in keys]
        raise TypeError(
            f"{log.kind.__name__}: unknown fields {sorted(keys - log.names)}, "
            f"missing fields {sorted(missing)}"
        )

    def _open(self, kind: type) -> _KindLog:
        log = _KindLog(kind, len(self._logs))
        if len(self._values) > 0x10000:
            log.widen_codes()
        self._logs.append(log)
        self._log_of[kind] = log
        return log

    def _intern(self, value: Any) -> int:
        """Add ``value`` to the intern table and return its code; the
        first code past 16 bits moves every code column to 32 bits."""
        code = self._codes[value] = len(self._values)
        self._values.append(value)
        if code == 0x10000:
            for log in self._logs:
                log.widen_codes()
        return code

    def record(self, kind: type, ctx: Any = None, **fields: Any) -> None:
        """Emit one ``kind`` event stamped with the clock and this node;
        a no-op while tracing is off.

        Each of ``context``, ``device_id``, ``vgpu`` and ``tenant`` that
        ``kind`` declares and ``fields`` leaves out is taken from ``ctx``:
        its owner, the device and name of the vGPU it is bound to (None
        while unbound), and its tenant's name ("" before the handshake
        names one).
        """
        if not self.enabled:
            return
        fields["at"] = self.env.now
        fields["node"] = self.node
        if ctx is not None:
            for name in _CTX_FIELDS[kind]:
                if name in fields:
                    continue
                if name == "context":
                    fields[name] = ctx.owner
                elif name == "tenant":
                    fields[name] = getattr(getattr(ctx, "tenant", None), "name", "")
                else:
                    vgpu = getattr(ctx, "vgpu", None)
                    if vgpu is None:
                        fields[name] = None
                    elif name == "vgpu":
                        fields[name] = vgpu.name
                    else:
                        fields[name] = vgpu.device.device_id
        self.emit(kind, fields)

    def phase_breakdown(self, ctx, method, span, error: Optional[str] = None) -> None:
        """Record the call's phase decomposition from its finished span.

        It fills every field :meth:`record` would (the device and vGPU
        from the span, the owner and tenant from ``ctx``) and emits them
        directly: one event per call is the tracer's hottest path.
        """
        if not self.enabled or span is None:
            return
        phases = span.finish()
        # A CallType carries its wire name in ``.value``; str() only for
        # anything else (not as getattr's default, which is evaluated on
        # every call).
        name = getattr(method, "value", None)
        self.emit(PhaseBreakdown, {
            "at": self.env.now,
            "context": ctx.owner,
            "method": str(method) if name is None else name,
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "begin_at": span.begin_at,
            "wall": span.wall,
            "served_at": span.served_at,
            "served_s": span.served_s,
            "phases": tuple(sorted(phases.items())),
            "tenant": getattr(getattr(ctx, "tenant", None), "name", ""),
            "error": error,
            "device_id": span.device_id,
            "vgpu": span.vgpu,
            "node": self.node,
        })

    # ------------------------------------------------------------------
    @property
    def events(self) -> List[Any]:
        """Every recorded event in emission order (fresh objects)."""
        return self._read(self._logs)

    def events_of(self, *kinds: type) -> List[Any]:
        """The recorded events of ``kinds``, in emission order."""
        return self._read([log for log in self._logs if issubclass(log.kind, kinds)])

    def _read(self, logs: List[_KindLog]) -> List[Any]:
        streams: List[Any] = [None] * len(self._logs)
        for log in logs:
            streams[log.index] = iter(log.objects(self._values)).__next__
        return [streams[i]() for i in self._order if streams[i] is not None]

    def clear(self) -> None:
        self._logs: List[_KindLog] = []
        self._log_of: Dict[type, _KindLog] = {}
        self._order = array("B")
        self._values: List[Any] = []
        self._codes: Dict[Any, int] = {}

    def __len__(self) -> int:
        return len(self._order)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"<Tracer {self.node or 'anonymous'} {state} events={len(self)}>"
