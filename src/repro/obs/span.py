"""Causal call spans: stack-based phase attribution for one API call.

A :class:`CallSpan` travels with a call from the moment the frontend's
RPC request hits the wire until the dispatcher sends the response back.
Along the way the processes that *own* the call push and pop named
phases (``queue_wait`` while blocked on the context lock, ``bind_wait``
in the scheduler queue, ``fault_in`` while staging pages, ...); the span
settles elapsed simulated time into whichever phase is on top of the
stack at each transition, so by construction

    sum(phases.values()) == wall  (== env.now - begin_at at finish)

holds exactly — under overlapped transfers, chunked swapping and
preemption alike.  Time spent with an empty stack lands in the
``"other"`` bucket (dispatcher overhead, registration, bookkeeping).

Ownership rule: only the process executing the call may touch the
call's span.  Work done *to* a context by somebody else (a reaper
swapping a victim out, a requester draining a victim's write-backs)
accrues to the *requester's* current phase — that is the causal story
the breakdown tells.

The span reads :attr:`Environment.now` only; it never schedules events
and therefore never perturbs simulated time.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

__all__ = ["CallSpan", "PHASES"]

#: The named phases a call's latency decomposes into.  ``other`` is the
#: residual (time with no phase pushed); everything else is pushed
#: explicitly by the owning process.
PHASES = (
    "rpc",
    "batch_queue",
    "queue_wait",
    "bind_wait",
    "fault_in",
    "eviction_stall",
    "writeback_drain",
    "exec",
    "graph_replay",
    "preempted",
    "other",
)

#: Fallback trace-id source for spans created without an inbound id.
_span_ids = itertools.count(1)


class CallSpan:
    """Phase recorder for a single API call.

    Parameters
    ----------
    env:
        The simulation environment (for :attr:`~Environment.now`).
    trace_id:
        Connection-scoped id propagated from the frontend; groups all
        spans of one application connection.
    span_id:
        Per-call id (the RPC request id on the wire).
    begin_at:
        When the call causally began — the RPC ``sent_at`` timestamp.
        If it predates span creation, the gap is credited to ``rpc``
        (the request's wire leg).  Defaults to ``env.now``.
    wire_at:
        For batched calls only: when the call actually hit the wire.
        The pre-history then splits at this point — ``begin_at`` to
        ``wire_at`` was spent journaled in the frontend's batch
        (``batch_queue``), ``wire_at`` to now on the wire (``rpc``).
        The frame's request wire leg is the *first* call's; later calls
        pass ``wire_at == arrival`` so their whole wait is queue time.

    The dispatcher marks the server side of the call with
    :meth:`served`: ``served_at``/``served_s`` are the interval from
    lock acquired to the call's bookkeeping, and ``device_id``/``vgpu``
    name the vGPU that served it (None while unbound).
    """

    __slots__ = (
        "env", "trace_id", "span_id", "begin_at", "phases", "_stack", "_since",
        "served_at", "served_s", "device_id", "vgpu",
    )

    def __init__(
        self,
        env,
        trace_id: Optional[int] = None,
        span_id: Optional[int] = None,
        begin_at: Optional[float] = None,
        wire_at: Optional[float] = None,
    ):
        self.env = env
        self.trace_id = trace_id if trace_id is not None else next(_span_ids)
        self.span_id = span_id if span_id is not None else self.trace_id
        self.begin_at = float(env.now if begin_at is None else begin_at)
        self.phases: Dict[str, float] = {}
        self._stack: List[str] = []
        self._since = env.now
        self.served_at = self._since
        self.served_s = 0.0
        self.device_id: Optional[int] = None
        self.vgpu: Optional[str] = None
        if self.begin_at < self._since:
            # Time before the server saw the request: all wire on the
            # plain path; journaled-then-wire when the call was batched.
            if wire_at is None:
                self.phases["rpc"] = self._since - self.begin_at
            else:
                split = min(max(float(wire_at), self.begin_at), self._since)
                if split > self.begin_at:
                    self.phases["batch_queue"] = split - self.begin_at
                if self._since > split:
                    self.phases["rpc"] = self._since - split

    # ------------------------------------------------------------------
    def _settle(self) -> None:
        now = self.env.now
        dt = now - self._since
        if dt:
            name = self._stack[-1] if self._stack else "other"
            self.phases[name] = self.phases.get(name, 0.0) + dt
        self._since = now

    def push(self, phase: str) -> None:
        """Enter ``phase``; time now accrues to it until the matching pop."""
        self._settle()
        self._stack.append(phase)

    def pop(self) -> None:
        """Leave the innermost phase (no-op on an empty stack)."""
        self._settle()
        if self._stack:
            self._stack.pop()

    def served(self, since: float, vgpu) -> None:
        """Record the server interval ``[since, now]`` and the vGPU that
        served the call (None when it ran unbound)."""
        self.served_at = since
        self.served_s = self.env.now - since
        if vgpu is not None:
            self.device_id = vgpu.device.device_id
            self.vgpu = vgpu.name

    # ------------------------------------------------------------------
    @property
    def wall(self) -> float:
        """Elapsed time since the call causally began."""
        return self.env.now - self.begin_at

    def finish(self) -> Dict[str, float]:
        """Settle outstanding time and return the phase map."""
        self._settle()
        return dict(self.phases)

    def __repr__(self) -> str:
        return (
            f"<CallSpan trace={self.trace_id} span={self.span_id} "
            f"wall={self.wall:.6f} stack={self._stack!r}>"
        )
