"""Request/response framing over sockets.

The frontend library marshals each intercepted CUDA call into a
:class:`Request` and waits for the matching :class:`Response` — the API
remoting pattern of gVirtuS/vCUDA/rCUDA that the paper builds on.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.net.socket import Socket

__all__ = [
    "Request",
    "Response",
    "BatchRequest",
    "BatchResponse",
    "RpcClient",
    "RpcServer",
]

_request_ids = itertools.count(1)
_trace_ids = itertools.count(1)

#: Baseline marshalled size of a call that carries no bulk data.
HEADER_BYTES = 64


@dataclasses.dataclass(slots=True)
class Request:
    """One marshalled call.

    ``trace_id``/``span_id``/``sent_at`` are the causal-tracing header:
    the client stamps the connection's trace id, the call's span id (its
    request id) and the send timestamp, so the server can attribute the
    request's wire time and group all spans of one connection.  They are
    metadata about the call, not part of it — ``wire_bytes`` is
    unchanged and nothing on the serving path depends on them.
    """

    method: str
    args: Dict[str, Any] = dataclasses.field(default_factory=dict)
    payload_bytes: int = 0
    request_id: int = dataclasses.field(default_factory=lambda: next(_request_ids))
    trace_id: Optional[int] = None
    span_id: Optional[int] = None
    sent_at: Optional[float] = None

    @property
    def wire_bytes(self) -> int:
        return HEADER_BYTES + self.payload_bytes


@dataclasses.dataclass(slots=True)
class Response:
    """The return code / value of a call."""

    request_id: int
    value: Any = None
    error: Optional[BaseException] = None
    payload_bytes: int = 0

    @property
    def wire_bytes(self) -> int:
        return HEADER_BYTES + self.payload_bytes

    def unwrap(self) -> Any:
        if self.error is not None:
            raise self.error
        return self.value


@dataclasses.dataclass(slots=True)
class BatchRequest:
    """N journaled calls shipped as one wire message.

    Control-plane batching: the frontend accumulates asynchronous calls
    and sends them as a single frame, paying the link's per-message
    overhead and the round-trip latency once instead of N times.  Each
    inner :class:`Request` keeps its own ids and its *enqueue* timestamp
    in ``sent_at`` (so the server can attribute client-side batch-queue
    time per call); ``sent_at`` on the frame itself is when the batch
    actually hit the wire.
    """

    calls: List[Request]
    request_id: int = dataclasses.field(default_factory=lambda: next(_request_ids))
    trace_id: Optional[int] = None
    sent_at: Optional[float] = None

    @property
    def wire_bytes(self) -> int:
        # One frame header plus every call's marshalled form (the inner
        # headers still ship — only the per-message cost is amortized).
        return HEADER_BYTES + sum(r.wire_bytes for r in self.calls)


@dataclasses.dataclass(slots=True)
class BatchResponse:
    """Per-call results of a :class:`BatchRequest`, in submission order.

    Every inner call gets a :class:`Response` — value, or its own typed
    error (calls after a mid-batch failure carry ``BATCH_ABORTED``).
    """

    request_id: int
    responses: List[Response]

    @property
    def wire_bytes(self) -> int:
        return HEADER_BYTES + sum(r.wire_bytes for r in self.responses)


class RpcClient:
    """Synchronous call interface over a socket (one call in flight)."""

    def __init__(self, socket: Socket):
        self.socket = socket
        #: Connection-scoped causal trace id, stamped on every request.
        self.trace_id = next(_trace_ids)

    def call(
        self, method: str, payload_bytes: int = 0, response_bytes: int = 0, **args: Any
    ) -> Generator:
        """Issue a call and wait for its response; returns the value,
        re-raising any server-side exception."""
        socket = self.socket
        request_id = next(_request_ids)
        req = Request(
            method, args, payload_bytes, request_id, self.trace_id, request_id,
            socket.env.now,
        )
        socket.post(req, HEADER_BYTES + payload_bytes)
        resp = yield socket.recv()
        if not isinstance(resp, Response) or resp.request_id != request_id:
            raise ProtocolError(
                f"out-of-order response: expected #{request_id}, got {resp!r}"
            )
        if resp.error is not None:
            raise resp.error
        return resp.value

    def call_batch(self, calls: List[Request]) -> Generator:
        """Ship ``calls`` as one :class:`BatchRequest`; returns the list
        of per-call :class:`Response` objects (errors NOT re-raised —
        the caller owns deferred-error semantics)."""
        batch = BatchRequest(calls=list(calls))
        batch.trace_id = self.trace_id
        batch.sent_at = self.socket.env.now
        self.socket.post(batch, nbytes=batch.wire_bytes)
        resp = yield self.socket.recv()
        if not isinstance(resp, BatchResponse) or resp.request_id != batch.request_id:
            raise ProtocolError(
                f"out-of-order batch response: expected #{batch.request_id}, got {resp!r}"
            )
        if len(resp.responses) != len(batch.calls):
            raise ProtocolError(
                f"batch #{batch.request_id}: {len(batch.calls)} calls, "
                f"{len(resp.responses)} responses"
            )
        return resp.responses


class ProtocolError(Exception):
    """Framing violated (mismatched response ids)."""


class RpcServer:
    """Serves calls on one socket via a handler coroutine-function.

    ``handler(request)`` must be a generator returning the response value;
    exceptions it raises are marshalled back to the client.
    """

    def __init__(self, socket: Socket, handler: Callable[[Request], Generator]):
        self.socket = socket
        self.handler = handler
        self.calls_served = 0

    def serve(self) -> Generator:
        """Serve until the socket closes (run as an env.process)."""
        while True:
            req = yield self.socket.recv()
            if req is None:  # sentinel: client hung up
                return
            value, error, resp_bytes = None, None, 0
            try:
                value = yield from self.handler(req)
                if isinstance(value, tuple) and len(value) == 2 and value[0] == "__bytes__":
                    resp_bytes, value = value[1], None
            except BaseException as exc:  # noqa: BLE001 - marshal any error
                error = exc
            resp = Response(
                request_id=req.request_id, value=value, error=error, payload_bytes=resp_bytes
            )
            self.calls_served += 1
            yield from self.socket.send(resp, nbytes=resp.wire_bytes)
