"""The frontend (intercept) library — the application side.

Applications link against this instead of the CUDA runtime; every call is
marshalled over the connection to the node runtime (API remoting, as in
gVirtuS).  One frontend instance per application thread, matching the
one-connection-per-thread design of §4.2.

The API mirrors :class:`repro.simcuda.runtime_api.CudaRuntimeAPI`, so the
workload models run unchanged on either the bare CUDA runtime or the
paper's runtime — exactly the property the real intercept library has.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from repro.net.channel import LinkSpec, AFUNIX_LINK
from repro.net.rpc import Request, RpcClient
from repro.net.socket import Listener, connect

from repro.core.protocol import BATCHABLE_CALLS, CallType
from repro.simcuda.fatbin import FatBinary
from repro.simcuda.kernels import KernelDescriptor

__all__ = ["Frontend"]


class Frontend:
    """Client endpoint for one application thread.

    With ``batch_max_calls >= 2`` the frontend journals asynchronous
    calls (:data:`~repro.core.protocol.BATCHABLE_CALLS`) instead of
    issuing them, and ships up to N in one batch frame — the control
    plane then pays the link's per-message cost and the dispatcher's
    scheduler round-trip once per *batch*.  Any synchronizing call (it
    needs a value, or the application could observe its effect) is a
    flush barrier: it rides as the last call of the pending batch and
    returns its own result.  Errors of journaled calls are deferred to
    the next flush, matching the asynchronous-launch error semantics of
    the real CUDA runtime.
    """

    def __init__(
        self,
        env,
        listener: Listener,
        link: LinkSpec = AFUNIX_LINK,
        name: str = "app",
        estimated_gpu_seconds: Optional[float] = None,
        application_id: Optional[str] = None,
        deadline_s: Optional[float] = None,
        tenant: Optional[str] = None,
        batch_max_calls: int = 1,
    ):
        self.env = env
        self._listener = listener
        self._link = link
        self.name = name
        self.estimated_gpu_seconds = estimated_gpu_seconds
        #: CUDA 4.0 semantics: threads of one application (same id) share
        #: GPU data and must be bound to the same device (§4.8).
        self.application_id = application_id
        #: QoS hint: absolute completion deadline in simulated seconds.
        self.deadline_s = deadline_s
        #: Tenant this connection belongs to (repro.qos); admission
        #: control, quotas and wfq scheduling key on it server-side.
        self.tenant = tenant
        self._rpc: Optional[RpcClient] = None
        #: Batching knob (``RuntimeConfig.batch_max_calls``); 1 = every
        #: call is its own RPC, the historic behavior down to identical
        #: simulated times.
        self.batch_max_calls = batch_max_calls
        self._batch: List[Request] = []

    # ------------------------------------------------------------------
    def open(self) -> Generator:
        """Establish the connection and send the identity handshake."""
        sock = connect(self.env, self._listener, link=self._link, client_name=self.name)
        self._rpc = RpcClient(sock)
        yield from self._rpc.call(
            "reproHello",
            owner=self.name,
            estimated_gpu_seconds=self.estimated_gpu_seconds,
            application_id=self.application_id,
            deadline_s=self.deadline_s,
            tenant=self.tenant,
        )

    @property
    def connected(self) -> bool:
        return self._rpc is not None

    @property
    def trace_id(self) -> Optional[int]:
        """The connection-scoped trace id stamped on every outgoing call
        (set once the connection is open).  All spans of this thread's
        calls share it, which is what lets the analyzer group a trace by
        application thread."""
        return self._rpc.trace_id if self._rpc is not None else None

    @property
    def _batching(self) -> bool:
        return self.batch_max_calls >= 2

    def _call(self, method: CallType, payload_bytes: int = 0, **args) -> Generator:
        """The generator that issues one call: the RPC client's own on
        the per-call path (no wrapper frame), the batching journal's
        otherwise."""
        if self._rpc is None:
            raise RuntimeError("frontend not connected; call open() first")
        if self.batch_max_calls >= 2:
            return self._batched_call(method, payload_bytes, args)
        return self._rpc.call(method, payload_bytes, **args)

    def _batched_call(self, method: CallType, payload_bytes: int, args: dict) -> Generator:
        if method in BATCHABLE_CALLS:
            self._enqueue(method, payload_bytes, args)
            if len(self._batch) >= self.batch_max_calls:
                yield from self._flush_batch()
            return None
        if self._batch:
            # Flush barrier: ship the pending batch with this call as its
            # tail and return this call's own result.
            self._enqueue(method, payload_bytes, args)
            responses = yield from self._flush_batch()
            return responses[-1].unwrap()
        return (yield from self._rpc.call(method, payload_bytes, **args))

    def _enqueue(self, method: CallType, payload_bytes: int, args: dict) -> None:
        """Journal a call into the pending batch (no wire traffic yet).

        ``sent_at`` records the *enqueue* time — the server credits the
        span's client-side wait to the ``batch_queue`` phase from here.
        """
        req = Request(method=method, args=args, payload_bytes=payload_bytes)
        req.trace_id = self._rpc.trace_id
        req.span_id = req.request_id
        req.sent_at = self.env.now
        self._batch.append(req)

    def _flush_batch(self) -> Generator:
        """Ship the pending batch; returns the per-call responses.

        Raises the first error any batched call produced (deferred-error
        semantics) — calls after the failing one carry ``BATCH_ABORTED``
        and the application sees the root cause.
        """
        batch, self._batch = self._batch, []
        responses = yield from self._rpc.call_batch(batch)
        for resp in responses:
            if resp.error is not None:
                raise resp.error
        return responses

    def flush(self) -> Generator:
        """Explicitly ship any journaled calls (and surface their errors)."""
        if self._batching and self._batch:
            yield from self._flush_batch()

    # ------------------------------------------------------------------
    # registration (host startup code)
    # ------------------------------------------------------------------
    def register_fat_binary(self, fatbin: FatBinary) -> Generator:
        handle = yield from self._call(CallType.REGISTER_FATBIN, fatbin=fatbin)
        return handle

    def register_function(self, fatbin_handle: int, descriptor: KernelDescriptor) -> Generator:
        yield from self._call(
            CallType.REGISTER_FUNCTION,
            fatbin_handle=fatbin_handle,
            descriptor=descriptor,
        )

    def register_var(self, fatbin_handle: int, name: str) -> Generator:
        """``__cudaRegisterVar``: a device global variable."""
        yield from self._call(
            CallType.REGISTER_VAR, fatbin_handle=fatbin_handle, name=name
        )

    def register_texture(self, fatbin_handle: int, name: str) -> Generator:
        """``__cudaRegisterTexture``."""
        yield from self._call(
            CallType.REGISTER_TEXTURE, fatbin_handle=fatbin_handle, name=name
        )

    def register_shared_var(self, fatbin_handle: int, name: str) -> Generator:
        """``__cudaRegisterSharedVar``."""
        yield from self._call(
            CallType.REGISTER_SHARED_VAR, fatbin_handle=fatbin_handle, name=name
        )

    # ------------------------------------------------------------------
    # device management (overridden server-side)
    # ------------------------------------------------------------------
    def cuda_set_device(self, device_id: int) -> Generator:
        yield from self._call(CallType.SET_DEVICE, device=device_id)

    def cuda_get_device_count(self) -> Generator:
        count = yield from self._call(CallType.GET_DEVICE_COUNT)
        return count

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def cuda_malloc(self, size: int) -> Generator:
        vptr = yield from self._call(CallType.MALLOC, size=size)
        return vptr

    def cuda_free(self, vptr: int) -> Generator:
        yield from self._call(CallType.FREE, vptr=vptr)

    def cuda_memcpy_h2d(self, vptr: int, nbytes: int) -> Generator:
        yield from self._call(
            CallType.MEMCPY_H2D, payload_bytes=nbytes, vptr=vptr, nbytes=nbytes
        )

    def cuda_memcpy_d2h(self, vptr: int, nbytes: int) -> Generator:
        yield from self._call(CallType.MEMCPY_D2H, vptr=vptr, nbytes=nbytes)

    def register_nested(
        self, parent: int, members: Sequence[int], offsets: Sequence[int]
    ) -> Generator:
        """Declare a nested data structure to the runtime (§4.5)."""
        yield from self._call(
            CallType.REGISTER_NESTED,
            parent=parent,
            members=tuple(members),
            offsets=tuple(offsets),
        )

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def cuda_configure_call(
        self,
        grid: Tuple[int, int, int] = (1, 1, 1),
        block: Tuple[int, int, int] = (256, 1, 1),
    ) -> Generator:
        yield from self._call(CallType.CONFIGURE_CALL, grid=grid, block=block)

    def cuda_launch(
        self,
        kernel: KernelDescriptor,
        args: Sequence[int],
        read_only: Sequence[int] = (),
    ) -> Generator:
        yield from self._call(
            CallType.LAUNCH,
            kernel=kernel,
            args=tuple(args),
            read_only=tuple(read_only),
        )

    def launch_kernel(
        self,
        kernel: KernelDescriptor,
        args: Sequence[int],
        read_only: Sequence[int] = (),
        grid: Tuple[int, int, int] = (1, 1, 1),
        block: Tuple[int, int, int] = (256, 1, 1),
    ) -> Generator:
        """Convenience: configure + launch in one go."""
        yield from self.cuda_configure_call(grid, block)
        yield from self.cuda_launch(kernel, args, read_only)

    # ------------------------------------------------------------------
    # graph capture/replay (runtime extension)
    # ------------------------------------------------------------------
    def graph_begin_capture(self) -> Generator:
        """Start recording configure/launch calls instead of executing
        them (CUDA stream-capture semantics: nothing runs while
        capturing)."""
        yield from self._call(CallType.GRAPH_BEGIN_CAPTURE)

    def graph_end_capture(self) -> Generator:
        """Stop recording; instantiates the captured sequence server-side
        and returns the graph handle."""
        handle = yield from self._call(CallType.GRAPH_END_CAPTURE)
        return handle

    def graph_launch(self, graph: int) -> Generator:
        """Re-issue an instantiated graph: every captured kernel runs,
        for a single control-plane charge."""
        yield from self._call(CallType.GRAPH_LAUNCH, graph=graph)

    def cuda_thread_synchronize(self) -> Generator:
        yield from self._call(CallType.THREAD_SYNCHRONIZE)

    def checkpoint(self) -> Generator:
        """Explicit user-specified checkpoint (§4.6)."""
        yield from self._call(CallType.CHECKPOINT)

    def cuda_thread_exit(self) -> Generator:
        yield from self._call(CallType.EXIT)
        self._rpc = None
