"""The dispatcher (paper §4.3).

Dispatcher threads dequeue pending connections and serve their calls:

1. registration functions are issued to the CUDA runtime immediately —
   they always precede context creation, so they are safe to service
   before any application-to-GPU binding exists;
2. device-management functions are serviced and typically overridden
   (``cudaSetDevice`` is ignored; ``cudaGetDeviceCount`` returns the
   number of *virtual* GPUs);
3. memory operations are handled entirely in terms of virtual addresses
   by the memory manager — no CUDA runtime interaction;
4. binding to a virtual GPU is delayed until the first kernel launch,
   enabling informed scheduling decisions; if every vGPU is busy the
   context joins the waiting list;
5. failures move the context to the failed list, from which recovery
   rebinds it to a healthy device and replays its journal (§4.6).

The implementation is one handler process per connection — the paper's
"multithreaded dispatcher: each dispatcher thread processes a different
connection".
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Generator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.net.rpc import BatchRequest, BatchResponse, Request, Response
from repro.net.socket import Socket
from repro.simcuda import timing
from repro.simcuda.errors import CudaError, CudaRuntimeError
from repro.simcuda.kernels import KernelLaunch

from repro.obs.events import (
    BatchSubmit,
    FailureRecovered,
    GraphInstantiate,
    GraphReplay,
    Offload,
    Preemption,
    QueueDepthChanged,
)
from repro.obs.span import CallSpan

from repro.core.context import Context, ContextState
from repro.core.errors import RuntimeApiError, RuntimeErrorCode
from repro.core.memory.manager import NeedRetry
from repro.core.offload import OFFLOAD_TAG
from repro.core.protocol import CallType, REGISTRATION_CALLS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import NodeRuntime

__all__ = ["Dispatcher", "GraphInstance"]

#: Non-CUDA handshake carrying the application's identity and optional
#: profiling hint (estimated GPU seconds, used by the SJF policy).
HELLO_METHOD = "reproHello"

#: Cap on the exponential back-off of a launch that found no device
#: memory and no victim (§4.5); any device-memory release wakes it
#: earlier.
SWAP_RETRY_MAX_BACKOFF_S = 1.0

#: Per-call software cost of interception/dispatch inside the runtime
#: daemon.  A batched submission pays it once per *batch* (one scheduler
#: round-trip), not once per call.
DISPATCHER_OVERHEAD_S = 30e-6

#: How many times an identical launch-only batch signature must be seen
#: before the dispatcher instantiates a graph for it.
GRAPH_MIN_REPEATS = 2

_graph_ids = itertools.count(1)


def _error_name(error: Optional[BaseException]) -> Optional[str]:
    return type(error).__name__ if error is not None else None


def _configuration(args: dict) -> tuple:
    """A ``cudaConfigureCall``'s ``(grid, block)``; ``{}`` gives the
    default configuration."""
    return tuple(args.get("grid", (1, 1, 1))), tuple(args.get("block", (256, 1, 1)))


def _launch_record(
    args: dict, grid, block, last: Optional[KernelLaunch] = None
) -> KernelLaunch:
    """A ``cudaLaunch`` call's arguments as a launch record with
    *virtual* pointers, under the configuration that preceded it.

    ``last`` (the context's previous record) is returned itself when the
    call repeats it field for field, so a run of identical launches
    shares one immutable record."""
    kernel = args["kernel"]
    arg_pointers = tuple(args.get("args", ()))
    read_only = tuple(args.get("read_only", ())) or None
    if (
        last is not None
        and last.kernel is kernel
        and last.arg_pointers == arg_pointers
        and last.read_only == read_only
        and last.grid == grid
        and last.block == block
    ):
        return last
    return KernelLaunch(
        kernel=kernel,
        grid=grid,
        block=block,
        arg_pointers=arg_pointers,
        read_only=read_only,
    )


@dataclasses.dataclass
class GraphInstance:
    """An instantiated launch sequence (CUDA-Graph-style replay unit).

    ``template`` holds the captured :class:`KernelLaunch` records with
    *virtual* pointers.  ``epoch``/``device_id`` cache the page-table
    residency epoch and the bound device after the last execution: if the
    epoch is unchanged at the next replay, nothing anywhere in the table
    moved, so the baked translations are still good and the whole graph
    is re-issued for a single control-plane charge.  Validity only
    affects *charging* and stats — execution always runs through
    ``prepare_and_launch``, which re-faults anything missing.
    """

    graph_id: int
    template: Tuple[KernelLaunch, ...]
    epoch: Optional[int] = None
    device_id: Optional[int] = None


class Dispatcher:
    """Schedules intercepted CUDA calls onto virtual GPUs."""

    def __init__(self, runtime: "NodeRuntime"):
        self.runtime = runtime
        self.env = runtime.env
        self.config = runtime.config
        self.stats = runtime.stats
        self.memory = runtime.memory
        self.scheduler = runtime.scheduler
        self.obs = runtime.obs
        self._call_latency = runtime.metrics.histogram(
            "call_latency_seconds", "dispatcher time per intercepted call"
        )
        #: Failed contexts awaiting/undergoing recovery (paper Figure 3).
        self.failed_contexts: List[Context] = []
        #: Live contexts, from connection to exit (§4.6): the node's
        #: application threads, whose count placement and offloading
        #: read (§4.7).  ``_exit`` drops a context when it is done.
        self.contexts: List[Context] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.env.process(self._dispatch_loop(), name="dispatcher")

    def _dispatch_loop(self) -> Generator:
        """Dequeue pending connections; offload or serve locally."""
        while True:
            sock: Socket = yield self.runtime.connections.next_connection()
            self.stats.connections_accepted += 1
            if self.obs.enabled:
                self.obs.record(
                    QueueDepthChanged,
                    queue="pending_connections",
                    depth=self.runtime.connections.pending_count,
                )
            peer = None
            already_offloaded = sock.peer_name.endswith(OFFLOAD_TAG)
            if (
                self.config.offload_enabled
                and self.runtime.offloader is not None
                and not already_offloaded
            ):
                peer = self.runtime.offloader.choose_peer()
            if peer is not None:
                self.stats.offloads_out += 1
                if self.obs.enabled:
                    self.obs.record(Offload, context=sock.peer_name, dst_node=peer.name)
                self.env.process(
                    self.runtime.offloader.proxy(sock, peer),
                    name=f"offload-proxy-{sock.socket_id}",
                )
            else:
                self.env.process(
                    self._serve_connection(sock), name=f"handler-{sock.socket_id}"
                )

    # ------------------------------------------------------------------
    def _serve_connection(self, sock: Socket) -> Generator:
        # Generator locals persist across yields: bind the per-call
        # constants once instead of chasing attribute chains on every
        # iteration of the hottest loop in the simulator.
        env = self.env
        obs = self.obs
        recv = sock.recv
        migration = self.runtime.migration
        # The feature switches are fixed for the runtime's life: the
        # per-call hooks below run only where their feature is on.
        quantum = self.config.vgpu_quantum_s
        migrate = self.config.migration_enabled
        prefetch = self.config.prefetch_enabled
        ctx = self.open_context(sock.peer_name)
        ctx.enter_cpu_phase(env.now)
        lock_acquire = ctx.lock.acquire
        lock_release = ctx.lock.release
        while True:
            req: Request = yield recv()
            ctx.leave_cpu_phase()
            if isinstance(req, BatchRequest):
                # Control-plane batching: the whole frame executes in one
                # scheduler round-trip; preemption/migration/prefetch run
                # only at the batch boundary.
                exited = yield from self._serve_batch(sock, ctx, req)
            else:
                span = None
                if obs.enabled:
                    # The span's clock starts at the client's send
                    # timestamp, so the request's wire leg lands in the
                    # "rpc" phase.
                    span = CallSpan(
                        env,
                        trace_id=getattr(req, "trace_id", None),
                        span_id=getattr(req, "span_id", None) or req.request_id,
                        begin_at=getattr(req, "sent_at", None),
                    )
                    ctx.span = span
                    span.push("queue_wait")
                yield lock_acquire()
                if span is not None:
                    span.pop()
                t0 = env.now
                try:
                    result, error = yield from self._dispatch(ctx, req)
                    resp = self._finish_call(ctx, req, t0, result, error)
                finally:
                    if span is not None:
                        # Everything from here until the response lands
                        # is the reply's wire leg.
                        span.push("rpc")
                    ctx.enter_cpu_phase(env.now)
                    lock_release()
                yield from sock.send(resp, nbytes=resp.wire_bytes)
                if span is not None:
                    ctx.span = None
                    obs.phase_breakdown(ctx, req.method, span, error=_error_name(error))
                exited = req.method == CallType.EXIT
            if exited:
                return
            if quantum is not None and self._quantum_exhausted(ctx, quantum):
                # Preemptive time-slicing (repro.qos): the context burned
                # its vGPU quantum while others queue — unbind it at this
                # call boundary (delayed binding makes that safe, §4.4)
                # and let the policy re-order who goes next.
                yield from self._preempt(ctx)
            # The application is back in a CPU phase: a faster idle GPU
            # may now claim it (dynamic binding, §5.3.4).
            if migrate:
                migration.maybe_migrate(ctx)
            if prefetch:
                self._maybe_prefetch(ctx)

    def open_context(self, owner: str) -> Context:
        """A new context for a served connection, live until ``_exit``."""
        ctx = Context(self.env, owner=owner)
        self.contexts.append(ctx)
        return ctx

    def _execute_call(self, ctx: Context, body, *args) -> Generator:
        """Run ``body(ctx, *args)`` under the device-failure rule (§4.6):
        a ``FAILED`` context is recovered first, and a call that meets a
        dead device marks the context failed and runs again, up to
        ``max_failed_rebind_attempts`` times.  Returns ``(result,
        error)`` instead of raising an API error, so every caller can
        still respond."""
        while True:
            try:
                if ctx.state is ContextState.FAILED:
                    yield from self._recover(ctx)
                result = yield from body(ctx, *args)
                ctx.rebind_attempts = 0
                return result, None
            except (CudaRuntimeError, RuntimeApiError) as exc:
                if not self._fail_for_rebind(ctx, exc):
                    return None, exc

    def _fail_for_rebind(self, ctx: Context, exc: Exception) -> bool:
        """Whether a call that raised ``exc`` runs again: it met a dead
        device and the context has rebinds left, so the context is marked
        failed (recovery runs before the retry)."""
        if (
            isinstance(exc, CudaRuntimeError)
            and exc.code == CudaError.cudaErrorDevicesUnavailable
            and ctx.rebind_attempts < self.config.max_failed_rebind_attempts
        ):
            self._mark_failed(ctx, exc)
            return True
        return False

    def _finish_call(
        self, ctx: Context, req: Request, t0: float, result, error
    ) -> Response:
        """Per-call bookkeeping once a call is served: latency and SLO
        observation, the span's server interval and ``calls_served``.
        ``result`` is the body's ``(value, payload_bytes)`` or None."""
        elapsed = self.env.now - t0
        self._call_latency.observe(elapsed)
        self.runtime.slo.observe_call(ctx, elapsed)
        if ctx.span is not None:
            ctx.span.served(t0, ctx.vgpu)
        self.stats.calls_served += 1
        value, payload_bytes = result if result is not None else (None, 0)
        return Response(
            request_id=req.request_id,
            value=value,
            error=error,
            payload_bytes=payload_bytes,
        )

    # ------------------------------------------------------------------
    # control-plane batching + graph replay
    # ------------------------------------------------------------------
    def _serve_batch(self, sock: Socket, ctx: Context, batch: BatchRequest) -> Generator:
        """Execute one batch frame under a single lock hold and a single
        ``DISPATCHER_OVERHEAD_S`` charge (one scheduler round-trip).

        Per-call results/errors come back in one :class:`BatchResponse`;
        a mid-batch failure aborts the remaining calls with typed
        ``BATCH_ABORTED`` errors while earlier results survive.  Returns
        True when the tail call was a successful EXIT.
        """
        env = self.env
        obs = self.obs
        stats = self.stats
        calls = batch.calls
        stats.batches_submitted += 1
        stats.batched_calls += len(calls)
        arrival = env.now
        if obs.enabled:
            obs.record(BatchSubmit, ctx, calls=len(calls), wire_bytes=batch.wire_bytes)
            spans: List[Optional[CallSpan]] = []
            for i, req in enumerate(calls):
                # Each call's span starts at its *enqueue* time.  The
                # frame's request wire leg is credited once — to the
                # first call; the rest were queued client-side the whole
                # way (wire_at=arrival ⇒ pure batch_queue pre-history).
                span = CallSpan(
                    env,
                    trace_id=req.trace_id,
                    span_id=req.span_id or req.request_id,
                    begin_at=req.sent_at,
                    wire_at=batch.sent_at if i == 0 else arrival,
                )
                span.push("batch_queue")
                spans.append(span)
        else:
            spans = [None] * len(calls)
        last_span = spans[-1] if spans else None
        yield ctx.lock.acquire()
        try:
            yield env.timeout(DISPATCHER_OVERHEAD_S)
            instance = self._match_graph(ctx, calls)
            if instance is not None:
                # A graph frame holds only configure/launch calls.
                exited = False
                responses = yield from self._serve_batch_as_graph(
                    ctx, calls, spans, instance
                )
            else:
                responses, exited = yield from self._serve_batch_calls(
                    ctx, calls, spans
                )
        finally:
            if last_span is not None:
                # The reply's wire leg — credited once per batch, to the
                # tail call's span (satisfies Σphases == wall per span).
                last_span.push("rpc")
            ctx.enter_cpu_phase(env.now)
            ctx.lock.release()
        resp = BatchResponse(request_id=batch.request_id, responses=responses)
        yield from sock.send(resp, nbytes=resp.wire_bytes)
        if last_span is not None:
            ctx.span = None
            obs.phase_breakdown(
                ctx, calls[-1].method, last_span, error=_error_name(responses[-1].error)
            )
        return exited

    def _serve_batch_calls(
        self, ctx: Context, calls: List[Request], spans: List[Optional[CallSpan]]
    ) -> Generator:
        """Per-call execution of a batch frame (no matching graph);
        returns ``(responses, exited)``."""
        env = self.env
        obs = self.obs
        responses: List[Response] = []
        exited = False
        first_error: Optional[BaseException] = None
        first_error_at = 0
        last = len(calls) - 1
        for i, req in enumerate(calls):
            span = spans[i]
            if span is not None:
                span.pop()  # its batch_queue wait ends; execution begins
                ctx.span = span
            t0 = env.now
            if first_error is not None:
                result, error = None, RuntimeApiError(
                    RuntimeErrorCode.BATCH_ABORTED,
                    f"call #{i + 1} followed failed call "
                    f"#{first_error_at + 1}: {first_error}",
                )
            else:
                result, error = yield from self._execute_call(
                    ctx, self._dispatch_body, req
                )
                if error is not None:
                    first_error, first_error_at = error, i
                elif req.method == CallType.EXIT:
                    exited = True
            responses.append(self._finish_call(ctx, req, t0, result, error))
            if span is not None and i < last:
                # Non-tail calls complete here; the reply wire leg is not
                # theirs (it is charged once, to the tail call's span).
                ctx.span = None
                obs.phase_breakdown(ctx, req.method, span, error=_error_name(error))
        if first_error is None:
            self._note_graph_candidate(ctx, calls)
        return responses, exited

    # -- graph detection / replay --------------------------------------
    @staticmethod
    def _batch_signature(calls: List[Request]) -> Optional[tuple]:
        """Shape key of a launch-only frame: methods, kernel names and
        execution configurations — *not* pointer values, so a matching
        frame replays with its own arguments (parameter patching)."""
        sig = []
        has_launch = False
        for req in calls:
            method = req.method
            if method == CallType.CONFIGURE_CALL:
                sig.append(("cfg", *_configuration(req.args)))
            elif method == CallType.LAUNCH:
                kernel = req.args["kernel"]
                sig.append(
                    ("launch", kernel.name, len(tuple(req.args.get("args", ()))))
                )
                has_launch = True
            else:
                return None
        return tuple(sig) if has_launch else None

    @staticmethod
    def _launch_records(calls: List[Request]) -> List[KernelLaunch]:
        """Configure/launch pairs → launch records (the incoming args are
        the graph's "parameter patching")."""
        records: List[KernelLaunch] = []
        grid, block = _configuration({})
        for req in calls:
            if req.method == CallType.CONFIGURE_CALL:
                grid, block = _configuration(req.args)
            elif req.method == CallType.LAUNCH:
                records.append(_launch_record(req.args, grid, block))
        return records

    def _match_graph(
        self, ctx: Context, calls: List[Request]
    ) -> Optional[GraphInstance]:
        if not self.config.graph_replay_enabled or not ctx.graph_by_signature:
            return None
        sig = self._batch_signature(calls)
        if sig is None:
            return None
        return ctx.graph_by_signature.get(sig)

    def _note_graph_candidate(self, ctx: Context, calls: List[Request]) -> None:
        """Journal-based detection: after ``GRAPH_MIN_REPEATS`` identical
        launch-only frames, instantiate a graph so the next match
        replays."""
        if not self.config.graph_replay_enabled:
            return
        sig = self._batch_signature(calls)
        if sig is None or sig in ctx.graph_by_signature:
            return
        seen = ctx.graph_candidates.get(sig, 0) + 1
        if seen < GRAPH_MIN_REPEATS:
            ctx.graph_candidates[sig] = seen
            return
        ctx.graph_candidates.pop(sig, None)
        template = tuple(self._launch_records(calls))
        instance = GraphInstance(graph_id=next(_graph_ids), template=template)
        # The instantiating frame just executed, so its working set is
        # resident right now: the next matching frame replays hot.
        instance.epoch = self.memory.page_table.epoch
        instance.device_id = ctx.vgpu.device.device_id if ctx.bound else None
        ctx.graph_by_signature[sig] = instance
        ctx.graphs[instance.graph_id] = instance
        self.stats.graphs_instantiated += 1
        if self.obs.enabled:
            self.obs.record(
                GraphInstantiate,
                ctx,
                graph_id=instance.graph_id,
                kernels=len(template),
                explicit=False,
            )

    def _serve_batch_as_graph(
        self,
        ctx: Context,
        calls: List[Request],
        spans: List[Optional[CallSpan]],
        instance: GraphInstance,
    ) -> Generator:
        """Replay path: the frame matches an instantiated graph, so it is
        re-issued as one unit instead of being dispatched call by call.
        All execution accrues to the tail call's span; a replay error is
        all-or-nothing (every call of the frame reports it).  Returns the
        frame's responses."""
        env = self.env
        obs = self.obs
        launches = self._launch_records(calls)
        last = len(calls) - 1
        for i, req in enumerate(calls[:last]):
            span = spans[i]
            if span is not None:
                span.pop()
                span.served(env.now, ctx.vgpu)
                obs.phase_breakdown(ctx, req.method, span)
            self.stats.calls_served += 1
        last_req = calls[last]
        last_span = spans[last]
        if last_span is not None:
            last_span.pop()
            ctx.span = last_span
        t0 = env.now
        _, error = yield from self._execute_call(
            ctx, self._execute_graph, instance, launches
        )
        responses = [
            Response(request_id=req.request_id, error=error) for req in calls[:last]
        ]
        responses.append(self._finish_call(ctx, last_req, t0, None, error))
        return responses

    def _graph_valid(
        self, ctx: Context, instance: GraphInstance, launches: Sequence[KernelLaunch]
    ) -> bool:
        """Are the instance's baked translations still good?  Epoch
        equality is the O(1) fast path; after any table change, a direct
        residency re-check of the graph's working set decides."""
        page_table = self.memory.page_table
        if not ctx.bound or ctx.vgpu.device.device_id != instance.device_id:
            return False
        if instance.epoch == page_table.epoch:
            return True
        for launch in launches:
            for vptr in launch.arg_pointers:
                try:
                    pte = page_table.lookup(ctx, vptr)
                except RuntimeApiError:
                    return False
                if not pte.is_allocated:
                    return False
        return True

    def _execute_graph(
        self, ctx: Context, instance: GraphInstance, launches: Sequence[KernelLaunch]
    ) -> Generator:
        """Re-issue an instantiated graph: one control-plane charge when
        the cached translations are still good, the full per-launch path
        (plus an invalidation count) when a journaled buffer was evicted
        between replays.  Validity only affects *charging* — execution
        always goes through ``prepare_and_launch``, which re-faults
        anything missing, so a misjudged fast path cannot corrupt."""
        env = self.env
        if not ctx.bound:
            yield from self.scheduler.request_binding(ctx)
        cold = instance.epoch is None
        valid = not cold and self._graph_valid(ctx, instance, launches)
        if not valid and not cold:
            self.stats.graphs_invalidated += 1
        span = ctx.span
        if span is not None:
            span.push("graph_replay")
        try:
            cp = self.config.launch_control_plane_s
            if valid and cp > 0.0:
                yield env.timeout(cp)
            backoff = self.config.swap_retry_backoff_s
            for launch in launches:
                _, backoff = yield from self._launch(
                    ctx, launch, backoff, "graph retry", control_plane=not valid
                )
        finally:
            if span is not None:
                span.pop()
        self.stats.graph_replays += 1
        self.stats.graph_replayed_kernels += len(launches)
        instance.epoch = self.memory.page_table.epoch
        instance.device_id = ctx.vgpu.device.device_id if ctx.bound else None
        if self.obs.enabled:
            self.obs.record(
                GraphReplay,
                ctx,
                graph_id=instance.graph_id,
                kernels=len(launches),
                invalidated=not valid and not cold,
            )

    # ------------------------------------------------------------------
    # preemptive time-slicing (repro.qos)
    # ------------------------------------------------------------------
    def _quantum_exhausted(self, ctx: Context, quantum: float) -> bool:
        return (
            ctx.bound
            and ctx.state is ContextState.ASSIGNED
            and not ctx.excluded_from_sharing
            and ctx.quantum_used_s >= quantum
            and self.scheduler.waiting_count > 0
        )

    def _preempt(self, ctx: Context) -> Generator:
        """Unbind a quantum-expired context at a call boundary.

        Same lock-acquire-and-recheck discipline as the CPU-phase reaper
        and migration: the context may have exited, failed, or been
        swapped out by someone else while we queued for its lock.
        """
        yield ctx.lock.acquire()
        try:
            if not (
                ctx.bound
                and ctx.in_cpu_phase
                and ctx.state is ContextState.ASSIGNED
                and self.scheduler.waiting_count > 0
            ):
                return
            vgpu = ctx.vgpu
            used = ctx.quantum_used_s
            yield from self.memory.unbind(ctx, "quantum expired", retain=True)
            self.stats.preemptions += 1
            if ctx.tenant is not None:
                ctx.tenant.preemptions += 1
            if self.obs.enabled:
                self.obs.record(
                    Preemption,
                    ctx,
                    vgpu=vgpu.name,
                    device_id=vgpu.device.device_id,
                    quantum_s=self.config.vgpu_quantum_s,
                    used_s=used,
                )
        finally:
            ctx.lock.release()

    # ------------------------------------------------------------------
    # overlap engine: CPU-phase prefetch (§4.5 "overlap computation and
    # communication")
    # ------------------------------------------------------------------
    def _maybe_prefetch(self, ctx: Context) -> None:
        """After responding to a call, stage the predicted next-launch
        working set while the application computes on the CPU (called
        only with ``prefetch_enabled``)."""
        if not ctx.bound or not ctx.last_launch_vptrs:
            return
        self.env.process(
            self._prefetch(ctx, ctx.last_launch_vptrs),
            name=f"prefetch-{ctx.owner}",
        )

    def _prefetch(self, ctx: Context, vptrs) -> Generator:
        if ctx.lock.locked:
            # The next call already arrived; prefetching now would only
            # delay it.
            return
        yield ctx.lock.acquire()
        try:
            # Re-check under the lock: the context may have been swapped
            # out, migrated, failed, or have left its CPU phase.
            if (
                ctx.bound
                and ctx.in_cpu_phase
                and ctx.state is ContextState.ASSIGNED
            ):
                try:
                    yield from self.memory.prefetch(ctx, vptrs)
                except CudaRuntimeError:
                    # Device trouble mid-prefetch is not the application's
                    # problem; the next real call handles recovery.
                    pass
        finally:
            ctx.lock.release()

    # ------------------------------------------------------------------
    # call dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, ctx: Context, req: Request) -> Generator:
        """Serve one plain call under :meth:`_execute_call`'s
        device-failure rule; returns ``(result, error)``, ``result``
        being ``(value, response_payload_bytes)``.

        The round-trip overhead is charged inside the recovery loop: a
        call served again after a rebind pays it again.  The loop is
        ``_execute_call``'s, written out so that every resumption of the
        hottest call path crosses one generator frame fewer.
        """
        while True:
            try:
                if ctx.state is ContextState.FAILED:
                    yield from self._recover(ctx)
                yield self.env.timeout(DISPATCHER_OVERHEAD_S)
                result = yield from self._dispatch_body(ctx, req)
                ctx.rebind_attempts = 0
                return result, None
            except (CudaRuntimeError, RuntimeApiError) as exc:
                if not self._fail_for_rebind(ctx, exc):
                    return None, exc

    def _dispatch_body(self, ctx: Context, req: Request) -> Generator:
        """Serve one call, *after* the per-round-trip dispatcher overhead
        (charged once per call on the plain path, once per frame on the
        batched path)."""
        method = req.method
        args = req.args

        if ctx.capture is not None and method in (
            CallType.CONFIGURE_CALL,
            CallType.LAUNCH,
        ):
            # Stream-capture semantics: while capturing, configure/launch
            # are recorded into the graph template, not executed.
            self._record_capture(ctx, method, args)
            return None, 0

        if method == HELLO_METHOD:
            if args.get("owner"):
                ctx.owner = args["owner"]
            ctx.estimated_gpu_seconds = args.get("estimated_gpu_seconds")
            ctx.application_id = args.get("application_id")
            ctx.deadline_s = args.get("deadline_s")
            tenant_name = args.get("tenant")
            if tenant_name:
                ctx.tenant = self.runtime.qos.get_or_create(tenant_name)
            # Admission control (repro.qos): the gate sits here, at the
            # first moment tenant identity is known — a handshake over
            # its tenant's context cap blocks until a slot frees.  The
            # slot is returned in _exit.
            span = ctx.span
            if span is not None:
                span.push("queue_wait")
            try:
                yield from self.runtime.admission.admit(ctx)
            finally:
                if span is not None:
                    span.pop()
            if ctx.tenant is not None:
                ctx.tenant.attach(ctx)
            return None, 0

        if method in REGISTRATION_CALLS:
            return (yield from self._registration(ctx, req))

        if method == CallType.SET_DEVICE:
            # Overridden: the runtime masks explicit GPU procurement (§2).
            return None, 0
        if method == CallType.GET_DEVICE_COUNT:
            # Overridden: report virtual, not physical, GPUs (§4.3).
            return self.scheduler.total_vgpus, 0

        if method == CallType.MALLOC:
            return self.memory.malloc(ctx, args["size"]), 0
        if method == CallType.FREE:
            yield from self.memory.free(ctx, args["vptr"])
            return None, 0
        if method == CallType.MEMCPY_H2D:
            yield from self.memory.copy_h2d(ctx, args["vptr"], args["nbytes"])
            return None, 0
        if method == CallType.MEMCPY_D2H:
            yield from self.memory.copy_d2h(ctx, args["vptr"], args["nbytes"])
            return None, args["nbytes"]

        if method == CallType.CONFIGURE_CALL:
            ctx.pending_config = _configuration(args)
            return None, 0
        if method == CallType.LAUNCH:
            if ctx.pending_config is None:
                raise CudaRuntimeError(
                    CudaError.cudaErrorMissingConfiguration,
                    "cudaLaunch without cudaConfigureCall",
                )
            # Keep the configuration until the launch succeeds: the call
            # may be retried wholesale after a device failure.
            launch = ctx.last_launch = _launch_record(
                args, *ctx.pending_config, ctx.last_launch
            )
            duration, _ = yield from self._launch(
                ctx, launch, self.config.swap_retry_backoff_s, "swap retry"
            )
            ctx.pending_config = None
            threshold = self.config.checkpoint_kernel_seconds
            if threshold is not None and duration >= threshold:
                # Automatic checkpoint after long-running kernels (§4.6).
                yield from self.memory.checkpoint(ctx)
            return None, 0
        if method == CallType.THREAD_SYNCHRONIZE:
            return None, 0

        if method == CallType.REGISTER_NESTED:
            self.memory.register_nested(
                ctx, args["parent"], args["members"], args["offsets"]
            )
            return None, 0
        if method == CallType.CHECKPOINT:
            if ctx.bound:
                yield from self.memory.checkpoint(ctx)
            return None, 0

        if method == CallType.GRAPH_BEGIN_CAPTURE:
            if ctx.capture is not None:
                raise RuntimeApiError(
                    RuntimeErrorCode.GRAPH_INVALID, "capture already active"
                )
            ctx.capture = []
            ctx.capture_config = None
            return None, 0
        if method == CallType.GRAPH_END_CAPTURE:
            if ctx.capture is None:
                raise RuntimeApiError(
                    RuntimeErrorCode.GRAPH_INVALID, "no capture active"
                )
            launches, ctx.capture = ctx.capture, None
            if not launches:
                raise RuntimeApiError(
                    RuntimeErrorCode.GRAPH_INVALID, "captured sequence is empty"
                )
            instance = GraphInstance(
                graph_id=next(_graph_ids), template=tuple(launches)
            )
            ctx.graphs[instance.graph_id] = instance
            self.stats.graphs_instantiated += 1
            # Instantiation bakes every node's submission state up front —
            # the one-time control-plane cost that replay then amortizes.
            cp = self.config.launch_control_plane_s
            if cp > 0.0:
                yield self.env.timeout(cp * len(launches))
            if self.obs.enabled:
                self.obs.record(
                    GraphInstantiate,
                    ctx,
                    graph_id=instance.graph_id,
                    kernels=len(launches),
                    explicit=True,
                )
            return instance.graph_id, 0
        if method == CallType.GRAPH_LAUNCH:
            instance = ctx.graphs.get(args.get("graph"))
            if instance is None:
                raise RuntimeApiError(
                    RuntimeErrorCode.GRAPH_INVALID,
                    f"unknown graph handle {args.get('graph')!r}",
                )
            yield from self._execute_graph(ctx, instance, instance.template)
            return None, 0

        if method == CallType.EXIT:
            yield from self._exit(ctx)
            return None, 0

        raise ValueError(f"unknown intercepted call {method!r}")

    def _record_capture(self, ctx: Context, method: CallType, args: dict) -> None:
        if method == CallType.CONFIGURE_CALL:
            ctx.capture_config = _configuration(args)
            return
        grid, block = ctx.capture_config or _configuration({})
        ctx.capture.append(_launch_record(args, grid, block))
        ctx.capture_config = None

    def _registration(self, ctx: Context, req: Request) -> Generator:
        """Registration functions precede context creation and are issued
        straight to the CUDA runtime (they carry no binding decision)."""
        yield self.env.timeout(timing.REGISTRATION_SECONDS)
        if req.method == CallType.REGISTER_FATBIN:
            fatbin = req.args["fatbin"]
            ctx.fatbins.append(fatbin)
            if fatbin.needs_exclusion_from_sharing:
                # Device-side dynamic allocation: served, but excluded
                # from sharing and dynamic scheduling (§1).
                ctx.excluded_from_sharing = True
            return fatbin.handle, 0
        if req.method == CallType.REGISTER_FUNCTION:
            descriptor = req.args["descriptor"]
            fatbin = next(
                (f for f in ctx.fatbins if f.handle == req.args["fatbin_handle"]), None
            )
            if fatbin is not None and descriptor.name not in fatbin.functions:
                fatbin.register_function(descriptor)
            if descriptor.uses_dynamic_alloc:
                ctx.excluded_from_sharing = True
            return None, 0
        # vars / textures / shared: symbol bookkeeping on the fat binary
        fatbin = next(
            (f for f in ctx.fatbins if f.handle == req.args.get("fatbin_handle")),
            None,
        )
        if fatbin is not None:
            name = req.args.get("name", "")
            if req.method == CallType.REGISTER_VAR:
                fatbin.register_var(name)
            elif req.method == CallType.REGISTER_TEXTURE:
                fatbin.register_texture(name)
            elif req.method == CallType.REGISTER_SHARED_VAR:
                fatbin.register_shared_var(name)
        return None, 0

    # ------------------------------------------------------------------
    # launch path: delayed binding + swap retries (§4.3, §4.5)
    # ------------------------------------------------------------------
    def _launch(
        self, ctx: Context, launch: KernelLaunch, backoff: float, reason: str,
        front: bool = False, control_plane: bool = True,
    ) -> Generator:
        """Bind if needed and execute one launch record; returns
        ``(duration, backoff)``.

        A launch that finds no device memory and no victim unbinds and
        retries later (§4.5): it wakes early if anyone releases device
        memory, otherwise it backs off exponentially so stuck launches do
        not spin.  The back-off carries from one launch of a sequence to
        the next.  ``reason`` names the release; ``front`` queues the
        rebinding ahead of other waiters (journal replay).
        """
        while True:
            if not ctx.bound:
                yield from self.scheduler.request_binding(ctx, front=front)
            try:
                duration = yield from self.memory.prepare_and_launch(
                    ctx, launch, control_plane=control_plane
                )
                return duration, backoff
            except NeedRetry:
                # The lost time is off-device time: "preempted".
                span = ctx.span
                if span is not None:
                    span.push("preempted")
                try:
                    yield from self.memory.unbind(ctx, reason, notify=False)
                    # When either branch wins, the AnyOf cancels the loser:
                    # a spent timeout leaves the kernel heap, an unneeded
                    # waiter leaves memory_freed's queue — so a later
                    # notify cannot be swallowed by this retry's ghost.
                    timeout = self.env.timeout(backoff)
                    freed = self.memory.memory_freed.wait()
                    yield self.env.any_of([timeout, freed])
                finally:
                    if span is not None:
                        span.pop()
                backoff = min(backoff * 2, SWAP_RETRY_MAX_BACKOFF_S)

    # ------------------------------------------------------------------
    # failure handling (§4.6)
    # ------------------------------------------------------------------
    def _mark_failed(self, ctx: Context, exc: CudaRuntimeError) -> None:
        ctx.error = exc
        ctx.state = ContextState.FAILED
        ctx.rebind_attempts += 1
        if ctx not in self.failed_contexts:
            self.failed_contexts.append(ctx)
        if ctx.vgpu is not None:
            dead_device = ctx.vgpu.device
            ctx.vgpu.unbind(ctx)
            if dead_device.failed:
                self.runtime.note_device_failure(dead_device)
        self.memory.reset_after_failure(ctx)

    def replay_journal(self, ctx: Context) -> Generator:
        """Replay a context's journaled kernels; returns how many.

        The single replay implementation (§4.6): device-failure recovery
        and full-node restart both run this loop.  Each journaled kernel
        is re-executed through the ordinary launch path (re-journaling
        included), so replay survives memory pressure on the new device —
        a mid-replay swap-out captures the replayed prefix in the swap
        area while the suffix stays pending here.
        """
        pending = list(ctx.replay_journal)
        ctx.replay_journal.clear()
        backoff = self.config.swap_retry_backoff_s
        for launch in pending:
            _, backoff = yield from self._launch(
                ctx, launch, backoff, "replay retry", front=True
            )
            self.stats.replayed_kernels += 1
        if not ctx.bound:
            yield from self.scheduler.request_binding(ctx, front=True)
        return len(pending)

    def _recover(self, ctx: Context) -> Generator:
        """Rebind a failed context to a healthy device and replay."""
        replayed = yield from self.replay_journal(ctx)
        ctx.state = ContextState.ASSIGNED
        ctx.error = None
        if ctx in self.failed_contexts:
            self.failed_contexts.remove(ctx)
        self.stats.failures_recovered += 1
        if self.obs.enabled:
            self.obs.record(FailureRecovered, ctx, replayed_kernels=replayed)

    # ------------------------------------------------------------------
    def _exit(self, ctx: Context) -> Generator:
        yield from self.memory.release_context(ctx)
        if ctx.bound:
            self.scheduler.release(ctx, "exit")
        else:
            self.scheduler.cancel_wait(ctx)
        self.runtime.admission.release(ctx)
        # The runtime estimator (read by ``sjf_est``) learns from every
        # completed context: measured GPU seconds keyed by its tenant.
        estimator = self.scheduler.policy_context.estimator
        if estimator is not None and ctx.gpu_seconds_used > 0:
            tenant = ctx.tenant
            estimator.observe(
                tenant.name if tenant is not None else None,
                ctx.gpu_seconds_used,
                group=getattr(tenant, "group", None),
            )
        if ctx.tenant is not None:
            ctx.tenant.detach(ctx)
        ctx.state = ContextState.DONE
        self.contexts.remove(ctx)
        ctx.finished_at = self.env.now
