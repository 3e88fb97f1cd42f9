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
from typing import Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.net.rpc import BatchRequest, BatchResponse, Request, Response
from repro.net.socket import Socket
from repro.simcuda import timing
from repro.simcuda.errors import CudaError, CudaRuntimeError
from repro.simcuda.kernels import KernelLaunch

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

_graph_ids = itertools.count(1)


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
        #: All contexts ever served (experiment bookkeeping).
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
                self.obs.queue_depth(
                    "pending_connections", self.runtime.connections.pending_count
                )
                self._observe_socket(sock)
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
                    self.obs.offload(sock.peer_name, peer.name)
                self.env.process(
                    self.runtime.offloader.proxy(sock, peer),
                    name=f"offload-proxy-{sock.socket_id}",
                )
            else:
                self.env.process(
                    self._serve_connection(sock), name=f"handler-{sock.socket_id}"
                )

    def _observe_socket(self, sock: Socket) -> None:
        """Tracing only: watch the connection's channels — bytes/messages
        into net counters, receive-queue depth onto the event bus."""
        metrics = self.runtime.metrics
        messages = metrics.counter("net_messages_total", "messages over served sockets")
        nbytes = metrics.counter("net_bytes_total", "payload bytes over served sockets")
        queue = f"sock{sock.socket_id}-rx"

        def on_activity(direction: str, action: str, n: int, pending: int) -> None:
            if action == "send":
                messages.inc()
                nbytes.inc(n)
            elif action == "deliver" and direction == "rx":
                self.obs.queue_depth(queue, pending)

        sock.attach_observer(on_activity)

    # ------------------------------------------------------------------
    def _serve_connection(self, sock: Socket) -> Generator:
        # Generator locals persist across yields: bind the per-call
        # constants once instead of chasing attribute chains on every
        # iteration of the hottest loop in the simulator.
        env = self.env
        obs = self.obs
        stats = self.stats
        recv = sock.recv
        latency_observe = self._call_latency.observe
        slo_observe = self.runtime.slo.observe_call
        migration = self.runtime.migration
        ctx = Context(env, owner=sock.peer_name)
        ctx.enter_cpu_phase(env.now)
        self.contexts.append(ctx)
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
                if exited:
                    return
                if self._quantum_exhausted(ctx):
                    yield from self._preempt(ctx)
                migration.maybe_migrate(ctx)
                self._maybe_prefetch(ctx)
                continue
            span = None
            if obs.enabled:
                # The span's clock starts at the client's send timestamp,
                # so the request's wire leg lands in the "rpc" phase.
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
            value, error, resp_bytes = None, None, 0
            begin_at = obs.call_begin(ctx, req.method) if obs.enabled else None
            t0 = env.now
            try:
                while True:
                    try:
                        if ctx.state is ContextState.FAILED:
                            yield from self._recover(ctx)
                        value, resp_bytes = yield from self._dispatch(ctx, req)
                        ctx.rebind_attempts = 0
                        break
                    except CudaRuntimeError as exc:
                        if (
                            exc.code == CudaError.cudaErrorDevicesUnavailable
                            and ctx.rebind_attempts
                            < self.config.max_failed_rebind_attempts
                        ):
                            self._mark_failed(ctx, exc)
                            continue
                        error = exc
                        break
                    except RuntimeApiError as exc:
                        error = exc
                        break
            finally:
                elapsed = env.now - t0
                latency_observe(elapsed)
                slo_observe(ctx, elapsed)
                if begin_at is not None:
                    obs.call_end(
                        ctx, req.method, begin_at,
                        error=type(error).__name__ if error is not None else None,
                    )
                if span is not None:
                    # Everything from here until the response lands is
                    # the reply's wire leg.
                    span.push("rpc")
                ctx.enter_cpu_phase(env.now)
                lock_release()
            resp = Response(
                request_id=req.request_id,
                value=value,
                error=error,
                payload_bytes=resp_bytes,
            )
            stats.calls_served += 1
            yield from sock.send(resp, nbytes=resp.wire_bytes)
            if span is not None:
                ctx.span = None
                obs.phase_breakdown(
                    ctx, req.method, span,
                    error=type(error).__name__ if error is not None else None,
                )
            if req.method == CallType.EXIT:
                return
            if self._quantum_exhausted(ctx):
                # Preemptive time-slicing (repro.qos): the context burned
                # its vGPU quantum while others queue — unbind it at this
                # call boundary (delayed binding makes that safe, §4.4)
                # and let the policy re-order who goes next.
                yield from self._preempt(ctx)
            # The application is back in a CPU phase: a faster idle GPU
            # may now claim it (dynamic binding, §5.3.4).
            migration.maybe_migrate(ctx)
            self._maybe_prefetch(ctx)

    # ------------------------------------------------------------------
    # control-plane batching + graph replay
    # ------------------------------------------------------------------
    def _serve_batch(self, sock: Socket, ctx: Context, batch: BatchRequest) -> Generator:
        """Execute one batch frame under a single lock hold and a single
        ``dispatcher_overhead_s`` charge (one scheduler round-trip).

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
            obs.batch_submit(ctx, len(calls), batch.wire_bytes)
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
        responses: List[Response] = []
        last_error: Optional[BaseException] = None
        exited = False
        yield ctx.lock.acquire()
        try:
            yield env.timeout(self.config.dispatcher_overhead_s)
            instance = self._match_graph(ctx, calls)
            if instance is not None:
                responses, last_error = yield from self._serve_batch_as_graph(
                    ctx, calls, spans, instance
                )
            else:
                responses, last_error, exited = yield from self._serve_batch_calls(
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
                ctx,
                calls[-1].method,
                last_span,
                error=type(last_error).__name__ if last_error is not None else None,
            )
        return exited

    def _serve_batch_calls(
        self, ctx: Context, calls: List[Request], spans: List[Optional[CallSpan]]
    ) -> Generator:
        """Per-call execution of a batch frame (no matching graph)."""
        env = self.env
        obs = self.obs
        latency_observe = self._call_latency.observe
        slo_observe = self.runtime.slo.observe_call
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
            begin_at = obs.call_begin(ctx, req.method) if obs.enabled else None
            t0 = env.now
            value, resp_bytes, error = None, 0, None
            if first_error is not None:
                error = RuntimeApiError(
                    RuntimeErrorCode.BATCH_ABORTED,
                    f"call #{i + 1} followed failed call "
                    f"#{first_error_at + 1}: {first_error}",
                )
            else:
                value, resp_bytes, error = yield from self._execute_call(ctx, req)
                if error is not None:
                    first_error, first_error_at = error, i
                elif req.method == CallType.EXIT:
                    exited = True
            elapsed = env.now - t0
            latency_observe(elapsed)
            slo_observe(ctx, elapsed)
            if begin_at is not None:
                obs.call_end(
                    ctx, req.method, begin_at,
                    error=type(error).__name__ if error is not None else None,
                )
            responses.append(
                Response(
                    request_id=req.request_id,
                    value=value,
                    error=error,
                    payload_bytes=resp_bytes,
                )
            )
            self.stats.calls_served += 1
            if span is not None and i < last:
                # Non-tail calls complete here; the reply wire leg is not
                # theirs (it is charged once, to the tail call's span).
                ctx.span = None
                obs.phase_breakdown(
                    ctx, req.method, span,
                    error=type(error).__name__ if error is not None else None,
                )
        if first_error is None:
            self._note_graph_candidate(ctx, calls)
        return responses, (responses[-1].error if responses else None), exited

    def _execute_call(self, ctx: Context, req: Request) -> Generator:
        """One batched call through the same recovery/retry loop as the
        single-call path; returns ``(value, resp_bytes, error)`` instead
        of raising, so the batch can abort its tail and still respond."""
        while True:
            try:
                if ctx.state is ContextState.FAILED:
                    yield from self._recover(ctx)
                value, resp_bytes = yield from self._dispatch_body(ctx, req)
                ctx.rebind_attempts = 0
                return value, resp_bytes, None
            except CudaRuntimeError as exc:
                if (
                    exc.code == CudaError.cudaErrorDevicesUnavailable
                    and ctx.rebind_attempts
                    < self.config.max_failed_rebind_attempts
                ):
                    self._mark_failed(ctx, exc)
                    continue
                return None, 0, exc
            except RuntimeApiError as exc:
                return None, 0, exc

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
                sig.append(
                    (
                        "cfg",
                        tuple(req.args.get("grid", (1, 1, 1))),
                        tuple(req.args.get("block", (256, 1, 1))),
                    )
                )
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
    def _launch_records(calls: List[Request]) -> List[dict]:
        """Configure/launch pairs → launch parameter records (the
        incoming args are the graph's "parameter patching")."""
        records: List[dict] = []
        grid, block = (1, 1, 1), (256, 1, 1)
        for req in calls:
            if req.method == CallType.CONFIGURE_CALL:
                grid = tuple(req.args.get("grid", (1, 1, 1)))
                block = tuple(req.args.get("block", (256, 1, 1)))
            elif req.method == CallType.LAUNCH:
                records.append(
                    {
                        "kernel": req.args["kernel"],
                        "vptrs": tuple(req.args.get("args", ())),
                        "read_only": tuple(req.args.get("read_only", ())),
                        "grid": grid,
                        "block": block,
                    }
                )
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
        """Journal-based detection: after ``graph_min_repeats`` identical
        launch-only frames, instantiate a graph so the next match
        replays."""
        if not self.config.graph_replay_enabled:
            return
        sig = self._batch_signature(calls)
        if sig is None or sig in ctx.graph_by_signature:
            return
        seen = ctx.graph_candidates.get(sig, 0) + 1
        if seen < self.config.graph_min_repeats:
            ctx.graph_candidates[sig] = seen
            return
        ctx.graph_candidates.pop(sig, None)
        template = tuple(
            KernelLaunch(
                kernel=r["kernel"],
                grid=r["grid"],
                block=r["block"],
                arg_pointers=r["vptrs"],
                read_only=r["read_only"] or None,
            )
            for r in self._launch_records(calls)
        )
        instance = GraphInstance(graph_id=next(_graph_ids), template=template)
        # The instantiating frame just executed, so its working set is
        # resident right now: the next matching frame replays hot.
        instance.epoch = self.memory.page_table.epoch
        instance.device_id = ctx.vgpu.device.device_id if ctx.bound else None
        ctx.graph_by_signature[sig] = instance
        ctx.graphs[instance.graph_id] = instance
        self.stats.graphs_instantiated += 1
        if self.obs.enabled:
            self.obs.graph_instantiate(
                ctx, instance.graph_id, len(template), explicit=False
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
        all-or-nothing (every call of the frame reports it)."""
        env = self.env
        obs = self.obs
        launches = self._launch_records(calls)
        last = len(calls) - 1
        for i, req in enumerate(calls[:last]):
            span = spans[i]
            if obs.enabled:
                begin = obs.call_begin(ctx, req.method)
                obs.call_end(ctx, req.method, begin)
            if span is not None:
                span.pop()
                obs.phase_breakdown(ctx, req.method, span)
            self.stats.calls_served += 1
        last_req = calls[last]
        last_span = spans[last]
        if last_span is not None:
            last_span.pop()
            ctx.span = last_span
        begin_at = obs.call_begin(ctx, last_req.method) if obs.enabled else None
        t0 = env.now
        error: Optional[BaseException] = None
        while True:
            try:
                if ctx.state is ContextState.FAILED:
                    yield from self._recover(ctx)
                yield from self._execute_graph(ctx, instance, launches)
                ctx.rebind_attempts = 0
                break
            except CudaRuntimeError as exc:
                if (
                    exc.code == CudaError.cudaErrorDevicesUnavailable
                    and ctx.rebind_attempts
                    < self.config.max_failed_rebind_attempts
                ):
                    self._mark_failed(ctx, exc)
                    continue
                error = exc
                break
            except RuntimeApiError as exc:
                error = exc
                break
        elapsed = env.now - t0
        self._call_latency.observe(elapsed)
        self.runtime.slo.observe_call(ctx, elapsed)
        if begin_at is not None:
            obs.call_end(
                ctx, last_req.method, begin_at,
                error=type(error).__name__ if error is not None else None,
            )
        self.stats.calls_served += 1
        responses = [Response(request_id=req.request_id, error=error) for req in calls]
        return responses, error

    def _graph_valid(
        self, ctx: Context, instance: GraphInstance, launches: List[dict]
    ) -> bool:
        """Are the instance's baked translations still good?  Epoch
        equality is the O(1) fast path; after any table change, a direct
        residency re-check of the graph's working set decides."""
        page_table = self.memory.page_table
        if not ctx.bound or ctx.vgpu.device.device_id != instance.device_id:
            return False
        if instance.epoch == page_table.epoch:
            return True
        for entry in launches:
            for vptr in entry["vptrs"]:
                try:
                    pte = page_table.lookup(ctx, vptr)
                except RuntimeApiError:
                    return False
                if not pte.is_allocated:
                    return False
        return True

    def _execute_graph(
        self, ctx: Context, instance: GraphInstance, launches: List[dict]
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
            index = 0
            while index < len(launches):
                if not ctx.bound:
                    yield from self.scheduler.request_binding(ctx)
                entry = launches[index]
                try:
                    yield from self.memory.prepare_and_launch(
                        ctx,
                        entry["kernel"],
                        entry["vptrs"],
                        entry["read_only"],
                        grid=entry["grid"],
                        block=entry["block"],
                        control_plane=not valid,
                    )
                    index += 1
                except NeedRetry:
                    yield from self.memory.swap_out_context(ctx, notify=False)
                    self.scheduler.release(ctx, "graph retry")
                    timeout = env.timeout(backoff)
                    freed = self.memory.memory_freed.wait()
                    yield env.any_of([timeout, freed])
                    backoff = min(backoff * 2, self.config.swap_retry_max_backoff_s)
        finally:
            if span is not None:
                span.pop()
        self.stats.graph_replays += 1
        self.stats.graph_replayed_kernels += len(launches)
        instance.epoch = self.memory.page_table.epoch
        instance.device_id = ctx.vgpu.device.device_id if ctx.bound else None
        if self.obs.enabled:
            self.obs.graph_replay(
                ctx,
                instance.graph_id,
                len(launches),
                invalidated=not valid and not cold,
            )

    # ------------------------------------------------------------------
    # preemptive time-slicing (repro.qos)
    # ------------------------------------------------------------------
    def _quantum_exhausted(self, ctx: Context) -> bool:
        quantum = self.config.vgpu_quantum_s
        return (
            quantum is not None
            and ctx.bound
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
            # In-flight overlap-engine write-backs target this context's
            # device memory; they must land before swap-out releases it
            # (swap_out_context drains too, but an explicit barrier here
            # keeps the invariant even if that path changes).
            yield from self.memory._drain_writebacks(ctx)
            if self.config.locality_binding:
                # Retention unbind: write dirty chunks back but leave the
                # device copy cached, so a rebind to the same vGPU skips
                # the re-fault entirely (§4.4 locality-aware binding).
                yield from self.memory.unbind_retain(ctx)
            else:
                yield from self.memory.swap_out_context(ctx)
            self.scheduler.release(ctx, "quantum expired")
            self.stats.preemptions += 1
            if ctx.tenant is not None:
                ctx.tenant.preemptions += 1
            if self.obs.enabled:
                self.obs.preemption(
                    ctx, vgpu, self.config.vgpu_quantum_s, used
                )
        finally:
            ctx.lock.release()

    # ------------------------------------------------------------------
    # overlap engine: CPU-phase prefetch (§4.5 "overlap computation and
    # communication")
    # ------------------------------------------------------------------
    def _maybe_prefetch(self, ctx: Context) -> None:
        """After responding to a call, stage the predicted next-launch
        working set while the application computes on the CPU."""
        if (
            not self.config.prefetch_enabled
            or not ctx.bound
            or not ctx.last_launch_vptrs
        ):
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
        """Returns (value, response_payload_bytes)."""
        yield self.env.timeout(self.config.dispatcher_overhead_s)
        return (yield from self._dispatch_body(ctx, req))

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
            ctx.estimated_bytes = args.get("estimated_bytes")
            tenant_name = args.get("tenant")
            if tenant_name:
                ctx.tenant = self.runtime.qos.get_or_create(tenant_name)
            # Admission control (repro.qos): the gate sits here, at the
            # first moment tenant identity is known — a rejected
            # handshake surfaces as a typed error on Frontend.open(),
            # a queued one blocks until a slot frees.  The slot is
            # returned in _exit.
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
            ctx.pending_config = (args.get("grid", (1, 1, 1)), args.get("block", (256, 1, 1)))
            return None, 0
        if method == CallType.LAUNCH:
            yield from self._launch(ctx, req)
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
                self.obs.graph_instantiate(
                    ctx, instance.graph_id, len(launches), explicit=True
                )
            return instance.graph_id, 0
        if method == CallType.GRAPH_LAUNCH:
            instance = ctx.graphs.get(args.get("graph"))
            if instance is None:
                raise RuntimeApiError(
                    RuntimeErrorCode.GRAPH_INVALID,
                    f"unknown graph handle {args.get('graph')!r}",
                )
            launches = [
                {
                    "kernel": l.kernel,
                    "vptrs": l.arg_pointers,
                    "read_only": l.read_only or (),
                    "grid": l.grid,
                    "block": l.block,
                }
                for l in instance.template
            ]
            yield from self._execute_graph(ctx, instance, launches)
            return None, 0

        if method == CallType.EXIT:
            yield from self._exit(ctx)
            return None, 0

        raise ValueError(f"unknown intercepted call {method!r}")

    def _record_capture(self, ctx: Context, method: CallType, args: dict) -> None:
        if method == CallType.CONFIGURE_CALL:
            ctx.capture_config = (
                args.get("grid", (1, 1, 1)),
                args.get("block", (256, 1, 1)),
            )
            return
        grid, block = ctx.capture_config or ((1, 1, 1), (256, 1, 1))
        ctx.capture.append(
            KernelLaunch(
                kernel=args["kernel"],
                grid=tuple(grid),
                block=tuple(block),
                arg_pointers=tuple(args.get("args", ())),
                read_only=tuple(args.get("read_only", ())) or None,
            )
        )
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
    def _launch(self, ctx: Context, req: Request) -> Generator:
        if ctx.pending_config is None:
            raise CudaRuntimeError(
                CudaError.cudaErrorMissingConfiguration,
                "cudaLaunch without cudaConfigureCall",
            )
        # Keep the configuration until the launch succeeds: the call may
        # be retried wholesale after a device failure.
        grid, block = ctx.pending_config
        kernel = req.args["kernel"]
        vptrs = tuple(req.args.get("args", ()))
        read_only = tuple(req.args.get("read_only", ()))

        backoff = self.config.swap_retry_backoff_s
        while True:
            if not ctx.bound:
                yield from self.scheduler.request_binding(ctx)
            ctx.last_call = req
            try:
                duration = yield from self.memory.prepare_and_launch(
                    ctx, kernel, vptrs, read_only, grid=grid, block=block
                )
                break
            except NeedRetry:
                # No device memory, no victim: unbind, retry later (§4.5).
                # Wake early if anyone releases device memory; otherwise
                # back off exponentially so stuck launches do not spin.
                # The lost time is off-device time: "preempted".
                span = ctx.span
                if span is not None:
                    span.push("preempted")
                try:
                    yield from self.memory.swap_out_context(ctx, notify=False)
                    self.scheduler.release(ctx, "swap retry")
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
                backoff = min(backoff * 2, self.config.swap_retry_max_backoff_s)

        ctx.pending_config = None
        threshold = self.config.checkpoint_kernel_seconds
        if threshold is not None and duration >= threshold:
            # Automatic checkpoint after long-running kernels (§4.6).
            yield from self.memory.checkpoint(ctx)

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
        index = 0
        while index < len(pending):
            if not ctx.bound:
                yield from self.scheduler.request_binding(ctx, front=True)
            launch = pending[index]
            try:
                yield from self.memory.prepare_and_launch(
                    ctx,
                    launch.kernel,
                    launch.arg_pointers,
                    launch.read_only or (),
                    grid=launch.grid,
                    block=launch.block,
                )
                self.stats.replayed_kernels += 1
                index += 1
            except NeedRetry:
                span = ctx.span
                if span is not None:
                    span.push("preempted")
                try:
                    yield from self.memory.swap_out_context(ctx, notify=False)
                    self.scheduler.release(ctx, "replay retry")
                    # As in _launch: the losing branch is cancelled, not
                    # left as a ghost waiter/heap entry.
                    timeout = self.env.timeout(backoff)
                    freed = self.memory.memory_freed.wait()
                    yield self.env.any_of([timeout, freed])
                finally:
                    if span is not None:
                        span.pop()
                backoff = min(backoff * 2, self.config.swap_retry_max_backoff_s)
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
            self.obs.failure_recovered(ctx, replayed_kernels=replayed)

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
        ctx.finished_at = self.env.now
