"""Dynamic binding: migrating running jobs between GPUs (paper §5.3.4).

The dispatcher keeps track of fast GPUs becoming idle and, in the absence
of pending jobs, migrates running jobs from slow to fast GPUs.  The
virtual-memory abstraction makes the move cheap to express: swap the
job's device state out on the slow device, rebind to the fast one, and
let the next launch fault the data back in.

As the number of concurrent jobs grows, idle fast vGPUs are given to
waiting jobs instead — migration only triggers when nothing is waiting,
matching the paper's observation that large batches see zero migrations.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from repro.core.context import Context, ContextState
from repro.core.vgpu import VirtualGPU
from repro.obs.events import Migration

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import NodeRuntime

__all__ = ["MigrationManager"]

#: Only migrate when the destination device is at least this many times
#: faster than the source.
MIN_SPEEDUP = 1.25


class MigrationManager:
    """Slow→fast job migration on vGPU idleness."""

    def __init__(self, runtime: "NodeRuntime"):
        self.runtime = runtime
        self.env = runtime.env
        self.config = runtime.config
        self.scheduler = runtime.scheduler
        self.memory = runtime.memory
        self.stats = runtime.stats
        #: Wired by the runtime under ``locality_binding``: the transfer-
        #: cost model.  When set, every migration candidate must clear
        #: ``migration_worthwhile`` — modeled speedup gain over the job's
        #: remaining work must exceed the modeled data-movement cost —
        #: before a move is scheduled.
        self.cost_model = None
        self.scheduler.idle_hooks.append(self.on_vgpu_idle)

    def _worthwhile(self, ctx: Context, dst: VirtualGPU) -> bool:
        if self.cost_model is None:
            return True
        return self.cost_model.migration_worthwhile(ctx, dst.device)

    # ------------------------------------------------------------------
    def on_vgpu_idle(self, vgpu: VirtualGPU) -> None:
        """Scheduler hook: a vGPU became idle with no waiting contexts."""
        if not self.config.migration_enabled:
            return
        victim = self._find_candidate(vgpu)
        if victim is not None:
            vgpu.reserved = True
            self.env.process(
                self._migrate(victim, vgpu), name=f"migrate-{victim.owner}"
            )

    def maybe_migrate(self, ctx: Context) -> None:
        """Dispatcher hook, run only with ``migration_enabled``: ``ctx``
        just entered a CPU phase.  If a sufficiently faster device has an
        idle vGPU and nobody is waiting for it, move the job there."""
        if self.scheduler.waiting_count > 0:
            return
        if (
            not ctx.bound
            or ctx.excluded_from_sharing
            or ctx.state is not ContextState.ASSIGNED
            or ctx.lock.locked
        ):
            return
        src_speed = ctx.vgpu.device.spec.effective_gflops
        best: Optional[VirtualGPU] = None
        for vgpu in self.scheduler.idle_vgpus():
            speedup = vgpu.device.spec.effective_gflops / src_speed
            if (
                speedup >= MIN_SPEEDUP
                and self._worthwhile(ctx, vgpu)
                and (
                    best is None
                    or vgpu.device.spec.effective_gflops
                    > best.device.spec.effective_gflops
                )
            ):
                best = vgpu
        if best is not None:
            best.reserved = True
            self.env.process(self._migrate(ctx, best), name=f"migrate-{ctx.owner}")

    def _find_candidate(self, dst: VirtualGPU) -> Optional[Context]:
        """A job bound to a sufficiently slower device, currently in a
        CPU phase (so its device state is quiescent), not excluded from
        dynamic scheduling."""
        dst_speed = dst.device.spec.effective_gflops
        best: Optional[Context] = None
        best_speedup = MIN_SPEEDUP
        for ctx in self.scheduler.bound_contexts():
            if ctx.excluded_from_sharing or ctx.state is not ContextState.ASSIGNED:
                continue
            if not ctx.in_cpu_phase or ctx.lock.locked:
                continue
            speedup = dst_speed / ctx.vgpu.device.spec.effective_gflops
            if speedup >= best_speedup and self._worthwhile(ctx, dst):
                best = ctx
                best_speedup = speedup
        return best

    def _migrate(self, ctx: Context, dst: VirtualGPU) -> Generator:
        """Checkpoint-and-rebind: the mechanics of dynamic binding."""
        try:
            yield ctx.lock.acquire()
            try:
                # Re-validate under the lock.
                if (
                    not ctx.bound
                    or not ctx.in_cpu_phase
                    or ctx.state is not ContextState.ASSIGNED
                    or not dst.idle
                    or dst.device.failed
                    or ctx.vgpu.device is dst.device
                ):
                    return
                src = ctx.vgpu
                used_p2p = False
                if self.config.cuda4_semantics:
                    # §4.8: direct GPU-to-GPU transfer for faster
                    # thread-to-GPU remapping; swap path as fallback.
                    ok = yield from self.memory.migrate_context_p2p(ctx, dst)
                    if ok:
                        self.stats.migrations_p2p += 1
                        used_p2p = True
                    else:
                        yield from self.memory.swap_out_context(ctx)
                else:
                    yield from self.memory.swap_out_context(ctx)
                src.unbind(ctx, "migration")
                self.stats.unbindings += 1
                dst.reserved = False
                dst.bind(ctx)
                ctx.state = ContextState.ASSIGNED
                self.stats.bindings += 1
                self.stats.migrations += 1
                ctx.migrations += 1
                obs = self.runtime.obs
                if obs.enabled:
                    obs.record(
                        Migration,
                        ctx,
                        src_device=src.device.device_id,
                        dst_device=dst.device.device_id,
                        p2p=used_p2p,
                    )
                # The freed slow vGPU can serve the queue (usually empty
                # here by construction) or trigger further migrations.
                self.scheduler._grant_waiting()
            finally:
                ctx.lock.release()
        finally:
            dst.reserved = False
