"""Runtime contexts: the per-application-thread state the runtime tracks.

A :class:`Context` is the paper's ``Context`` structure (§4.6): it links
the connection, the page-table entries (held by the memory manager), the
binding to a virtual GPU, the last device call performed (for replay), and
the error code on failure.  Contexts move between the dispatcher's lists:
pending → waiting ⇄ assigned → done, with a failed list feeding recovery.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, List, Optional, TYPE_CHECKING

from repro.sim import Environment, Lock
from repro.simcuda.fatbin import FatBinary
from repro.simcuda.kernels import KernelLaunch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.vgpu import VirtualGPU

__all__ = ["Context", "ContextState"]

_context_ids = itertools.count(1)


class ContextState(enum.Enum):
    PENDING = "pending"      # connection accepted, not yet needing a GPU
    WAITING = "waiting"      # needs a vGPU, none granted yet
    ASSIGNED = "assigned"    # bound to a vGPU
    FAILED = "failed"        # device operation failed; awaiting recovery
    DONE = "done"            # application exited


class Context:
    """Per-application-thread runtime state."""

    def __init__(self, env: Environment, owner: str = ""):
        self.env = env
        self.context_id = next(_context_ids)
        self.owner = owner or f"ctx{self.context_id}"
        #: CUDA 4.0 semantics (§4.8): threads of one application share a
        #: CUDA context on the GPU, so they must bind to the same device.
        self.application_id: Optional[str] = None
        self.state = ContextState.PENDING
        #: Virtual GPU this context is bound to (None when unbound).
        self.vgpu: Optional["VirtualGPU"] = None
        #: Registered fat binaries.
        self.fatbins: List[FatBinary] = []
        #: Guards the context against concurrent access by its handler and
        #: by other vGPUs performing inter-application swap / migration.
        self.lock = Lock(env)
        #: True while the application is in a CPU phase (its handler is
        #: blocked waiting for the next call) — the window in which the
        #: context may honor swap requests (§4.5).
        self.in_cpu_phase = True
        #: Timestamp of entering the current CPU phase.
        self.cpu_phase_since = 0.0
        #: Error from the last failure.
        self.error: Optional[BaseException] = None
        #: Kernel launches executed since device state was last fully
        #: captured in the swap area; replayed on failure recovery.
        self.replay_journal: List[KernelLaunch] = []
        #: Virtual pointers of the most recent launch — the overlap
        #: engine's prediction of the *next* launch's working set (kernels
        #: overwhelmingly iterate on the same buffers).  Survives journal
        #: clearing, so prefetch keeps working across checkpoints.
        self.last_launch_vptrs: tuple = ()
        #: The last ``cudaLaunch``'s record, reused by a repeat of it.
        self.last_launch: Optional[KernelLaunch] = None
        #: The last launch's translation, ``(record, translation epoch,
        #: device, entries, device-pointer record)``: reused while the
        #: page table's translation epoch stands.
        self.launch_translation: Optional[tuple] = None
        #: Estimated total GPU seconds (optional profiling hint used by
        #: the SJF policy).
        self.estimated_gpu_seconds: Optional[float] = None
        #: Absolute completion deadline (simulated seconds), for the EDF
        #: quality-of-service policy.
        self.deadline_s: Optional[float] = None
        #: GPU seconds consumed so far (credit-based policy).
        self.gpu_seconds_used = 0.0
        #: Tenant this connection belongs to (repro.qos); None for
        #: tenant-less connections — all QoS enforcement skips those.
        self.tenant: Optional[Any] = None
        #: GPU seconds consumed since the current binding (reset by
        #: VirtualGPU.bind); drives quantum-expiry preemption.
        self.quantum_used_s = 0.0
        #: True when kernels use device-side dynamic allocation: the
        #: context is served but excluded from sharing/dynamic scheduling.
        self.excluded_from_sharing = False
        #: Locality retention (§4.4 cost-driven binding): the vGPU whose
        #: CUDA context still owns this context's device allocations
        #: after an unbind-with-retain.  Rebinding to this exact vGPU
        #: revives the cache; binding anywhere else must drop it first.
        self.cache_vgpu: Optional["VirtualGPU"] = None
        #: Consecutive times the locality policy passed this waiter over
        #: for a younger waiter with better locality (starvation guard).
        self.locality_skips = 0
        #: Pending kernel configuration (cudaConfigureCall).
        self.pending_config: Optional[Any] = None
        #: Graph capture/replay (control-plane batching).  ``capture`` is
        #: the list of launches being recorded between begin/end capture
        #: (None when not capturing); ``graphs`` maps graph handle →
        #: GraphInstance; ``graph_candidates`` counts repeats of a batch
        #: signature until auto-instantiation, ``graph_by_signature``
        #: holds the instantiated graphs keyed by that signature.
        self.capture: Optional[List[KernelLaunch]] = None
        self.capture_config: Optional[Any] = None
        self.graphs: dict = {}
        self.graph_candidates: dict = {}
        self.graph_by_signature: dict = {}
        #: Live phase recorder of the call currently being served
        #: (repro.obs.span.CallSpan); None between calls and whenever
        #: tracing is off.  Only the process serving the call may touch
        #: it — work done *to* this context by another process accrues
        #: to that process's own span.
        self.span: Optional[Any] = None
        #: Counters.
        self.kernels_launched = 0
        self.swaps_suffered = 0
        self.migrations = 0
        self.rebind_attempts = 0
        self.finished_at: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def bound(self) -> bool:
        return self.vgpu is not None

    @property
    def device(self):
        """Physical device currently bound, or None."""
        return self.vgpu.device if self.vgpu is not None else None

    def cpu_phase_duration(self, now: float) -> float:
        """How long the context has been in its current CPU phase."""
        if not self.in_cpu_phase:
            return 0.0
        return now - self.cpu_phase_since

    def enter_cpu_phase(self, now: float) -> None:
        self.in_cpu_phase = True
        self.cpu_phase_since = now

    def leave_cpu_phase(self) -> None:
        self.in_cpu_phase = False

    def __repr__(self) -> str:
        where = f"on {self.vgpu.name}" if self.vgpu else "unbound"
        return f"<Context #{self.context_id} {self.owner!r} {self.state.value} {where}>"
