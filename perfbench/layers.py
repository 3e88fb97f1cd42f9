"""Per-layer host self time, measured from outside the simulator.

:class:`LayerProbe` patches each layer's entry points (class attributes
of the modules under ``src/repro``) with timing wrappers for the length
of a ``with`` block, then restores the originals.  Nothing under
``src/`` knows it is being measured.

Most entry points are generator functions: their work runs in slices,
one per resumption by the DES kernel, interleaved with other processes.
The wrapper around a generator therefore times **every resumption**, not
the call that created it.  Spans nest as the host call stack nests, and
a span's *self* time is its duration minus the spans that ran inside it,
so the self times of all layers partition the time spent inside any
span.  ``sim`` is the remainder of the measured wall time: the run loop,
event plumbing, the harness, and model code no wrapped entry point
reaches.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["LAYERS", "LayerTimer", "LayerProbe", "timed"]

#: Layer names, in report order; ``sim`` is the remainder.
LAYERS = (
    "sim",
    "frontend",
    "net",
    "dispatcher",
    "scheduler",
    "memory",
    "costmodel",
    "simcuda",
    "qos",
    "obs",
)

MIB = 1024 * 1024


class LayerTimer:
    """Stack of open spans; accumulates self time and entry counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: open spans, innermost last: [layer, start, time in nested spans]
        self._stack: List[list] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def leave(self) -> None:
        layer, start, nested = self._stack.pop()
        elapsed = self.clock() - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - nested
        if self._stack:
            self._stack[-1][2] += elapsed

    def count(self, layer: str) -> None:
        """Count a call into ``layer`` from outside it; a layer calling
        its own entry points (``launch_kernel`` -> ``cuda_launch``) is
        one call, not two."""
        stack = self._stack
        if not stack or stack[-1][0] != layer:
            self.calls[layer] = self.calls.get(layer, 0) + 1


def _resumptions(timer: LayerTimer, layer: str, gen, done):
    """Drive ``gen``, timing each resumption as one span of ``layer``.

    Values sent and exceptions thrown (interrupts, model errors,
    ``GeneratorExit`` on close) are forwarded unchanged, so the wrapped
    generator sees exactly what it would see unwrapped.
    """
    value, error = None, None
    while True:
        timer.enter(layer)
        try:
            target = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            if done is not None:
                done(True)
            return stop.value
        except BaseException:
            if done is not None:
                done(False)
            raise
        finally:
            timer.leave()
        try:
            value, error = (yield target), None
        except BaseException as exc:  # noqa: BLE001 - forwarded into gen
            value, error = None, exc


def timed(
    timer: LayerTimer,
    layer: str,
    fn: Callable,
    on_call: Optional[Callable[[tuple, dict], Optional[Callable[[bool], None]]]] = None,
) -> Callable:
    """Wrap ``fn`` so calls into ``layer`` are counted and its host time
    is charged to ``layer``.

    ``on_call(args, kwargs)`` runs on every entry; it may return a
    ``done(ok)`` callback, called when the call (or, for a generator,
    its last resumption) returns (``ok=True``) or raises.
    """
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            timer.count(layer)
            done = on_call(args, kwargs) if on_call is not None else None
            return _resumptions(timer, layer, fn(*args, **kwargs), done)

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            timer.count(layer)
            done = on_call(args, kwargs) if on_call is not None else None
            timer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if done is not None:
                    done(False)
                raise
            finally:
                timer.leave()
            if done is not None:
                done(True)
            return result

    return wrapper


def _public(cls, exclude: Sequence[str] = ()) -> List[str]:
    """Names of the plain public methods ``cls`` itself defines."""
    return [
        name
        for name, attr in vars(cls).items()
        if not name.startswith("_")
        and inspect.isfunction(attr)
        and name not in exclude
    ]


def entry_points() -> List[Tuple[str, type, List[str]]]:
    """``(layer, class, method names)`` for every wrapped entry point."""
    from repro.core import policies
    from repro.core.dispatcher import Dispatcher
    from repro.core.frontend import Frontend
    from repro.core.memory.costmodel import TransferCostModel
    from repro.core.memory.manager import MemoryManager
    from repro.core.scheduler import Scheduler
    from repro.net.channel import Channel
    from repro.net.rpc import RpcClient
    from repro.obs.events import Tracer
    from repro.obs.slo import SLOMonitor
    from repro.obs.span import CallSpan
    from repro.qos.admission import AdmissionController
    from repro.qos.tenant import Tenant, TenantRegistry
    from repro.simcuda.driver import CudaDriver

    policy_classes = [
        cls
        for cls in vars(policies).values()
        if isinstance(cls, type) and "pick_next" in vars(cls)
    ]
    return [
        ("frontend", Frontend, _public(Frontend)),
        ("net", Channel, ["send"]),
        ("net", RpcClient, ["call", "call_batch"]),
        ("dispatcher", Dispatcher, ["_dispatch", "_serve_batch"]),
        ("scheduler", Scheduler, ["request_binding", "release"]),
        *[("scheduler", cls, ["pick_next"]) for cls in policy_classes],
        ("memory", MemoryManager, _public(MemoryManager)),
        ("costmodel", TransferCostModel, ["bind_cost", "score_candidates", "evict_cost"]),
        (
            "simcuda",
            CudaDriver,
            ["malloc", "free", "memcpy_h2d", "memcpy_d2h", "memcpy_peer", "launch"],
        ),
        ("qos", TenantRegistry, ["rollup"]),
        ("qos", Tenant, ["device_bytes", "swap_bytes"]),
        ("qos", AdmissionController, ["admit"]),
        ("obs", Tracer, _public(Tracer, exclude=("clear", "events_of"))),
        ("obs", SLOMonitor, ["observe_call", "observe_queue_wait"]),
        ("obs", CallSpan, ["push", "pop", "finish"]),
    ]


class LayerProbe:
    """Context manager: wrap every layer entry point while inside.

    Besides self time it keeps the per-layer counters the report needs:
    channel messages and bytes, bind requests and the simulated time they
    waited, policy picks and the waiters each pick scanned, and launch
    attempts against completed launches.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.timer = LayerTimer(clock)
        self.messages = 0
        self.message_bytes = 0
        self.bind_requests = 0
        self.bind_wait_sim_s = 0.0
        self.picks = 0
        self.waiters_scanned = 0
        self.launch_attempts = 0
        self.launches_completed = 0
        self.emitted = 0
        self._saved: List[Tuple[type, str, Callable]] = []

    # -- counters hooked to specific entry points ------------------------
    def _on_send(self, args, kwargs):
        self.messages += 1
        self.message_bytes += kwargs.get("nbytes", args[2] if len(args) > 2 else 0)

    def _on_request_binding(self, args, kwargs):
        scheduler = args[0]
        self.bind_requests += 1
        entered = scheduler.env.now

        def done(ok):
            if ok:
                self.bind_wait_sim_s += scheduler.env.now - entered

        return done

    def _on_pick(self, args, kwargs):
        self.picks += 1
        self.waiters_scanned += len(args[1])

    def _on_launch(self, args, kwargs):
        self.launch_attempts += 1

        def done(ok):
            if ok:
                self.launches_completed += 1

        return done

    def _on_emit(self, args, kwargs):
        self.emitted += 1

    def _hook(self, cls: type, method: str):
        if method == "pick_next":
            return self._on_pick
        return {
            ("Channel", "send"): self._on_send,
            ("Scheduler", "request_binding"): self._on_request_binding,
            ("MemoryManager", "prepare_and_launch"): self._on_launch,
            ("Tracer", "emit"): self._on_emit,
        }.get((cls.__name__, method))

    # -- install / restore -----------------------------------------------
    def __enter__(self) -> "LayerProbe":
        for layer, cls, methods in entry_points():
            for name in methods:
                original = vars(cls)[name]
                hook = self._hook(cls, name)
                setattr(cls, name, timed(self.timer, layer, original, hook))
                self._saved.append((cls, name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    # -- report ----------------------------------------------------------
    def metrics(self, wall_s: float, stats: Dict[str, int], events: int) -> Dict[str, float]:
        """Per-layer metrics for one traced pass of ``wall_s`` host seconds.

        ``stats`` are the pass's merged ``RuntimeStats`` counters and
        ``events`` the DES events it processed.
        """
        self_s = self.timer.self_s
        calls = self.timer.calls
        out: Dict[str, float] = {}
        layered = 0.0
        for layer in LAYERS[1:]:
            s = self_s.get(layer, 0.0)
            layered += s
            out[f"{layer}.self_s"] = s
            out[f"{layer}.self_share"] = s / wall_s
        out["sim.events"] = events
        out["sim.self_s"] = wall_s - layered
        out["sim.self_share"] = (wall_s - layered) / wall_s
        out["frontend.calls"] = calls.get("frontend", 0)
        out["net.messages"] = self.messages
        out["net.bytes_mib"] = self.message_bytes / MIB
        out["dispatcher.calls"] = calls.get("dispatcher", 0)
        out["scheduler.bind_requests"] = self.bind_requests
        out["scheduler.picks"] = self.picks
        out["scheduler.waiters_per_pick"] = (
            self.waiters_scanned / self.picks if self.picks else 0.0
        )
        out["scheduler.bind_wait_sim_s"] = self.bind_wait_sim_s
        out["memory.calls"] = calls.get("memory", 0)
        out["memory.launch_attempts"] = self.launch_attempts
        out["memory.useful_ratio"] = (
            self.launches_completed / self.launch_attempts if self.launch_attempts else 1.0
        )
        out["memory.swaps"] = stats.get("swaps_total", 0)
        out["memory.swap_mib"] = (
            stats.get("swap_bytes_out", 0) + stats.get("swap_bytes_in", 0)
        ) / MIB
        out["costmodel.calls"] = calls.get("costmodel", 0)
        out["simcuda.calls"] = calls.get("simcuda", 0)
        out["qos.calls"] = calls.get("qos", 0)
        out["obs.events"] = self.emitted
        return out
