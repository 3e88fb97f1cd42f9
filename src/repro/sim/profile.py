"""Self-profiling for the DES kernel: where does *wall-clock* time go?

The simulator's correctness story is that nothing consults wall-clock
time — so the profiler lives outside the model.  It hooks
:meth:`Environment.step` (via ``env.profiler``) and counts processed
events, and measures elapsed ``time.perf_counter`` and simulated time
between :meth:`attach` and :meth:`report`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple

__all__ = ["SimProfiler"]


class SimProfiler:
    """Counts DES kernel activity; attach to an Environment, then report.

    Usage::

        profiler = SimProfiler()
        profiler.attach(env)
        env.run()
        print(profiler.report())
    """

    def __init__(self) -> None:
        self.events_processed = 0
        self._env: Optional[Any] = None
        self._wall_start: Optional[float] = None
        self._wall_elapsed = 0.0
        self._sim_start = 0.0
        self._sim_elapsed = 0.0

    # ------------------------------------------------------------------
    def attach(self, env: Any) -> "SimProfiler":
        """Start profiling ``env`` (replaces any previous profiler).

        Re-attaching (same or different environment) folds the interval
        accumulated since the previous :meth:`attach` into the running
        totals first — a double attach must not discard measured time.
        """
        if self._env is not None:
            self.detach()
        self._env = env
        env.profiler = self
        self._wall_start = time.perf_counter()
        self._sim_start = env.now
        return self

    def detach(self) -> None:
        """Stop profiling; elapsed wall/sim time is frozen into the report."""
        if self._env is None:
            return
        if self._wall_start is not None:
            self._wall_elapsed += time.perf_counter() - self._wall_start
            self._wall_start = None
        self._sim_elapsed += self._env.now - self._sim_start
        if getattr(self._env, "profiler", None) is self:
            self._env.profiler = None
        self._env = None

    # ------------------------------------------------------------------
    def on_event(self, event: Any) -> None:
        """Called by the run loop for every popped event."""
        self.events_processed += 1

    # ------------------------------------------------------------------
    def _elapsed(self) -> Tuple[float, float]:
        wall = self._wall_elapsed
        sim = self._sim_elapsed
        if self._env is not None:
            if self._wall_start is not None:
                wall += time.perf_counter() - self._wall_start
            sim += self._env.now - self._sim_start
        return wall, sim

    def report(self) -> Dict[str, Any]:
        """Summary dict (JSON-serializable) of the profiled run."""
        wall, sim = self._elapsed()
        events = self.events_processed
        return {
            "events": events,
            "wall_seconds": wall,
            "sim_seconds": sim,
            "events_per_second": events / wall if wall > 0 else 0.0,
            "sim_seconds_per_wall_second": sim / wall if wall > 0 else 0.0,
        }

    def __repr__(self) -> str:
        wall, sim = self._elapsed()
        return (
            f"<SimProfiler events={self.events_processed} "
            f"wall={wall:.3f}s sim={sim:.3f}s>"
        )
