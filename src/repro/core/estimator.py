"""Runtime estimation from per-user / per-group history.

Production GPU traces (Alibaba ``cluster-trace-gpu-v2020``) carry no
profiling hints: nobody annotates a job with its runtime.  What a
scheduler *does* have is history — the same users and groups submit
shaped work over and over — and trace-driven simulators exploit exactly
that: predict a new job's runtime from an exponentially weighted moving
average of the runtimes its user (falling back to its group, falling
back to everyone) has exhibited so far.

:class:`RuntimeEstimator` is that history.  It is deliberately dumb and
deterministic: EWMA per user, EWMA per group, EWMA global.  The
``sjf_est`` policy in :mod:`repro.core.policies` reads it from the
node's :class:`~repro.core.policies.PolicyContext`: the node runtime
creates one per node, and the trace-replay harness replaces it with a
single *cluster-wide* estimator so every node's policy shares the head
node's knowledge.

Observations arrive from two sites:

- the dispatcher, when a context exits, reports the context's measured
  GPU seconds keyed by its tenant (node-local history for free);
- the trace-replay harness, when a job completes, reports the job's GPU
  demand (cluster-level history).
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["RuntimeEstimator"]


class RuntimeEstimator:
    """EWMA runtime history keyed by user, with group/global fallback.

    Parameters
    ----------
    alpha:
        EWMA smoothing factor: ``estimate = alpha*sample +
        (1-alpha)*estimate``.  0.3 tracks drifting users within a few
        jobs without thrashing on one outlier.
    min_samples:
        A user's own average is trusted only after this many of their
        jobs completed; before that prediction falls back to the group,
        then to the global average (cold-start handling).
    """

    def __init__(self, alpha: float = 0.3, min_samples: int = 2):
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.alpha = alpha
        self.min_samples = min_samples
        self._user_ewma: Dict[str, float] = {}
        self._user_count: Dict[str, int] = {}
        self._group_ewma: Dict[str, float] = {}
        self._group_count: Dict[str, int] = {}
        self._global_ewma: Optional[float] = None
        self.observations = 0

    # ------------------------------------------------------------------
    def _update(self, table: Dict[str, float], counts: Dict[str, int],
                key: str, seconds: float) -> None:
        prev = table.get(key)
        table[key] = seconds if prev is None else (
            self.alpha * seconds + (1 - self.alpha) * prev
        )
        counts[key] = counts.get(key, 0) + 1

    def observe(self, user: Optional[str], seconds: float,
                group: Optional[str] = None) -> None:
        """Record one completed job's measured GPU seconds."""
        if seconds < 0:
            return
        self.observations += 1
        if user:
            self._update(self._user_ewma, self._user_count, user, seconds)
        if group:
            self._update(self._group_ewma, self._group_count, group, seconds)
        self._global_ewma = seconds if self._global_ewma is None else (
            self.alpha * seconds + (1 - self.alpha) * self._global_ewma
        )

    # ------------------------------------------------------------------
    def predict(self, user: Optional[str],
                group: Optional[str] = None) -> Optional[float]:
        """Best available runtime estimate, or None with zero history."""
        if user and self._user_count.get(user, 0) >= self.min_samples:
            return self._user_ewma[user]
        if group and self._group_count.get(group, 0) >= self.min_samples:
            return self._group_ewma[group]
        # Thin per-user history still beats nothing when there is no
        # group signal either.
        if user and user in self._user_ewma and self._global_ewma is None:
            return self._user_ewma[user]
        return self._global_ewma

    def predict_for(self, ctx) -> Optional[float]:
        """Estimate for a runtime context via its tenant identity."""
        tenant = ctx.tenant
        if tenant is None:
            return self.predict(None)
        return self.predict(tenant.name, tenant.group)

    def __repr__(self) -> str:
        return (
            f"<RuntimeEstimator users={len(self._user_ewma)} "
            f"groups={len(self._group_ewma)} obs={self.observations}>"
        )
