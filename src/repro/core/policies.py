"""Pluggable scheduling policies (paper §2 "Configurable Scheduling").

A policy orders the waiting-contexts list: when a vGPU frees, the
scheduler asks ``pick_next(waiting, pc)`` which waiter to serve next.
Placement (which idle vGPU the chosen context lands on) is the
scheduler's own rule, not a policy decision.

Every policy has one shape: a sort key over the waiters, read against a
single :class:`PolicyContext` that the node runtime builds once.  The
waiter with the smallest key goes next, ``context_id`` (arrival order)
breaking ties.  Only two policies keep state of their own: ``locality``
(its starvation guard) and ``fairshare`` (its usage-decay ledger).

``fcfs``
    First-come-first-served: the policy used for all of the paper's
    experiments (§5).
``sjf``
    Shortest-job-first, usable when profiling information (an estimated
    GPU time) accompanies the connection.
``credit``
    Credit-based fairness: the context that has consumed the least GPU
    time so far goes first.
``edf``
    Earliest deadline first (§2's quality-of-service example).
``sjf_est``
    Shortest-remaining-job-first on a *learned* runtime estimate: no
    profiling hints, just the per-user/per-group EWMA history of a
    :class:`~repro.core.estimator.RuntimeEstimator`.
``locality``
    Cost-model-driven: serve the waiter whose data lives where a vGPU
    is idle (see :mod:`repro.core.memory.costmodel`).
``fairshare``
    Decayed fair share across users with a group level above them.
``wfq``
    ``fairshare`` with contract weights on, no group level and no
    decay: weighted-fair queueing across tenants (``repro.qos``).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.context import Context
from repro.core.estimator import RuntimeEstimator

__all__ = [
    "PolicyContext",
    "FcfsPolicy",
    "SjfPolicy",
    "CreditPolicy",
    "DeadlinePolicy",
    "LocalityPolicy",
    "EstimatorSjfPolicy",
    "FairSharePolicy",
    "POLICY_NAMES",
    "make_policy",
]

_INF = float("inf")


@dataclasses.dataclass
class PolicyContext:
    """Everything a policy may read when it picks.

    The node runtime builds one per node and hands it to every
    ``pick_next`` call; a field left ``None`` makes the policies that
    read it degrade (``sjf_est`` to the profiling hint, ``locality`` to
    FCFS, ``fairshare`` to per-waiter usage without group aggregates).
    """

    #: The simulation environment (``env.now`` is the pick time).
    env: Any
    #: Runtime history read by ``sjf_est`` and fed by the dispatcher.
    estimator: Optional[RuntimeEstimator] = None
    #: The node's :class:`~repro.qos.TenantRegistry` (``fairshare``).
    tenants: Any = None
    #: The node's :class:`~repro.core.memory.costmodel.TransferCostModel`
    #: (``locality``).
    cost_model: Any = None
    #: ``() -> idle vGPUs`` (``locality``).
    idle_vgpus: Optional[Callable[[], List[Any]]] = None


class _KeyPolicy:
    """A policy that is only a sort key: :meth:`key` returns the key
    function for this pick, and the waiter with the smallest key goes
    next."""

    def key(self, pc: PolicyContext) -> Callable[[Context], Tuple]:
        raise NotImplementedError

    def pick_next(self, waiting: Sequence[Context], pc: PolicyContext) -> Optional[Context]:
        if not waiting:
            return None
        return min(waiting, key=self.key(pc))


class FcfsPolicy:
    """First-come-first-served (paper's experimental policy)."""

    name = "fcfs"

    def pick_next(self, waiting: Sequence[Context], pc: PolicyContext) -> Optional[Context]:
        return waiting[0] if waiting else None


class SjfPolicy(_KeyPolicy):
    """Shortest-job-first on the profiling hint; FCFS among unknowns."""

    name = "sjf"

    def key(self, pc):
        return lambda c: (
            c.estimated_gpu_seconds if c.estimated_gpu_seconds is not None else _INF,
            c.context_id,
        )


class CreditPolicy(_KeyPolicy):
    """Serve the context that has consumed the least GPU time so far."""

    name = "credit"

    def key(self, pc):
        return lambda c: (c.gpu_seconds_used, c.context_id)


class DeadlinePolicy(_KeyPolicy):
    """Earliest-deadline-first for QoS requirements (paper §2: "yet
    another scheduling policy may be adopted in the presence of expected
    quality of service requirements (e.g.: execution deadlines)").

    Contexts without a deadline are served after all deadlined ones, in
    FCFS order.
    """

    name = "edf"

    def key(self, pc):
        return lambda c: (
            c.deadline_s if c.deadline_s is not None else _INF,
            c.context_id,
        )


class EstimatorSjfPolicy(_KeyPolicy):
    """Shortest-remaining-job-first on learned runtime estimates.

    Production traces carry no profiling hints, so plain ``sjf`` degrades
    to FCFS on them.  This policy asks ``pc.estimator`` (per-user EWMA
    history with group/global fallback) and orders waiters by
    *remaining* estimated work (estimate minus GPU seconds already
    consumed), so a preempted job near completion is not re-queued behind
    fresh short jobs.  A handshake hint, when present, serves as the
    cold-start fallback; with neither, the waiter sorts last (FCFS among
    fully unknown).
    """

    name = "sjf_est"

    def key(self, pc):
        estimator = pc.estimator

        def remaining(c: Context) -> Tuple:
            est = estimator.predict_for(c) if estimator is not None else None
            if est is None:
                est = c.estimated_gpu_seconds
            if est is None:
                return (_INF, c.context_id)
            return (max(est - c.gpu_seconds_used, 0.0), c.context_id)

        return remaining


class LocalityPolicy:
    """Bind waiters where their data lives (§4.4 cost-driven binding).

    When a vGPU frees, the waiter with the cheapest modeled time-to-
    first-kernel (``pc.cost_model``) over the idle vGPUs
    (``pc.idle_vgpus``) goes next: typically the one whose retained
    working set is resident on the freed device.  Without either (or
    with no idle vGPU) it degrades to FCFS.

    Starvation guard: each time the front (oldest) waiter is passed over
    for a younger waiter with better locality, its skip counter ticks;
    after :attr:`max_skips` consecutive skips the front waiter is served
    regardless of cost, so locality can reorder but never indefinitely
    delay.
    """

    name = "locality"

    #: Consecutive pass-overs before the oldest waiter is forced through.
    max_skips = 8

    def pick_next(self, waiting: Sequence[Context], pc: PolicyContext) -> Optional[Context]:
        if not waiting:
            return None
        front = waiting[0]
        model = pc.cost_model
        if model is None or pc.idle_vgpus is None:
            return front
        if front.locality_skips >= self.max_skips:
            front.locality_skips = 0
            return front
        idle = pc.idle_vgpus()
        if not idle:
            return front
        active = model.scheduler.active_per_device()

        def best_cost(ctx: Context) -> float:
            return min(model.bind_cost(ctx, v, active) for v in idle)

        chosen = min(waiting, key=lambda c: (best_cost(c), c.context_id))
        if chosen is front:
            front.locality_skips = 0
        else:
            front.locality_skips += 1
        chosen.locality_skips = 0
        return chosen


class FairSharePolicy(_KeyPolicy):
    """Fair share: group usage, then tenant usage, then context usage,
    then FCFS.

    The classic HPC fair-share tree (Slurm's multifactor priority)
    flattened to two levels: among the waiters, first equalize *group*
    GPU-time consumption, within the winning group equalize *user*
    (tenant) consumption; within a tenant the context that has consumed
    the least GPU time goes first, then FCFS.  Group aggregates sum over
    **all** tenants in ``pc.tenants``, not just the waiting ones.
    Contexts with no tenant compete on their own consumed GPU seconds.

    Usage is **exponentially decayed** with ``half_life_s``, as
    production fair-share schedulers do: a burst submitted an hour ago is
    forgiven, and ordering reflects *recent* consumption.  Without decay,
    cumulative usage turns into a strict priority inversion against heavy
    users: the top Zipf user in a production trace is starved for the
    whole run and its slowdown tail explodes.  With ``half_life_s <= 0``
    the raw ``Tenant.gpu_seconds_used`` counter is read directly.

    The registered ``wfq`` entry is this policy with ``weighted`` on
    (usage divided by the tenant's contract weight, so a weight-2 tenant
    receives twice the GPU time of a weight-1 tenant under contention),
    ``groups`` off and no decay.
    """

    name = "fairshare"

    def __init__(
        self,
        half_life_s: float = 30.0,
        weighted: bool = False,
        groups: bool = True,
        name: str = "fairshare",
    ) -> None:
        self.half_life_s = half_life_s
        self.weighted = weighted
        self.groups = groups
        self.name = name
        #: tenant name -> [decayed_usage, last_raw_usage, last_update_t]
        self._ledger: Dict[str, List[float]] = {}

    def _decayed_usage(self, tenant, now: float) -> float:
        """Incrementally maintained ``Σ Δusage·2^(-age/half_life)``."""
        entry = self._ledger.get(tenant.name)
        raw = tenant.gpu_seconds_used
        if entry is None:
            entry = [0.0, 0.0, now]
            self._ledger[tenant.name] = entry
        decayed, last_raw, last_t = entry
        if now > last_t:
            decayed *= 0.5 ** ((now - last_t) / self.half_life_s)
        decayed += max(raw - last_raw, 0.0)
        entry[0], entry[1], entry[2] = decayed, raw, now
        return decayed

    def _usage(self, tenant, now: float) -> float:
        if self.half_life_s > 0:
            used = self._decayed_usage(tenant, now)
        else:
            used = tenant.gpu_seconds_used
        return used / tenant.weight if self.weighted else used

    def key(self, pc):
        now = pc.env.now
        usage: Dict[str, float] = {}
        group_usage: Dict[str, float] = {}
        if self.groups and pc.tenants is not None:
            for tenant in pc.tenants.tenants():
                used = self._usage(tenant, now)
                usage[tenant.name] = used
                if tenant.group is not None:
                    group_usage[tenant.group] = group_usage.get(tenant.group, 0.0) + used

        def by_usage(ctx: Context) -> Tuple:
            own = ctx.gpu_seconds_used
            tenant = ctx.tenant
            if tenant is None:
                return (own, own, own, ctx.context_id)
            t_used = usage.get(tenant.name)
            if t_used is None:
                t_used = self._usage(tenant, now)
            return (group_usage.get(tenant.group, t_used), t_used, own, ctx.context_id)

        return by_usage


_POLICIES: Dict[str, Callable[[], Any]] = {
    "fcfs": FcfsPolicy,
    "sjf": SjfPolicy,
    "credit": CreditPolicy,
    "edf": DeadlinePolicy,
    "sjf_est": EstimatorSjfPolicy,
    "locality": LocalityPolicy,
    "fairshare": FairSharePolicy,
    "wfq": lambda: FairSharePolicy(
        half_life_s=0.0, weighted=True, groups=False, name="wfq"
    ),
}

#: Registered policy names — the single source for CLI choices and
#: config validation (do not hand-maintain copies of this tuple).
POLICY_NAMES: Tuple[str, ...] = tuple(sorted(_POLICIES))


def make_policy(name: str):
    """Instantiate a policy by its registered name."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; known: {sorted(_POLICIES)}") from None
