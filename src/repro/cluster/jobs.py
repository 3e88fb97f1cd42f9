"""Jobs: units of cluster-level scheduling.

A :class:`Job` wraps an application body — a callable producing the
simulation generator that actually runs the application on a node — with
submission/completion bookkeeping.  Bodies are supplied by
:mod:`repro.workloads` (they drive either the bare CUDA runtime API or
the paper's frontend, so the same job runs under every configuration the
evaluation compares).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Generator, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import ComputeNode

__all__ = ["Job", "JobOutcome"]

_job_seq = itertools.count(1)


@dataclasses.dataclass(slots=True)
class JobOutcome:
    """What the experiment harness records per job."""

    name: str
    submitted_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[BaseException] = None
    #: the job's workload label and the node it ran on
    tag: str = ""
    node: str = ""

    @property
    def turnaround(self) -> Optional[float]:
        """Submission → completion (the per-job metric averaged in the
        paper's 'Avg' bars)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def execution_time(self) -> Optional[float]:
        if self.finished_at is None or self.started_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def ok(self) -> bool:
        return self.finished_at is not None and self.error is None


class Job:
    """One batch job."""

    def __init__(
        self,
        name: str,
        body: Callable[["ComputeNode"], Generator],
        tag: Optional[str] = None,
    ):
        self.job_id = next(_job_seq)
        self.name = name
        self.body = body
        #: Workload label (e.g. "MM-L") for per-class reporting.
        self.tag = tag or name
        self.outcome: Optional[JobOutcome] = None

    def execute(self, node: "ComputeNode", submitted_at: float) -> Generator:
        """Run the job on ``node``; records the outcome."""
        outcome = JobOutcome(name=self.name, submitted_at=submitted_at,
                             tag=self.tag, node=node.name)
        self.outcome = outcome
        outcome.started_at = node.env.now
        try:
            yield from self.body(node)
        except BaseException as exc:  # noqa: BLE001 - recorded, not hidden
            outcome.error = exc
            raise
        finally:
            outcome.finished_at = node.env.now

    def __repr__(self) -> str:
        return f"<Job #{self.job_id} {self.name!r} ({self.tag})>"
