"""The Table 2 catalog: every benchmark, and the short/long pools the
experiments draw from."""

from __future__ import annotations

from typing import Dict, List

from repro.workloads.base import WorkloadSpec
from repro.workloads.cudasdk import (
    BLACK_SCHOLES_LARGE,
    BLACK_SCHOLES_SMALL,
    MATRIX_TRANSPOSE,
    PARALLEL_REDUCTION,
    SCALAR_PRODUCT,
    SCAN,
    VECTOR_ADDITION,
)
from repro.workloads.finegrained import FINE_GRAINED
from repro.workloads.matmul import MATMUL_LARGE, MATMUL_SMALL
from repro.workloads.rodinia import BACK_PROPAGATION, BFS, HOTSPOT, NEEDLEMAN_WUNSCH

__all__ = [
    "ALL_WORKLOADS",
    "SHORT_RUNNING",
    "LONG_RUNNING",
    "FINE_GRAINED",
    "workload",
]

#: Short-running applications (3–5 s on a Tesla C2050).
SHORT_RUNNING: List[WorkloadSpec] = [
    BACK_PROPAGATION,
    BFS,
    HOTSPOT,
    NEEDLEMAN_WUNSCH,
    SCALAR_PRODUCT,
    MATRIX_TRANSPOSE,
    PARALLEL_REDUCTION,
    SCAN,
    BLACK_SCHOLES_SMALL,
    VECTOR_ADDITION,
]

#: Long-running applications (30–90 s depending on injected CPU phases).
LONG_RUNNING: List[WorkloadSpec] = [
    MATMUL_SMALL,
    MATMUL_LARGE,
    BLACK_SCHOLES_LARGE,
]

#: Every program the catalog knows: Table 2's thirteen, then the
#: many-small-kernel family.
ALL_WORKLOADS: List[WorkloadSpec] = SHORT_RUNNING + LONG_RUNNING + FINE_GRAINED

_BY_TAG: Dict[str, WorkloadSpec] = {w.tag: w for w in ALL_WORKLOADS}


def workload(tag: str) -> WorkloadSpec:
    """Look a benchmark up by its paper abbreviation (``"BS-L"`` …)."""
    try:
        return _BY_TAG[tag]
    except KeyError:
        raise KeyError(f"unknown workload {tag!r}; known: {sorted(_BY_TAG)}") from None
