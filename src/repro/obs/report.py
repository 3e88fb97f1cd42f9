"""Bottleneck attribution from a JSON-lines trace: ``repro obs report``.

Reads the events dumped by ``repro run --events-out`` (one JSON object
per line, as written by :func:`repro.obs.export.json_lines`), keeps the
``PhaseBreakdown`` records, and aggregates them into the tables an
operator diagnosing interference wants first:

- per-tenant: calls, total turnaround, and the share of that turnaround
  spent in each named phase (queue_wait vs fault_in vs exec ...);
- per-context: the same, so one noisy application stands out within a
  tenant;
- critical path: the slowest individual calls with their dominant
  phases — where to look first.

Attribution quality is reported explicitly: the ``named%`` column is
the fraction of turnaround covered by named (non-``other``) phases.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.span import PHASES

__all__ = [
    "load_phase_breakdowns",
    "aggregate_phases",
    "critical_path",
    "job_completion",
    "per_user_jct",
    "render_report",
    "render_jobs_report",
    "nearest_rank_percentile",
]

#: Column order for phase tables: every named phase, residual last.
_NAMED = tuple(p for p in PHASES if p != "other")


def load_phase_breakdowns(lines: Iterable[str]) -> List[Dict[str, Any]]:
    """Parse JSON-lines text into PhaseBreakdown dicts (other kinds and
    malformed lines are skipped — truncated traces must stay readable)."""
    out: List[Dict[str, Any]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record.get("kind") == "PhaseBreakdown":
            out.append(record)
    return out


def _phases_of(record: Dict[str, Any]) -> Dict[str, float]:
    return {name: float(seconds) for name, seconds in record.get("phases", ())}


def aggregate_phases(
    records: List[Dict[str, Any]], key: str
) -> Dict[str, Dict[str, Any]]:
    """Group PhaseBreakdown records by ``key`` ("tenant" or "context"),
    summing wall time and per-phase seconds."""
    groups: Dict[str, Dict[str, Any]] = {}
    for record in records:
        name = record.get(key) or "-"
        g = groups.get(name)
        if g is None:
            g = groups[name] = {"calls": 0, "wall": 0.0, "phases": {}}
        g["calls"] += 1
        g["wall"] += float(record.get("wall", 0.0))
        for phase, seconds in _phases_of(record).items():
            g["phases"][phase] = g["phases"].get(phase, 0.0) + seconds
    for g in groups.values():
        named = sum(s for p, s in g["phases"].items() if p != "other")
        g["named_fraction"] = named / g["wall"] if g["wall"] > 0 else 1.0
    return groups


def critical_path(
    records: List[Dict[str, Any]], top: int = 10
) -> List[Dict[str, Any]]:
    """The ``top`` slowest calls, each with its dominant phase."""
    slowest = sorted(records, key=lambda r: -float(r.get("wall", 0.0)))[:top]
    out = []
    for record in slowest:
        phases = _phases_of(record)
        dominant = max(phases.items(), key=lambda kv: kv[1]) if phases else ("-", 0.0)
        out.append(
            {
                "context": record.get("context", "-"),
                "tenant": record.get("tenant") or "-",
                "method": record.get("method", "-"),
                "begin_at": float(record.get("begin_at", 0.0)),
                "wall": float(record.get("wall", 0.0)),
                "dominant_phase": dominant[0],
                "dominant_seconds": dominant[1],
            }
        )
    return out


def job_completion(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-job (per-context) completion view of a trace.

    A context *is* one application run in this codebase — trace replay
    opens one frontend connection per job rank — so the span from its
    first call's ``begin_at`` to its last call's end approximates the
    job's time on the runtime, and the summed ``queue_wait``/``bind_wait``
    phases are the scheduling delay it experienced.  Sorted by JCT,
    slowest first.
    """
    jobs: Dict[str, Dict[str, Any]] = {}
    for record in records:
        name = record.get("context", "-")
        begin = float(record.get("begin_at", 0.0))
        wall = float(record.get("wall", 0.0))
        j = jobs.get(name)
        if j is None:
            j = jobs[name] = {
                "job": name,
                "tenant": record.get("tenant") or "-",
                "calls": 0,
                "first_begin": begin,
                "last_end": begin + wall,
                "queue_s": 0.0,
            }
        j["calls"] += 1
        j["first_begin"] = min(j["first_begin"], begin)
        j["last_end"] = max(j["last_end"], begin + wall)
        for phase, seconds in _phases_of(record).items():
            if phase in ("queue_wait", "bind_wait"):
                j["queue_s"] += seconds
    out = []
    for j in jobs.values():
        j["jct"] = j["last_end"] - j["first_begin"]
        j["queue_share"] = j["queue_s"] / j["jct"] if j["jct"] > 0 else 0.0
        out.append(j)
    return sorted(out, key=lambda j: (-j["jct"], j["job"]))


def nearest_rank_percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank q-th percentile (0..100): deterministic, always one of
    the samples, no interpolation; 0.0 if empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def per_user_jct(jobs: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """tenant → JCT statistics (jobs, mean/p50/p99 JCT, queue share)."""
    groups: Dict[str, List[Dict[str, Any]]] = {}
    for j in jobs:
        groups.setdefault(j["tenant"], []).append(j)
    out: Dict[str, Dict[str, Any]] = {}
    for tenant, js in sorted(groups.items()):
        jcts = [j["jct"] for j in js]
        queue = sum(j["queue_s"] for j in js)
        total = sum(jcts)
        out[tenant] = {
            "jobs": len(js),
            "mean_jct": sum(jcts) / len(jcts),
            "p50_jct": nearest_rank_percentile(jcts, 50.0),
            "p99_jct": nearest_rank_percentile(jcts, 99.0),
            "queue_share": queue / total if total > 0 else 0.0,
        }
    return out


def render_jobs_report(records: List[Dict[str, Any]], top: int = 10) -> str:
    """``repro obs report --jobs``: per-job and per-user JCT tables."""
    from repro.experiments.report import format_table

    if not records:
        return "no PhaseBreakdown events in trace (run with --events-out and tracing on)"
    jobs = job_completion(records)
    users = per_user_jct(jobs)
    sections = [
        f"{len(jobs)} jobs ({len(records)} calls) across {len(users)} users",
        "",
        "== per-user JCT ==",
        format_table(
            ["user", "jobs", "mean_jct_s", "p50_jct_s", "p99_jct_s", "queue%"],
            [
                [
                    tenant,
                    str(u["jobs"]),
                    f"{u['mean_jct']:.3f}",
                    f"{u['p50_jct']:.3f}",
                    f"{u['p99_jct']:.3f}",
                    f"{u['queue_share'] * 100:.1f}",
                ]
                for tenant, u in users.items()
            ],
        ),
        "",
        f"== {min(top, len(jobs))} slowest jobs ==",
        format_table(
            ["job", "user", "calls", "start_s", "jct_s", "queue_s", "queue%"],
            [
                [
                    j["job"],
                    j["tenant"],
                    str(j["calls"]),
                    f"{j['first_begin']:.3f}",
                    f"{j['jct']:.3f}",
                    f"{j['queue_s']:.3f}",
                    f"{j['queue_share'] * 100:.1f}",
                ]
                for j in jobs[:top]
            ],
        ),
    ]
    return "\n".join(sections)


def _phase_table(groups: Dict[str, Dict[str, Any]], label: str) -> str:
    from repro.experiments.report import format_table

    headers = [label, "calls", "wall_s"] + [f"{p}%" for p in _NAMED] + ["named%"]
    rows = []
    for name in sorted(groups, key=lambda n: -groups[n]["wall"]):
        g = groups[name]
        wall = g["wall"]
        row = [name, str(g["calls"]), f"{wall:.3f}"]
        for phase in _NAMED:
            share = g["phases"].get(phase, 0.0) / wall * 100 if wall > 0 else 0.0
            row.append(f"{share:.1f}")
        row.append(f"{g['named_fraction'] * 100:.1f}")
        rows.append(row)
    return format_table(headers, rows)


def render_report(records: List[Dict[str, Any]], top: int = 10) -> str:
    """The full ``repro obs report`` text."""
    from repro.experiments.report import format_table

    if not records:
        return "no PhaseBreakdown events in trace (run with --events-out and tracing on)"

    total_wall = sum(float(r.get("wall", 0.0)) for r in records)
    by_tenant = aggregate_phases(records, "tenant")
    by_context = aggregate_phases(records, "context")
    named = sum(
        seconds
        for record in records
        for phase, seconds in _phases_of(record).items()
        if phase != "other"
    )
    named_pct = named / total_wall * 100 if total_wall > 0 else 100.0

    sections = [
        f"{len(records)} calls, {total_wall:.3f} s total turnaround, "
        f"{named_pct:.1f}% attributed to named phases",
        "",
        "== per-tenant bottleneck attribution ==",
        _phase_table(by_tenant, "tenant"),
        "",
        "== per-context bottleneck attribution ==",
        _phase_table(by_context, "context"),
        "",
        f"== critical path: {min(top, len(records))} slowest calls ==",
    ]
    crit_rows = [
        [
            c["context"],
            c["tenant"],
            c["method"],
            f"{c['begin_at']:.3f}",
            f"{c['wall']:.3f}",
            f"{c['dominant_phase']} ({c['dominant_seconds']:.3f}s)",
        ]
        for c in critical_path(records, top)
    ]
    sections.append(
        format_table(
            ["context", "tenant", "method", "begin_at", "wall_s", "dominant"],
            crit_rows,
        )
    )
    return "\n".join(sections)
