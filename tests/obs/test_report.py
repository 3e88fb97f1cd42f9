"""The trace analyzer: loading, aggregation, critical path, and the
``repro obs report`` CLI end to end."""

import json

import pytest

from repro.cli import main
from repro.obs import (
    aggregate_phases,
    critical_path,
    load_phase_breakdowns,
    render_report,
)


def _record(context="app0", tenant="acme", wall=2.0, phases=None, begin_at=0.0):
    return {
        "kind": "PhaseBreakdown",
        "at": begin_at + wall,
        "context": context,
        "method": "cudaLaunch",
        "trace_id": 1,
        "span_id": 1,
        "begin_at": begin_at,
        "wall": wall,
        "phases": phases if phases is not None
        else [["exec", wall / 2], ["queue_wait", wall / 2]],
        "tenant": tenant,
        "error": None,
        "device_id": 0,
        "vgpu": "vgpu0",
        "node": "node0",
    }


def _jsonl(records):
    return [json.dumps(r) for r in records]


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def test_load_skips_other_kinds_and_junk():
    lines = _jsonl([_record()]) + [
        json.dumps({"kind": "SwapOut", "at": 1.0}),
        "not json at all {",
        "",
    ]
    records = load_phase_breakdowns(lines)
    assert len(records) == 1
    assert records[0]["context"] == "app0"


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def test_aggregate_by_tenant_sums_and_attributes():
    records = [
        _record(tenant="a", wall=4.0, phases=[["exec", 3.0], ["fault_in", 1.0]]),
        _record(tenant="a", wall=2.0, phases=[["exec", 2.0]]),
        _record(tenant="b", wall=1.0, phases=[["other", 1.0]]),
    ]
    groups = aggregate_phases(records, "tenant")
    assert groups["a"]["calls"] == 2
    assert groups["a"]["wall"] == pytest.approx(6.0)
    assert groups["a"]["phases"]["exec"] == pytest.approx(5.0)
    assert groups["a"]["named_fraction"] == pytest.approx(1.0)
    assert groups["b"]["named_fraction"] == pytest.approx(0.0)


def test_aggregate_keys_missing_tenant_under_dash():
    groups = aggregate_phases([_record(tenant="")], "tenant")
    assert list(groups) == ["-"]


def test_critical_path_orders_by_wall_and_finds_dominant():
    records = [
        _record(context="fast", wall=1.0, phases=[["exec", 1.0]]),
        _record(context="slow", wall=9.0,
                phases=[["eviction_stall", 7.0], ["exec", 2.0]]),
    ]
    crit = critical_path(records, top=1)
    assert len(crit) == 1
    assert crit[0]["context"] == "slow"
    assert crit[0]["dominant_phase"] == "eviction_stall"


# ----------------------------------------------------------------------
# rendering + CLI
# ----------------------------------------------------------------------
def test_render_report_contains_all_sections():
    text = render_report([_record()])
    assert "per-tenant bottleneck attribution" in text
    assert "per-context bottleneck attribution" in text
    assert "critical path" in text
    assert "acme" in text and "app0" in text
    assert "100.0% attributed to named phases" in text


def test_obs_report_cli_roundtrip(tmp_path, capsys):
    trace = tmp_path / "events.jsonl"
    trace.write_text("\n".join(_jsonl([_record(), _record(context="app1")])) + "\n")
    rc = main(["obs", "report", str(trace), "--top", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 calls" in out
    assert "critical path: 1 slowest calls" in out


def test_obs_report_cli_missing_file(tmp_path, capsys):
    rc = main(["obs", "report", str(tmp_path / "nope.jsonl")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_obs_report_cli_no_breakdowns(tmp_path, capsys):
    trace = tmp_path / "events.jsonl"
    trace.write_text(json.dumps({"kind": "SwapOut", "at": 1.0}) + "\n")
    rc = main(["obs", "report", str(trace)])
    assert rc == 1
    assert "no PhaseBreakdown events" in capsys.readouterr().err


def test_traced_cli_run_attributes_95_percent(tmp_path, capsys):
    """The acceptance claim end to end: a canonical overcommit mix run
    through the real CLI yields >= 95% named-phase attribution."""
    trace = tmp_path / "events.jsonl"
    rc = main(["run", "--jobs", "4", "--vgpus", "2",
               "--events-out", str(trace)])
    capsys.readouterr()
    assert rc == 0
    with open(trace) as fh:
        records = load_phase_breakdowns(fh)
    assert records
    for name, group in aggregate_phases(records, "tenant").items():
        assert group["named_fraction"] >= 0.95, (
            f"tenant {name}: only {group['named_fraction']:.1%} attributed"
        )
    rc = main(["obs", "report", str(trace)])
    assert rc == 0
    assert "attributed to named phases" in capsys.readouterr().out
