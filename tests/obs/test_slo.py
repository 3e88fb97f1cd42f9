"""Per-tenant SLO monitoring: windowed percentiles and the node_report /
Prometheus surfaces."""

import random

import pytest

from repro.core import Frontend, RuntimeConfig
from repro.core.monitor import node_report
from repro.obs import SLOMonitor, percentile, slo
from repro.sim import Environment

from tests.core.conftest import Harness


@pytest.fixture
def short_window(monkeypatch):
    """A 10 s window."""
    monkeypatch.setattr(slo, "WINDOW_S", 10.0)


class _Ctx:
    def __init__(self, tenant=None):
        self.tenant = tenant


class _Tenant:
    def __init__(self, name):
        self.name = name


# ----------------------------------------------------------------------
# percentile helper
# ----------------------------------------------------------------------
def test_percentile_interpolates():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile([7.0], 99) == 7.0
    assert percentile([], 50) == 0.0


# ----------------------------------------------------------------------
# monitor mechanics
# ----------------------------------------------------------------------
def test_rollup_reports_percentiles(short_window):
    env = Environment()
    mon = SLOMonitor(env)
    ctx = _Ctx(_Tenant("acme"))
    for latency in (0.1, 0.2, 0.3, 2.0):
        mon.observe_call(ctx, latency)
    mon.observe_queue_wait(ctx, 0.2)
    roll = mon.rollup()
    assert set(roll) == {"acme"}
    acme = roll["acme"]
    assert acme["calls_in_window"] == 4
    assert acme["turnaround_p50_s"] == pytest.approx(0.25)
    assert acme["turnaround_p99_s"] == pytest.approx(2.0, rel=0.05)
    assert acme["queue_wait_p50_s"] == pytest.approx(0.2)


def test_window_prunes_old_samples(short_window):
    env = Environment()
    mon = SLOMonitor(env)
    ctx = _Ctx(_Tenant("t"))

    def driver():
        mon.observe_call(ctx, 5.0)  # at t=0
        yield env.timeout(20.0)  # > WINDOW_S
        mon.observe_call(ctx, 0.1)

    env.process(driver())
    env.run()
    roll = mon.rollup()["t"]
    assert roll["calls_total"] == 2
    assert roll["calls_in_window"] == 1
    assert roll["turnaround_p99_s"] == pytest.approx(0.1)  # 5.0 s aged out


def test_tenantless_calls_key_under_dash(short_window):
    env = Environment()
    mon = SLOMonitor(env)
    mon.observe_call(_Ctx(None), 0.1)
    assert "-" in mon.rollup()


# ----------------------------------------------------------------------
# runtime integration
# ----------------------------------------------------------------------
def _run_tenant_app(h, tenant="acme"):
    def app():
        fe = Frontend(h.env, h.runtime.listener, name="app0", tenant=tenant)
        yield from fe.open()
        ptr = yield from fe.cuda_malloc(1024)
        yield from fe.cuda_memcpy_h2d(ptr, 1024)
        yield from fe.cuda_free(ptr)
        yield from fe.cuda_thread_exit()

    h.spawn(app())
    h.run()


def test_node_report_carries_slo_rollup():
    h = Harness()
    _run_tenant_app(h)
    report = node_report(h.runtime)
    assert "acme" in report["slo"]
    acme = report["slo"]["acme"]
    assert acme["calls_in_window"] > 0
    assert acme["turnaround_p99_s"] >= 0.0


def test_tenant_gauges_exported_per_tenant():
    h = Harness()
    _run_tenant_app(h)
    from repro.obs import prometheus_text

    text = prometheus_text(h.runtime.metrics)
    assert "tenant_gpu_seconds_acme" in text
    assert "tenant_mem_bytes_acme" in text
    assert "tenant_swap_out_bytes_acme" in text
    assert "tenant_swap_in_bytes_acme" in text


def test_tenant_rollup_reports_swap_traffic_totals():
    h = Harness(config=RuntimeConfig(vgpus_per_device=1))
    _run_tenant_app(h)
    roll = h.runtime.qos.rollup(h.runtime.memory.page_table)
    assert roll["acme"]["swap_bytes_out_total"] >= 0
    assert roll["acme"]["swap_bytes_in_total"] >= 0


# ----------------------------------------------------------------------
# flat columns: the window a rollup reads
# ----------------------------------------------------------------------
class _Clock:
    """An env stand-in: the monitor only reads ``now``."""

    now = 0.0


def _expected(samples, now):
    """Rollup of plain (at, value) lists, pruned by the monitor's rule."""
    horizon = now - slo.WINDOW_S
    turn = [v for at, v in samples["turn"] if not at < horizon]
    wait = [v for at, v in samples["wait"] if not at < horizon]
    return {
        "window_s": slo.WINDOW_S,
        "calls_total": len(samples["turn"]),
        "calls_in_window": len(turn),
        "turnaround_p50_s": percentile(turn, 50),
        "turnaround_p99_s": percentile(turn, 99),
        "queue_wait_p50_s": percentile(wait, 50),
        "queue_wait_p99_s": percentile(wait, 99),
    }


def test_flat_window_matches_plain_lists():
    """12,000 turnaround and 6,000 queue-wait samples over 12.5 windows:
    the columns compact several times, and every rollup along the way
    equals the percentiles of a plain list of the in-window samples.
    Times are multiples of 0.25 s, so samples sit exactly on the window
    edge (``at == now - WINDOW_S`` stays in)."""
    rng = random.Random(25)
    clock = _Clock()
    mon = SLOMonitor(clock)
    ctx = _Ctx(_Tenant("t"))
    samples = {"turn": [], "wait": []}
    for tick in range(3000):
        clock.now = tick * 0.25
        for _ in range(4):
            v = rng.expovariate(20.0)
            mon.observe_call(ctx, v)
            samples["turn"].append((clock.now, v))
        for _ in range(2):
            v = rng.random()
            mon.observe_queue_wait(ctx, v)
            samples["wait"].append((clock.now, v))
        if tick % 397 == 0 or tick == 2999:
            assert mon.rollup() == {"t": _expected(samples, clock.now)}
    # Compaction kept both series' columns near the window, not the run.
    for series in (mon._windows["t"].turnaround, mon._windows["t"].queue_wait):
        assert len(series.at) == len(series.value) < slo.COMPACT_MIN
    assert slo.COMPACT_MIN < len(samples["wait"]) < len(samples["turn"])
    # Long after the last sample the window is empty.
    clock.now = 3000 * 0.25 + 2 * slo.WINDOW_S
    assert mon.rollup() == {"t": _expected(samples, clock.now)}
    assert mon.rollup()["t"]["calls_in_window"] == 0
    assert mon.rollup()["t"]["turnaround_p99_s"] == 0.0


def test_single_sample_and_empty_series():
    clock = _Clock()
    clock.now = 5.0
    mon = SLOMonitor(clock)
    mon.observe_call(_Ctx(_Tenant("solo")), 0.125)
    roll = mon.rollup()["solo"]
    assert roll["calls_in_window"] == 1
    assert roll["turnaround_p50_s"] == roll["turnaround_p99_s"] == 0.125
    # No queue-wait sample was ever observed.
    assert roll["queue_wait_p50_s"] == roll["queue_wait_p99_s"] == 0.0
    assert SLOMonitor(clock).rollup() == {}
