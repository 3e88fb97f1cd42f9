"""Metrics registry semantics and RuntimeStats schema stability."""

import math

import pytest

from repro.core.stats import RuntimeStats
from repro.obs import (
    BYTES_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

#: The exported RuntimeStats schema.  Downstream consumers (figure
#: benches, node_report()["metrics"], the Prometheus exporter) key on
#: these names; renaming or dropping one is a breaking change that must
#: show up here.
EXPECTED_STATS_KEYS = {
    "connections_accepted",
    "calls_served",
    "kernels_launched",
    "swaps_intra",
    "swaps_inter",
    "swaps_total",
    "swap_bytes_out",
    "swap_bytes_in",
    "swap_retries",
    "evictions_partial",
    "eviction_bytes_freed",
    "eviction_writeback_bytes",
    "migrations",
    "migrations_p2p",
    "p2p_bytes",
    "offloads_out",
    "offloads_in",
    "failures_recovered",
    "replayed_kernels",
    "checkpoints",
    "h2d_requests",
    "h2d_device_transfers",
    "d2h_requests",
    "prefetch_issued",
    "prefetch_hits",
    "prefetch_bytes",
    "bad_calls_detected",
    "bindings",
    "unbindings",
    "admission_queued",
    "preemptions",
    "quota_evictions",
    "quota_eviction_bytes",
    "locality_hits",
    "locality_bytes_avoided",
    "locality_reclaims",
    "locality_reclaim_bytes",
    "batches_submitted",
    "batched_calls",
    "graphs_instantiated",
    "graph_replays",
    "graph_replayed_kernels",
    "graphs_invalidated",
}


def test_runtime_stats_as_dict_key_stability():
    d = RuntimeStats().as_dict()
    assert set(d) == EXPECTED_STATS_KEYS
    assert all(v == 0 for v in d.values())


def test_runtime_stats_swaps_total_is_derived():
    stats = RuntimeStats(swaps_intra=3, swaps_inter=4)
    assert stats.as_dict()["swaps_total"] == 7


def test_counter_monotonic():
    c = Counter("x")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set_and_callback():
    g = Gauge("x")
    g.set(3)
    assert g.value == 3
    backing = {"v": 7}
    live = Gauge("y", fn=lambda: backing["v"])
    assert live.value == 7
    backing["v"] = 9
    assert live.value == 9
    with pytest.raises(ValueError):
        live.set(1)


def test_histogram_le_binning():
    h = Histogram("x", buckets=(1.0, 10.0))
    for v in (0.5, 1.0, 5.0, 10.0, 11.0):
        h.observe(v)
    # le semantics: a value equal to a bound lands in that bucket.
    assert h.counts == [2, 2, 1]
    assert h.count == 5
    assert h.sum == pytest.approx(27.5)
    cumulative = h.cumulative()
    assert cumulative == [(1.0, 2), (10.0, 4), (math.inf, 5)]
    snap = h.snapshot()
    assert snap["count"] == 5
    assert snap["buckets"]["inf"] == 5


def test_histogram_bucket_validation():
    with pytest.raises(ValueError):
        Histogram("x", buckets=())
    with pytest.raises(ValueError):
        Histogram("x", buckets=(1.0, math.inf))
    # duplicated/unsorted bounds are normalized
    h = Histogram("x", buckets=(5.0, 1.0, 5.0))
    assert h.bounds == (1.0, 5.0)


def test_registry_get_or_create():
    reg = MetricsRegistry(node="n0")
    c1 = reg.counter("net_messages_total")
    c2 = reg.counter("net_messages_total")
    assert c1 is c2
    h1 = reg.histogram("swap_bytes", buckets=BYTES_BUCKETS)
    assert reg.histogram("swap_bytes") is h1
    with pytest.raises(ValueError):
        reg.gauge("net_messages_total")
    assert reg.get("missing") is None
    assert set(m.name for m in reg.metrics()) == {"net_messages_total", "swap_bytes"}


def test_registry_snapshot_folds_stats_and_metrics():
    reg = MetricsRegistry(node="n0")
    stats = RuntimeStats(calls_served=5)
    reg.attach_stats(stats)
    reg.counter("custom_total").inc(2)
    reg.gauge("depth", fn=lambda: 4)
    reg.histogram("lat").observe(0.5)
    snap = reg.snapshot()
    assert snap["runtime_calls_served"] == 5
    assert snap["custom_total"] == 2
    assert snap["depth"] == 4
    assert snap["lat"]["count"] == 1
    # stats are live, not copied at attach time
    stats.calls_served = 6
    assert reg.snapshot()["runtime_calls_served"] == 6
