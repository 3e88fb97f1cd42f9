"""Runtime monitoring tests."""

from repro.core.monitor import node_report

from tests.core.conftest import Harness


def test_node_report_snapshot():
    h = Harness()
    h.run(until=1.0)
    report = node_report(h.runtime)
    assert report["gpus"] == 1
    assert report["vgpus_total"] == 4
    assert report["vgpus_active"] == 0
    assert report["load_per_vgpu"] == 0.0
    assert report["swap_used_bytes"] == 0
    assert "Tesla C2050" in report["gpu_names"][0]
