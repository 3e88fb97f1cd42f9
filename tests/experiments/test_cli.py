"""CLI tests."""

import pytest

from repro.cli import main


def test_devices_lists_presets(capsys):
    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    assert "Tesla C2050" in out
    assert "Quadro 2000" in out


def test_catalog_lists_all_benchmarks(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for tag in ("BP", "SC", "MM-L", "BS-L"):
        assert tag in out


def test_run_executes_batch(capsys):
    rc = main(["run", "--jobs", "HS:2", "--vgpus", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total time" in out
    assert "errors     : 0" in out


def test_run_bare_mode(capsys):
    rc = main(["run", "--jobs", "HS", "--bare"])
    assert rc == 0
    assert "bare CUDA" in capsys.readouterr().out


def test_run_rejects_unknown_gpu():
    with pytest.raises(SystemExit):
        main(["run", "--jobs", "HS", "--gpus", "rtx9090"])


def test_run_rejects_unknown_workload(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--jobs", "NOPE"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown workload 'NOPE'" in err and "MM-L" in err


def test_run_rejects_bad_job_count(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--jobs", "MM-L:x"])
    assert exc.value.code == 2
    assert "bad job count 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [["--jobs", "2"], ["trace", "--synthetic", "5"]])
@pytest.mark.parametrize("flags, message", [
    (["--vgpus", "0"], "vgpus_per_device must be >= 1"),
    (["--swap-chunk-mib", "-1"], "swap_chunk_bytes must be >= 0"),
    (["--batch-max-calls", "0"], "batch_max_calls must be >= 1"),
    (["--vgpu-quantum-s", "0"], "vgpu_quantum_s must be positive"),
    (["--eviction-policy", "cost_aware"],
     "eviction_policy='cost_aware' needs eviction_mode='partial'"),
    (["--eviction-policy", "cost_aware", "--eviction-mode", "partial"],
     "eviction_policy='cost_aware' needs locality_binding=True"),
])
def test_run_rejects_invalid_runtime_config(capsys, tmp_path, mode, flags, message):
    metrics = tmp_path / "m.txt"
    rc = main(["run", *mode, *flags, "--metrics-out", str(metrics)])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"repro run: {message}" in captured.err
    assert "Traceback" not in captured.err
    assert not metrics.exists()  # rejected before any output is opened


@pytest.mark.parametrize("mode", [["--jobs", "2"], ["trace", "--synthetic", "20"]])
@pytest.mark.parametrize("flag, value", [
    ("--nodes", "0"),
    ("--gpus-per-node", "0"),
    ("--arrival-rate", "0"),
    ("--arrival-rate", "nan"),
    ("--synthetic", "-3"),
    ("--cpu-fraction", "-1"),
])
def test_run_rejects_bad_counts_and_rates_at_parse_time(capsys, mode, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["run", *mode, flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected a" in err
    assert "Traceback" not in err


def test_run_with_policy_and_flags(capsys):
    rc = main([
        "run", "--jobs", "HS:2", "--policy", "sjf",
        "--consolidation", "--eager-transfers",
    ])
    assert rc == 0


def test_reproduce_subcommand(capsys):
    rc = main(["reproduce", "fig7", "--quick"])
    assert rc == 0
    assert "Figure 7" in capsys.readouterr().out
