"""numpy loads on the first random draw, not on import.

A node-level run that draws no random number (most figure runs, the
fine-grained RPC workloads) never pays numpy's import time or resident
memory.  Each check runs in a fresh interpreter, since this test
process has long since imported numpy.
"""

import os
import pathlib
import subprocess
import sys

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)

IMPORTS = """
import sys
import repro, repro.cli, repro.experiments.harness, repro.experiments.figures
import repro.workloads.trace_replay
assert "numpy" not in sys.modules, "numpy imported at module load"
"""


def _run(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_imports_leave_numpy_unloaded():
    _run(IMPORTS)


def test_first_stream_loads_numpy():
    _run(IMPORTS + """
from repro.sim.rng import RngStreams
rng = RngStreams(seed=3)
assert "numpy" not in sys.modules
rng.stream("jobs").random()
assert "numpy" in sys.modules
""")


def test_synthetic_trace_loads_numpy():
    _run(IMPORTS + """
from repro.workloads.trace_replay import synthetic_trace
assert len(synthetic_trace(num_jobs=3, seed=1)) == 3
assert "numpy" in sys.modules
""")
