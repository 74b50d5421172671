"""The benchmark's child process runs against this checkout.

bench/child.py runs the CLI under bench/tracer.py, which wraps the
library from outside and reads some of its names directly:
`PairingEngine.pairings(pairs)` with `.grid`, tuple `Cube.l`,
`DyadicGrid.shift_units` and `Window.len_units`.  A refactor that breaks
one of them fails here rather than only in the benchmark.  The test reads
bench/ and writes only under tmp_path.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("command, experiment, config", [
    ("represent", "harness.randomized_expansion",
     {"filter": "haar", "kernel": "hilbert", "L": 3, "k_min": -3, "k_max": 2,
      "r": 4, "theta": 1.0, "n_omega": 1}),
    ("decay-audit", "harness.decay_audit",
     {"filter": "db2", "kernel": "hilbert", "L": 2, "k_min": -2, "k_max": 1,
      "s": 1}),
    ("convergence", "harness.convergence_experiment",
     {"filter": "haar", "kernel": "hilbert", "L": 5, "k_min": -5, "k_max": 3,
      "s": 1, "N_max": 6, "n_omega": 2}),
])
def test_traced_child_runs(tmp_path, command, experiment, config):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("DYADSHIFT_OUTDIR", None)
    result = tmp_path / "child.json"
    argv = [sys.executable, str(ROOT / "bench" / "child.py"),
            repr(time.perf_counter()), str(result), experiment, "1", "--",
            command, "--config", json.dumps(config),
            "--outdir", str(tmp_path / "out")]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text())
    assert out["exit_code"] == 0 and out["run_s"] is not None
    trace = out["trace"]
    assert trace["work"]["operators.pairs"] > 0
    assert trace["distinct_pairs"] > 0
