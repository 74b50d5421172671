"""The benchmark's child process runs against this checkout.

bench/child.py runs the CLI under bench/tracer.py, which wraps the
library from outside and reads some of its names directly:
`PairingEngine.pairings(pairs)` with `.grid`, tuple `Cube.l`,
`DyadicGrid.shift_units` and `Window.len_units`.  A refactor that breaks
one of them fails here rather than only in the benchmark.  The traced
represent workload must also pass bench/run.py's self-test.  The tests
read bench/ and write only under tmp_path.
"""

import importlib.util
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


def _bench_run():
    """bench/run.py as a module."""
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_represent_passes_self_test(tmp_path, monkeypatch):
    # the benchmark's traced represent repetitions, as bench/run.py runs
    # them: counts repeat and the layers' self times add up to the wall
    # time, which holds only while field workers stay off the tracer's
    # frame stack
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    run = _bench_run()
    refs = json.loads(run.REFERENCE_PATH.read_text())
    seed = run.cli_seed(0, 0)
    traced = []
    for _ in range(run.TRACED_REPS):
        res, rep_dir, err = run.run_rep(run.WORKLOADS["represent"], seed,
                                        tmp_path, True,
                                        time.perf_counter() + 300)
        assert err is None, err
        assert run.check_outputs("represent", rep_dir / "out", seed,
                                 refs) is None
        traced.append(res)
    assert run.self_test(traced) is None
