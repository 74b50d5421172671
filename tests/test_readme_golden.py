"""The five command-line examples in README.md, run in-process at --seed 0,
against the manifest results recorded in readme_results.json: integers,
strings and counts exactly, floats within 1e-12 relative.

    python tests/test_readme_golden.py --record   # re-record the results

re-records readme_results.json from the current code (with the package
installed, or with PYTHONPATH=src)."""

import json
import math
import shlex
import sys
import tempfile
from pathlib import Path

from dyadshift.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).with_name("readme_results.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def readme_commands():
    """argv of each `dyadshift ...` line of the README's command block."""
    lines = (ROOT / "README.md").read_text().splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("dyadshift ") and "--config" in line]


def assert_matches(got, want, path="results"):
    if isinstance(want, float):
        assert isinstance(got, float), path
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), \
            f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for idx, (a, b) in enumerate(zip(got, want)):
            assert_matches(a, b, f"{path}[{idx}]")
    else:
        assert type(got) is type(want) and got == want, \
            f"{path}: {got!r} != {want!r}"


def run_readme_command(argv, outdir: Path) -> dict:
    """The manifest results of one README command at --seed 0."""
    assert main(argv + ["--seed", "0", "--outdir", str(outdir)]) == 0
    return json.loads((outdir / "manifest.json").read_text())["results"]


def test_readme_commands_reproduce_recorded_results(tmp_path, monkeypatch):
    monkeypatch.delenv("DYADSHIFT_OUTDIR", raising=False)
    commands = readme_commands()
    assert sorted(argv[0] for argv in commands) == sorted(GOLDEN)
    for argv in commands:
        got = run_readme_command(argv, tmp_path / argv[0])
        assert_matches(got, GOLDEN[argv[0]], argv[0])


def record() -> None:
    """Rewrite readme_results.json from the current code."""
    with tempfile.TemporaryDirectory() as tmp:
        results = {argv[0]: run_readme_command(argv, Path(tmp, argv[0]))
                   for argv in readme_commands()}
    GOLDEN_PATH.write_text(json.dumps(results, indent=1, sort_keys=True))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_readme_golden.py --record")
    record()
