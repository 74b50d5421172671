"""The five command-line examples in README.md, run in-process at --seed 0,
against the manifest results recorded in readme_results.json: integers,
strings and counts exactly, floats within 1e-12 relative."""

import json
import math
import shlex
from pathlib import Path

from dyadshift.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).with_name("readme_results.json"))
                    .read_text())


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


def test_readme_commands_reproduce_recorded_results(tmp_path, monkeypatch):
    monkeypatch.delenv("DYADSHIFT_OUTDIR", raising=False)
    commands = readme_commands()
    assert sorted(argv[0] for argv in commands) == sorted(GOLDEN)
    for argv in commands:
        out = tmp_path / argv[0]
        assert main(argv + ["--seed", "0", "--outdir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert_matches(manifest["results"], GOLDEN[argv[0]], argv[0])
