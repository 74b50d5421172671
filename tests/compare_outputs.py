"""Run a fixed list of CLI configs in two checkouts and compare the results
byte for byte: stdout, stderr, exit code and every file written.

    python tests/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkout roots; each run uses
PYTHONPATH=<checkout>/src python -m dyadshift.cli, from a fresh scratch
directory with the same relative --outdir.  Prints one line per mismatch,
then a summary, and exits 1 if anything differs.  Standard library only;
pytest does not collect this file.
"""

import json
import os
import subprocess
import sys
import tempfile

BENCH_WINDOW = {"L": 8, "k_min": -8, "k_max": 5, "r": 4, "theta": 1.0,
                "n_omega": 2}
RUNS = [
    # the five README commands
    ("grid-stats", {"kernel": "hilbert", "L": 3, "k_min": -2, "k_max": 10,
                    "r": 5, "theta": 1.0}),
    ("wavelet-check", {"kernel": "hilbert", "filter": "db3"}),
    ("decay-audit", {"filter": "db3", "kernel": "hilbert", "L": 4,
                     "k_min": -4, "k_max": 4, "s": 1}),
    ("represent", {"filter": "haar", "kernel": "hilbert", "L": 8,
                   "k_min": -8, "k_max": 5, "r": 4, "theta": 1.0,
                   "n_omega": 20}),
    ("convergence", {"filter": "haar", "kernel": "hilbert", "L": 6,
                     "k_min": -6, "k_max": 5, "s": 1, "N_max": 6,
                     "n_omega": 4}),
    # the bench workloads (bench/workloads.json)
    ("decay-audit", {"filter": "db3", "kernel": "hilbert", "L": 4,
                     "k_min": -4, "k_max": 2, "s": 1}),
    ("represent", {"filter": "haar", "kernel": "hilbert", **BENCH_WINDOW}),
    # other kernels and filters at the bench window
    ("represent", {"filter": "db3", "kernel": "hilbert", **BENCH_WINDOW}),
    ("represent", {"filter": "db2", "kernel": "smoothed_hilbert",
                   **BENCH_WINDOW}),
    ("represent", {"filter": "haar", "kernel": "identity", **BENCH_WINDOW}),
    ("represent", {"filter": "db2", "kernel": "identity", **BENCH_WINDOW}),
    ("grid-stats", {"kernel": "hilbert", "L": 3, "k_min": -2, "k_max": 10,
                    "r": 1, "theta": 0.2}),
    ("decay-audit", {"filter": "db2", "kernel": "smoothed_hilbert", "L": 4,
                     "k_min": -4, "k_max": 3, "s": 1}),
    # a convergence run that classifies with a real dilate (m = 5), at
    # criterion 11's window: seeds 0 and 2 write a curve, seed 1 exits 4
    ("convergence", {"filter": "db3", "kernel": "hilbert", "L": 12,
                     "k_min": -12, "k_max": 6, "s": 2, "N_max": 8,
                     "n_omega": 4}),
    # smoothed_hilbert's radial factor on a run that classifies its pairs,
    # at criterion 11's window, where seeds 0, 1 and 2 write a curve (at
    # the README convergence window each exits 4 at the noise floor)
    ("convergence", {"filter": "db2", "kernel": "smoothed_hilbert", "L": 12,
                     "k_min": -12, "k_max": 6, "s": 2, "N_max": 8,
                     "n_omega": 4}),
    # a convergence run with a finite r, which divides by pi_good < 1:
    # seeds 0 and 1 write a curve, seed 2 exits 4
    ("convergence", {"filter": "haar", "kernel": "hilbert", "L": 6,
                     "k_min": -6, "k_max": 5, "s": 1, "N_max": 6,
                     "n_omega": 8, "r": 6, "theta": 1}),
    # a fractional theta with a finite r at the bench window, so the
    # badness kernel and the exact goodness table meet theta < 1 with
    # admissible ancestors: pi_good runs from 0.25 at generation -4 down
    # to 0.035
    ("represent", {"filter": "db2", "kernel": "hilbert", **BENCH_WINDOW,
                   "theta": 0.4}),
    # whole-window audits of windows a few cubes wide, where each
    # generation's last equal pair joins with its left neighbour and most
    # joins leave the window
    ("decay-audit", {"filter": "db3", "kernel": "hilbert", "L": 0,
                     "k_min": 0, "k_max": 4, "s": 1}),
    ("decay-audit", {"filter": "db2", "kernel": "smoothed_hilbert", "L": 1,
                     "k_min": -1, "k_max": 5, "s": 1}),
    # a deep window: the test functions sit at 2^29, where the Hilbert
    # truth holds only while its tail correction is taken relative to its
    # mesh (in absolute coordinates it reads 5805 instead of 0.0769)
    ("represent", {"filter": "haar", "kernel": "hilbert", "L": 30,
                   "k_min": -4, "k_max": 5, "r": 4, "theta": 1.0,
                   "n_omega": 2}),
]
SEEDS = (0, 1, 2)
OUTDIR = "out"


def run(checkout: str, command: str, config: dict, seed: int) -> dict:
    """stdout, stderr, exit code and the written files of one CLI run."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    env.pop("DYADSHIFT_OUTDIR", None)
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-m", "dyadshift.cli", command, "--config",
             json.dumps(config), "--seed", str(seed), "--outdir", OUTDIR],
            cwd=cwd, env=env, capture_output=True)
        files = {}
        for root, _, names in os.walk(os.path.join(cwd, OUTDIR)):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, cwd)] = fh.read()
    return {"stdout": proc.stdout, "stderr": proc.stderr,
            "exit code": proc.returncode, "files": files}


def mismatches(a: dict, b: dict) -> list[str]:
    """What differs between two runs, one entry per item."""
    out = [key for key in ("stdout", "stderr", "exit code")
           if a[key] != b[key]]
    for name in sorted(set(a["files"]) | set(b["files"])):
        if name not in a["files"] or name not in b["files"]:
            out.append(f"{name} written by one checkout only")
        elif a["files"][name] != b["files"][name]:
            out.append(name)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = map(os.path.abspath, argv)
    total = bad = 0
    for command, config in RUNS:
        for seed in SEEDS:
            total += 1
            found = mismatches(run(parent, command, config, seed),
                               run(change, command, config, seed))
            for item in found:
                print(f"MISMATCH {command} seed={seed} "
                      f"{json.dumps(config, sort_keys=True)}: {item}")
            bad += bool(found)
    print(f"{total} runs, {bad} with mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
