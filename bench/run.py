#!/usr/bin/env python3
"""dyadshift benchmark.

    python3 bench/run.py --workload audit --seed 0 --seconds 50 --trace 0
    python3 bench/run.py                  # every workload, as a table
    python3 bench/run.py --record         # re-record bench/reference.json

Run from the root of a source checkout.  Each repetition is a fresh
`python3 bench/child.py` process that runs the public CLI entry point
`dyadshift.cli.main` on the workload's config (bench/workloads.json).
Repetitions run one at a time, with BLAS and OpenMP pools pinned to one
thread, `DYADSHIFT_OUTDIR` removed and `--outdir` pointed at a temporary
directory inside the checkout that is deleted afterwards.

With `--trace 0` the run repeats the workload with seeds derived from
`--seed` until `--seconds` have passed and reports the medians of run_s,
setup_s and peak_rss_mb, the times scaled to a reference machine speed
(see calibrate()).  With `--trace 1` it runs one input twice with the
per-layer tracer (bench/tracer.py) and then untraced until the time is up,
and reports the per-layer metrics and the tracing overhead.  Every
repetition's outputs are checked; a failed check, a nonzero exit or an
exception counts as a failure and is never retried.  The last line of
standard output is the JSON result; the line before it holds the details
(quartiles, sample counts, input sizes, failures, machine facts).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DESIGN = json.loads((BENCH / "workloads.json").read_text())
WORKLOADS = DESIGN["workloads"]
REFERENCE_PATH = BENCH / "reference.json"

MIN_REPS = 3           # untraced repetitions per run, whatever --seconds says
TRACED_REPS = 2        # traced repetitions of one input, for the self-test
RUN_LIMIT_S = 170.0    # a run ends within this, slow repetitions included
SELF_TIME_TOL = 0.03   # traced self times must add up to setup_s + run_s
REFERENCE_SEEDS = range(10)
# output values compared within max(1e-6, 1e-4 |ref|); the rest exactly
APPROX = {"max_pairing", "estimate", "truth"}
# counts two traced runs of one input must repeat exactly
COUNTS = ("shifts.classify_calls", "operators.pairs", "wavelets.mother_points",
          "dyadic.cubes", "dyadic.badness_evals", "dyadic.calls",
          "harness.coeff_calls")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Median time of calibrate() on the machine the baseline was measured on
# (2-vCPU Intel Xeon VM); run_s and setup_s are reported at that speed.
CAL_REF_S = 0.6


def cli_seed(seed: int, rep: int) -> int:
    """Seed the CLI gets on repetition `rep` of a run with `--seed seed`."""
    return seed * 1000 + rep


# -- machine speed -------------------------------------------------------------

def calibrate(deadline: float) -> float:
    """Wall time of a fresh Python process that imports numpy and scipy.fft,
    the libraries the program imports, and nothing of dyadshift.

    The host's speed swings by up to 2x over minutes.  The set-up and
    experiment of a repetition slow down together with this process (a loop
    timed inside the long-lived benchmark process does not follow them), so
    it is timed just before each repetition, never overlapping one.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "import numpy, scipy.fft"],
                   env=child_env(), cwd=ROOT, check=True,
                   timeout=max(5.0, deadline - start))
    return time.perf_counter() - start


# -- one repetition ----------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DYADSHIFT_OUTDIR", None)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_rep(wl: dict, seed: int, tmp: Path, trace: bool, deadline: float):
    """Run one repetition in a new directory under tmp.

    Returns (child result or None, the directory, error or None); the CLI
    outputs are in the directory's `out`.
    """
    rep_dir = Path(tempfile.mkdtemp(dir=tmp))
    result_path = rep_dir / "child.json"
    env = child_env()
    timeout = max(5.0, deadline - time.perf_counter())
    start = time.perf_counter()
    argv = [sys.executable, str(BENCH / "child.py"), repr(start),
            str(result_path), wl["experiment"], "1" if trace else "0", "--",
            wl["command"], "--config", json.dumps(wl["config"]),
            "--seed", str(seed), "--outdir", str(rep_dir / "out")]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, rep_dir, f"seed {seed}: timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        return None, rep_dir, f"seed {seed}: exit {proc.returncode}: {tail}"
    try:
        res = json.loads(result_path.read_text())
    except (OSError, ValueError) as exc:
        return None, rep_dir, f"seed {seed}: no result from child ({exc})"
    if res["setup_s"] is None:
        return None, rep_dir, f"seed {seed}: experiment never entered"
    return res, rep_dir, None


# -- output checks -------------------------------------------------------------

def read_outputs(command: str, out: Path) -> dict:
    """The checked output values of one repetition, by name."""
    results = json.loads((out / "manifest.json").read_text())["results"]
    if command == "decay-audit":
        lines = (out / "audit.csv").read_text().splitlines()
        head = lines[0].split(",")
        rows = [dict(zip(head, ln.split(","))) for ln in lines[1:]]
        return {
            "rows": [[r["class"], int(r["i"]), int(r["j"]),
                      int(r["pair_count"])] for r in rows],
            "max_pairing": [float(r["max_pairing"]) for r in rows],
            "near_ratios": [float(r["ratio"]) for r in rows
                            if r["class"] in ("equal", "near")],
            "pairs_seen": results["pairs_seen"],
            "window_truncated": results["window_truncated"],
            "badness_excluded": results["badness_excluded"],
        }
    if command == "represent":
        return {"estimate": results["estimate"], "truth": results["truth"],
                "n_omega": results["n_omega"]}
    if command == "grid-stats":
        return {"pi_bad_hat": results["pi_bad_hat"], "bound": results["bound"]}
    raise ValueError(f"no output check for {command!r}")


def close(a: float, ref: float) -> bool:
    return abs(a - ref) <= max(1e-6, 1e-4 * abs(ref))


def mismatch(name: str, got, ref) -> bool:
    if name not in APPROX:
        return got != ref
    got, ref = (got, ref) if isinstance(ref, list) else ([got], [ref])
    return len(got) != len(ref) or not all(map(close, got, ref))


def check_outputs(name: str, out: Path, seed: int, refs: dict) -> str | None:
    """None when the outputs pass, else what failed.

    Every seed: the seed-independent values and the equal/near ratio
    bound.  Reference seeds: every recorded value as well.
    """
    try:
        got = read_outputs(WORKLOADS[name]["command"], out)
    except (OSError, ValueError, KeyError) as exc:
        return f"seed {seed}: unreadable outputs ({exc})"
    if any(r > 1.0 for r in got.get("near_ratios", [])):
        return f"seed {seed}: an equal/near ratio exceeds 1"
    ref = refs.get(name, {})
    expect = dict(ref.get("any_seed", {}))
    expect.update(ref.get("seeds", {}).get(str(seed), {}))
    bad = [k for k, v in expect.items() if mismatch(k, got.get(k), v)]
    if bad:
        return f"seed {seed}: outputs differ from the reference: {bad}"
    return None


# -- per-layer metrics ---------------------------------------------------------

def layer_metrics(tr: dict) -> dict:
    calls, inc, work = tr["calls"], tr["inclusive_s"], tr["work"]
    self_s = tr["self_s"]
    classify = calls.get("shifts.classify_pair", 0)
    truncated = tr["errors"].get(
        "shifts.classify_pair:WindowTruncationError", 0)
    pairs = work.get("operators.pairs", 0)
    points = work.get("wavelets.mother_points", 0)
    yields = tr["yields"]
    return {
        "shifts.classify_calls": classify,
        "shifts.classify_s": inc.get("shifts.classify_pair", 0.0),
        "shifts.truncated_frac": truncated / classify if classify else 0.0,
        "shifts.self_s": self_s.get("shifts", 0.0),
        "dyadic.calls": tr["cross_calls_into"].get("dyadic", 0),
        "dyadic.self_s": self_s.get("dyadic", 0.0),
        "dyadic.cubes": yields.get("dyadic.DyadicGrid.cubes_touching", 0)
        + yields.get("dyadic.DyadicGrid.cubes_at_scale", 0),
        "dyadic.badness_evals": work.get("dyadic.badness_evals", 0),
        "operators.pairs": pairs,
        "operators.distinct_pair_frac":
            tr["distinct_pairs"] / pairs if pairs else 0.0,
        "operators.pairings_s": inc.get("operators.PairingEngine.pairings",
                                        0.0),
        "operators.self_s": self_s.get("operators", 0.0),
        "wavelets.mother_points": points,
        "wavelets.mother_bytes": 16 * points,
        "wavelets.build_s": inc.get("wavelets.build_system", 0.0),
        "wavelets.self_s": self_s.get("wavelets", 0.0),
        "harness.coeff_calls": calls.get("harness.localized_coefficient", 0),
        "harness.coeff_s": inc.get("harness.localized_coefficient", 0.0),
        "harness.self_s": self_s.get("harness", 0.0),
        "config.parse_s": inc.get("config.parse_config", 0.0),
        "config.self_s": self_s.get("config", 0.0),
        "filters.self_s": self_s.get("filters", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "startup_s": self_s.get("bench", 0.0),
    }


def self_test(traced: list) -> str | None:
    """Counts repeat across traced runs of one input, and the self times
    add up to the traced setup_s + run_s."""
    first = layer_metrics(traced[0]["trace"])
    for res in traced:
        tr = res["trace"]
        m = layer_metrics(tr)
        differ = [c for c in COUNTS if m[c] != first[c]]
        if differ:
            return f"traced counts differ between runs: {differ}"
        total = sum(tr["self_s"].values()) + tr["bookkeeping_s"]
        wall = res["setup_s"] + res["run_s"]
        if abs(total - wall) > SELF_TIME_TOL * wall:
            return (f"self times add up to {total:.4f} s, traced setup_s + "
                    f"run_s is {wall:.4f} s")
    return None


# -- one benchmark run -------------------------------------------------------

def quartiles(values: list) -> dict:
    if len(values) == 1:
        q = [values[0]] * 3
    else:
        q = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q[0], "median": statistics.median(values), "q3": q[2],
            "n": len(values)}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 refs: dict) -> tuple[dict, dict]:
    wl = WORKLOADS[name]
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    reps, traced, failures = [], [], []
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    attempted = 0

    def attempt(rep_seed: int, traced_rep: bool):
        nonlocal attempted
        attempted += 1
        cal_s = None
        if not traced_rep:
            try:
                cal_s = calibrate(deadline)
            except (OSError, subprocess.SubprocessError) as exc:
                failures.append(f"seed {rep_seed}: calibration failed ({exc})")
                return None
        res, rep_dir, err = run_rep(wl, rep_seed, tmp, traced_rep, deadline)
        out = rep_dir / "out"
        if err is None:
            err = check_outputs(name, out, rep_seed, refs)
            if err is None and wl["input_size"]["manifest_key"]:
                manifest = json.loads((out / "manifest.json").read_text())
                res["input_size"] = manifest["results"][
                    wl["input_size"]["manifest_key"]]
        shutil.rmtree(rep_dir, ignore_errors=True)
        if err is not None:
            failures.append(err)
            return None
        res["cal_s"] = cal_s
        return res

    try:
        if trace:
            seed0 = cli_seed(seed, 0)
            for _ in range(TRACED_REPS):
                res = attempt(seed0, True)
                if res is not None:
                    traced.append(res)
            attempted += 1  # the self-test
            err = self_test(traced) if len(traced) == TRACED_REPS \
                else "self-test skipped: a traced run failed"
            if err is not None:
                failures.append(err)
        rep = 0
        while (rep < MIN_REPS or time.perf_counter() - start < seconds) \
                and time.perf_counter() < deadline:
            res = attempt(cli_seed(seed, 0 if trace else rep), False)
            if res is not None:
                reps.append(res)
            rep += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    detail = {"workload": name, "seed": seed, "trace": int(trace),
              "cli_seeds": [cli_seed(seed, 0 if trace else r)
                            for r in range(rep)],
              "attempted": attempted, "failed": len(failures),
              "fail_frac": len(failures) / attempted,
              "failures": failures,
              "machine": machine_facts(reps[0]["versions"] if reps else {})}
    metrics = {}
    if reps:
        # detail keeps the times as measured; the result scales each
        # repetition's times to the reference speed by the calibration timed
        # just before it, which cancels the host's swings
        detail["calibration_s"] = quartiles([r["cal_s"] for r in reps])
        for key, unit in (("run_s", "s"), ("setup_s", "s"),
                          ("peak_rss_mb", "MB")):
            values = [r[key] for r in reps]
            detail[key] = dict(quartiles(values), unit=unit)
            if unit == "s":
                values = [r[key] * CAL_REF_S / r["cal_s"] for r in reps]
            metrics[key] = {"value": statistics.median(values), "unit": unit}
        sizes = [r["input_size"] for r in reps if "input_size" in r]
        if sizes:
            detail["input_size"] = {wl["input_size"]["name"]:
                                    statistics.median(sizes)}
        else:
            detail["input_size"] = {wl["input_size"]["name"]:
                                    wl["config"].get("mc_samples")}
    if trace:
        metrics = {}
        if traced and reps:
            per_rep = [layer_metrics(r["trace"]) for r in traced]
            units = {m["name"]: m["unit"] for m in DESIGN["per_layer"]}
            for key, first in per_rep[0].items():
                values = [m[key] for m in per_rep]
                value = first if len(set(values)) == 1 \
                    else statistics.median(values)
                metrics[key] = {"value": value, "unit": units[key]}
            traced_run = statistics.median(r["run_s"] for r in traced)
            metrics["trace_overhead"] = {
                "value": traced_run / detail["run_s"]["median"] - 1.0,
                "unit": units["trace_overhead"]}
            detail["traced_run_s"] = traced_run
            detail["spans"] = traced[0]["trace"]["spans"]
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, detail


# -- machine facts -------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_facts(versions: dict) -> dict:
    """Facts about the machine and the code; versions come from a child."""
    model = next((ln.split(":", 1)[1].strip()
                  for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), platform.processor())
    mem_kb = next((int(ln.split()[1])
                   for ln in _read("/proc/meminfo").splitlines()
                   if ln.startswith("MemTotal:")), 0)
    digest = hashlib.sha256()
    for path in sorted((SRC / "dyadshift").glob("*.py")):
        digest.update(path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip(),
        "ram_gib": round(mem_kb / 2 ** 20, 1),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
    }


# -- reference recording -------------------------------------------------------

def record(names) -> None:
    """Record, from the code as it stands, the checked outputs of the first
    `reference_reps` repetitions of runs with the reference seeds.  Stops at
    the first repetition that fails."""
    refs = json.loads(REFERENCE_PATH.read_text()) \
        if REFERENCE_PATH.exists() else {}
    for name in names:
        wl = WORKLOADS[name]
        tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
        entry = {"any_seed": {}, "seeds": {}}
        try:
            for seed in REFERENCE_SEEDS:
                for rep in range(wl["reference_reps"]):
                    s = cli_seed(seed, rep)
                    res, rep_dir, err = run_rep(wl, s, tmp, False,
                                                time.perf_counter() + 600)
                    if err is not None:
                        raise SystemExit(f"{name}: {err}")
                    got = read_outputs(wl["command"], rep_dir / "out")
                    got.pop("near_ratios", None)
                    for key in ("truth", "bound", "n_omega"):
                        if key in got:
                            value = got.pop(key)
                            if entry["any_seed"].setdefault(key, value) \
                                    != value:
                                raise SystemExit(f"{name}: {key} depends "
                                                 f"on the seed")
                    entry["seeds"][str(s)] = got
                    shutil.rmtree(rep_dir, ignore_errors=True)
                print(f"{name}: seed {seed} recorded", file=sys.stderr)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        refs[name] = entry
        REFERENCE_PATH.write_text(json.dumps(refs, sort_keys=True) + "\n")


# -- entry point -----------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="re-record bench/reference.json from the current code")
    args = p.parse_args(argv)
    if not (SRC / "dyadshift" / "cli.py").is_file():
        print(f"error: no dyadshift sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "dyadshift"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1)
    if args.record:
        record([args.workload] if args.workload else sorted(WORKLOADS))
        return 0
    refs = json.loads(REFERENCE_PATH.read_text())
    if args.workload:
        result, detail = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), refs)
        print(json.dumps(detail, sort_keys=True))
        print(json.dumps(result, sort_keys=True))
        return 0
    return summary(args.seed, args.seconds, refs)


def summary(seed: int, seconds: float, refs: dict) -> int:
    """Every workload, untraced then traced, as a readable table."""
    ok = True
    for name in WORKLOADS:
        result, detail = run_workload(name, seed, seconds, False, refs)
        traced, tdetail = run_workload(name, seed, seconds, True, refs)
        ok = ok and result["correct"] and traced["correct"]
        if name == next(iter(WORKLOADS)):
            print(json.dumps(detail["machine"], sort_keys=True))
        print(f"\n== {name}  (input {detail.get('input_size')}, "
              f"fail_frac {detail['fail_frac']:.3f} = "
              f"{detail['failed']}/{detail['attempted']})")
        for key, m in result["metrics"].items():
            d = detail[key]
            print(f"  {key:<28} {m['value']:12.4f} {m['unit']:<6} "
                  f"[as measured: median {d['median']:.4f}, q1 {d['q1']:.4f}, "
                  f"q3 {d['q3']:.4f}, n {d['n']}]")
        for key, m in traced["metrics"].items():
            print(f"  {key:<28} {m['value']:12.6g} {m['unit']}")
        for err in detail["failures"] + tdetail["failures"]:
            print(f"  FAILED: {err}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
