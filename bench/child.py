"""One benchmark repetition in a fresh process.

    python3 bench/child.py START RESULT EXPERIMENT TRACE -- <dyadshift CLI args>

START is the parent's `time.perf_counter()` just before it started this
process (the clock is CLOCK_MONOTONIC, shared by all processes), RESULT the
JSON file to write, EXPERIMENT the `layer.function` whose first call marks
the end of set-up, and TRACE 1 to install the per-layer tracer.  Runs
`dyadshift.cli.main` on the remaining arguments and exits with its code.
"""

import importlib
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    start = float(sys.argv[1])
    result_path, experiment, trace = sys.argv[2], sys.argv[3], sys.argv[4]
    cli_args = sys.argv[sys.argv.index("--") + 1:]

    from tracer import LAYERS, Tracer, rebind
    modules = {layer: importlib.import_module(f"dyadshift.{layer}")
               for layer in LAYERS}
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(modules["cli"].__file__).resolve().is_relative_to(src):
        print(f"error: dyadshift imported from {modules['cli'].__file__}, "
              f"not from {src}", file=sys.stderr)
        return 1
    tracer = None
    if trace == "1":
        tracer = Tracer(start)
        tracer.install(modules)

    layer, name = experiment.split(".")
    entered = []
    inner = getattr(modules[layer], name)

    def timed(*args, **kwargs):
        if not entered:
            entered.append(time.perf_counter())
        return inner(*args, **kwargs)

    for mod in modules.values():
        rebind(mod, {inner: timed})

    main_fn = modules["cli"].main
    code = main_fn(cli_args)
    end = time.perf_counter()
    out = {
        "exit_code": code,
        "setup_s": entered[0] - start if entered else None,
        "run_s": end - entered[0] if entered else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "versions": {lib: sys.modules[lib].__version__
                     for lib in ("numpy", "scipy")},
    }
    if tracer is not None:
        out["trace"] = tracer.report(time.perf_counter())
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
