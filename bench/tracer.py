"""Per-layer tracing of dyadshift from outside the library.

Every module of the package is a layer.  `Tracer.install` replaces each
public function and method that a layer module defines, wherever the
package binds it, with a wrapper; no library file changes.  A call that
crosses from one layer into another opens a frame.  A layer's self time is
the time its frames cover minus the time their child frames cover, so the
self times of all layers, plus the start-up before the first frame and the
tracer's own bookkeeping, add up to the traced process's wall time.

Boundaries such as `cube_box`, `box_dist` and `mother` are crossed 10^4 to
10^6 times per run, so per boundary (caller layer, callee) the tracer keeps
one count and one inclusive time.  Only the coarse boundaries in `COARSE`
keep individual spans, each with its parent span.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "config", "dyadic", "filters", "harness", "operators",
          "shifts", "wavelets")

# boundaries recorded as individual spans: experiments, pairing batches,
# wavelet system builds and config parsing
COARSE = frozenset({
    "cli.main",
    "config.parse_config",
    "wavelets.build_system",
    "operators.PairingEngine.pairings",
    "harness.decay_audit",
    "harness.randomized_expansion",
    "dyadic.pi_bad_estimate",
})

# boundaries timed on every call, even from inside their own layer
INCLUSIVE = frozenset({"harness.localized_coefficient"})

clock = time.perf_counter  # CLOCK_MONOTONIC, shared with the parent process


class Tracer:
    def __init__(self, start: float, root: str = "bench"):
        self.start = start
        # frame: [layer, start, time covered by child frames, span id]
        self.stack = [[root, start, 0.0, None]]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)       # (caller layer, callee) -> count
        self.inclusive_s = defaultdict(float)
        self.errors = defaultdict(int)      # (callee, exception name) -> count
        self.yields = defaultdict(int)      # callee -> items yielded
        self.work = defaultdict(int)        # named work counters
        self.pair_keys = set()
        self.spans = []                     # [name, parent id, start, end]
        self.bookkeeping_s = 0.0
        self.originals = {}

    # -- installation ------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the public functions and methods of each layer module.

        modules maps layer name to module object.  Functions are rebound in
        every layer module whose namespace holds them, so both top-level and
        call-time `from .x import f` imports resolve to the wrapper.
        """
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(layer, f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for mod in modules.values():
            rebind(mod, replaced)

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = self._wrap(layer, qual, member.__func__)
                setattr(cls, attr, type(member)(wrapped))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrap(layer, qual, member))

    def _wrap(self, layer: str, name: str, fn):
        self.originals[name] = fn
        counter = _COUNTERS.get(name)
        coarse = name in COARSE
        always = name in INCLUSIVE
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self._count(counter, args, kwargs)
            if stack[-1][0] == layer and not always:
                return fn(*args, **kwargs)
            return self._cross(layer, name, coarse, fn, args, kwargs)
        return wrapper

    # -- accounting ----------------------------------------------------------

    def _count(self, counter, args, kwargs) -> None:
        t0 = clock()
        counter(self, args, kwargs)
        spent = clock() - t0
        self.bookkeeping_s += spent
        self.stack[-1][2] += spent

    def _enter(self, layer: str, name: str, coarse: bool):
        span = None
        if coarse:
            span = len(self.spans)
            self.spans.append([name, self._parent_span(), clock(), None])
        frame = [layer, clock(), 0.0, span]
        self.stack.append(frame)
        return frame

    def _exit(self, frame, name: str) -> None:
        end = clock()
        self.stack.pop()
        dur = end - frame[1]
        self.self_s[frame[0]] += dur - frame[2]
        self.stack[-1][2] += dur
        self.inclusive_s[name] += dur
        if frame[3] is not None:
            self.spans[frame[3]][3] = end

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def _cross(self, layer, name, coarse, fn, args, kwargs):
        self.calls[(self.stack[-1][0], name)] += 1
        frame = self._enter(layer, name, coarse)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.errors[(name, type(exc).__name__)] += 1
            raise
        finally:
            self._exit(frame, name)
        if isinstance(result, types.GeneratorType):
            return self._iterate(layer, name, result)
        return result

    def _iterate(self, layer, name, gen):
        """Run a generator handed across a boundary inside its own layer."""
        while True:
            frame = self._enter(layer, name, False)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(frame, name)
            self.yields[name] += 1
            yield item

    # -- report --------------------------------------------------------------

    def report(self, end: float) -> dict:
        """Plain-JSON summary; `end` closes the root frame."""
        root = self.stack[0]
        self.self_s[root[0]] += (end - root[1]) - root[2]
        by_callee = defaultdict(int)
        cross_into = defaultdict(int)
        for (caller, callee), n in self.calls.items():
            by_callee[callee] += n
            layer = callee.split(".", 1)[0]
            if caller != layer:
                cross_into[layer] += n
        return {
            "self_s": dict(self.self_s),
            "bookkeeping_s": self.bookkeeping_s,
            "calls": dict(by_callee),
            "cross_calls_into": dict(cross_into),
            "inclusive_s": dict(self.inclusive_s),
            "errors": {f"{n}:{e}": c for (n, e), c in self.errors.items()},
            "yields": dict(self.yields),
            "work": dict(self.work),
            "distinct_pairs": len(self.pair_keys),
            "spans": [{"name": n, "parent": p, "start_s": s - self.start,
                       "end_s": None if e is None else e - self.start}
                      for n, p, s, e in self.spans],
        }


def rebind(mod, replaced: dict) -> None:
    """Point every name in mod that holds a key of `replaced` at its value."""
    for name, obj in list(vars(mod).items()):
        if inspect.isfunction(obj) and obj in replaced:
            setattr(mod, name, replaced[obj])


# -- work counters ---------------------------------------------------------
# Each counter runs on every call of its boundary, crossing or not, and its
# cost is charged to the tracer's bookkeeping, not to a layer.

def _arg(fn, args, kwargs, param: str):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[param]


def _count_mother(tr, args, kwargs):
    t = args[1] if len(args) > 1 else kwargs["t"]
    tr.work["wavelets.mother_points"] += int(np.size(t))


def _count_is_bad(tr, args, kwargs):
    tr.work["dyadic.badness_evals"] += 1


def _count_estimate(tr, args, kwargs):
    fn = tr.originals["dyadic.pi_bad_estimate"]
    tr.work["dyadic.badness_evals"] += int(_arg(fn, args, kwargs, "samples"))


def _count_pairings(tr, args, kwargs):
    """Pairs passed in, and the translation-invariant key each would need
    in a cache shared across grids: (fine k, coarse k, lattice offset of
    the fine cube from the coarse one, which cube is the analysis one)."""
    engine = args[0]
    pairs = args[1] if len(args) > 1 else kwargs["pairs"]
    tr.work["operators.pairs"] += len(pairs)
    grid = engine.grid
    w = grid.window
    shift_units = tr.originals["dyadic.DyadicGrid.shift_units"]
    len_units = tr.originals["dyadic.Window.len_units"]
    lo = {}
    for I, J in pairs:
        fine, coarse = (I, J) if I.k >= J.k else (J, I)
        for c in (fine, coarse):
            if c.k not in lo:
                lo[c.k] = (len_units(w, c.k), int(shift_units(grid, c.k)[0]))
        side_f, sh_f = lo[fine.k]
        side_c, sh_c = lo[coarse.k]
        delta = (fine.l[0] * side_f + sh_f) - (coarse.l[0] * side_c + sh_c)
        tr.pair_keys.add((fine.k, coarse.k, delta, I.k >= J.k))


_COUNTERS = {
    "wavelets.WaveletSystem.mother": _count_mother,
    "dyadic.is_bad": _count_is_bad,
    "dyadic.pi_bad_estimate": _count_estimate,
    "operators.PairingEngine.pairings": _count_pairings,
}
