"""Quantitative experiments: per-class decay audits, the two-sided wavelet
expansion identity, the randomized good-cube expansion, and convergence of
the truncated shift representation.

Pair enumeration is support-localized: only cubes whose m-dilate meets the
support of f (analysis side) or g (synthesis side) can contribute, so deep
negative generations cost a handful of cubes per level instead of an entire
window's worth.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dyadic import (CubePairs, DyadicGrid, ScaleRangeError, Window,
                     dilate, distinct, is_bad_batch, pi_bad_exact, ragged)
from .operators import (KernelOp, PairingEngine, PairingTable, _FieldMesh,
                        _next_fast_len, _periodic_apply, _row_chunks,
                        distinct_keys, pairing_keys, sample_wavelets,
                        support_intervals)
from .shifts import _audit_cells, classify_batch
from .wavelets import WaveletSystem


def psi_refinement(t: float, s: int) -> float:
    """Psi(t) = t^s (log(1/t) + 1), the sharper contained/between modulus."""
    if t <= 0.0 or t > 1.0:
        raise ValueError("Psi is defined on (0, 1]")
    return t ** s * (math.log(1.0 / t) + 1.0)


def _localized_ranges(grid: DyadicGrid, system: WaveletSystem,
                      span: tuple[float, float]) -> tuple[np.ndarray, ...]:
    """(k, start, count): each window generation and the range
    (DyadicGrid.touching) of its cubes whose m-dilate overlaps the span."""
    w = grid.window
    unit = 2.0 ** w.unit_exp
    # the config keeps every window position, dilates included, within
    # 2^62 units of 0, so cutting the span there keeps the cubes it meets
    # and every bound below within int64
    lo_u, hi_u = (min(max(u, -(1 << 62)), 1 << 62) for u in (
        math.floor(span[0] * unit), math.ceil(span[1] * unit)))
    gens = np.arange(w.k_min, w.k_max + 1, dtype=np.int64)
    # how far each generation's m-dilate reaches past its cube
    reach = -dilate(0, w.sides(gens), system.m)[0]
    return (gens, *grid.touching(gens, lo_u - reach, hi_u + reach))


def localized_cubes(grid: DyadicGrid, system: WaveletSystem,
                    span: tuple[float, float]) -> tuple[np.ndarray,
                                                        np.ndarray]:
    """Window cubes whose m-dilate overlaps the span, all generations, as
    int64 arrays (k, l): coarse to fine, by index within a generation."""
    gens, start, count = _localized_ranges(grid, system, span)
    n, l = ragged(start, count)
    return gens[n], l


def _func_generation(func) -> int:
    """The least generation whose mesh resolves func's support."""
    a, b = func.support
    return max(0, math.ceil(-math.log2(b - a)) + 1)


def _check_resolution(window: Window, funcs, q_loc: int) -> None:
    """Raise ScaleRangeError unless float64 separates the quadrature nodes
    localized_coefficients places for each func: its support has width,
    and one ulp at the support's far end is below the finest node spacing,
    2^-(q_loc + max(k_max, _func_generation(func)))."""
    for func in funcs:
        a, b = func.support
        if not a < b or math.ulp(max(abs(a), abs(b))) >= 0.5 ** (
                q_loc + max(window.k_max, _func_generation(func))):
            raise ScaleRangeError(
                "float64 cannot separate the quadrature nodes on the "
                f"support [{a}, {b}] of a test function; lower L")


def localized_coefficients(grid: DyadicGrid, system: WaveletSystem,
                           k: np.ndarray, l: np.ndarray, func,
                           q_loc: int) -> np.ndarray:
    """<psi_I, func> of the cubes given as int64 arrays of generations and
    indices, each on a mesh fine enough for both the wavelet and the
    function (func must expose .support).

    A cube's mesh covers the overlap of its m-dilate with the support of
    func; a cube without overlap gets 0.0.  The mesh is anchored on the
    absolute h-lattice so wavelet jump points (all dyadic rationals) fall
    on cell boundaries; both factors vanish outside the overlap, so the
    overhang cells contribute nothing.  Cubes of one generation share h,
    and those that also share the node count are evaluated as one 2-D
    node array, one row per cube, summed along the rows: each row sums as
    the one-cube array would.  Blocks of more than operators.PAIRING_MAX_NODES
    nodes go in row chunks.
    """
    lo, hi = support_intervals(grid, system, k, l)
    a_f, b_f = func.support
    a, b = np.maximum(lo, a_f), np.minimum(hi, b_f)
    k_func = _func_generation(func)
    out = np.zeros(k.size)
    live = a < b
    for gen in distinct(k[live]).tolist():
        h = 0.5 ** (q_loc + max(gen, k_func))
        cubes = np.flatnonzero(live & (k == gen))
        x0 = np.floor(a[cubes] / h) * h
        n_nodes = np.ceil((b[cubes] - x0) / h).astype(np.int64)
        for n in distinct(n_nodes).tolist():
            same = np.flatnonzero(n_nodes == n)
            rel = (np.arange(n) + 0.5) * h  # the nodes, from x0
            for chunk in _row_chunks(0, same.size, n):
                rows = same[chunk]
                x = x0[rows, None] + rel[None, :]
                vals = sample_wavelets(grid, system, gen, l[cubes[rows]], x)
                out[cubes[rows]] = np.sum(vals * func(x), axis=1) * h
    return out


def ground_truth(op: KernelOp, f, g, res: int) -> float:
    """<g, T f> on a fine mesh, frozen per run: T f is the field of f's
    samples, zero-padded to about 8 times their length."""
    lo = min(f.support[0], g.support[0]) - 0.5
    hi = max(f.support[1], g.support[1]) + 0.5
    h = 0.5 ** res
    n = int(math.ceil((hi - lo) / h))
    x = lo + (np.arange(n) + 0.5) * h
    mesh = _FieldMesh(x, f(x), h, _next_fast_len(8 * n), 0, lo, n)
    tf = _periodic_apply(op, mesh)[1]
    return float(np.sum(g(x) * tf) * h)


def _pairings(op: KernelOp, system: WaveletSystem, grid: DyadicGrid,
              pairs: CubePairs, q_loc: int) -> tuple[np.ndarray, dict]:
    """The pairings of one grid's pairs, from one table built over their
    keys, and the pairing counts: the pairs, and the table's distinct keys
    and fields."""
    table = PairingTable.build(op, system, grid.window,
                               pairing_keys(grid, pairs), q_loc)
    values = PairingEngine(grid, table).pairings(pairs)
    return values, {"pairs": len(pairs), **table.counts}


# ---------------------------------------------------------------------------
# decay audit


class DecayAuditRow(NamedTuple):
    kind: str
    i: int
    j: int
    pair_count: int
    max_pairing: float
    bound: float
    ratio: float
    psi_bound: float | None = None
    psi_ratio: float | None = None


def class_bound(kind: str, i: int, j: int, s: int, eps: float,
                theta: float, czs: float, op_norm: float) -> float:
    if kind == "far":
        return (czs * 2.0 ** (-(i + j) / 2.0)
                * (2.0 ** (-i * theta)) ** (-(1 + s)) * 2.0 ** (-i * s))
    if kind in ("between", "contained"):
        gap = i - j
        return ((czs + op_norm) * 2.0 ** (-gap / 2.0)
                * 2.0 ** (-gap * (s - eps)))
    return op_norm  # equal / near


# most (I, J) pairs decay_audit classifies in one block, the pairs of one
# fine generation, and most pairs one grid of represent or convergence
# holds.  A block peaks at about 213 bytes per pair (its index arrays,
# their int64 gathers and the classification temporaries, measured with
# tracemalloc), and a grid at about 113 (243 when convergence classifies
# its pairs), so the bound allows about 0.9 GB per block and 1 GB per
# grid.  That is about 24 times the largest block of the tests, README
# configs and bench (171,180 pairs, criterion 8's span audit with db8),
# and 53 times the largest grid (77,964 pairs, criterion 11's db3
# window); the bench represent window (haar, L=8, k=-8..5) would need
# 134 M pairs in one audit block.
AUDIT_MAX_PAIRS = 1 << 22


def decay_audit(op: KernelOp, system: WaveletSystem, grid: DyadicGrid,
                s: int, eps: float, theta: float, i_max: int, j_max: int,
                q_loc: int = 10, r: int | None = None,
                span: tuple[float, float] | None = None,
                ) -> tuple[list[DecayAuditRow], dict]:
    """Tabulate max |<psi_J, T psi_I>| against the per-class bound for every
    window pair with len(I) <= len(J) whose assigned (i,j) fits the caps.

    With r given, pairs whose smaller cube is bad are dropped (cubes too
    coarse to have an admissible ancestor r generations up count as good,
    as in is_bad_batch).  With a span, only cubes whose m-dilate meets it
    enter, which keeps wide-filter audits tractable.  A fine generation
    with more than AUDIT_MAX_PAIRS pairs raises ScaleRangeError from the
    exact cube counts, before any cube is enumerated.  The command line
    passes no r: its audit filters no pair by goodness.
    Returns (rows, info) where info holds excluded-pair counters and,
    under "pairings", the pairing counts of _pairings.
    """
    if not op.singular:
        raise ValueError(f"operator {op.name!r} has no Calderon-Zygmund "
                         "seminorm for the decay bounds")
    w = grid.window
    # every window cube meets the window
    gens, start, count = _localized_ranges(
        grid, system, (0.0, 2.0 ** w.L) if span is None else span)
    total = 0  # the cubes up to each fine generation, a Python int
    for k, n in zip(gens.tolist(), count.tolist()):
        total += n
        if n * total > AUDIT_MAX_PAIRS:
            raise ScaleRangeError(
                f"decay audit of generation {k} would classify {n * total} "
                f"pairs at once, more than AUDIT_MAX_PAIRS = "
                f"{AUDIT_MAX_PAIRS}; narrow the window")
    rows, cube_l = ragged(start, count)
    cube_k = gens[rows]
    czs = op.czs_seminorm(s)
    op_norm = 1.0  # sup |m| of every operator's symbol
    info = {"window_truncated": 0, "badness_excluded": 0, "pairs_seen": 0}
    # the kept I, J, kind, i and j of each fine generation, after an empty
    # row that keeps the concatenation defined when no cube enters
    selected = [[np.empty(0, dtype=np.int64)] * 5]
    # Pairs (I, J) with I.k >= J.k, classified one fine generation at a
    # time; the cubes come coarse to fine, so the pairs keep the I-major
    # order of the cube arrays.  The smaller cube of each pair is I.
    for k in distinct(cube_k):
        fine = np.flatnonzero(cube_k == k)
        coarse = np.flatnonzero(cube_k <= k)
        I = np.repeat(fine, coarse.size)
        J = np.tile(coarse, fine.size)
        kind, _, _, i, j, truncated = classify_batch(
            grid, cube_k[I], cube_l[I], cube_k[J], cube_l[J], theta, system.m)
        info["pairs_seen"] += I.size
        info["window_truncated"] += int(truncated.sum())
        keep = ~truncated & (i <= i_max) & (j <= j_max)
        if r is not None:
            good = np.repeat(~is_bad_batch(grid, cube_k[fine], cube_l[fine],
                                           r, theta), coarse.size)
            info["badness_excluded"] += int((keep & ~good).sum())
            keep &= good
        selected.append([x[keep] for x in (I, J, kind, i, j)])
    I, J, kind, i, j = map(np.concatenate, zip(*selected))
    pairs = CubePairs(cube_k[I], cube_l[I], cube_k[J], cube_l[J])
    values, info["pairings"] = _pairings(op, system, grid, pairs, q_loc)
    rows = []
    for kind, i, j, count, mx in _audit_cells(kind, i, j, values):
        bound = class_bound(kind, i, j, s, eps, theta, czs, op_norm)
        psi_bound = psi_ratio = None
        if kind in ("between", "contained") and i > j:
            t = 2.0 ** (-(i - j))
            psi_bound = (czs + op_norm) * 2.0 ** (-(i - j) / 2.0) \
                * psi_refinement(t, s)
            psi_ratio = mx / psi_bound
        rows.append(DecayAuditRow(kind, i, j, count, mx, bound, mx / bound,
                                  psi_bound, psi_ratio))
    return rows, info


# ---------------------------------------------------------------------------
# expansion identity and randomized expansion


def expansion_identity(op: KernelOp, system: WaveletSystem, grid: DyadicGrid,
                       f, g, q_loc: int = 10, truth: float | None = None,
                       ) -> dict:
    """Defect of the double wavelet expansion of <g, T f> over the window.

    For the identity calibration the cross terms vanish with the supports, so
    only overlapping-support pairs are evaluated; for singular operators all
    localized pairs enter.  The terms are summed one by one in pair order.
    Refused first where float64 merges the nodes (_check_resolution).
    """
    _check_resolution(grid.window, (f, g), q_loc)
    loc = _localize(grid, system, f, g)
    loc.coefficients(system, f, g, q_loc)
    I, J = loc.pair_index()
    if not op.singular:
        lo_f, hi_f = support_intervals(grid, system, *loc.kl_f)
        lo_g, hi_g = support_intervals(grid, system, *loc.kl_g)
        overlap = (np.maximum(lo_f[I], lo_g[J])
                   < np.minimum(hi_f[I], hi_g[J]))
        I, J = I[overlap], J[overlap]
    if truth is None:
        truth = ground_truth(op, f, g, res=q_loc + 2)
    values, _ = _pairings(op, system, grid, loc.pairs(I, J), q_loc)
    terms = loc.cf[I] * values * loc.cg[J]
    total = float(np.cumsum(np.concatenate(([0.0], terms)))[-1])
    return {"defect": abs(truth - total), "sum": total, "truth": truth,
            "pair_count": len(values)}


def _pi_good_by_scale(window: Window, r: int, theta: float) -> dict:
    """The exact goodness probability of each generation, in ascending k:
    1.0 for a generation with no admissible ancestor, as pi_bad_exact
    gives 0.0 there.  The deepest generation, the costliest to enumerate,
    goes first, so a window too deep for pi_bad_exact is refused before
    any enumeration."""
    out = {k: 1.0 - pi_bad_exact(window, k, r, theta)
           for k in range(window.k_max, window.k_min - 1, -1)}
    return dict(reversed(out.items()))


class _Draw:
    """One grid before its pairings: the localized cubes of f and g as
    int64 (k, l) arrays, once filled their coefficients, and for an omega
    sample their goodness."""

    __slots__ = ("grid", "kl_f", "kl_g", "cf", "cg", "good_f", "good_g")

    def __init__(self, grid: DyadicGrid, kl_f: tuple, kl_g: tuple):
        self.grid, self.kl_f, self.kl_g = grid, kl_f, kl_g
        self.cf = self.cg = self.good_f = self.good_g = None

    def coefficients(self, system, f, g, q_loc) -> None:
        """Fill cf and cg: one localized_coefficients call per function,
        so no cube takes a quadrature of its own."""
        self.cf = localized_coefficients(self.grid, system, *self.kl_f, f,
                                         q_loc)
        self.cg = localized_coefficients(self.grid, system, *self.kl_g, g,
                                         q_loc)

    def pair_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The pairs (I, J) as indices into the two cube arrays, I-major."""
        nf, ng = self.kl_f[0].size, self.kl_g[0].size
        return np.repeat(np.arange(nf), ng), np.tile(np.arange(ng), nf)

    def pairs(self, I: np.ndarray, J: np.ndarray) -> CubePairs:
        """The pairs of cubes I of f and J of g, given as indices."""
        (k_f, l_f), (k_g, l_g) = self.kl_f, self.kl_g
        return CubePairs(k_f[I], l_f[I], k_g[J], l_g[J])

    def weigh(self, values, pi_good: dict, theta: float, m: int,
              classify: bool) -> tuple[np.ndarray, np.ndarray, int]:
        """(weighted, levels, excluded): the goodness-filtered, pi-divided
        terms of the pairs with the given pairings and, with classify,
        each pair's level max(i, j), -1 where it has none, and the number
        of pairs whose join leaves the window."""
        I, J = self.pair_index()
        (k_f, l_f), (k_g, l_g) = self.kl_f, self.kl_g
        # the smaller cube of a pair is I on ties
        i_smaller = k_f[I] >= k_g[J]
        kept = np.flatnonzero(np.where(i_smaller, self.good_f[I],
                                       self.good_g[J]))
        I, J, i_smaller = I[kept], J[kept], i_smaller[kept]
        fine_k = np.where(i_smaller, k_f[I], k_g[J])
        w = self.grid.window
        pi = np.array([pi_good[k] for k in range(w.k_min, w.k_max + 1)])
        weighted = np.zeros(len(values))
        weighted[kept] = (self.cf[I] * values[kept] * self.cg[J]
                          / pi[fine_k - w.k_min])
        levels = np.full(len(values), -1, dtype=int)
        excluded = 0
        if classify and kept.size:
            _, _, _, i, j, truncated = classify_batch(
                self.grid, fine_k, np.where(i_smaller, l_f[I], l_g[J]),
                np.where(i_smaller, k_g[J], k_f[I]),
                np.where(i_smaller, l_g[J], l_f[I]), theta, m)
            levels[kept[~truncated]] = np.maximum(i, j)[~truncated]
            excluded = int(truncated.sum())
        return weighted, levels, excluded


def _localize(grid, system, f, g) -> _Draw:
    """The localized cubes of f and g on the grid, as int64 (k, l)
    arrays, without their coefficients."""
    return _Draw(grid, localized_cubes(grid, system, f.support),
                 localized_cubes(grid, system, g.support))


def _draw(system, window, f, g, r, theta, seed_tuple) -> _Draw:
    """A random grid's localization and the goodness of its cubes."""
    d = _localize(DyadicGrid.random(window, seed_tuple), system, f, g)
    good = ~is_bad_batch(d.grid, np.concatenate([d.kl_f[0], d.kl_g[0]]),
                         np.concatenate([d.kl_f[1], d.kl_g[1]]), r, theta)
    nf = d.kl_f[0].size
    d.good_f, d.good_g = good[:nf], good[nf:]
    return d


# most bytes the grids of one randomized run may hold.  A grid's draw
# holds about 4.2 kB plus 26 bytes per localized cube (its grid, cubes,
# coefficients, goodness and up to 62 reduced sums, measured with
# tracemalloc on draws of 4 to 6,170 cubes), so the bound allows about
# 250,000 grids of the smallest window.  The largest run of the tests,
# demos, README and bench configs holds under 1 MB (criterion 10, 100
# grids); n_omega = 2^40 would need petabytes.
DRAWS_MAX_BYTES = 1 << 30


def _sample_pairs(op, system, window, f, g, r, theta, q_loc, seed, indices,
                  classify: bool, reduce) -> tuple[list, dict, float, dict]:
    """reduce(weighted, levels, excluded) of the grid of each seed tuple
    (seed, w) of w in indices (see _Draw.weigh), the run's pairing counts
    (the table's distinct keys and fields, and the pairs), the ground
    truth <g, T f> and the goodness probabilities of _pi_good_by_scale,
    which divide the terms.  A run with a generation whose pi_good is 0,
    none of whose cubes can be good, raises ScaleRangeError before any
    grid is drawn; before a second grid is drawn, a run whose grids would
    hold more than DRAWS_MAX_BYTES, at the first one's size, raises it too,
    and so does a grid with more than AUDIT_MAX_PAIRS pairs, before any of
    its pair arrays exists.

    Every grid is drawn first, and the distinct pairing keys of each are
    merged into the run's distinct rows as it is drawn, whenever the
    pending rows outnumber the merged ones and after the last grid: the
    held keys stay within a small multiple of the run's distinct rows,
    however many grids there are.  One PairingTable then evaluates those
    rows, with one field per (coarse generation, transpose) for the whole
    run, each of them T's (the table negates the transposed rows), and
    each grid's engine reads its values from it.  While the table's helper
    threads build fields, the calling thread computes each grid's
    coefficients and then the ground truth, neither of which depends on
    the table.  The pairs of a grid, every localized cube of f
    with every one of g, are int64 arrays (a CubePairs) that live for one
    grid at a time, and so do its per-pair terms: they are reduced right
    after its lookup.
    """
    pi_good = _pi_good_by_scale(window, r, theta)
    hopeless = [k for k, p in pi_good.items() if p == 0.0]
    if hopeless:
        raise ScaleRangeError(
            f"no cube of generation {hopeless[0]} is good at r={r}, "
            f"theta={theta} (pi_good = 0); raise r or theta")
    _check_resolution(window, (f, g), q_loc)
    draws, merged, pending = [], np.empty((0, 4), np.int64), []
    for w_idx in indices:
        d = _draw(system, window, f, g, r, theta, (seed, w_idx))
        cubes = d.kl_f[0].size + d.kl_g[0].size
        if not draws and len(indices) * (4_200 + 26 * cubes) > DRAWS_MAX_BYTES:
            raise ScaleRangeError(
                f"{len(indices)} grids of about {cubes} localized cubes "
                f"would hold more than DRAWS_MAX_BYTES = {DRAWS_MAX_BYTES} "
                "bytes; lower n_omega")
        n_pairs = d.kl_f[0].size * d.kl_g[0].size
        if n_pairs > AUDIT_MAX_PAIRS:
            raise ScaleRangeError(
                f"a grid of {d.kl_f[0].size} localized cubes of f and "
                f"{d.kl_g[0].size} of g would hold {n_pairs} pairs, more "
                f"than AUDIT_MAX_PAIRS = {AUDIT_MAX_PAIRS}; narrow the window")
        draws.append(d)
        pending.append(distinct_keys(pairing_keys(d.grid,
                                                  d.pairs(*d.pair_index()))))
        if (len(draws) == len(indices)
                or sum(map(len, pending)) > len(merged)):
            merged = distinct_keys(np.concatenate([merged, *pending]))
            pending = []
    truth = None

    def meanwhile():
        nonlocal truth
        for d in draws:
            d.coefficients(system, f, g, q_loc)
        truth = ground_truth(op, f, g, res=q_loc + 2)

    table = PairingTable.build(op, system, window, merged, q_loc,
                               meanwhile=meanwhile)
    reduced, n_pairs = [], 0
    for d in draws:
        pairs = d.pairs(*d.pair_index())
        values = PairingEngine(d.grid, table).pairings(pairs)
        n_pairs += len(pairs)
        reduced.append(reduce(*d.weigh(values, pi_good, theta, system.m,
                                       classify)))
    return reduced, {**table.counts, "pairs": n_pairs}, truth, pi_good


def _mean_stderr(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean of the per-grid samples (axis 0) and its standard error,
    0 for one grid."""
    n = samples.shape[0]
    if n == 1:
        return samples.mean(axis=0), np.zeros(samples.shape[1:])
    return samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(n)


def randomized_expansion(op: KernelOp, system: WaveletSystem, window: Window,
                         f, g, r: int, theta: float, n_omega: int, seed: int,
                         q_loc: int = 9) -> dict:
    """Monte Carlo good-cube expansion of <g, T f> (per-generation exact
    goodness probabilities divide each retained pair)."""
    if n_omega < 1:
        raise ValueError("n_omega must be >= 1")
    sums, counts, truth, pi_good = _sample_pairs(
        op, system, window, f, g, r, theta, q_loc, seed, range(n_omega),
        classify=False, reduce=lambda weighted, *_: float(weighted.sum()))
    sums = np.array(sums)
    estimate, stderr = map(float, _mean_stderr(sums))
    return {"estimate": estimate, "stderr": stderr, "truth": truth,
            "n_omega": n_omega, "pi_good": pi_good,
            "per_sample": sums.tolist(), "pairings": counts}


class ConvergenceCurve(NamedTuple):
    points: list     # (N, e_N, stderr_N)
    slope: float
    pi_good: dict
    truth: float
    fit_range: tuple
    excluded_window: int
    pairings: dict   # the run's pairing counts


class NoiseFloorError(RuntimeError):
    pass


def convergence_experiment(op: KernelOp, system: WaveletSystem,
                           window: Window, f, g, s: int, eps: float,
                           N_max: int, n_omega: int, seed: int,
                           r: int | None = None, theta: float | None = None,
                           q_loc: int = 9) -> ConvergenceCurve:
    """Truncation error of the shift representation against max(i,j) <= N.

    The default r is large enough that goodness is vacuous on the window
    (zero Monte Carlo variance); pass a finite r for the filtered regime.
    N_max must lie between 3 and the window's depth k_max - k_min; outside
    that range the run raises before it draws a grid.
    """
    if N_max < 3:
        raise NoiseFloorError(
            f"N_max = {N_max} gives fewer than the 3 points a slope fit "
            "needs; increase N_max")
    # a classified pair's level max(i, j) is its fine generation minus its
    # containing cube's, so at most k_max - k_min: a larger N repeats the
    # full sum
    depth = window.k_max - window.k_min
    if N_max > depth:
        raise ScaleRangeError(
            f"N_max = {N_max} exceeds the window's depth k_max - k_min = "
            f"{depth}, the largest level a pair can have; lower N_max")
    if theta is None:
        theta = eps / (1 + s)
    if r is None:
        r = window.k_max - window.k_min + 1  # vacuous: nothing classifiable

    def partial_sums(weighted, levels, excluded) -> tuple[list, int]:
        """The sample's sums over max(i, j) <= N, N = 0..N_max, and its
        window-excluded pairs."""
        return ([float(weighted[(levels >= 0) & (levels <= N)].sum())
                 for N in range(N_max + 1)], excluded)

    reduced, counts, truth, pi_good = _sample_pairs(
        op, system, window, f, g, r, theta, q_loc, seed, range(n_omega),
        classify=True, reduce=partial_sums)
    partials = np.array([sums for sums, _ in reduced])
    means, ses = _mean_stderr(partials)
    points = [(N, abs(truth - means[N]), float(ses[N]))
              for N in range(1, N_max + 1)]
    floor = points[-1][1]
    # The noise floor of the curve is the Monte Carlo uncertainty of the
    # untruncated sum: below it, e_N reflects sampling noise rather than
    # truncation.  The per-N spread of the truncation error itself is not
    # noise (different grids genuinely truncate differently), so it does not
    # enter the guard.
    floor_se = float(ses[N_max])
    # Stable range, chosen by two conditions on e_N alone.  Truncation has
    # engaged only once the partial sum captures at least half of the target
    # (below the first populated level, around log2 of the support diameter,
    # the partial sum is empty and e_N just repeats |truth|).  At the other
    # end, points within 3 floor standard errors of zero or within a factor
    # 2 of the terminal error measure the floor, not the decay.
    half_mass = 0.5 * abs(truth)
    fit = [(N, e) for N, e, se in points
           if e <= half_mass and e > max(3.0 * floor_se, 2.0 * floor)
           and e > 0.0]
    if len(fit) < 3:
        raise NoiseFloorError(
            "curve dominated by noise: fewer than 3 points above the noise "
            "floor; increase n_omega or reduce N_max")
    xs = np.array([n for n, _ in fit], dtype=float)
    ys = np.log2([e for _, e in fit])
    return ConvergenceCurve(
        points=points, slope=float(np.polyfit(xs, ys, 1)[0]),
        pi_good=pi_good, truth=truth, fit_range=(int(xs[0]), int(xs[-1])),
        excluded_window=sum(n for _, n in reduced), pairings=counts)
