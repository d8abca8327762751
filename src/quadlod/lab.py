"""Progression error terms, their exact max-over-M sweeps, and the lemma labs.

The error term for a modulus q, coprime residue gamma and cut M is

    eps(M) = sum of f over elements of A0(M) congruent to gamma (mod q)
             - (1/phi(q)) * sum of f over elements of A0(M) coprime to q,

summed over elements with f evaluated at canonical representatives (the
congruence is not unit-invariant, so the element-level reading is the
self-consistent one).  As a function of M it is a step function that only
changes when floor(M^2) crosses the norm of an element carrying a nonzero
coprime contribution, so the exact maximum over all real M <= N is found by
evaluating eps at each of those breakpoints for every coprime class.

The sweep runs on canonical classes and unit orbits, for every f.  f(u xi)
= f(xi) for each unit u, and xi = gamma (mod q) gives u xi = u gamma, so the
class sums A_gamma and A_(u gamma) are equal at every cut: one class per
orbit R of the units on (O/q)^* is swept (`Modulus.unit_orbits`).  Each
element is u xi for one canonical xi and one unit u, and s_R = w_K / |R|
units fix each class of R, so A_gamma = s_R * (sum of f over the canonical
xi whose class lies in R), and T is w_K times the canonical coprime total.
Orbits are keyed by their smallest class, so the first orbit that attains a
maximum holds the first class that does.  When one orbit holds every
coprime class, eps is 0 and nothing is summed.

The sweep's rows are the function's, not the modulus's: one per distinct
norm of a canonical class with f != 0 (`_levels`), which holds every
breakpoint of every modulus, built once per function and cut of a scan.
Per modulus, classes not coprime to q go to a dump class that is dropped,
so a row without a breakpoint repeats the row before it bit for bit.  The
sweep evaluates a bounded (orbit x row) block per numpy call and keeps only
each row's maximum over the orbits; the first class and eps are read back
at the one row a cut picks.  Every float sum keeps one fixed order, which
is what keeps artifacts byte for byte stable, on one float64 plane for real
f and two for complex f: each (orbit, row) cell sums s_R f over its classes
from 0 in (norm, x, y) order, and each orbit's running sum adds its cells
row by row; T adds each row's sum less its non-coprime sum, row by row.
For real integer-valued f with w_K * sum |f| < 2^52 over the classes, the
sum over the elements, such as the builtins one, moebius, tau and
prime_indicator and their convolutions, every partial sum is an exact
integer in float64, in any order.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .arith import ArithFn, _mass, convolve
from .characters import DEFAULT_MODULUS_GUARD, DirichletCharacter, Modulus
from .errors import BoundsTooLarge, EmptyModulusRange, RingMismatch, TableTooSmall
from .regions import (
    DEFAULT_GUARD,
    NormRegion,
    a0,
    canonical_classes,
    class_arrays,
    class_index,
    count_region,
    element_arrays,
)
from .rings import (
    AlgInt, RingDescriptor, _in_canonical_sector, divide_exact, make_ring, norm_xy,
)
from .sieve import sieve_primes


def _moduli(ring: RingDescriptor, lo: float, cap: float, name: str) -> Iterator[Modulus]:
    """The Modulus of each canonical class with max(lo, 1) < norm <= cap, in (norm, x, y) order.

    BoundsTooLarge at the call, before any Modulus, unless each has norm <= the
    guard; the moduli are then built lazily, one at a time.
    """
    g = max(DEFAULT_MODULUS_GUARD, math.floor(lo))
    # the rational integer isqrt(g) + 1 has norm above g: look no further; a
    # window past the region guard cannot be counted, and is refused uncounted
    hi = min(cap, (math.isqrt(g) + 1) ** 2)
    if hi >= g + 1 and (hi > DEFAULT_GUARD or count_region(NormRegion(ring, g + 1, int(hi)))):
        raise BoundsTooLarge(f"{name} = {cap!r} holds a modulus of norm > {DEFAULT_MODULUS_GUARD}")
    classes = canonical_classes(ring, int(min(cap, DEFAULT_MODULUS_GUARD)))
    return (Modulus(ring, q) for q in classes if q.norm() > max(lo, 1))


def _fvals(f: ArithFn, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """f at the canonical representative of each element, as complex128."""
    return f.vals[class_index(f.ring, f.norm_bound, xs, ys)]


def _rids(m: Modulus, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    return m.rid_xy(xs, ys)


def _coprime_index(m: Modulus) -> np.ndarray:
    return m.coprime_index


def _a0_values(f: ArithFn, n: float) -> tuple[np.ndarray, ...]:
    """(xs, ys, norms, f values) of the elements of A0(N), N > 0, sorted by (norm, x, y)."""
    hi = a0(f.ring, n).hi_sq
    if hi > f.norm_bound:
        raise TableTooSmall(f"N^2 = {hi} beyond table {f.norm_bound}")
    xs, ys, norms = element_arrays(f.ring.d, 1, hi)
    return xs, ys, norms, _fvals(f, xs, ys)


# Cells of one (orbit x row) block of the sweep: bounds its working
# memory to a few hundred kB whatever the modulus and N.  Each block costs a
# fixed number of numpy calls, so at paper scale, where moebius makes nearly
# every norm a breakpoint, larger blocks pay.
_SWEEP_BLOCK = 1 << 14


class _Levels(NamedTuple):
    """One function's sweep rows (`_levels`): what does not depend on the modulus.

    ``level`` and each plane of ``w`` hold one entry per canonical class with
    f != 0, in (norm, x, y) order; ``norms`` and each plane of ``row_w`` one
    per row and ``bounds`` one more.
    """

    nz: np.ndarray | slice  # the nonzero classes; all of them: slice(None)
    norms: np.ndarray  # row norms: the distinct norms of the nonzero classes, increasing
    bounds: np.ndarray  # row b holds the classes bounds[b]:bounds[b + 1]
    level: np.ndarray  # each class's row
    exact: bool  # every sum of the sweep is an exact integer
    w: list[np.ndarray]  # f's real part as float64, then its imaginary part unless all zero
    row_w: list[np.ndarray]  # each row's sum of each plane of w, in class order


def _levels(norms: np.ndarray, fv: np.ndarray, w_K: int) -> _Levels:
    """The rows of f's sweep: one per distinct norm of a canonical class with f != 0.

    BoundsTooLarge unless w_K * sum |re f| + |im f| over the classes, the sum
    over the elements, is below 2^510 (NaN and inf fail too): every orbit sum
    and T / phi is then at most that, so |eps| < 2^511 and |eps|^2 < 2^1022
    stay finite.  Exact when f is real and integer with that sum below 2^52:
    every partial sum is then an exact integer in float64, in any order.
    """
    nz = fv != 0
    nz = slice(None) if nz.all() else np.flatnonzero(nz)  # a slice keeps views
    va, lvn = fv[nz], norms[nz]
    if not (mass := w_K * _mass(va)) < 2.0**510:
        raise BoundsTooLarge(f"w_K * sum of |f| over the swept classes is {mass!r}: need < 2^510")
    new_level = np.ones(lvn.size, dtype=bool)
    np.not_equal(lvn[1:], lvn[:-1], out=new_level[1:])
    starts = np.flatnonzero(new_level)
    level = np.cumsum(new_level) - 1
    # -0.0 imaginary parts too: a sum from +0.0 never turns -0.0
    real = not va.imag.any()
    w = [a.astype(np.float64) for a in ((va.real,) if real else (va.real, va.imag))]
    exact = real and mass < 2**52 and np.array_equal(w[0], np.rint(w[0]))
    return _Levels(
        nz, lvn[starts], np.append(starts, lvn.size), level, exact,
        w, [np.bincount(level, p, starts.size) for p in w],
    )


class _SweepProfile(NamedTuple):
    """`_sweep_arrays`' result: row maxima, and what `_best_at` reads a row back from.

    ``row_sq`` and each plane of ``t`` hold one entry per row of ``lv``.
    ``vc`` is the unit orbit of each of f's nonzero classes, k for the dump
    class, and each plane of ``w`` s_R times their values.  ``starts[j]``
    holds each orbit's running sums, one array per plane, before block j of
    ``step`` rows; None when the sums are exact.
    """

    lv: _Levels
    row_sq: np.ndarray  # max over coprime classes of |eps|^2
    t: list[np.ndarray]  # running coprime total / phi, per plane
    vc: np.ndarray
    w: list[np.ndarray]
    starts: list[list[np.ndarray]] | None
    step: int


def _block_sums(
    lv: _Levels, vc: np.ndarray, w, k: int, b0: int, b1: int, start
) -> list[np.ndarray]:
    """Each orbit's running sums at rows b0 until b1, per plane of w, from start's.

    A (orbit, row) cell sums its weights from 0 in class order, one weighted
    ``bincount`` per plane with the dump class k dropped; each orbit's
    running sum then adds its cells row by row, one ``cumsum``.
    """
    r = b1 - b0
    e0, e1 = lv.bounds[b0], lv.bounds[b1]
    cells = vc[e0:e1] * r + (lv.level[e0:e1] - b0)
    out = []
    for wp, s in zip(w, start):
        acc = np.bincount(cells, wp[e0:e1], (k + 1) * r).reshape(k + 1, r)[:k]
        acc[:, 0] += s
        out.append(np.cumsum(acc, axis=1, out=acc))
    return out


def _sweep_arrays(m: Modulus, xs, ys, norms, fv) -> _SweepProfile:
    """The sweep's profile: per row, the max over coprime classes of |eps|^2.

    The arguments are f's canonical classes and its values there; any other
    element is a ValueError, as the sweep would read it as its w_K
    associates.  The rows are f's (`_levels`), whatever q is.  Inside
    `_scan` they come from the table it builds once per function and cut
    before the pool forks (``_SWEEP_CTX["levels"]``, keyed by ``id(fv)`` and
    confirmed with ``is``); any other fv builds its own.  Per modulus only
    each class's sweep class, T and the blocks are computed.  The sweep
    classes are the k unit orbits (module docstring); classes not coprime to
    q go to a dump class k, which the blocks drop, and so does every class
    when one orbit holds every coprime class (phi 1 among them): eps is 0.
    Per row b, orbit R and plane, eps = A[b, R] - T[b] / phi: A is R's
    running sum of its cells (`_block_sums`), T w_K times the running sum of
    each row's sum less its non-coprime sum.  A row with no coprime class
    adds +0.0 to sums that start at +0.0 and never turn -0.0, so it repeats
    the row before it bit for bit.  All are prefix sums, so the sweep of the
    elements of norm <= h is the maximum over the rows of norm <= h;
    `_best_at` finds the first row that attains it and only there reads back
    its first class and eps.  Blocks of at most ``_SWEEP_BLOCK`` cells are
    laid out orbit-major, (orbit, row), so each block's running sums are one
    ``cumsum`` along contiguous rows; unless the sums are exact, the running
    sums before each block are kept for the readback.  For real f eps.imag
    is +0.0, as a complex sum would give.
    """
    hit = _SWEEP_CTX.get("levels", {}).get(id(fv))
    if hit is not None and hit[0] is fv:
        lv = hit[1]
    else:
        if not _in_canonical_sector(m.ring, xs, ys).all():
            raise ValueError("f is swept on canonical classes, got other elements")
        lv = _levels(norms, fv, m.ring.w_K)
    phi, nb, level = m.phi, lv.norms.size, lv.level
    orbit, keys, stab = m.unit_orbits
    k = keys.size
    # rid -> unit orbit, and the dump class k off the unit group (everywhere for one orbit)
    to = np.append(orbit, k)[_coprime_index(m)] if k > 1 else np.full(m.norm, k)
    vc = to[_rids(m, xs[lv.nz], ys[lv.nz])]
    # a row's coprime sum is its sum less its non-coprime sum
    nc = np.flatnonzero(vc == k)
    t = [
        m.ring.w_K * np.cumsum(rw - np.bincount(level[nc], p[nc], nb)) / phi
        for p, rw in zip(lv.w, lv.row_w)
    ]
    s_R = np.append(stab, 0)[vc]
    w = [p * s_R for p in lv.w]
    step = max(1, _SWEEP_BLOCK // k)
    starts = None if lv.exact else []
    end = [np.zeros(k) for _ in w]  # each orbit's running sums before the block, per plane
    row_sq = np.empty(nb)
    for b0 in range(0, nb, step):
        b1 = min(b0 + step, nb)
        if starts is not None:
            starts.append(end)
        acc, *im = sums = _block_sums(lv, vc, w, k, b0, b1, end)
        end = [a[:, -1].copy() for a in sums]
        acc -= t[0][b0:b1]
        acc *= acc  # plain multiplies; exact for integer-valued f
        for di in im:
            di -= t[1][b0:b1]
            di *= di
            acc += di
        acc.max(axis=0, out=row_sq[b0:b1])
    return _SweepProfile(lv, row_sq, t, vc, w, starts, step)


def _replay(p: _SweepProfile, i: int, k: int) -> list[np.ndarray]:
    """Each orbit's running sums at row i, per plane: its block again from the saved start."""
    b0 = i - i % p.step
    return [a[:, -1] for a in _block_sums(p.lv, p.vc, p.w, k, b0, i + 1, p.starts[i // p.step])]


def _best_at(m: Modulus, p: _SweepProfile, cuts) -> list[ModulusRecord]:
    """The sweep of the elements of norm <= h, for each cut h, read off the profile.

    Each record sits at the first row of norm <= h that attains their
    largest |eps|^2, at that row's first class; it is the empty record
    (argmax_norm 0) when that maximum is not > 0.  Only that row's orbit
    sums are rebuilt, with the block loop's own arithmetic, so the row's
    |eps|^2 comes out bit for bit: exact sums are one ``bincount`` over the
    classes up to the row, in any order; others replay the row's block from
    the running sums saved at its start (`_replay`), each cell from 0 in
    class order, up to the row.  Its first argmax is the first orbit that
    attains it, and that orbit's key, its smallest class, is the first class
    that does.
    """
    top = np.maximum.accumulate(p.row_sq)  # prefix maxima, nondecreasing
    q = (m.q.x, m.q.y, m.norm, m.phi)
    gx, gy = m.rid_coords(m.unit_rids[0])
    keys = m.unit_orbits[1]
    k = keys.size
    out = []
    for n in np.searchsorted(p.lv.norms, cuts, side="right").tolist():
        if n == 0 or not top[n - 1] > 0.0:
            out.append(ModulusRecord(*q, 0.0, 0j, 0, gx, gy))
            continue
        i = int(np.searchsorted(top, top[n - 1]))  # where the prefix max first appears
        if p.starts is None:
            e = p.lv.bounds[i + 1]
            a = [np.bincount(p.vc[:e], w[:e], k + 1)[:k] for w in p.w]  # the dump class goes
        else:
            a = _replay(p, i, k)
        dr, di = a[0] - p.t[0][i], np.zeros(k)
        sq = dr * dr
        if len(a) > 1:
            di = a[1] - p.t[1][i]
            sq += di * di
        j = int(sq.argmax())  # the first orbit: sq[j] is row_sq[i], bit for bit
        out.append(ModulusRecord(
            *q, math.sqrt(sq[j]), complex(dr[j], di[j]), int(p.lv.norms[i]),
            *m.rid_coords(m.unit_rids[int(keys[j])]),
        ))
    return out


# -- level-of-distribution scans -----------------------------------------


@dataclass(frozen=True)
class LodScanConfig:
    """Parameters of a scan: Q(N) = count(A0(N))^theta / (log N)^B."""

    d: int
    theta: float
    B: float
    N_grid: tuple[int, ...]

    def __post_init__(self):
        if not 0 < self.theta <= 1:
            raise ValueError("theta must lie in (0, 1]")
        if not 0 <= self.B < math.inf:
            raise ValueError("B must be finite and >= 0")
        grid = tuple(self.N_grid)
        object.__setattr__(self, "N_grid", grid)
        if any(n2 <= n1 for n1, n2 in zip(grid, grid[1:])) or not grid:
            raise ValueError("N_grid must be nonempty and strictly increasing")
        if min(grid) <= 1:
            raise ValueError("grid values must exceed 1")

    def q_bound(self, count: int, n: float) -> float:
        """Q(N); BoundsTooLarge when (log N)^B or Q leaves the float range."""
        try:
            q = count**self.theta / math.log(n) ** self.B
        except (OverflowError, ZeroDivisionError):
            q = math.inf
        if q == math.inf:
            raise BoundsTooLarge(f"(log N)^B leaves the float range at N={n}, B={self.B}")
        return q


@dataclass
class ModulusRecord:
    """One modulus's sweep of the elements of norm <= a cut (`_best_at`)."""

    q_x: int
    q_y: int
    q_norm: int
    phi: int
    max_abs: float
    max_eps: complex
    argmax_norm: int  # squared-norm breakpoint where the max is first attained
    gamma_x: int
    gamma_y: int


@dataclass
class LodTable:
    n: float
    q_bound: float
    count: int
    records: list[ModulusRecord] = field(default_factory=list)

    @property
    def degenerate(self) -> bool:  # no modulus has norm <= Q (each one that has, has a record)
        return not self.records

    @property
    def aggregate(self) -> float:
        return math.fsum(r.max_abs for r in self.records)

    @property
    def normalized(self) -> float:
        return self.aggregate / self.count if self.count else 0.0


_SWEEP_CTX: dict = {}


def _sweep_task(i: int) -> list[list[tuple[int, ModulusRecord]]]:
    m, ks, his = _SWEEP_CTX["moduli"][i], _SWEEP_CTX["admits"][i], _SWEEP_CTX["his"]
    out = []
    for prefixes in _SWEEP_CTX["fns"]:
        # one sweep to the largest grid N whose Q admits q; each such N reads
        # its record off the sweep's profile, as (grid index, record)
        sweep = _sweep_arrays(m, *prefixes[his[ks[-1]]])
        out.append(list(zip(ks, _best_at(m, sweep, [his[k] for k in ks]))))
        del sweep  # it holds per-argument arrays: free them before the next sweep
    return out


def _nonzero(xs, ys, norms, fv) -> tuple[np.ndarray, ...]:
    """The classes with f != 0; zeros never move eps."""
    nz = fv != 0
    return xs[nz], ys[nz], norms[nz], fv[nz]


def _upto(arrays: tuple[np.ndarray, ...], hi: int) -> tuple[np.ndarray, ...]:
    """Views of the prefix of norm <= hi of (xs, ys, norms, fv), sorted by norm."""
    cut = np.searchsorted(arrays[2], hi, side="right")
    return tuple(a[:cut] for a in arrays)


def _check_rings(cfg: LodScanConfig, fns: list[ArithFn]) -> None:
    """RingMismatch unless every function lives in the scan's ring d."""
    for f in fns:
        if f.ring.d != cfg.d:
            raise RingMismatch(f"d={f.ring.d} function in a d={cfg.d} scan")


def _scan(cfg: LodScanConfig, fns: list[ArithFn], workers: int) -> list[list[LodTable]]:
    """The E(N, Q) tables of each function, from one sweep per modulus and function.

    Moduli run over one canonical associate per class with 2 <= norm(q) <= Q,
    each built once, for the largest Q of the grid (Q need not grow with N).
    A modulus sweeps each function's canonical classes and ``f.vals`` up to
    the largest grid N whose Q admits it; each function's rows (`_levels`)
    are built once per such cut, before the pool forks, and every modulus
    with that cut reads them.
    Parallelism is across moduli, in one pool of at most one process per
    modulus (none for one); records are assembled in (norm, x, y) order
    regardless of worker count, so results are identical for any `workers`.
    """
    global _SWEEP_CTX
    _check_rings(cfg, fns)
    ring = make_ring(cfg.d)
    grid_a0 = [a0(ring, n) for n in cfg.N_grid]
    his = [r.hi_sq for r in grid_a0]  # increasing with N
    bound = min(f.norm_bound for f in fns)
    if bound < his[-1]:
        raise TableTooSmall(f"f covers norm {bound}, grid needs {his[-1]}")
    counts = [count_region(r) for r in grid_a0]
    q_bounds = [cfg.q_bound(cnt, n) for cnt, n in zip(counts, cfg.N_grid)]
    moduli = list(_moduli(ring, 1, max(q_bounds), "Q"))
    out = [[LodTable(*row) for row in zip(cfg.N_grid, q_bounds, counts)] for _ in fns]
    if not moduli:
        return out
    # the grid indices whose Q admits each modulus; the last one is its cut
    admits = [[k for k, qb in enumerate(q_bounds) if m.norm <= qb] for m in moduli]
    cuts = {his[ks[-1]] for ks in admits}
    fns_cut, levels = [], {}
    for f in fns:
        xs, ys, norms = class_arrays(ring, f.norm_bound)
        n = np.searchsorted(norms, his[-1], side="right")
        classes = _nonzero(xs[:n], ys[:n], norms[:n], f.vals[:n])
        prefixes = {}
        for hi in cuts:
            *_, cut_norms, cut_fv = prefixes[hi] = _upto(classes, hi)
            levels[id(cut_fv)] = (cut_fv, _levels(cut_norms, cut_fv, ring.w_K))
        fns_cut.append(prefixes)
    _SWEEP_CTX = {"moduli": moduli, "admits": admits, "his": his, "fns": fns_cut, "levels": levels}
    workers = min(workers, len(moduli))
    try:
        if workers > 1:
            # longest first, one modulus per task: a sweep costs about phi x its cut's elements
            cost = [m.phi * counts[ks[-1]] for m, ks in zip(moduli, admits)]
            order = sorted(range(len(moduli)), key=lambda i: -cost[i])
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                done = dict(zip(order, pool.map(_sweep_task, order, chunksize=1)))
            results = [done[i] for i in range(len(moduli))]
        else:
            results = [_sweep_task(i) for i in range(len(moduli))]
    finally:
        _SWEEP_CTX = {}
    for per_fn in results:
        for tables, res in zip(out, per_fn):
            for k, rec in res:
                tables[k].records.append(rec)
    return out


def lod_scan(cfg: LodScanConfig, f: ArithFn, workers: int = 1) -> list[LodTable]:
    """Run the modulus sweep for every N in the grid and aggregate E(N, Q)."""
    return _scan(cfg, [f], workers)[0]


# -- Siegel-Walfisz sums ---------------------------------------------------


def sw_term(
    fv: np.ndarray,
    cid: np.ndarray,
    chi: DirichletCharacter,
    nz: np.ndarray | None = None,
    buf: np.ndarray | None = None,
) -> complex:
    """sum of fv * chi over the elements, in element order.

    cid is each element's coprime class index (-1 off the unit group); the
    value table has a trailing 0j slot, so -1 picks 0j.  Without nz, fv and
    cid cover every element.  With nz, they cover only the elements at the
    positions nz: their products go to those positions of buf, which holds
    +0 everywhere else, and the sum runs over all of buf.
    """
    m = chi.modulus
    table = np.append(m.circle[chi.phases[m.unit_rids]], 0j)
    if nz is None:
        return complex((fv * table[cid]).sum())
    buf[nz] = fv * table[cid]
    return complex(buf.sum())


@dataclass
class SWReport:
    n: float
    d_power: float
    bound_power: float
    modulus_cap: float
    rows: list[dict]
    max_scaled: float


def sw_check(
    f: ArithFn, n: float, d_power: float, bound_power: float | None = None
) -> SWReport:
    """Scan all moduli of norm <= (log N)^D and all non-principal characters.

    The scaled column is |sum| * (log N)^bound_power / |A0(N)|; bound_power
    defaults to 3*D but both exponents are independent knobs.  f is read
    once, and each modulus reduces f's elements once for all its characters.
    Each twisted sum is numpy's pairwise `.sum()` over |A0(N)| products in
    (norm, x, y) order.  When at most half of f's values are nonzero, only
    f's support is reduced and multiplied; its products are scattered into
    one buffer that holds +0 elsewhere.  The sum tree is the same as over all
    products, and a slot where f is zero adds +0 in place of +0 or -0, so
    only the sign of an exactly-zero part of the sum can differ and |sum|
    keeps every bit.  A denser f multiplies every element, which is faster.
    BoundsTooLarge unless M * max(1, (log N)^bound_power) < 2^1022, M the
    `_mass` of f over A0(N): every partial sum and scaled value is at most that.
    """
    if not n > 1:
        raise ValueError(f"N must exceed 1, got {n}")
    if bound_power is None:
        bound_power = 3.0 * d_power
    ring = f.ring
    xs, ys, _, fv = _a0_values(f, n)
    try:
        cap, log_power = math.log(n) ** d_power, math.log(n) ** bound_power
    except OverflowError:
        raise BoundsTooLarge(
            f"(log N)^D or (log N)^bound_power overflows a float at N={n}"
        ) from None
    moduli = _moduli(ring, 1, cap, "(log N)^D")
    if not (mass := _mass(fv) * max(1.0, log_power)) < 2.0**1022:
        raise BoundsTooLarge(
            f"sum of |f| over A0(N) times (log N)^bound_power is {mass!r}: need < 2^1022"
        )
    cnt = len(xs)
    nz = buf = None
    if 2 * np.count_nonzero(fv) <= cnt:  # sparse f: its support only
        nz = np.flatnonzero(fv)
        xs, ys, fv = xs[nz], ys[nz], fv[nz]
        buf = np.zeros(cnt, dtype=np.complex128)
    rows = []
    max_scaled = 0.0
    for m in moduli:
        cid = _coprime_index(m)[_rids(m, xs, ys)]
        for chi in m.characters:
            if chi.is_principal:
                continue
            s = sw_term(fv, cid, chi, nz, buf)
            scaled = abs(s) * log_power / cnt
            rows.append(
                {
                    "q_x": m.q.x, "q_y": m.q.y, "q_norm": m.norm,
                    "exponents": chi.exponents,
                    "abs_sum": abs(s), "scaled": scaled,
                }
            )
            max_scaled = max(max_scaled, scaled)
    return SWReport(n, d_power, bound_power, cap, rows, max_scaled)


# -- convolution experiment ------------------------------------------------


@dataclass
class ConvolutionReport:
    rows: list[dict]
    decaying: dict[str, bool]


def convolution_experiment(
    f: ArithFn, g: ArithFn, cfg: LodScanConfig, workers: int = 1
) -> ConvolutionReport:
    """Side-by-side normalized E(N, Q) for f, g and f*g on one grid."""
    _check_rings(cfg, [f, g])
    h = convolve(f, g)
    scans = _scan(cfg, [f, h] if g is f else [f, g, h], workers)
    rows = [
        {"N": tf.n, "E_f_norm": tf.normalized,
         "E_g_norm": tg.normalized, "E_conv_norm": th.normalized}
        for tf, tg, th in zip(scans[0], scans[-2], scans[-1])  # g is f: scans[-2] is f's
    ]
    decaying = {
        key: all(a[key] > b[key] for a, b in zip(rows, rows[1:]))
        for key in ("E_f_norm", "E_g_norm", "E_conv_norm")
    }
    return ConvolutionReport(rows, decaying)


# -- large sieve -----------------------------------------------------------


@dataclass(frozen=True)
class _Lanes:
    """Coefficient rows packed `lanes` to a float64, exactly (`_pack_lanes`).

    rows is (groups, n); lane j of group g is vector g * lanes + j, with
    weight 2^(bits * j) for bits = 53 // lanes.  With lanes 1 the rows are
    the coefficient rows themselves.
    """

    rows: np.ndarray
    lanes: int
    n_vec: int

    @property
    def bits(self) -> int:
        return 53 // self.lanes


def _coeff_bounds(coeffs: np.ndarray) -> tuple[float, float, bool]:
    """(A, amax, integer): the largest sum of |c| over one vector, the largest
    |c|, and whether every c is an integer.
    """
    a = amax = 0.0
    integer = True
    for row in coeffs:
        integer = integer and np.array_equal(row, np.rint(row))
        mag = np.abs(row)
        with np.errstate(over="ignore"):  # a sum past the float range is inf
            a = max(a, float(mag.sum()))
        amax = max(amax, float(mag.max(initial=0.0)))
    return a, amax, integer


def _lanes_for(a: float) -> int:
    """53 // (2a).bit_length() lanes (`_pack_lanes`), and 1 for inf or past 2^25."""
    if not math.isfinite(a):
        return 1
    return max(53 // max((2 * int(a)).bit_length(), 1), 1)


def _pack_lanes(coeffs: np.ndarray, lanes: int, buf: np.ndarray | None = None) -> _Lanes:
    """Pack the rows of coeffs (n_vec, n) `lanes` to a float64, b = 53 // lanes bits apart.

    Each packed row is sum_j c_j * 2^(b j) over L = lanes vectors: balanced
    base-2^b digits.  If every partial class sum of a vector lies in [-a, a]
    and L <= `_lanes_for(a)`, then 2a < 2^b and bL <= 53, so every partial
    sum of a packed row has magnitude at most a (2^(bL) - 1) / (2^b - 1) <
    2^52 and every lower-lane remainder is below half a unit of the lane
    above: float64 holds those integers exactly, so packing, folding and
    decoding are exact in any order.  With lanes 1 the rows are coeffs
    itself.  Packs in place (Horner, top lane first) into buf, (groups or
    more, n), when given.
    """
    if lanes == 1:
        return _Lanes(coeffs, 1, len(coeffs))
    groups = -(-len(coeffs) // lanes)
    out = (np.empty((groups, coeffs.shape[1])) if buf is None else buf)[:groups]
    out.fill(0.0)
    scale = 2.0 ** (53 // lanes)
    for j in reversed(range(lanes)):
        out *= scale
        lane = coeffs[j::lanes]
        out[: len(lane)] += lane
    return _Lanes(out, lanes, len(coeffs))


def _fold_classes(pack: _Lanes, cid: np.ndarray, phi: int) -> np.ndarray:
    """(n_vec, phi) sums of each coefficient row over the bins 0 .. phi - 1.

    cid is each element's bin, < 0 to drop it (`large_sieve_ratios` passes
    residues mod q, phi = N(q), and drops none).  Each packed row takes one
    bincount, which adds a bin's weights one at a time in element order:
    with one lane every bin sum is a left-to-right sum.  Bins never
    interact, so with L lanes the bin sums are exact integers as long as
    each bin's own partial sums fit the lanes (`_pack_lanes`); that is what
    the left-to-right sum of integer coefficients gives too, so the bits
    match.  The digits decode top lane first, d = rint(W / 2^(bj)) and
    W -= d * 2^(bj), and + 0.0 turns rint's -0.0 into the 0.0 a sum gives.
    Dropped elements go to the sentinel bin phi, which is thrown away and
    need not be exact.  With one lane each bincount goes straight into the
    result.
    """
    key = np.where(cid < 0, phi, cid)
    groups = len(pack.rows)
    folded = np.zeros((groups * pack.lanes, phi))
    w = folded if pack.lanes == 1 else np.empty((groups, phi))
    for g, row in enumerate(pack.rows):
        w[g] = np.bincount(key, weights=row, minlength=phi + 1)[:phi]
    if pack.lanes > 1:
        digits = folded.reshape(groups, pack.lanes, phi)
        for j in reversed(range(1, pack.lanes)):
            scale = 2.0 ** (pack.bits * j)
            d = np.rint(w / scale)
            w -= d * scale
            digits[:, j] = d + 0.0
        digits[:, 0] = w
    return folded[: pack.n_vec]


def _refold(sums: np.ndarray, m: Modulus, child: Modulus) -> np.ndarray:
    """(n_vec, N(child)) residue sums mod child | q, from sums (n_vec, N(q)) mod q.

    One bincount over (vector, child residue) keys, in residue order: exact
    for the integer sums of magnitude < 2^53 that `large_sieve_ratios` passes.
    """
    key = child.rid_xy(*m.rid_coords(np.arange(m.norm)))
    flat = (np.arange(len(sums))[:, None] * child.norm + key).ravel()
    out = np.bincount(flat, weights=sums.ravel(), minlength=len(sums) * child.norm)
    return out.reshape(-1, child.norm)


def _has_primitive(m: Modulus) -> bool:
    """Whether some character mod q is primitive.

    Their number is the product of phi(pi^e) - phi(pi^(e-1)) over pi^e || q,
    which is 0 exactly when a norm-2 prime divides q once.
    """
    return all(e > 1 or pi.norm() != 2 for pi, e in m.factorization.factors)


def _primitive_part(m: Modulus, folded: np.ndarray) -> np.ndarray:
    """Project each row of class sums onto the span of the primitive characters mod q.

    The characters that factor through q/pi span the functions constant on
    the cosets of K_pi, the kernel of (O/q)^* -> (O/(q/pi))^*; the primitive
    ones span what is orthogonal to all of them.  So for each prime pi | q in
    turn, every class sum loses the mean of its K_pi coset: the coset's total
    (one bincount over (vector, class mod q/pi), in class order)
    over k = |K_pi| = phi(q)/phi(q/pi), which is N(pi) - 1 when pi divides q
    once and N(pi) otherwise.  By Parseval on (O/q)^*, the squared primitive
    character sums of a row add up to phi(q) times its projection's squared
    norm.  Works in place on folded, (n_vec, phi) in unit_rids order, once it
    is C-ordered float64, so a row sum over the result keeps its bits
    whatever layout (or empty int64 bincount) folded came as.
    """
    folded = np.ascontiguousarray(folded, dtype=np.float64)
    ux, uy = m.rid_coords(np.array(m.unit_rids, dtype=np.int64))
    rows = np.arange(len(folded))[:, None]
    for pi, e in m.factorization.factors:
        qp = divide_exact(m.q, pi)
        if qp.is_unit():
            key, size = np.zeros(m.phi, dtype=np.int64), 1
        else:
            mp = Modulus(m.ring, qp)
            key, size = mp.rid_xy(ux, uy), mp.norm
        k = pi.norm() - 1 if e == 1 else pi.norm()
        flat = (rows * size + key).ravel()
        sums = np.bincount(flat, weights=folded.ravel(), minlength=len(folded) * size)
        folded -= sums.reshape(-1, size)[:, key] / k
    return folded


def large_sieve_ratios(
    coeff_matrix: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    q1: float,
    q2: float,
    region: NormRegion,
) -> list[tuple[float, float, float]]:
    """(lhs, rhs, ratio) per coefficient vector over the elements (xs, ys).

    The large sieve with the 1/x weight: lhs sums (1/phi(q)) times the
    squared primitive character sums, rhs = (|R|/Q1 + Q2) * sum c^2 for |R|
    the count of the region (|A0(N)| for ``a0(ring, N)``).
    No character is built: each modulus's class sums are projected onto its
    primitive characters (`_primitive_part`), and phi(q) times the projection's
    squared norm is the sum of the squared primitive character sums.  The
    coefficients are summed as float64 in a fixed order with no BLAS.  The
    moduli with a primitive character form a divisor tree, visited depth
    first: q's parent is its first multiple later in the walk.  Only a root
    folds the elements, onto all N(q) residues (`_fold_classes`); a child
    adds up its parent's residue sums (`_refold`).  The tree is built only
    when every coefficient is an integer and A < 2^53, for A the largest
    sum |c| of a vector: every partial residue sum is then an integer of
    magnitude at most A, exact in any order, so the bits are those of a fold
    from the elements.  Otherwise every modulus is a root, with
    left-to-right class sums.  Integer coefficients pack several vectors to
    a bincount (`_pack_lanes`) with the bits of one per vector: a root
    packs as many as min(A, amax * cmax) allows (`_lanes_for`), for amax
    the largest |c| and cmax the largest residue count (every residue sum
    may feed a child, so all must be exact), at least as many as A alone;
    the rows are repacked, into one buffer, only when that count changes.
    Each modulus's row sums of squares add to lhs in walk order.
    coeff_matrix is real and finite, (vectors, len(xs)) or one
    vector of len(xs); anything else is a ValueError.  Before any modulus,
    A must be below 2^500 and (|R|/Q1 + Q2) times the largest sum c^2
    finite, else BoundsTooLarge: a modulus's squared class sums then add up
    to at most A^2 < 2^1000, so every lhs stays finite too.
    """
    if not q1 > 0:
        raise ValueError(f"Q1 must be positive, got {q1}")
    if not q1 < q2:
        raise EmptyModulusRange(f"need Q1 < Q2, got {q1} >= {q2}")
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError(f"coordinate arrays of shapes {xs.shape} and {ys.shape}: need equal 1-D")
    n = len(xs)
    if np.iscomplexobj(coeff_matrix):
        raise ValueError("coefficients must be real, got a complex array")
    coeff_matrix = np.asarray(coeff_matrix, dtype=np.float64)
    if coeff_matrix.ndim == 1:
        coeff_matrix = coeff_matrix[None, :]
    if coeff_matrix.ndim != 2 or coeff_matrix.shape[1] != n:
        raise ValueError(
            f"coefficient matrix of shape {coeff_matrix.shape} does not match "
            f"{n} elements: need (vectors, {n})"
        )
    if not np.isfinite(coeff_matrix).all():
        raise ValueError("coefficients must be finite")
    ring = region.ring
    # int64 norms are exact while every coordinate is at most 2^26 (norms up to
    # about 2^58); support past that has norm above 2^51 and counts as outside
    norms = norm_xy(ring, xs, ys)
    outside = (norms < max(region.lo_sq, 1)) | (norms > region.hi_sq)
    outside |= np.maximum(np.abs(xs), np.abs(ys)) > 1 << 26
    if outside.any():
        i = np.argmax(outside)
        z = AlgInt(ring, int(xs[i]), int(ys[i]))
        raise ValueError(f"coefficient support {z} outside the region")
    n_vec = coeff_matrix.shape[0]
    a, amax, integer = _coeff_bounds(coeff_matrix)
    if not a < 2.0**500:
        raise BoundsTooLarge(f"a coefficient vector's sum of |c| is {a!r}: need < 2^500")
    c_sq = (coeff_matrix**2).sum(axis=1)  # before packing: lower peak RSS
    rhs_factor = count_region(region) / q1 + q2
    if not math.isfinite(rhs_factor * float(c_sq.max(initial=0.0))):
        raise BoundsTooLarge(f"rhs = (|A0(N)|/Q1 + Q2) * sum c^2 overflows at Q1={q1}, Q2={q2}")
    moduli = [m for m in _moduli(ring, q1, q2, "Q2") if _has_primitive(m)]
    # the divisor tree, on exact sums only: q's parent is its first multiple later on
    exact = integer and a < 2.0**53
    qnorms = np.array([m.norm for m in moduli], dtype=np.int64)
    children: list[list[int]] = [[] for _ in moduli]
    roots = []
    for i, m in enumerate(moduli):
        later = (np.flatnonzero(qnorms[i + 1:] % m.norm == 0) + i + 1).tolist() if exact else []
        parent = next((j for j in later if m.rid_xy(moduli[j].q.x, moduli[j].q.y) == 0), None)
        (roots if parent is None else children[parent]).append(i)
    sq: list[np.ndarray | None] = [None] * len(moduli)

    def visit(i: int, sums: np.ndarray) -> None:
        m = moduli[i]
        prim = _primitive_part(m, sums.take(m.unit_rids, axis=1))
        sq[i] = (prim * prim).sum(axis=1)  # the 1/phi(q) cancels
        for c in children[i]:
            visit(c, _refold(sums, m, moduli[c]))

    lanes = _lanes_for(a) if integer else 1  # no root takes fewer
    pack = _pack_lanes(coeff_matrix, 1)
    buf = np.empty((-(-n_vec // lanes), n)) if lanes > 1 else None
    for i in roots:
        m = moduli[i]
        rid = _rids(m, xs, ys)
        if buf is not None:
            cmax = int(np.bincount(rid).max(initial=0))
            lanes_q = _lanes_for(min(a, amax * cmax))
            if lanes_q != pack.lanes:
                pack = _pack_lanes(coeff_matrix, lanes_q, buf)
        visit(i, _fold_classes(pack, rid, m.norm))
    lhs = np.zeros(n_vec)
    for row_sq in sq:
        lhs += row_sq
    out = []
    for i in range(n_vec):
        rhs = rhs_factor * float(c_sq[i])
        l = float(lhs[i])
        out.append((l, rhs, l / rhs if rhs > 0 else 0.0))
    return out


# -- Mertens sums ----------------------------------------------------------


@dataclass
class MertensReport:
    r: int
    ideal_sum: float
    prime_sum: float
    ideal_ratio: float
    prime_ratio: float


def mertens_sums(ring: RingDescriptor, r: int) -> MertensReport:
    """sum 1/norm over ideal classes and prime classes of norm <= R.

    R = 2 is allowed (its log-log ratio is negative and only the sums are
    meaningful there).
    """
    if r < 2:
        raise ValueError("R must be >= 2")
    ideal_sum = math.fsum((1.0 / class_arrays(ring, r)[2]).tolist())
    prime_sum = math.fsum((1.0 / sieve_primes(ring, r).norms).tolist())
    return MertensReport(
        r,
        ideal_sum,
        prime_sum,
        ideal_sum / math.log(r),
        prime_sum / math.log(math.log(r)),
    )


# -- CSV emission ----------------------------------------------------------


def write_lod_csv(tables: list[LodTable], path, config_line: str = "") -> None:
    """Per-modulus rows plus one aggregate row per N, under config_line."""
    with open(path, "w", newline="") as fh:
        fh.write(config_line)
        fh.write(
            "N,Q,q_x,q_y,q_norm,phi,max_eps_re,max_eps_im,max_eps_abs,"
            "argmax_M,argmax_gamma_x,argmax_gamma_y\n"
        )
        for tab in tables:
            for rec in tab.records:
                fh.write(
                    f"{repr(float(tab.n))},{repr(tab.q_bound)},{rec.q_x},{rec.q_y},"
                    f"{rec.q_norm},{rec.phi},{repr(rec.max_eps.real)},"
                    f"{repr(rec.max_eps.imag)},{repr(rec.max_abs)},"
                    f"{repr(math.sqrt(rec.argmax_norm))},{rec.gamma_x},{rec.gamma_y}\n"
                )
            fh.write(
                f"{repr(float(tab.n))},{repr(tab.q_bound)},,,aggregate,{tab.count},,,"
                f"{repr(tab.aggregate)},,,\n"
            )


def write_conv_csv(report: ConvolutionReport, path, config_line: str = "") -> None:
    """One row of normalized errors per N, under config_line."""
    with open(path, "w", newline="") as fh:
        fh.write(config_line)
        fh.write("N,E_f_norm,E_g_norm,E_conv_norm\n")
        for row in report.rows:
            fh.write(
                f"{repr(float(row['N']))},{repr(row['E_f_norm'])},"
                f"{repr(row['E_g_norm'])},{repr(row['E_conv_norm'])}\n"
            )
