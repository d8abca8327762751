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

The sweep evaluates a bounded (class x breakpoint) block per numpy call and
keeps only each breakpoint's maximum over the classes; the first class and
eps are read back at the one breakpoint a cut picks.  Every float sum keeps
one fixed order, which is what keeps artifacts byte
for byte stable: each class's running sum adds its elements one at a time in
(norm, x, y) order; each breakpoint's new elements are summed with numpy's
``.sum()``; the running coprime total adds those level sums one at a time.
The one exception is real integer-valued f with sum |f| < 2^52, such as the
builtins one, moebius, tau and prime_indicator and their convolutions: every
partial sum is then an integer below 2^52, which float64 holds exactly, so
any order of summation gives the same bits and the sweep sums per cell.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .arith import ArithFn, convolve
from .characters import DirichletCharacter, Modulus
from .errors import (
    BoundsTooLarge,
    EmptyModulusRange,
    TableTooSmall,
    UnsupportedWeight,
)
from .regions import (
    NormRegion,
    a0,
    canonical_classes,
    class_arrays,
    class_index,
    count_region,
    element_arrays,
)
from .rings import AlgInt, RingDescriptor, divide_exact, make_ring, norm_xy
from .sieve import sieve_primes


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


@dataclass
class SweepResult:
    max_abs: float
    max_eps: complex
    argmax_norm: int  # squared-norm breakpoint where the max is first attained
    gamma_x: int
    gamma_y: int


# Cells of one (class x breakpoint) block of the sweep: bounds its working
# memory to a few hundred kB whatever the modulus and N.  Each block costs a
# fixed number of numpy calls, so at paper scale, where moebius makes nearly
# every norm a breakpoint, larger blocks pay.
_SWEEP_BLOCK = 1 << 14


def _level_sums(va: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``va[s:s + n].sum()`` for every level, one reduction per distinct size n.

    ``.sum(axis=1)`` of a C-contiguous (levels x n) block runs the same
    pairwise kernel on each row as ``.sum()`` on the row alone, so the bits
    agree; ``np.add.reduceat`` sums sequentially and does not.
    """
    out = np.empty(starts.size, dtype=va.dtype)
    for n in np.flatnonzero(np.bincount(sizes)).tolist():
        sel = np.flatnonzero(sizes == n)
        out[sel] = va[starts[sel, None] + np.arange(n)].sum(axis=1)
    return out


def _class_running_sums(va: np.ndarray, vc: np.ndarray, phi: int) -> np.ndarray:
    """Row c: 0, then the running sums of class c's values in element order.

    Each row is one sequential ``cumsum``, the order ``np.add.at`` adds in.
    A residue class holds about 1/norm(q) of the elements of A0(N), so the
    padded (phi x largest class count) array has at most about |A0(N)|
    cells, whatever f is.
    """
    # the narrowest unsigned type: numpy radix-sorts up to 16 bits, stably
    order = np.argsort(vc.astype(np.min_scalar_type(phi - 1)), kind="stable")
    counts = np.bincount(vc, minlength=phi)
    first = np.cumsum(counts) - counts
    cs = vc[order]
    pad = np.zeros((phi, int(counts.max()) + 1), dtype=va.dtype)
    pad[cs, np.arange(cs.size) - first[cs] + 1] = va[order]
    return np.cumsum(pad, axis=1)


class _SweepProfile(NamedTuple):
    """`_sweep_arrays`' result: row maxima, and what `_best_at` reads a row back from.

    ``norms`` to ``t_im`` hold one entry per breakpoint.  ``vc`` is the
    class of each swept element; ``w`` their values on the exact path, else
    None; ``sums`` the class running sums (`_class_running_sums`) on the
    general path, else None.
    """

    norms: np.ndarray  # breakpoint norms, increasing
    row_sq: np.ndarray  # max over coprime classes of |eps|^2
    ends: np.ndarray  # swept elements of norm <= the breakpoint
    t_re: np.ndarray  # running coprime total / phi, real part
    t_im: np.ndarray | None  # its imaginary part; None when f is real
    vc: np.ndarray
    w: np.ndarray | None
    sums: np.ndarray | None


def _sweep_arrays(m: Modulus, xs, ys, norms, fv) -> _SweepProfile:
    """The sweep's profile: per breakpoint, the max over coprime classes of |eps|^2.

    One entry per distinct norm of an element with a nonzero coprime value,
    in increasing norm; all empty when phi is 1 or no such element exists.
    Per breakpoint b and class c, eps = A[b, c] - T[b] / phi, where A is the
    running sum of class c and T the running coprime total.  The float sums
    keep the order of a per-breakpoint loop, so every entry is bit-identical
    to it for any f: A[b, c] is read from each class's sequential running
    sums at the class's element count after b; T is a sequential running sum
    of per-breakpoint ``.sum()`` values.  All are prefix sums, so the sweep of
    the elements of norm <= h is the maximum over the breakpoints of
    norm <= h; `_best_at` finds that row and only there reads back its first
    class and eps.  Blocks of at most ``_SWEEP_BLOCK`` cells are laid out
    class-major, (class, breakpoint), so each block's running sums are one
    ``cumsum`` along contiguous rows.  When every imaginary part is zero the
    class sums and squares run on the real plane alone (eps.imag is then
    +0.0, as the complex sums give); the level sums stay complex128 whatever
    dtype fv has, since a float64 pairwise ``.sum()`` groups differently.  When
    moreover every value is an integer and the sum of |f| over the swept
    elements is below 2^52 (NaN and inf fail this guard), every sum is exact
    in any order: each block's class sums are one weighted ``bincount`` over
    its cells plus a running ``cumsum``, the total one weighted ``bincount``
    over the breakpoints, and neither class running sums nor level sums are
    formed.
    """
    phi = m.phi
    cid = _coprime_index(m)[_rids(m, xs, ys)]
    idx = np.flatnonzero((cid >= 0) & (fv != 0) & (phi > 1))  # one class: eps is 0
    va, vc, lvn = fv[idx], cid[idx], norms[idx]
    new_level = np.ones(lvn.size, dtype=bool)
    np.not_equal(lvn[1:], lvn[:-1], out=new_level[1:])
    starts = np.flatnonzero(new_level)
    nb = starts.size
    bounds = np.append(starts, lvn.size)
    level = np.cumsum(new_level) - 1  # breakpoint index of each element
    vr = va.real
    real = not va.imag.any()  # -0.0 parts too: the running sums' imag is +0.0
    # integers with sum |f| < 2^52: every partial sum is exact, in any order
    exact = real and np.array_equal(vr, np.rint(vr)) and np.abs(vr).sum() < 2**52
    t_im = sums = None
    if exact:
        w = vr.astype(np.float64)
        t_re = np.cumsum(np.bincount(level, weights=w, minlength=nb)) / phi
        end = np.zeros(phi)  # each class's running sum before the block
    else:
        w = None
        lsum = np.zeros(nb + 1, dtype=np.complex128)
        lsum[1:] = _level_sums(va.astype(np.complex128, copy=False), starts, np.diff(bounds))
        total = np.cumsum(lsum)[1:]  # from 0j, as a loop's `total += level sum`
        # componentwise division: scalar float division is IEEE-unambiguous,
        # complex division by an integer is not identical across runtimes
        t_re = total.real / phi
        if not real:
            t_im = total.imag / phi
        sums = _class_running_sums(vr if real else va, vc, phi)
        flat = sums.ravel()
        # flat index into sums of each class's running sum before the block
        end = np.arange(phi) * sums.shape[1]
    row_sq = np.empty(nb)
    step = max(1, _SWEEP_BLOCK // phi)
    for b0 in range(0, nb, step):
        b1 = min(b0 + step, nb)
        r = b1 - b0
        e0, e1 = bounds[b0], bounds[b1]
        cells = vc[e0:e1] * r + (level[e0:e1] - b0)
        # exact: the cells' value sums; otherwise their element counts
        acc = np.bincount(cells, w[e0:e1] if exact else None, phi * r).reshape(phi, r)
        acc[:, 0] += end
        np.cumsum(acc, axis=1, out=acc)
        end = acc[:, -1].copy()
        if not exact:
            acc = flat[acc]
        if real:
            acc -= t_re[b0:b1]
            acc *= acc  # plain multiplies; exact for integer-valued f
        else:
            di = acc.imag - t_im[b0:b1]
            acc = acc.real - t_re[b0:b1]
            acc *= acc
            di *= di
            acc += di
        acc.max(axis=0, out=row_sq[b0:b1])
    return _SweepProfile(lvn[starts], row_sq, bounds[1:], t_re, t_im, vc, w, sums)


def _best_at(m: Modulus, p: _SweepProfile, cuts) -> list[SweepResult]:
    """The sweep of the elements of norm <= h, for each cut h, read off the profile.

    Each result sits at the first breakpoint of norm <= h that attains their
    largest |eps|^2, at that row's first class; it is the empty result
    (argmax_norm 0) when that maximum is not > 0.  Only that row's class sums
    are rebuilt, from the swept elements up to it, with the block loop's own
    arithmetic: exact integers on the exact path, the class running sums at
    each class's element count otherwise, so the row's |eps|^2 comes out
    bit for bit and its first argmax is the first class that attains it.
    """
    top = np.maximum.accumulate(p.row_sq)  # prefix maxima, nondecreasing
    gx, gy = m.rid_coords(m.unit_rids[0] if m.norm > 1 else 0)
    out = []
    for n in np.searchsorted(p.norms, cuts, side="right").tolist():
        if n == 0 or not top[n - 1] > 0.0:
            out.append(SweepResult(0.0, 0j, 0, gx, gy))
            continue
        i = int(np.searchsorted(top, top[n - 1]))  # where the prefix max first appears
        e, phi = p.ends[i], m.phi
        if p.sums is None:
            a = np.bincount(p.vc[:e], p.w[:e], phi)
        else:
            a = p.sums[np.arange(phi), np.bincount(p.vc[:e], minlength=phi)]
        dr, di = a.real - p.t_re[i], np.zeros(phi)
        sq = dr * dr
        if p.t_im is not None:
            di = a.imag - p.t_im[i]
            sq += di * di
        k = int(sq.argmax())  # the first class: sq[k] is row_sq[i], bit for bit
        out.append(SweepResult(
            math.sqrt(sq[k]), complex(dr[k], di[k]), int(p.norms[i]),
            *m.rid_coords(m.unit_rids[k]),
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
    q_x: int
    q_y: int
    q_norm: int
    phi: int
    max_abs: float
    max_eps: complex
    argmax_norm: int
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


def _sweep_task(i: int) -> list[list[tuple[int, SweepResult]]]:
    m = _SWEEP_CTX["moduli"][i]
    grid = [(k, hi) for k, (hi, cap) in enumerate(_SWEEP_CTX["grid"]) if m.norm <= cap]
    out = []
    for xs, ys, norms, fv in _SWEEP_CTX["fns"]:
        # one sweep to the largest grid N whose Q admits q; each such N reads
        # its result off the sweep's profile, as (grid index, result)
        cut = np.searchsorted(norms, grid[-1][1], side="right")
        sweep = _sweep_arrays(m, xs[:cut], ys[:cut], norms[:cut], fv[:cut])
        out.append(list(zip([k for k, _ in grid], _best_at(m, sweep, [hi for _, hi in grid]))))
        del sweep  # it holds per-element arrays: free them before the next sweep
    return out


def _scan(cfg: LodScanConfig, fns: list[ArithFn], workers: int) -> list[list[LodTable]]:
    """The E(N, Q) tables of each function, from one sweep per modulus and function.

    Moduli run over one canonical associate per class with 2 <= norm(q) <= Q,
    each built once, for the largest Q of the grid (Q need not grow with N).
    Parallelism is across moduli, in one pool; records are assembled in
    (norm, x, y) order regardless of worker count, so results are identical
    for any `workers`.
    """
    global _SWEEP_CTX
    ring = make_ring(cfg.d)
    grid_a0 = [a0(ring, n) for n in cfg.N_grid]
    his = [r.hi_sq for r in grid_a0]
    bound = min(f.norm_bound for f in fns)
    if bound < his[-1]:
        raise TableTooSmall(f"f covers norm {bound}, grid needs {his[-1]}")
    counts = [count_region(r) for r in grid_a0]
    q_bounds = [cfg.q_bound(cnt, n) for cnt, n in zip(counts, cfg.N_grid)]
    classes = canonical_classes(ring, int(max(q_bounds)))
    moduli = [Modulus(ring, q) for q in classes if q.norm() >= 2]  # (norm, x, y) order
    out = [[LodTable(*row) for row in zip(cfg.N_grid, q_bounds, counts)] for _ in fns]
    if not moduli:
        return out
    xs, ys, norms = element_arrays(ring.d, 1, his[-1])
    # zeros never move eps: drop them once, not per modulus; a generator, so that
    # no full-size value array stays alive through the sweeps
    fvs = (_fvals(f, xs, ys) for f in fns)
    fns_nz = [(xs[fv != 0], ys[fv != 0], norms[fv != 0], fv[fv != 0]) for fv in fvs]
    grid = [(hi, int(qb)) for hi, qb in zip(his, q_bounds)]  # hi increases with N
    _SWEEP_CTX = {"moduli": moduli, "grid": grid, "fns": fns_nz}
    if workers > 1:
        # longest first, one modulus per task: a sweep costs about phi times the
        # elements up to the largest grid N that admits the modulus
        cost = [m.phi * max(c for c, (_, cap) in zip(counts, grid) if m.norm <= cap)
                for m in moduli]
        order = sorted(range(len(moduli)), key=lambda i: -cost[i])
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            done = dict(zip(order, pool.map(_sweep_task, order, chunksize=1)))
        results = [done[i] for i in range(len(moduli))]
    else:
        results = [_sweep_task(i) for i in range(len(moduli))]
    _SWEEP_CTX = {}
    for m, per_fn in zip(moduli, results):
        for tables, res in zip(out, per_fn):
            for k, r in res:
                tables[k].records.append(ModulusRecord(
                    m.q.x, m.q.y, m.norm, m.phi,
                    r.max_abs, r.max_eps, r.argmax_norm, r.gamma_x, r.gamma_y,
                ))
    return out


def lod_scan(cfg: LodScanConfig, f: ArithFn, workers: int = 1) -> list[LodTable]:
    """Run the modulus sweep for every N in the grid and aggregate E(N, Q)."""
    return _scan(cfg, [f], workers)[0]


# -- Siegel-Walfisz sums ---------------------------------------------------


def sw_term(fv: np.ndarray, cid: np.ndarray, chi: DirichletCharacter) -> complex:
    """sum of fv * chi over the elements, in element order.

    cid is each element's coprime class index (-1 off the unit group); the
    value table has a trailing 0j slot, so -1 picks 0j.
    """
    m = chi.modulus
    table = np.append(m.circle[chi.phases[m.unit_rids]], 0j)
    return complex((fv * table[cid]).sum())


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
    once, and each modulus reduces the elements once for all its characters;
    every twisted sum still runs over all of A0(N) in (norm, x, y) order.
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
    cnt = len(xs)
    rows = []
    max_scaled = 0.0
    for q in canonical_classes(ring, int(cap)):
        if q.norm() < 2:
            continue
        m = Modulus(ring, q)
        cid = _coprime_index(m)[_rids(m, xs, ys)]
        for chi in m.characters:
            if chi.is_principal:
                continue
            s = sw_term(fv, cid, chi)
            scaled = abs(s) * log_power / cnt
            rows.append(
                {
                    "q_x": q.x, "q_y": q.y, "q_norm": q.norm(),
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


def _check_weight(weight: Sequence[tuple[float, float]]):
    xs = [w[0] for w in weight]
    ys = [w[1] for w in weight]
    if len(weight) < 2 or any(b <= a for a, b in zip(xs, xs[1:])):
        raise UnsupportedWeight("weight knots must have strictly increasing x")
    if any(v <= 0 for v in ys) or any(b > a for a, b in zip(ys, ys[1:])):
        raise UnsupportedWeight("weight must be positive and non-increasing")


def _weight_eval(weight, x: float) -> float:
    xs = [w[0] for w in weight]
    ys = [w[1] for w in weight]
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    for (x0, y0), (x1, y1) in zip(weight, weight[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise AssertionError


def _real_parts(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """Writable views of a's real and imaginary parts, or a itself when real."""
    return (a.real, a.imag) if np.iscomplexobj(a) else (a,)


@dataclass(frozen=True)
class _Lanes:
    """Coefficient rows packed `lanes` to a float64, exactly (`_pack_lanes`).

    parts holds one (groups, n) array per real part, two for complex
    coefficients; lane j of group g is vector g * lanes + j, with weight
    2^(bits * j) for bits = 53 // lanes.  With lanes 1 the parts are the
    coefficient rows themselves.
    """

    parts: tuple[np.ndarray, ...]
    lanes: int
    n_vec: int

    @property
    def bits(self) -> int:
        return 53 // self.lanes


def _coeff_bounds(coeffs: np.ndarray) -> tuple[float, float]:
    """(A, amax): the largest sum of |part| over one vector, and the largest |part|.

    (inf, inf) as soon as a row is not integer (NaN included); inf makes A inf.
    """
    a = amax = 0.0
    for part in _real_parts(coeffs):
        for row in part:
            if not np.array_equal(row, np.rint(row)):  # NaN fails too; inf sums to inf
                return math.inf, math.inf
            mag = np.abs(row)
            a = max(a, float(mag.sum()))
            amax = max(amax, float(mag.max(initial=0.0)))
    return a, amax


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
    decoding are exact in any order.  With lanes 1 the parts are views of
    coeffs.  Packs in place (Horner, top lane first) into buf, (real parts,
    groups or more, n), when given.
    """
    parts = _real_parts(coeffs)
    if lanes == 1:
        return _Lanes(parts, 1, len(coeffs))
    groups = -(-len(coeffs) // lanes)
    if buf is None:
        buf = np.empty((len(parts), groups, coeffs.shape[1]))
    scale = 2.0 ** (53 // lanes)
    packed = []
    for part, out in zip(parts, buf):
        out = out[:groups]
        out.fill(0.0)
        for j in reversed(range(lanes)):
            out *= scale
            lane = part[j::lanes]
            out[: len(lane)] += lane
        packed.append(out)
    return _Lanes(tuple(packed), lanes, len(coeffs))


def _fold_classes(pack: _Lanes, cid: np.ndarray, phi: int) -> np.ndarray:
    """(n_vec, phi) sums of each coefficient row over its coprime classes.

    cid is each element's coprime class, < 0 off the coprime set.  Each packed
    row takes one bincount per real part, which adds a class's weights one at
    a time in element order: with one lane every class sum is a left-to-right
    sum.  Bins never interact, so with L lanes the class sums are exact
    integers as long as each coprime class's own partial sums fit the lanes
    (`_pack_lanes`); that is what the left-to-right sum of integer
    coefficients gives too, so the bits match.  The digits decode top lane
    first, d = rint(W / 2^(bj)) and W -= d * 2^(bj), and + 0.0 turns rint's
    -0.0 into the 0.0 a sum gives.  Non-coprime elements go to the sentinel
    class phi, which is dropped and need not be exact.  The sums are
    float64 for one real part and complex128 for two.  With one lane each
    bincount goes straight into the result.
    """
    key = np.where(cid < 0, phi, cid)
    groups = len(pack.parts[0])
    dtype = np.complex128 if len(pack.parts) == 2 else np.float64
    folded = np.zeros((groups * pack.lanes, phi), dtype=dtype)
    for part, dest in zip(pack.parts, _real_parts(folded)):
        w = dest if pack.lanes == 1 else np.empty((groups, phi))
        for g, row in enumerate(part):
            w[g] = np.bincount(key, weights=row, minlength=phi + 1)[:phi]
        if pack.lanes == 1:
            continue
        digits = dest.reshape(groups, pack.lanes, phi)
        for j in reversed(range(1, pack.lanes)):
            scale = 2.0 ** (pack.bits * j)
            d = np.rint(w / scale)
            w -= d * scale
            digits[:, j] = d + 0.0
        digits[:, 0] = w
    return folded[: pack.n_vec]


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
    (one bincount per real part over (vector, class mod q/pi), in class order)
    over k = |K_pi| = phi(q)/phi(q/pi), which is N(pi) - 1 when pi divides q
    once and N(pi) otherwise.  By Parseval on (O/q)^*, the squared primitive
    character sums of a row add up to phi(q) times its projection's squared
    norm.  Works in place on folded, (n_vec, phi) in unit_rids order.
    """
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
        for part in _real_parts(folded):
            sums = np.bincount(flat, weights=part.ravel(), minlength=len(folded) * size)
            part -= sums.reshape(-1, size)[:, key] / k
    return folded


def large_sieve_ratios(
    coeff_matrix: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    q1: float,
    q2: float,
    region: NormRegion,
    weight: Sequence[tuple[float, float]] | None = None,
) -> list[tuple[float, float, float]]:
    """(lhs, rhs, ratio) per coefficient vector over the elements (xs, ys).

    Default weight None is the 1/x specialization: lhs sums (1/phi(q)) times
    the squared primitive character sums, rhs = (|A0(N)|/Q1 + Q2) * sum|c|^2.
    A tabulated weight w switches to the general form with factor
    w(|q|)*|q|/phi(q) and rhs = (w(Q1)(Q1^2 + |A0(N)|) + int x w(x) dx) * sum|c|^2.
    No character is built: each modulus's class sums are projected onto its
    primitive characters (`_primitive_part`), and phi(q) times the projection's
    squared norm is the sum of the squared primitive character sums.  Real
    coefficients are summed as float64, complex ones as complex128, in a fixed
    order with no BLAS.  When every coefficient (every real part) is a finite
    integer, as the CLI's signs are, one bincount folds several packed
    vectors (`_pack_lanes`) with the bits of one bincount per vector.  A
    modulus packs as many as min(A, amax * cmax) allows (`_lanes_for`), for
    A the largest sum |c| of a vector, amax the largest |c| and cmax the
    largest coprime class count, at least as many as A alone; the rows are
    repacked, into one buffer, only when that count changes.  coeff_matrix
    is (vectors, len(xs)) or one vector of len(xs); any other shape is a
    ValueError.
    """
    if not q1 > 0:
        raise ValueError(f"Q1 must be positive, got {q1}")
    if not q1 < q2:
        raise EmptyModulusRange(f"need Q1 < Q2, got {q1} >= {q2}")
    if weight is not None:
        _check_weight(weight)
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError(f"coordinate arrays of shapes {xs.shape} and {ys.shape}: need equal 1-D")
    n = len(xs)
    dtype = np.complex128 if np.iscomplexobj(coeff_matrix) else np.float64
    coeff_matrix = np.asarray(coeff_matrix, dtype=dtype)
    if coeff_matrix.ndim == 1:
        coeff_matrix = coeff_matrix[None, :]
    if coeff_matrix.ndim != 2 or coeff_matrix.shape[1] != n:
        raise ValueError(
            f"coefficient matrix of shape {coeff_matrix.shape} does not match "
            f"{n} elements: need (vectors, {n})"
        )
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
    c_sq = (np.abs(coeff_matrix) ** 2).sum(axis=1)  # before packing: lower peak RSS
    n_vec = coeff_matrix.shape[0]
    a, amax = _coeff_bounds(coeff_matrix)
    lanes = _lanes_for(a)  # no modulus takes fewer
    pack = _pack_lanes(coeff_matrix, 1)
    buf = np.empty((len(pack.parts), -(-n_vec // lanes), n)) if lanes > 1 else None
    lhs = np.zeros(n_vec)
    for q in canonical_classes(ring, int(q2)):
        nq = q.norm()
        if nq <= q1 or nq < 2:
            continue
        m = Modulus(ring, q)
        if not _has_primitive(m):
            continue
        cid = _coprime_index(m)[_rids(m, xs, ys)]
        if buf is not None:
            cmax = int(np.bincount(cid[cid >= 0]).max(initial=0))
            lanes_q = _lanes_for(min(a, amax * cmax))
            if lanes_q != pack.lanes:
                pack = _pack_lanes(coeff_matrix, lanes_q, buf)
        folded = _fold_classes(pack, cid, m.phi)
        prim = _primitive_part(m, folded)
        contrib = (prim * prim.conj()).real.sum(axis=1)  # the 1/phi(q) cancels
        lhs += contrib if weight is None else _weight_eval(weight, nq) * nq * contrib
    cnt = count_region(a0(ring, region.n))
    if weight is None:
        rhs_factor = cnt / q1 + q2
    else:
        grid = sorted({q1, q2, *(x for x, _ in weight if q1 < x < q2)})
        integral = 0.0
        for x0, x1 in zip(grid, grid[1:]):
            y0 = x0 * _weight_eval(weight, x0)
            y1 = x1 * _weight_eval(weight, x1)
            integral += 0.5 * (y0 + y1) * (x1 - x0)
        rhs_factor = _weight_eval(weight, q1) * (q1 * q1 + cnt) + integral
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
