"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's optimized code paths: membership by
double loops over coordinates, divisors by exhaustive norm solving, maxima by
fresh per-breakpoint summation.
"""

from __future__ import annotations

import contextlib
import csv
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from quadlod.rings import AlgInt, canonical_associate, divide_exact


def oracle_norm(d, x, y):
    """|x + y*omega|^2 expanded from omega = sqrt(d) or (1 + sqrt(d))/2."""
    if d % 4 == 1:
        # x + y*omega = ((2x + y) + y*sqrt(d)) / 2
        return ((2 * x + y) ** 2 - d * y * y) // 4
    return x * x - d * y * y


def omega_complex(ring):
    """omega in the complex embedding with Im(omega) > 0."""
    r = math.sqrt(-ring.d)
    return complex(0.5, 0.5 * r) if ring.d % 4 == 1 else complex(0.0, r)


def embedding(z):
    """The complex embedding of z = x + y*omega with Im(omega) > 0; |embedding|^2 == norm."""
    return z.x + z.y * omega_complex(z.ring)


def _coordinate_box(ring, bound):
    # |y| <= sqrt(4*bound/|D|); |x| <= sqrt(bound) + |y| covers both conventions
    yspan = math.isqrt(4 * bound // abs(ring.disc)) + 2
    xspan = math.isqrt(bound) + yspan + 2
    return xspan, yspan


def brute_region_count(ring, lo_sq, hi_sq):
    """Count lattice points with lo_sq <= norm <= hi_sq by a double loop."""
    xspan, yspan = _coordinate_box(ring, hi_sq)
    n = 0
    for x in range(-xspan, xspan + 1):
        for y in range(-yspan, yspan + 1):
            if lo_sq <= oracle_norm(ring.d, x, y) <= hi_sq:
                n += 1
    return n


def brute_norm_solutions(ring, m):
    """Canonical classes of norm exactly m, by scanning a coordinate box."""
    xspan, yspan = _coordinate_box(ring, m)
    out = set()
    for x in range(-xspan, xspan + 1):
        for y in range(-yspan, yspan + 1):
            if oracle_norm(ring.d, x, y) == m:
                c = canonical_associate(AlgInt(ring, x, y))
                out.add((c.x, c.y))
    return sorted(out)


def brute_common_divisor(ring, alpha, beta):
    """Max-norm common divisor via divisors of gcd of the rational norms."""
    gn = math.gcd(alpha.norm(), beta.norm())
    best = ring.one()
    for m in range(1, gn + 1):
        if gn % m:
            continue
        for cx, cy in brute_divisor_candidates(ring, m):
            cand = AlgInt(ring, cx, cy)
            if divide_exact(alpha, cand) is not None and divide_exact(beta, cand) is not None:
                if cand.norm() > best.norm():
                    best = cand
    return canonical_associate(best)


def brute_divisor_candidates(ring, m):
    """Canonical classes of norm m, found by the exact norm-form solve."""
    out = []
    ymax = math.isqrt(4 * m // abs(ring.disc)) + 1
    seen = set()
    for y in range(-ymax, ymax + 1):
        if ring.d % 4 == 1:
            r = 4 * m + ring.d * y * y
            if r < 0:
                continue
            s = math.isqrt(r)
            if s * s != r:
                continue
            for sv in {s, -s}:
                if (sv - y) % 2 == 0:
                    c = canonical_associate(AlgInt(ring, (sv - y) // 2, y))
                    if (c.x, c.y) not in seen:
                        seen.add((c.x, c.y))
                        out.append((c.x, c.y))
        else:
            r = m + ring.d * y * y
            if r < 0:
                continue
            s = math.isqrt(r)
            if s * s != r:
                continue
            for sv in {s, -s}:
                c = canonical_associate(AlgInt(ring, sv, y))
                if (c.x, c.y) not in seen:
                    seen.add((c.x, c.y))
                    out.append((c.x, c.y))
    return out


def brute_is_prime(ring, xi, classes_by_norm):
    """No canonical divisor class of norm in [2, norm) divides xi."""
    n = xi.norm()
    for m in range(2, n):
        if n % m:
            continue
        for coords in classes_by_norm.get(m, ()):
            if divide_exact(xi, AlgInt(ring, *coords)) is not None:
                return False
    return True


def hnf_rid_xy(m, x, y):
    """Modulus.rid_xy's general HNF formula, for every c: (x - k*b mod a) + a*j with y = k*c + j."""
    a, b, c = m.hnf_a, m.hnf_b, m.hnf_c
    j = y % c
    return (x - (y - j) // c * b) % a + a * j


def cumsum_sweep_max(m, xs, ys, norms, fv):
    """Max |eps| over breakpoints and coprime classes via cumulative sums.

    Independent of the library's running-accumulator sweep: builds one
    cumulative series per residue class with numpy cumsum, then evaluates
    every present norm level.  Division is componentwise like the library.
    """
    from quadlod.lab import _coprime_index, _rids

    phi = m.phi
    if phi == 1:
        return 0.0
    rid = _rids(m, xs, ys)
    cid = _coprime_index(m)[rid]
    levels, level_idx = np.unique(norms, return_inverse=True)
    n_lv = len(levels)
    per_class = np.zeros((phi, n_lv), dtype=np.complex128)
    for i in range(len(xs)):
        c = cid[i]
        if c >= 0:
            per_class[c, level_idx[i]] += fv[i]
    cums = np.cumsum(per_class, axis=1)
    totals = cums.sum(axis=0)
    best_sq = 0.0
    for j in range(n_lv):
        tr = float(totals[j].real) / phi
        ti = float(totals[j].imag) / phi
        for c in range(phi):
            er = float(cums[c, j].real) - tr
            ei = float(cums[c, j].imag) - ti
            sq = er * er + ei * ei
            if sq > best_sq:
                best_sq = sq
    return math.sqrt(best_sq)


def loop_sweep_running(m, xs, ys, norms, fv):
    """The per-breakpoint loop that lab._sweep_arrays replaced, kept verbatim.

    One Python step per distinct active norm: np.add.at into per-class
    accumulators, the level's .sum() into the running total, then an argmax
    over classes.  Its float summation order is the one the library must
    reproduce bit for bit.  Yields (cut, the loop's result over the elements
    of norm <= cut): first for the empty prefix (cut 0), then after each step
    (cut = the step's norm).
    """
    from quadlod.lab import ModulusRecord, _coprime_index, _rids

    q = (m.q.x, m.q.y, m.norm, m.phi)
    gx, gy = m.rid_coords(m.unit_rids[0] if m.norm > 1 else 0)
    yield 0, ModulusRecord(*q, 0.0, 0j, 0, gx, gy)
    if m.phi == 1:
        return
    rid = _rids(m, xs, ys)
    cid = _coprime_index(m)[rid]
    active = (cid >= 0) & (fv != 0)
    idx = np.flatnonzero(active)
    if idx.size == 0:
        return
    lvn = norms[idx]
    starts = np.flatnonzero(np.r_[True, lvn[1:] != lvn[:-1]])
    ends = np.r_[starts[1:], np.array([lvn.size])]
    phi = m.phi
    acc = np.zeros(phi, dtype=np.complex128)
    total = 0j
    best_sq = 0.0  # squared magnitudes compare exactly for integer-valued f
    best_eps = 0j
    best_norm = 0
    best_cid = 0
    for s, e in zip(starts.tolist(), ends.tolist()):
        sel = idx[s:e]
        np.add.at(acc, cid[sel], fv[sel])
        total += fv[sel].sum()
        # componentwise subtraction: scalar float division is IEEE-unambiguous,
        # complex division by an integer is not identical across runtimes
        dr = acc.real - float(total.real) / phi
        di = acc.imag - float(total.imag) / phi
        sq = dr * dr + di * di  # plain multiplies; exact for integer-valued f
        i_arg = int(np.argmax(sq))
        mx = float(sq[i_arg])
        if mx > best_sq:
            best_sq = mx
            best_eps = complex(dr[i_arg], di[i_arg])
            best_norm = int(lvn[s])
            best_cid = i_arg
        gx, gy = m.rid_coords(m.unit_rids[best_cid])
        yield int(lvn[s]), ModulusRecord(*q, math.sqrt(best_sq), best_eps, best_norm, gx, gy)


def loop_orbit_sweep_running(m, xs, ys, norms, fv):
    """lab._sweep_arrays' float order, one row and one class at a time.

    (xs, ys, norms, fv) are canonical classes, sorted by (norm, x, y), and f's
    values there.  The sweep classes are the unit orbits of the coprime
    classes (loop_unit_orbits), keyed by their smallest class; when one orbit
    holds every coprime class, eps is 0 and only the empty record comes out.
    A plane is the real part of f, and its imaginary part unless every one
    is zero.  The rows are the distinct norms of f's nonzero classes.  Per
    row and orbit R, the cell sums s_R * f over the row's classes in R,
    from 0.0 in class order, and R's running sum A adds the cell.  The row's
    coprime sum is its sum from 0.0 less its non-coprime sum from 0.0, T
    adds it, and eps = A - w_K * T / phi on each plane.  Yields (cut, the
    running best record) as loop_sweep_running does: the empty record at
    cut 0, then one after every row.
    """
    from quadlod.lab import ModulusRecord

    q = (m.q.x, m.q.y, m.norm, m.phi)
    gx, gy = m.rid_coords(m.unit_rids[0])
    best = ModulusRecord(*q, 0.0, 0j, 0, gx, gy)
    yield 0, best
    members, fixed = loop_unit_orbits(m)
    keys = sorted({min(s) for s in members})
    if len(keys) == 1:
        return
    position = {int(rid): c for c, rid in enumerate(m.unit_rids)}
    w_K, phi = m.ring.w_K, m.phi
    nz = [i for i in range(len(fv)) if fv[i] != 0]
    planes = 2 if any(complex(fv[i]).imag != 0 for i in nz) else 1
    acc = {key: [0.0, 0.0] for key in keys}
    total = [0.0, 0.0]
    best_sq = 0.0
    at = 0
    while at < len(nz):
        norm = int(norms[nz[at]])
        cells = {key: [0.0, 0.0] for key in keys}
        row, off = [0.0, 0.0], [0.0, 0.0]
        while at < len(nz) and int(norms[nz[at]]) == norm:
            i = nz[at]
            v = complex(fv[i])
            parts = (v.real, v.imag)
            c = position.get(int(m.rid_xy(int(xs[i]), int(ys[i]))))
            for p in range(planes):
                row[p] += parts[p]
                if c is None:
                    off[p] += parts[p]
                else:
                    cells[min(members[c])][p] += fixed[c] * parts[p]
            at += 1
        t = [0.0, 0.0]
        for p in range(planes):
            total[p] += row[p] - off[p]
            t[p] = w_K * total[p] / phi
        row_best = None
        for key in keys:
            for p in range(planes):
                acc[key][p] += cells[key][p]
            dr = acc[key][0] - t[0]
            di = acc[key][1] - t[1] if planes == 2 else 0.0
            sq = dr * dr + di * di if planes == 2 else dr * dr
            if row_best is None or sq > row_best[0]:
                row_best = (sq, dr, di, key)
        sq, dr, di, key = row_best
        if sq > best_sq:
            best_sq = sq
            kx, ky = m.rid_coords(m.unit_rids[key])
            best = ModulusRecord(*q, math.sqrt(sq), complex(dr, di), norm, kx, ky)
        yield norm, best


def loop_sw_check_reference(f, n, d_power, bound_power=None):
    """The sw_check -> sw_term -> sw_sum loop that lab.sw_check replaced.

    It is kept as it was, except that chi_of_rid reads each character value
    and the principal characters, which the scan skips, are not checked
    again.  Every non-principal character rebuilds the element arrays, f's
    values, the residue ids and the coprime index, then sums over all of
    A0(N).  Its float summation order is the one the library must reproduce
    bit for bit.
    """
    from quadlod.characters import Modulus
    from quadlod.errors import TableTooSmall
    from quadlod.lab import SWReport, _coprime_index, _fvals, _rids
    from quadlod.regions import a0, canonical_classes, count_region, element_arrays

    def sw_sum(f, n, chi):
        hi = a0(f.ring, n).hi_sq
        if hi > f.norm_bound:
            raise TableTooSmall(f"N^2 = {hi} beyond table {f.norm_bound}")
        m = chi.modulus
        xs, ys, _ = element_arrays(f.ring.d, 1, hi)
        fv = _fvals(f, xs, ys)
        rid = _rids(m, xs, ys)
        cid = _coprime_index(m)[rid]
        table = np.array(
            [complex(v) for v in (chi_of_rid(chi, r) for r in m.unit_rids)],
            dtype=np.complex128,
        )
        chi_vals = np.where(cid >= 0, table[np.maximum(cid, 0)], 0j)
        return complex((fv * chi_vals).sum())

    def sw_term(f, n, chi, bound_power):
        s = sw_sum(f, n, chi)
        cnt = count_region(a0(f.ring, n))
        return s, abs(s) * math.log(n) ** bound_power / cnt

    if bound_power is None:
        bound_power = 3.0 * d_power
    ring = f.ring
    cap = math.log(n) ** d_power
    rows = []
    max_scaled = 0.0
    for q in canonical_classes(ring, int(cap)):
        if q.norm() < 2:
            continue
        m = Modulus(ring, q)
        for chi in m.characters:
            if chi.is_principal:
                continue
            s, scaled = sw_term(f, n, chi, bound_power)
            rows.append(
                {
                    "q_x": q.x, "q_y": q.y, "q_norm": q.norm(),
                    "exponents": chi.exponents,
                    "abs_sum": abs(s), "scaled": scaled,
                }
            )
            max_scaled = max(max_scaled, scaled)
    return SWReport(n, d_power, bound_power, cap, rows, max_scaled)


# -- the dict-based arithmetic functions that quadlod.arith replaced ----------


@dataclass
class DictFn:
    """The old ArithFn: values is a dict from canonical (x, y) to complex."""

    ring: object
    norm_bound: int
    values: dict
    name: str


def as_dict_fn(f):
    return DictFn(f.ring, f.norm_bound, dict(f.values.items()), f.name)


def primes_of(table):
    """The table's primes as AlgInts in table order, of a PrimeTable or a LoopPrimeTable."""
    if isinstance(table, LoopPrimeTable):
        return table.primes
    return [AlgInt(table.ring, x, y) for x, y in zip(table.xs.tolist(), table.ys.tolist())]


def table_factor(xi, table):
    """The table-walking sieve.factor, verbatim apart from reading primes_of(table).

    Trial division by the table's primes in (norm, x, y) order until the
    smallest untried norm squared passes the cofactor's norm; a cofactor of
    norm > 1 left then must be a prime of the table, else TableTooSmall.
    """
    from quadlod.errors import RingMismatch, TableTooSmall, ZeroElement
    from quadlod.sieve import FactorMap

    if xi.is_zero():
        raise ZeroElement("cannot factor zero")
    if xi.ring.d != table.ring.d:
        raise RingMismatch("element and table belong to different rings")
    n = xi.norm()
    if n > table.max_norm:
        raise TableTooSmall(f"norm {n} exceeds table coverage {table.max_norm}")
    rem = xi
    rem_norm = n
    factors = []
    for pi in primes_of(table):
        pn = pi.norm()
        if pn * pn > rem_norm:
            break
        if rem_norm % pn:
            continue
        e = 0
        while True:
            q = divide_exact(rem, pi)
            if q is None:
                break
            rem = q
            rem_norm //= pn
            e += 1
        if e:
            factors.append((pi, e))
    if rem_norm > 1:
        pi = canonical_associate(rem)
        lo, hi = np.searchsorted(table.norms, [rem_norm, rem_norm + 1])
        if (pi.x, pi.y) not in zip(table.xs[lo:hi].tolist(), table.ys[lo:hi].tolist()):
            raise TableTooSmall(f"cofactor {pi} of norm {rem_norm} is not a prime of the table")
        factors.append((pi, 1))
        rem = divide_exact(rem, pi)
    factors.sort(key=lambda t: (t[0].norm(), t[0].x, t[0].y))
    return FactorMap(unit=rem, factors=factors)


class LoopFactorSieve:
    """The per-class link-dict FactorSieve, verbatim."""

    def __init__(self, table, max_norm: int):
        from quadlod.errors import TableTooSmall
        from quadlod.regions import canonical_classes

        if max_norm > table.max_norm:
            raise TableTooSmall(
                f"need primes to norm {max_norm}, table has {table.max_norm}"
            )
        self.ring = table.ring
        self.max_norm = max_norm
        self.table = table
        self.classes = canonical_classes(table.ring, max_norm)
        link: dict[tuple[int, int], tuple[AlgInt, tuple[int, int]]] = {}
        for pi in primes_of(table):
            pn = pi.norm()
            if pn > max_norm:
                break
            for m in self.classes:
                if m.norm() * pn > max_norm:
                    break
                prod = canonical_associate(pi * m)
                link[(prod.x, prod.y)] = (pi, (m.x, m.y))
        self._link = link

    def factor(self, xi):
        from quadlod.errors import TableTooSmall, ZeroElement
        from quadlod.sieve import FactorMap

        if xi.is_zero():
            raise ZeroElement("cannot factor zero")
        if xi.norm() > self.max_norm:
            raise TableTooSmall(f"norm {xi.norm()} exceeds sieve bound {self.max_norm}")
        can = canonical_associate(xi)
        exps: dict[tuple[int, int], tuple[AlgInt, int]] = {}
        cur = (can.x, can.y)
        while cur in self._link:
            pi, cur = self._link[cur]
            key = (pi.x, pi.y)
            if key in exps:
                exps[key] = (pi, exps[key][1] + 1)
            else:
                exps[key] = (pi, 1)
        factors = sorted(exps.values(), key=lambda t: (t[0].norm(), t[0].x, t[0].y))
        fm = FactorMap(unit=AlgInt(self.ring, 1, 0), factors=factors)
        unit = divide_exact(xi, reconstruct(fm))
        fm.unit = unit
        return fm


def loop_class_products(ring, bound, left, right):
    """(i, j, k) of every pair (left[i], right[j]) of norm product <= bound.

    One AlgInt product per pair of a double loop, i-major with j ascending;
    k is the position of the product's canonical associate among the classes.
    """
    from quadlod.regions import canonical_classes

    classes = canonical_classes(ring, bound)
    position = {(c.x, c.y): n for n, c in enumerate(classes)}
    out = []
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            prod = classes[a] * classes[b]
            if prod.norm() <= bound:
                c = canonical_associate(prod)
                out.append((i, j, position[(c.x, c.y)]))
    return out


class UniqueFactorSieve:
    """The FactorSieve that took np.unique of each chunk's classes, verbatim."""

    def __init__(self, table, max_norm: int):
        from quadlod.errors import TableTooSmall
        from quadlod.regions import class_arrays, class_products

        if max_norm > table.max_norm:
            raise TableTooSmall(
                f"need primes to norm {max_norm}, table has {table.max_norm}"
            )
        n = len(class_arrays(table.ring, max_norm)[0])
        self.spf, self.cof = np.full((2, n), -1)
        pidx = table.class_indices(max_norm)
        # pairs come in increasing prime order: a class's first hit is its smallest prime
        for i, j, k in class_products(table.ring, max_norm, pidx, np.arange(n)):
            k, first = np.unique(k, return_index=True)
            new = self.spf[k] < 0
            self.spf[k[new]], self.cof[k[new]] = pidx[i[first[new]]], j[first[new]]


def full_walk_prime_chains(sieve):
    """The _prime_chains that stepped all n classes at every step, verbatim."""
    n = len(sieve.spf)
    cur, last = np.arange(n), np.full(n, -1)
    run, distinct, tau = np.zeros(n, np.int64), np.zeros(n, np.int64), np.ones(n, np.int64)
    while (live := sieve.spf[cur] >= 0).any():
        p = sieve.spf[cur]
        new = live & (p != last)
        tau[new] *= run[new] + 1
        run = np.where(new, 1, run + live)
        distinct += new
        last, cur = np.where(live, p, last), np.where(live, sieve.cof[cur], cur)
    return distinct, tau * (run + 1), last


def loop_tabulate(builtin, ring, norm_bound, table=None):
    """The per-class tabulate of a builtin, verbatim apart from returning a DictFn."""
    from quadlod.arith import _ALIASES, BUILTIN_NAMES
    from quadlod.errors import TableTooSmall
    from quadlod.regions import canonical_classes

    classes = canonical_classes(ring, norm_bound)
    name = _ALIASES.get(builtin, builtin)
    values: dict[tuple[int, int], complex] = {}
    if name == "one":
        for c in classes:
            values[(c.x, c.y)] = 1 + 0j
    elif name == "log_norm":
        for c in classes:
            values[(c.x, c.y)] = complex(math.log(c.norm()))
    elif name in ("moebius", "tau", "lambda"):
        if table is None or table.max_norm < norm_bound:
            raise TableTooSmall("builtin needs a PrimeTable covering norm_bound")
        sieve = LoopFactorSieve(table, norm_bound)
        for c in classes:
            fm = sieve.factor(c)
            if name == "moebius":
                if any(e > 1 for _, e in fm.factors):
                    v = 0j
                else:
                    v = complex((-1) ** len(fm.factors))
            elif name == "tau":
                t = 1
                for _, e in fm.factors:
                    t *= e + 1
                v = complex(t)
            else:  # lambda
                if len(fm.factors) == 1:
                    v = complex(math.log(fm.factors[0][0].norm()))
                else:
                    v = 0j
            values[(c.x, c.y)] = v
    elif name == "prime_indicator":
        if table is None or table.max_norm < norm_bound:
            raise TableTooSmall("prime_indicator needs a covering PrimeTable")
        prime_set = {
            (p.x, p.y) for p in primes_of(table) if p.norm() <= norm_bound
        }
        for c in classes:
            values[(c.x, c.y)] = 1 + 0j if (c.x, c.y) in prime_set else 0j
    else:
        raise ValueError(f"unknown builtin {builtin!r}; choose from {BUILTIN_NAMES}")
    return DictFn(ring, norm_bound, values, name)


def loop_convolve(f, g):
    """The per-pair dict convolution, verbatim apart from returning a DictFn."""
    from quadlod.regions import canonical_classes

    ring = f.ring
    bound = min(f.norm_bound, g.norm_bound)
    out: dict[tuple[int, int], complex] = {
        (c.x, c.y): 0j for c in canonical_classes(ring, bound)
    }
    g_classes = canonical_classes(ring, bound)
    g_norms = [c.norm() for c in g_classes]
    for (dx, dy), fv in f.values.items():
        if fv == 0:
            continue
        delta = AlgInt(ring, dx, dy)
        dn = delta.norm()
        if dn > bound:
            continue
        cap = bound // dn
        for m, mn in zip(g_classes, g_norms):
            if mn > cap:
                break
            gv = g.values[(m.x, m.y)]
            if gv == 0:
                continue
            prod = canonical_associate(delta * m)
            out[(prod.x, prod.y)] += fv * gv
    return DictFn(ring, bound, out, f"({f.name})*({g.name})")


def canonical_coords(ring, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized canonical-associate coordinates (zero maps to itself), by rotation."""
    cx = xs.copy()
    cy = ys.copy()
    if ring.w_K == 2:
        flip = (cy < 0) | ((cy == 0) & (cx < 0))
        cx[flip] = -cx[flip]
        cy[flip] = -cy[flip]
        return cx, cy
    nonzero = (cx != 0) | (cy != 0)
    for _ in range(ring.w_K - 1):
        out = (cx > 0) & (cy >= 0)
        rot = nonzero & ~out
        if not rot.any():
            break
        rx, ry = cx[rot], cy[rot]
        # multiply by omega, which is zeta0 when w_K > 2 (d = -1, -3)
        cx[rot], cy[rot] = ring.n * ry, rx + ring.t * ry
    return cx, cy


def loop_fvals(f, xs, ys):
    """The per-element dict lookup that lab._fvals replaced, verbatim."""
    cxs, cys = canonical_coords(f.ring, xs, ys)
    vals = f.values
    return np.array(
        [vals[key] for key in zip(cxs.tolist(), cys.tolist())], dtype=np.complex128
    )


def searchsorted_class_index(ring, max_norm, xs, ys):
    """The rotate-then-binary-search class_index that the dense table replaced.

    Exact for |x|, |y| <= 2^26; beyond that its int64 norms can wrap into range.
    """
    from quadlod.errors import TableTooSmall
    from quadlod.regions import _key, class_arrays
    from quadlod.rings import norm_xy

    cxs, cys = canonical_coords(ring, np.asarray(xs, np.int64), np.asarray(ys, np.int64))
    norms = norm_xy(ring, cxs, cys)
    if norms.size and (norms.min() < 1 or norms.max() > max_norm):
        raise TableTooSmall(f"element norms outside 1..{max_norm}")
    keys = _key(max_norm, *class_arrays(ring, max_norm))
    return np.searchsorted(keys, _key(max_norm, cxs, cys, norms))


def loop_dirichlet_series(f, s, trunc_norm):
    from quadlod.regions import canonical_classes

    total = 0j
    for c in canonical_classes(f.ring, trunc_norm):
        v = f.values[(c.x, c.y)]
        if v == 0:
            continue
        total += v * c.norm() ** (-s)
    return total


def loop_weighted_log_sum(f, n, k):
    from quadlod.regions import a0, element_arrays

    region = a0(f.ring, n)
    xs, ys, norms = element_arrays(f.ring.d, 1, region.hi_sq)
    n_sq = float(region.hi_sq)
    total = 0j
    ring = f.ring
    for x, y, nm in zip(xs.tolist(), ys.tolist(), norms.tolist()):
        can = canonical_associate(AlgInt(ring, x, y))
        v = f.values[(can.x, can.y)]
        if v == 0:
            continue
        total += v * math.log(n_sq / nm) ** k
    return total


def loop_unit_fold_check(f, n):
    from quadlod.regions import a0, canonical_classes, element_arrays

    region = a0(f.ring, n)
    xs, ys, _ = element_arrays(f.ring.d, 1, region.hi_sq)
    ring = f.ring
    el_sum = 0j
    for x, y in zip(xs.tolist(), ys.tolist()):
        can = canonical_associate(AlgInt(ring, x, y))
        el_sum += f.values[(can.x, can.y)]
    cls_sum = 0j
    for c in canonical_classes(ring, region.hi_sq):
        cls_sum += f.values[(c.x, c.y)]
    return el_sum, ring.w_K * cls_sum


def csv_writer_save(f, path, config_line=""):
    """The csv.writer save_csv, verbatim: two reprs and one writer row per class."""
    from quadlod.regions import class_arrays

    xs, ys, norms = class_arrays(f.ring, f.norm_bound)
    out = open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)
    with out as fh:
        fh.write(f"{config_line}# d={f.ring.d} norm_bound={f.norm_bound} name={f.name}\n")
        w = csv.writer(fh)
        w.writerow(["x", "y", "norm", "re", "im"])
        re, im = map(repr, f.vals.real.tolist()), map(repr, f.vals.imag.tolist())
        w.writerows(zip(xs.tolist(), ys.tolist(), norms.tolist(), re, im))


# -- residue-ring unit groups and characters, as dict and Fraction loops ---
#
# The old character layer, kept as the reference: units by a gcd per residue,
# the unit group decomposed over dicts, values as exact Fraction sums, and
# primitivity and conductors by a divide_exact per unit residue.


def _loop_prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _loop_order_of(x, mul, one, group_order: int, primes: list[int]) -> int:
    e = group_order
    for p in primes:
        while e % p == 0:
            xp = _loop_pow_generic(x, e // p, mul, one)
            if xp != one:
                break
            e //= p
    return e


def _loop_pow_generic(x, n, mul, one):
    out = one
    base = x
    while n:
        if n & 1:
            out = mul(out, base)
        base = mul(base, base)
        n >>= 1
    return out


def loop_decompose_abelian(elements, mul, one):
    """(gens, orders, dlog) with dlog: element -> exponent tuple."""
    n = len(elements)
    if n == 1:
        return [], [], {one: ()}
    primes = _loop_prime_factors(n)
    orders = {x: _loop_order_of(x, mul, one, n, primes) for x in elements}
    lam = max(orders.values())
    g1 = min(x for x in elements if orders[x] == lam)
    # subgroup <g1> and its discrete logs
    h_dlog = {}
    h = one
    for k in range(lam):
        h_dlog[h] = k
        h = mul(h, g1)
    if lam == n:
        return [g1], [lam], {x: (k,) for x, k in h_dlog.items()}
    # quotient by <g1>: tag each coset by its first element in iteration order
    tag_of = {}
    q_elements = []
    for x in elements:
        if x in tag_of:
            continue
        members = []
        y = x
        for _ in range(lam):
            members.append(y)
            y = mul(y, g1)
        t = min(members)
        for mbr in members:
            tag_of[mbr] = t
        q_elements.append(t)
    q_elements.sort()

    def q_mul(t1, t2):
        return tag_of[mul(t1, t2)]

    q_one = tag_of[one]
    q_gens, q_orders, q_dlog = loop_decompose_abelian(q_elements, q_mul, q_one)
    # lift: for quotient generator g of order m, g^m lands in <g1> at g1^t
    # with m | t, so g * g1^(-t/m) has true order m and the same image
    gens = [g1]
    orders_out = [lam]
    for g, m in zip(q_gens, q_orders):
        t = h_dlog[_loop_pow_generic(g, m, mul, one)]
        assert t % m == 0, "quotient order must divide the landing exponent"
        s = (t // m) % lam
        lifted = mul(g, _loop_pow_generic(g1, (lam - s) % lam, mul, one))
        gens.append(lifted)
        orders_out.append(m)
    dlog = {}
    for x in elements:
        q_vec = q_dlog[tag_of[x]]
        y = x
        for g, m, a in zip(gens[1:], orders_out[1:], q_vec):
            y = mul(y, _loop_pow_generic(g, (m - a) % m if a else 0, mul, one))
        dlog[x] = (h_dlog[y],) + q_vec
    return gens, orders_out, dlog


def loop_unit_circle(ph: Fraction) -> complex:
    return complex(
        math.cos(2.0 * math.pi * float(ph)), math.sin(2.0 * math.pi * float(ph))
    )


def divisor_classes(m) -> list[AlgInt]:
    """Canonical divisors of q ordered by (norm, x, y), from (1) to q."""
    divs = [m.ring.one()]
    for pi, e in m.factorization.factors:
        divs = [
            canonical_associate(d_ * pi**k) for d_ in divs for k in range(e + 1)
        ]
    divs.sort(key=lambda z: (z.norm(), z.x, z.y))
    return divs


class LoopUnitGroup:
    """The unit group and characters of a Modulus, by the dict and Fraction loops.

    Only the modulus's coset arithmetic (rid_coords, mul_rid, one_rid) and its
    factorization are read.
    """

    def __init__(self, m):
        from quadlod.rings import gcd

        self.m = m
        self.unit_rids = []
        for r in range(m.norm):
            rep = residue(m, r)
            if rep.is_zero():
                continue
            if gcd(rep, m.q).is_unit():
                self.unit_rids.append(r)
        gens, orders, self.dlog = loop_decompose_abelian(
            self.unit_rids, m.mul_rid, m.one_rid
        )
        self.unit_group = (tuple(gens), tuple(orders))
        self.unit_index = {r: i for i, r in enumerate(self.unit_rids)}

    def phase_of_rid(self, exponents, rid: int) -> Fraction:
        vec = self.dlog[rid]
        ph = Fraction(0)
        for e, a, n in zip(exponents, vec, self.unit_group[1]):
            ph += Fraction(e * a, n)
        return ph % 1

    def value_of_rid(self, exponents, rid: int) -> complex:
        return loop_unit_circle(self.phase_of_rid(exponents, rid))

    def factors_through(self, exponents, f_el) -> bool:
        # chi factors mod f iff chi(a) = 1 on every unit residue a = 1 (mod f)
        m = self.m
        one = m.ring.one()
        for r in self.unit_rids:
            a = residue(m, r)
            if divide_exact(a - one, f_el) is None:
                continue
            if self.phase_of_rid(exponents, r) != 0:
                return False
        return True

    def is_primitive(self, exponents) -> bool:
        m = self.m
        for pi, _ in m.factorization.factors:
            cofactor = divide_exact(m.q, pi)
            if self.factors_through(exponents, cofactor):
                return False
        return True

    def conductor(self, exponents) -> AlgInt:
        """Smallest-norm divisor class of q through which the character factors."""
        for f_el in divisor_classes(self.m):
            if self.factors_through(exponents, f_el):
                return f_el
        raise AssertionError("character must factor through its own modulus")


# -- the prime table as one norm equation per rational prime ---------------
#
# The old sieve, kept as the reference for the splitting-law mask: a byte
# sieve of rational primes, then per prime p either (p) (inert) or the
# canonical solutions of N(xi) = p, sorted by (norm, x, y).


@dataclass
class LoopPrimeTable:
    ring: object
    max_norm: int
    primes: list
    split_types: list

    def __len__(self):
        return len(self.primes)


def loop_rational_primes(n: int) -> list[int]:
    if n < 2:
        return []
    flags = bytearray(b"\x01") * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, v in enumerate(flags) if v]


def loop_solve_norm_equation(ring, m: int) -> list[AlgInt]:
    """All canonical associates with norm exactly m (sorted by (x, y)).

    The discriminant solve per row that sieve.solve_norm_equation replaced.
    """
    out = []
    seen = set()
    ymax = math.isqrt(4 * m // abs(ring.disc)) + 1
    for y in range(-ymax, ymax + 1):
        # norm m  <=>  (2x + t*y)^2 == 4m + disc*y^2
        ty = ring.t * y
        r = 4 * m + ring.disc * y * y
        if r < 0:
            continue
        s = math.isqrt(r)
        if s * s != r:
            continue
        for sv in {s, -s}:
            if (sv - ty) % 2 == 0:
                cand = canonical_associate(AlgInt(ring, (sv - ty) // 2, y))
                key = (cand.x, cand.y)
                if key not in seen:
                    seen.add(key)
                    out.append(cand)
    out.sort(key=lambda z: (z.x, z.y))
    return out


def loop_sieve_primes(ring, max_norm: int) -> LoopPrimeTable:
    return loop_primes_over(ring, loop_rational_primes(max_norm), max_norm)


def loop_primes_over(ring, ps: list[int], max_norm: int) -> LoopPrimeTable:
    from quadlod.sieve import INERT, RAMIFIED, splitting_type

    entries: list[tuple[int, int, int, AlgInt, str]] = []
    for p in ps:
        t = splitting_type(ring, p)
        if t == INERT:
            if p * p <= max_norm:
                pi = canonical_associate(AlgInt(ring, p, 0))
                entries.append((p * p, pi.x, pi.y, pi, INERT))
        else:
            sols = loop_solve_norm_equation(ring, p)
            if t == RAMIFIED:
                sols = sols[:1]  # conjugate generates the same ideal
            for pi in sols:
                entries.append((p, pi.x, pi.y, pi, t))
    entries.sort(key=lambda e: e[:3])
    return LoopPrimeTable(
        ring, max_norm, [e[3] for e in entries], [e[4] for e in entries]
    )


def as_prime_table(loop_table: LoopPrimeTable):
    """The loop table as a PrimeTable, for the readers of the array table."""
    from quadlod.sieve import _SPLIT_CODE, PrimeTable

    cols = [(p.x, p.y, p.norm(), _SPLIT_CODE[s])
            for p, s in zip(loop_table.primes, loop_table.split_types)]
    xs, ys, norms, codes = np.array(cols, dtype=np.int64).reshape(-1, 4).T
    return PrimeTable(loop_table.ring, loop_table.max_norm, xs, ys, norms, codes)


def loop_class_fold(coeffs, cid, phi):
    """(n_vec, phi) per-class sums of each row, added left to right in element order.

    Elements with cid < 0 (off the coprime set) are skipped.
    """
    out = [[0.0] * phi for _ in range(len(coeffs))]
    for v, row in enumerate(np.asarray(coeffs, dtype=np.float64).tolist()):
        for c, k in zip(row, cid.tolist()):
            if k >= 0:
                out[v][k] += c
    return np.array(out, dtype=np.float64)


def coprime_fold_lhs(coeff_matrix, xs, ys, q1, q2, ring):
    """large_sieve_ratios' lhs per vector, every modulus folded from the elements.

    The per-modulus loop the divisor tree replaced: each modulus with a
    primitive character, in walk order, folds the coefficients onto its
    coprime classes alone (`_fold_classes`, non-coprime elements dropped), at
    the lanes min(A, amax * cmax) allows for cmax its largest coprime class
    count, and adds its row sums of squares of the projection to lhs.
    """
    from quadlod.lab import (
        _coeff_bounds, _coprime_index, _fold_classes, _has_primitive, _lanes_for,
        _moduli, _pack_lanes, _primitive_part, _rids,
    )

    coeff_matrix = np.atleast_2d(np.asarray(coeff_matrix, dtype=np.float64))
    n_vec, n = coeff_matrix.shape
    a, amax, integer = _coeff_bounds(coeff_matrix)
    lanes = _lanes_for(a) if integer else 1
    pack = _pack_lanes(coeff_matrix, 1)
    buf = np.empty((-(-n_vec // lanes), n)) if lanes > 1 else None
    lhs = np.zeros(n_vec)
    for m in _moduli(ring, q1, q2, "Q2"):
        if not _has_primitive(m):
            continue
        cid = _coprime_index(m)[_rids(m, xs, ys)]
        if buf is not None:
            cmax = int(np.bincount(cid[cid >= 0]).max(initial=0))
            lanes_q = _lanes_for(min(a, amax * cmax))
            if lanes_q != pack.lanes:
                pack = _pack_lanes(coeff_matrix, lanes_q, buf)
        prim = _primitive_part(m, _fold_classes(pack, cid, m.phi))
        lhs += (prim * prim).sum(axis=1)
    return lhs


def character_sum_lhs(coeff_matrix, elements, q1, q2, ring):
    """large_sieve_ratios' lhs per vector, from the primitive characters themselves.

    For each modulus of norm in (q1, q2]: the class sums (`loop_class_fold`,
    not the library's packed fold), one complex character sum per primitive
    character (numpy's einsum, no BLAS), and 1/phi(q) times the sum of their
    squared magnitudes.
    """
    from quadlod.characters import Modulus
    from quadlod.regions import canonical_classes

    coeff_matrix = np.atleast_2d(coeff_matrix)
    xs = np.array([z.x for z in elements], dtype=np.int64)
    ys = np.array([z.y for z in elements], dtype=np.int64)
    lhs = np.zeros(len(coeff_matrix))
    for q in canonical_classes(ring, int(q2)):
        nq = q.norm()
        if nq <= q1 or nq < 2:
            continue
        m = Modulus(ring, q)
        prims = primitive_characters(m)
        if not prims:
            continue
        p_mat = np.exp(2j * np.pi * phase_matrix(m, prims))  # (n_prim, phi)
        folded = loop_class_fold(coeff_matrix, m.coprime_index[m.rid_xy(xs, ys)], m.phi)
        s = np.einsum("cu,vu->cv", p_mat, folded)  # (n_prim, n_vec)
        lhs += (np.abs(s) ** 2).sum(axis=0) / m.phi
    return lhs


# -- element-level readers and single-cut sums that the library dropped ------
#
# quadlod reduces whole coordinate arrays (Modulus.rid_xy, coprime_index,
# DirichletCharacter.phases); these read one element, one residue or one cut.


def residue(m, rid):
    """The representative x + j*omega of the residue rid mod q."""
    return AlgInt(m.ring, *m.rid_coords(rid))


def rid_of(m, xi):
    return m.rid_xy(xi.x, xi.y)


def is_coprime(m, xi):
    return bool(m.coprime_index[rid_of(m, xi)] >= 0)


def chi_of_rid(chi, rid):
    """chi at the residue rid, 0j off the unit group."""
    m = chi.modulus
    return complex(m.circle[chi.phases[rid]]) if m.coprime_index[rid] >= 0 else 0j


def chi_at(chi, xi):
    """chi at the element xi, 0j when gcd(xi, q) is not a unit."""
    return chi_of_rid(chi, rid_of(chi.modulus, xi))


def chi_phase(chi, rid):
    """The exact phase k/L in [0, 1) at a coprime residue rid."""
    return Fraction(int(chi.phases[rid]), chi.modulus.exponent)


def primitive_characters(m):
    return [chi for chi in m.characters if chi.is_primitive]


def phase_matrix(m, chars):
    """Phases k/L, rows = characters, columns = unit_rids order."""
    return np.array([chi.phases[m.unit_rids] for chi in chars]) / m.exponent


def reconstruct(fm):
    """unit * prod(prime^exp) of a FactorMap."""
    out = fm.unit
    for pi, e in fm.factors:
        out = out * pi**e
    return out


def epsilon(f, m_cut, m, gamma):
    """The progression error eps(M; q, gamma; f) at the single cut M = m_cut."""
    from quadlod.lab import _a0_values

    xs, ys, _, fv = _a0_values(f, m_cut)
    if m.phi == 1:
        return 0j  # the single coprime class equals the coprime set
    rid = m.rid_xy(xs, ys)
    a_sum = fv[rid == rid_of(m, gamma)].sum()
    b_sum = fv[m.coprime_index[rid] >= 0].sum()
    # componentwise division: complex/int rounds differently across runtimes
    return complex(
        float(a_sum.real) - float(b_sum.real) / m.phi,
        float(a_sum.imag) - float(b_sum.imag) / m.phi,
    )


def sweep_arguments(f, hi):
    """What a scan hands lab._sweep_arrays for f up to norm hi: f's canonical
    classes and its values there."""
    from quadlod.errors import TableTooSmall
    from quadlod.regions import class_arrays

    if hi > f.norm_bound:
        raise TableTooSmall(f"N^2 = {hi} beyond table {f.norm_bound}")
    xs, ys, norms = class_arrays(f.ring, hi)
    return xs, ys, norms, f.vals[: len(xs)]


def epsilon_sweep(f, n, m):
    """The library sweep's exact max over real M <= N and coprime gamma, for one modulus."""
    from quadlod.lab import _best_at, _sweep_arrays
    from quadlod.regions import a0

    return _best_at(m, _sweep_arrays(m, *sweep_arguments(f, a0(f.ring, n).hi_sq)), [math.inf])[0]


def loop_unit_orbits(m):
    """Each coprime class's unit orbit, one unit and one class at a time.

    Returns (members, fixed): members[c] is the set of classes u * c over the
    units u of the ring, fixed[c] the number of units with u * c = c.
    Classes are positions in m.unit_rids.
    """
    ring = m.ring
    members, fixed = [], []
    for c, rid in enumerate(m.unit_rids):
        x, y = (int(v) for v in m.rid_coords(rid))
        images = []
        for u in ring.units:
            p = AlgInt(ring, x, y) * u
            images.append(m.unit_rids.index(int(m.rid_xy(p.x, p.y))))
        members.append(set(images))
        fixed.append(images.count(c))
    return members, fixed


def sw_sum(f, n, chi):
    """Character-twisted sum of f over the elements of A0(N), through lab.sw_term
    on f's support, scattered into a zero buffer over A0(N).
    """
    from quadlod.lab import _a0_values, sw_term

    m = chi.modulus
    xs, ys, _, fv = _a0_values(f, n)
    nz = np.flatnonzero(fv)
    cid = m.coprime_index[m.rid_xy(xs[nz], ys[nz])]
    return sw_term(fv[nz], cid, chi, nz, np.zeros(len(fv), dtype=np.complex128))
