"""Unit-invariant arithmetic functions on O_K and their Dirichlet convolution.

A function is one dense complex128 table over the canonical associate
representatives of norm <= a bound, indexed like `regions.class_arrays`, so
f(u * xi) = f(xi) holds by construction.  Convolution runs as a product sweep
over class pairs (delta, m) with norm(delta) * norm(m) <= bound, which visits
exactly sum-of-tau(a) pairs, the same count as per-class divisor enumeration.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable

import numpy as np

from .errors import BoundsTooLarge, CorruptFile, RingMismatch, TableTooSmall, UnsupportedRing
from .rings import AlgInt, RingDescriptor, canonical_associate, make_ring, norm_xy
from .regions import (
    a0, canonical_classes, class_arrays, class_index, class_products, element_arrays,
)
from .sieve import FactorSieve, PrimeTable

BUILTIN_NAMES = ("one", "moebius", "tau", "log_norm", "lambda", "prime_indicator")
_ALIASES = {"prime": "prime_indicator", "mu": "moebius", "log": "log_norm"}
_CSV_COLUMNS = ["x", "y", "norm", "re", "im"]
_CSV_CHUNK = 1 << 13  # rows per joined write, so the text in memory stays bounded


@dataclass(eq=False)
class ArithFn:
    """A complex-valued function on canonical classes of norm <= norm_bound.

    vals[i] is the value at class index i of `class_arrays(ring, norm_bound)`.
    """

    ring: RingDescriptor
    norm_bound: int
    vals: np.ndarray
    name: str

    def __post_init__(self):
        self.vals = np.asarray(self.vals, dtype=np.complex128)
        if len(self.vals) != len(class_arrays(self.ring, self.norm_bound)[0]):
            raise ValueError(f"{self.name}: {len(self.vals)} values, not one per class")

    @property
    def values(self) -> Mapping[tuple[int, int], complex]:
        """Read-only view: canonical (x, y) -> value, in class order."""
        return _ClassValues(self)

    def __call__(self, xi: AlgInt) -> complex:
        can = canonical_associate(xi)
        try:
            return self.values[(can.x, can.y)]
        except KeyError:
            raise TableTooSmall(
                f"{self.name} tabulated to norm {self.norm_bound}, asked at {xi.norm()}"
            ) from None


class _ClassValues(Mapping):
    def __init__(self, f: ArithFn):
        self.f = f
        self.xs, self.ys, _ = class_arrays(f.ring, f.norm_bound)

    def __getitem__(self, key):
        (x, y), f = key, self.f
        if 1 <= norm_xy(f.ring, x, y) <= f.norm_bound:
            i = class_index(f.ring, f.norm_bound, [x], [y])[0]
            if (self.xs[i], self.ys[i]) == (x, y):
                return complex(f.vals[i])
        raise KeyError(key)

    def __iter__(self):
        return zip(self.xs.tolist(), self.ys.tolist())

    def __len__(self):
        return len(self.xs)

    def items(self):
        return zip(self, self.f.vals.tolist())


def tabulate(
    builtin: str | Callable[[AlgInt], complex],
    ring: RingDescriptor,
    norm_bound: int,
    table: PrimeTable | None = None,
) -> ArithFn:
    """Tabulate a named builtin (or a callback) on all classes up to norm_bound.

    The factorization-based builtins (moebius, tau, lambda, prime_indicator)
    need a PrimeTable covering norm_bound.
    """
    name = builtin if isinstance(builtin, str) else getattr(builtin, "__name__", "custom")
    name = _ALIASES.get(name, name)
    if not isinstance(builtin, str):
        vals = [complex(builtin(c)) for c in canonical_classes(ring, norm_bound)]
        return ArithFn(ring, norm_bound, vals, name)
    _, _, norms = class_arrays(ring, norm_bound)
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin {builtin!r}; choose from {BUILTIN_NAMES}")
    if name not in ("one", "log_norm") and (table is None or table.max_norm < norm_bound):
        raise TableTooSmall(f"{name} needs a PrimeTable covering norm_bound")
    if name == "one":
        vals = np.ones(len(norms))
    elif name == "log_norm":
        vals = _logs(norms)
    elif name == "prime_indicator":
        vals = np.zeros(len(norms))
        vals[table.class_indices(norm_bound)] = 1
    else:
        distinct, tau, last = _prime_chains(FactorSieve(table, norm_bound))
        if name == "moebius":
            vals = np.where(tau == 2**distinct, (-1.0) ** distinct, 0.0)
        elif name == "tau":
            vals = tau
        else:  # lambda: log N(p) on the powers of one prime p
            vals = np.where(distinct == 1, _logs(norms[last]), 0.0)
    return ArithFn(ring, norm_bound, vals, name)


def _logs(norms: np.ndarray) -> np.ndarray:
    # math.log once per distinct norm: np.log differs from it in the last bit
    distinct, inverse = np.unique(norms, return_inverse=True)
    return np.array([math.log(n) for n in distinct.tolist()])[inverse]


def _prime_chains(sieve: FactorSieve):
    """Per class: number of distinct primes, tau, and the last prime.

    Follows the smallest-prime chains one prime a step, stepping only the
    classes cls whose chain is still live (cur: the class each has reached).
    Primes come out in class order, so a run of equal primes is one prime's
    exponent.
    """
    n = len(sieve.spf)
    last = np.full(n, -1)
    run, distinct, tau = np.zeros(n, np.int64), np.zeros(n, np.int64), np.ones(n, np.int64)
    cls = cur = np.flatnonzero(sieve.spf >= 0)
    while cls.size:
        p = sieve.spf[cur]
        new = cls[p != last[cls]]  # classes whose next prime is not the last one
        tau[new] *= run[new] + 1
        run[cls] += 1
        run[new] = 1
        distinct[new] += 1
        last[cls], cur = p, sieve.cof[cur]
        live = sieve.spf[cur] >= 0
        cls, cur = cls[live], cur[live]
    return distinct, tau * (run + 1), last


def _mass(vals: np.ndarray) -> float:
    """sum of |re| + |im| over complex values; inf past the float range, nan on nan."""
    with np.errstate(over="ignore"):
        return float(np.abs(vals.real).sum() + np.abs(vals.imag).sum())


def convolve(f: ArithFn, g: ArithFn) -> ArithFn:
    """Dirichlet convolution (f*g)(a) = sum over divisor pairs d*m = a.

    BoundsTooLarge unless M_f * M_g < 2^1022, M the `_mass` of each operand
    up to the bound: every partial sum of a class's products is then finite.
    """
    if f.ring.d != g.ring.d:
        raise RingMismatch("convolution operands in different rings")
    bound = min(f.norm_bound, g.norm_bound)
    n = len(class_arrays(f.ring, bound)[0])
    fv, gv = f.vals[:n], g.vals[:n]
    if not (mass := _mass(fv) * _mass(gv)) < 2.0**1022:
        raise BoundsTooLarge(f"sum of |f| times sum of |g| is {mass!r}: need < 2^1022")
    left, right = np.flatnonzero(fv), np.flatnonzero(gv)
    out = np.zeros(n, dtype=np.complex128)
    for i, j, k in class_products(f.ring, bound, left, right):
        # Python's complex product, as four float64 products: numpy's complex
        # multiply may fuse them.  np.add.at adds in pair order, like a loop.
        a, b = fv[left[i]], gv[right[j]]
        prod = np.empty(len(k), dtype=np.complex128)
        prod.real = a.real * b.real - a.imag * b.imag
        prod.imag = a.real * b.imag + a.imag * b.real
        np.add.at(out, k, prod)
    return ArithFn(f.ring, bound, out, f"({f.name})*({g.name})")


def _running_sum(vals: np.ndarray) -> complex:
    # 0j + vals[0] + vals[1] + ... left to right; numpy's sum() adds pairwise
    return complex(np.cumsum(np.concatenate(([0j], vals)))[-1])


# Read only by the tests: it keeps arith reading element_arrays, which
# perfbench/probes.py patches in this module by name.
def unit_fold_check(f: ArithFn, n: float) -> tuple[complex, complex]:
    """Both sides of: sum of f over elements of A0(N) == w_K * class sum."""
    region = a0(f.ring, n)
    if region.hi_sq > f.norm_bound:
        raise TableTooSmall(f"N^2 = {region.hi_sq} beyond table {f.norm_bound}")
    xs, ys, _ = element_arrays(f.ring.d, 1, region.hi_sq)
    el_sum = _running_sum(f.vals[class_index(f.ring, f.norm_bound, xs, ys)])
    cls_sum = _running_sum(f.vals[: len(class_arrays(f.ring, region.hi_sq)[0])])
    return el_sum, f.ring.w_K * cls_sum


def save_csv(f: ArithFn, path, config_line: str = "") -> None:
    """Columns x, y, norm, re, im under config_line and a `# d=` line; None: stdout.

    The bytes are those of `csv.writer` (CRLF row ends; no repr needs quoting).
    Each `_CSV_CHUNK` rows are one join of their columns' texts, rendered once
    per distinct value in the chunk (`_texts`), and one write.
    """
    cols = (*class_arrays(f.ring, f.norm_bound), f.vals.real, f.vals.imag)
    out = open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)
    with out as fh:
        fh.write(f"{config_line}# d={f.ring.d} norm_bound={f.norm_bound} name={f.name}\n")
        fh.write(",".join(_CSV_COLUMNS) + "\r\n")
        for lo in range(0, len(f.vals), _CSV_CHUNK):
            fields = (_texts(c[lo : lo + _CSV_CHUNK]) for c in cols)
            fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def _texts(col: np.ndarray) -> list[str]:
    """repr of each entry of an int64 or float64 column, taken once per distinct value.

    Values are keyed on their bits, since -0.0 and 0.0 compare equal but repr apart.
    """
    keys, index = np.unique(col.view(np.int64), return_inverse=True)
    texts = np.array([repr(v) for v in keys.view(col.dtype).tolist()], dtype=object)
    return texts[index].tolist()


def load_csv(path) -> ArithFn:
    """Read a save_csv file; leading `# config:` lines are skipped.

    Anything but one row per class, in class order as save_csv writes it,
    with two finite float values, raises CorruptFile.
    """
    try:
        with open(path, newline="") as fh:
            header = fh.readline()
            while header.startswith("# config:"):
                header = fh.readline()
            rows = list(csv.reader(fh))
        if not header.startswith("# d="):
            raise ValueError("no '# d=' line")
        meta = dict(kv.split("=", 1) for kv in header[1:].split())
        ring, bound = make_ring(int(meta["d"])), int(meta["norm_bound"])
    except (ValueError, KeyError, csv.Error, UnsupportedRing) as exc:
        raise CorruptFile(f"{path}: bad metadata ({exc})") from None
    if rows[:1] != [_CSV_COLUMNS]:
        raise CorruptFile(f"{path}: no column header {','.join(_CSV_COLUMNS)}")
    xs, ys, norms = class_arrays(ring, bound)
    classes = zip(xs.tolist(), ys.tolist(), norms.tolist())
    vals = []
    for n, (row, cls) in enumerate(zip_longest(rows[1:], classes), start=1):
        try:
            if not (row and cls and len(row) == 5 and row[:3] == [str(c) for c in cls]):
                raise ValueError(f"got {row}, expected (x, y, norm) = {cls}")
            z = complex(float(row[3]), float(row[4]))
            if not cmath.isfinite(z):
                raise ValueError(f"non-finite value {z}")
            vals.append(z)
        except ValueError as exc:
            raise CorruptFile(f"{path}: data row {n}: {exc}") from None
    return ArithFn(ring, bound, vals, meta.get("name", "csv"))
