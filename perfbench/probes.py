"""Spans and counters recorded around the calls into each quadlod layer.

The traced run executes exactly the CLI pipeline of a workload; `installed`
swaps the names that the pipeline looks up at call time (module attributes
such as `lab._fvals` or `cli.tabulate`, and `lab.Modulus`) for probes that
record a span around the original call and count its work.  Nothing in the
library changes, and the originals are restored on exit.

A span is (id, name, start, end, parent id, workload).  Spans named
`trace.count` hold the benchmark's own counting work and are excluded from
the traced total.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from functools import cached_property

import numpy as np

COUNT = "trace.count"


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, name, fn, count=None):
        """`fn` inside a span; `count(result, *args)` runs afterwards, untimed."""

        def probe(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                with self.span(COUNT):
                    count(out, *args, **kwargs)
            return out

        return probe


def self_times(spans: list[dict]) -> Counter:
    """Seconds per span name, each span minus the time of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    out: Counter = Counter()
    for s in spans:
        out[s["name"]] += own[s["id"]]
    return out


def _breakpoints(lab, m, xs, ys, norms, fv) -> int:
    """Distinct active norms, i.e. the steps of lab._sweep_arrays' loop."""
    if m.phi == 1:
        return 0
    cid = lab._coprime_index(m)[lab._rids(m, xs, ys)]
    lvn = norms[(cid >= 0) & (fv != 0)]
    return int(lvn.size and 1 + np.count_nonzero(lvn[1:] != lvn[:-1]))


def _convolve_pairs(f, g) -> int:
    """Nonzero (delta, m) pairs visited by arith.convolve(f, g)."""
    from quadlod.rings import AlgInt

    bound = min(f.norm_bound, g.norm_bound)

    def nonzero_norms(fn):
        return np.array(
            [AlgInt(fn.ring, x, y).norm() for (x, y), v in fn.values.items() if v != 0],
            dtype=np.int64,
        )

    dn = nonzero_norms(f)
    dn = dn[dn <= bound]
    gn = np.sort(nonzero_norms(g))
    return int(np.searchsorted(gn, bound // dn, side="right").sum())


@contextmanager
def installed(tr: Tracer):
    """Probe the layer boundaries of the CLI pipelines for the duration."""
    from quadlod import arith, cli, lab, regions
    from quadlod.characters import Modulus

    cache = regions._element_arrays_cached
    counts = tr.counts

    def add(key, n=1):
        counts[key] += n

    orig_element_arrays = regions.element_arrays
    orig_enumerate_region = cli.enumerate_region

    def element_arrays(*args, **kwargs):
        misses = cache.cache_info().misses
        with tr.span("regions.element_arrays"):
            out = orig_element_arrays(*args, **kwargs)
        if cache.cache_info().misses > misses:
            add("regions.elements", len(out[0]))
        return out

    def enumerate_region(*args, **kwargs):
        # the CLI materializes the generator with list(); do it inside the span
        with tr.span("regions.enumerate_region"):
            return list(orig_enumerate_region(*args, **kwargs))

    class ProbedModulus(Modulus):
        def __init__(self, *args, **kwargs):
            with tr.span("characters.modulus"):
                super().__init__(*args, **kwargs)
                phi = len(self.unit_rids)
            add("characters.moduli")
            add("characters.units", phi)

        @cached_property
        def unit_group(self):
            with tr.span("characters.modulus"):
                return Modulus.unit_group.func(self)

        @cached_property
        def characters(self):
            with tr.span("characters.modulus"):
                chars = Modulus.characters.func(self)
            add("characters.chars", len(chars))
            return chars

        def primitive_characters(self):
            with tr.span("characters.primitive"):
                prims = super().primitive_characters()
            add("characters.primitive", len(prims))
            return prims

        def character_phase_matrix(self, chars=None):
            with tr.span("characters.phase_matrix"):
                return super().character_phase_matrix(chars)

    def sweep_count(res, m, xs, ys, norms, fv):
        add("lab.sweep_moduli")
        add("lab.breakpoints", _breakpoints(lab, m, xs, ys, norms, fv))

    patches = [
        (cli, "sieve_primes", tr.wrap(
            "sieve.sieve_primes", cli.sieve_primes,
            lambda t, *a, **k: add("sieve.primes", len(t)))),
        (arith, "FactorSieve", tr.wrap("sieve.factor_sieve", arith.FactorSieve)),
        (cli, "tabulate", tr.wrap(
            "arith.tabulate", cli.tabulate,
            lambda f, *a, **k: add("arith.classes", len(f.values)))),
        (regions, "element_arrays", element_arrays),
        (lab, "element_arrays", element_arrays),
        (arith, "element_arrays", element_arrays),
        (cli, "enumerate_region", enumerate_region),
        (lab, "Modulus", ProbedModulus),
        (lab, "_fvals", tr.wrap(
            "lab.fvals", lab._fvals, lambda *a, **k: add("lab.fvals_calls"))),
        (lab, "_sweep_arrays", tr.wrap("lab.sweep", lab._sweep_arrays, sweep_count)),
        (lab, "sw_term", tr.wrap(
            "lab.sw_term", lab.sw_term, lambda *a, **k: add("lab.sw_chars"))),
        (lab, "large_sieve_ratios", tr.wrap("lab.large_sieve_ratios", lab.large_sieve_ratios)),
        (cli, "save_csv", tr.wrap("arith.save_csv", cli.save_csv)),
        (cli, "_emit", tr.wrap("cli.write", cli._emit)),
        (lab, "write_conv_csv", tr.wrap("cli.write", lab.write_conv_csv)),
    ]
    convolve = tr.wrap(
        "arith.convolve", arith.convolve,
        lambda h, f, g: add("arith.convolve_pairs", _convolve_pairs(f, g)))
    patches += [(cli, "convolve", convolve), (lab, "convolve", convolve)]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, probe in patches:
            setattr(mod, attr, probe)
        yield
    finally:
        for mod, attr, orig in saved:
            setattr(mod, attr, orig)
