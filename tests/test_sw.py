"""sw_check against the per-character loop it replaced.

Equality is on the rows themselves and on their repr, so it is bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlod import lab
from quadlod.arith import ArithFn, tabulate
from quadlod.characters import Modulus
from quadlod.regions import a0, canonical_classes
from quadlod.rings import SUPPORTED_D, make_ring
from quadlod.sieve import sieve_primes
from _oracles import loop_sw_check_reference


def int_valued(z, i, k):
    return complex((3 * z.x + z.y) % 5 - 2, (z.x - z.y) % 3 - 1)


def complex_valued(z, i, k):
    return complex(math.sin(z.x + 0.5), math.cos(z.y) / 3)


def zero(z, i, k):
    return 0j


def one_class(z, i, k):
    """Nonzero on a single class: its w associates are f's whole support."""
    return complex(1.75, -0.5) if i == k // 3 else 0j


def sparse_neg_zeros(z, i, k):
    """About one class in five nonzero, with -0.0 parts; -0.0 + -0.0j elsewhere."""
    if (z.x + 2 * z.y) % 5:
        return complex(-0.0, -0.0)
    return complex(-math.cos(z.x) - 1.5, -0.0) if z.y % 2 else complex(-0.0, math.sin(z.y) + 1.5)


def under_half(z, i, k):
    """Nonzero on the first k // 2 classes: at most half the elements, the support path."""
    return complex(1.0 + i % 3, 0.25) if i < k // 2 else 0j


def over_half(z, i, k):
    """Nonzero on the first k // 2 + 1 classes: over half the elements, the dense path."""
    return complex(1.0 + i % 3, 0.25) if i <= k // 2 else 0j


F_SPECS = [
    "one", "lambda", "prime", int_valued, complex_valued,
    zero, one_class, sparse_neg_zeros, under_half, over_half,
]


def spec_fn(spec, ring, hi):
    """A builtin by name, or a function of (class, its index, the class count), tabulated to hi."""
    if isinstance(spec, str):
        return tabulate(spec, ring, hi, sieve_primes(ring, hi))
    classes = canonical_classes(ring, hi)
    vals = [spec(c, i, len(classes)) for i, c in enumerate(classes)]
    return ArithFn(ring, hi, vals, spec.__name__)


@settings(max_examples=120, deadline=None)
@given(
    d=st.sampled_from(SUPPORTED_D),
    spec=st.sampled_from(F_SPECS),
    n=st.floats(2.5, 12.0),
    d_power=st.floats(1.0, 3.0),
    bound_power=st.one_of(st.none(), st.floats(0.0, 6.0)),
)
def test_sw_check_bit_identical_to_loop(d, spec, n, d_power, bound_power):
    ring = make_ring(d)
    hi = a0(ring, n).hi_sq
    f = spec_fn(spec, ring, hi)
    got = lab.sw_check(f, n, d_power, bound_power)
    want = loop_sw_check_reference(f, n, d_power, bound_power)
    assert got.rows == want.rows
    assert got.max_scaled == want.max_scaled
    assert repr(got) == repr(want)


def test_support_path_runs_exactly_up_to_half_support(monkeypatch):
    ring = make_ring(-3)
    hi = a0(ring, 9).hi_sq
    seen = []
    sw_term = lab.sw_term

    def spy(fv, cid, chi, nz=None, buf=None):
        seen.append(nz is not None)
        return sw_term(fv, cid, chi, nz, buf)

    monkeypatch.setattr(lab, "sw_term", spy)
    for spec, sparse in ((under_half, True), (over_half, False), (zero, True), ("one", False)):
        seen.clear()
        lab.sw_check(spec_fn(spec, ring, hi), 9, 2.0)
        assert seen and set(seen) == {sparse}, spec


def test_sw_check_bit_identical_to_loop_across_pairwise_blocks():
    """d = -3, N = 40: 5 000+ elements, so numpy's pairwise sum nests many 128-element blocks."""
    ring = make_ring(-3)
    hi = a0(ring, 40).hi_sq
    f = spec_fn("lambda", ring, hi)
    got = lab.sw_check(f, 40, 2.5)
    want = loop_sw_check_reference(f, 40, 2.5)
    assert len(lab._a0_values(f, 40)[0]) > 40 * 128
    assert len(got.rows) > 100
    assert repr(got) == repr(want)


def test_support_sum_keeps_its_bits_where_a_part_is_exactly_zero(gauss):
    """A real f with -0.0 parts under the principal character: the twisted sum's
    imaginary part is exactly zero.  Every product over all elements has a -0.0
    imaginary part, while the buffer's zero slots hold +0.0; whatever sign each
    sum's zero takes, the real part and |sum| keep their bits.
    """
    hi = a0(gauss, 12).hi_sq
    f = spec_fn(sparse_neg_zeros, gauss, hi)
    xs, ys, _, fv = lab._a0_values(f, 12)
    fv = fv.real.astype(np.complex128)  # real parts <= -0.0
    fv.imag = -0.0
    m = Modulus(gauss, gauss.element(3, 0))
    principal = next(chi for chi in m.characters if chi.is_principal)
    cid = m.coprime_index[m.rid_xy(xs, ys)]
    nz = np.flatnonzero(fv)
    assert 0 < 2 * len(nz) <= len(fv)
    full = lab.sw_term(fv, cid, principal)
    support = lab.sw_term(fv[nz], cid[nz], principal, nz, np.zeros(len(fv), dtype=np.complex128))
    assert full.imag == support.imag == 0.0
    assert full.real.hex() == support.real.hex() != "0x0.0p+0"
    assert abs(full).hex() == abs(support).hex()
