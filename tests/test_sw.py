"""sw_check against the per-character loop it replaced.

Equality is on the rows themselves and on their repr, so it is bit for bit.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from quadlod import lab
from quadlod.arith import ArithFn, tabulate
from quadlod.regions import a0, canonical_classes
from quadlod.rings import SUPPORTED_D, make_ring
from quadlod.sieve import sieve_primes
from _oracles import loop_sw_check_reference


def int_valued(z):
    return complex((3 * z.x + z.y) % 5 - 2, (z.x - z.y) % 3 - 1)


def complex_valued(z):
    return complex(math.sin(z.x + 0.5), math.cos(z.y) / 3)


F_SPECS = ["one", "lambda", "prime", int_valued, complex_valued]


def spec_fn(spec, ring, hi):
    """A builtin by name, or a function of the canonical classes, tabulated to hi."""
    if isinstance(spec, str):
        return tabulate(spec, ring, hi, sieve_primes(ring, hi))
    return ArithFn(ring, hi, [spec(c) for c in canonical_classes(ring, hi)], spec.__name__)


@settings(max_examples=60, deadline=None)
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
