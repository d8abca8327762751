import random

import pytest

from quadlod.arith import ArithFn
from quadlod.regions import canonical_classes
from quadlod.rings import SUPPORTED_D, make_ring
from quadlod.sieve import sieve_primes


@pytest.fixture(scope="session")
def all_rings():
    return [make_ring(d) for d in SUPPORTED_D]


@pytest.fixture(scope="session")
def gauss():
    return make_ring(-1)


@pytest.fixture(scope="session")
def eisen():
    return make_ring(-3)


@pytest.fixture(scope="session")
def gauss_table_2k(gauss):
    return sieve_primes(gauss, 2000)


def random_int_fn(ring, bound, seed, lo=-9, hi=9):
    """Random complex function with integer parts: float sums stay exact."""
    rng = random.Random(seed)
    vals = [
        complex(rng.randint(lo, hi), rng.randint(lo, hi))
        for c in canonical_classes(ring, bound)
    ]
    return ArithFn(ring, bound, vals, f"randint[{seed}]")


def random_float_fn(ring, bound, seed):
    rng = random.Random(seed)
    vals = [
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for c in canonical_classes(ring, bound)
    ]
    return ArithFn(ring, bound, vals, f"randf[{seed}]")
