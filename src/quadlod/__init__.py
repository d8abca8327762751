"""quadlod: exact arithmetic and distribution-in-progressions experiments
in the nine imaginary quadratic rings of integers with class number one."""

from .arith import ArithFn, convolve, tabulate, unit_fold_check
from .characters import DirichletCharacter, Modulus
from .errors import QlodError
from .lab import (
    LodScanConfig,
    LodTable,
    convolution_experiment,
    large_sieve_ratios,
    lod_scan,
    mertens_sums,
    sw_check,
)
from .regions import NormRegion, a0, canonical_classes, count_region, density_ratio, enumerate_region
from .rings import SUPPORTED_D, AlgInt, RingDescriptor, canonical_associate, divide_exact, gcd, make_ring
from .sieve import FactorMap, PrimeTable, cache_load, cache_save, factor, sieve_primes

__version__ = "0.1.0"

__all__ = [
    "AlgInt",
    "ArithFn",
    "DirichletCharacter",
    "FactorMap",
    "LodScanConfig",
    "LodTable",
    "Modulus",
    "NormRegion",
    "PrimeTable",
    "QlodError",
    "RingDescriptor",
    "SUPPORTED_D",
    "a0",
    "cache_load",
    "cache_save",
    "canonical_associate",
    "canonical_classes",
    "convolution_experiment",
    "convolve",
    "count_region",
    "density_ratio",
    "divide_exact",
    "enumerate_region",
    "factor",
    "gcd",
    "large_sieve_ratios",
    "lod_scan",
    "make_ring",
    "mertens_sums",
    "sieve_primes",
    "sw_check",
    "tabulate",
    "unit_fold_check",
]
