"""quadlod: exact arithmetic and distribution-in-progressions experiments
in the nine imaginary quadratic rings of integers with class number one."""

from .arith import ArithFn, convolve, dirichlet_series, tabulate, unit_fold_check, weighted_log_sum
from .characters import DirichletCharacter, Modulus, make_modulus, trivial_modulus
from .errors import QlodError
from .lab import (
    LodScanConfig,
    LodTable,
    convolution_experiment,
    epsilon,
    epsilon_sweep,
    large_sieve_ratios,
    lod_scan,
    mertens_sums,
    sw_check,
    sw_sum,
)
from .regions import NormRegion, a0, canonical_classes, count_region, density_ratio, enumerate_region
from .rings import SUPPORTED_D, AlgInt, RingDescriptor, canonical_associate, divide_exact, gcd, make_ring
from .sieve import FactorMap, PrimeTable, cache_load, cache_save, factor, is_prime, sieve_primes, von_mangoldt

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
    "dirichlet_series",
    "divide_exact",
    "enumerate_region",
    "epsilon",
    "epsilon_sweep",
    "factor",
    "gcd",
    "is_prime",
    "large_sieve_ratios",
    "lod_scan",
    "make_modulus",
    "make_ring",
    "mertens_sums",
    "sieve_primes",
    "sw_check",
    "sw_sum",
    "tabulate",
    "trivial_modulus",
    "unit_fold_check",
    "von_mangoldt",
    "weighted_log_sum",
]
