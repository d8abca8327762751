"""Exception hierarchy shared by all quadlod modules."""


class QlodError(Exception):
    """Base class for all quadlod computation errors."""


class UsageError(QlodError):
    """A request the command line should reject as misuse (exit code 2)."""


class UnsupportedRing(UsageError):
    """d is not one of the nine class-number-one imaginary quadratic values."""


class RingMismatch(QlodError):
    """Operands (or a cache file) belong to different rings."""


class ZeroElement(QlodError):
    """Operation undefined at zero."""


class BothZero(QlodError):
    """gcd(0, 0) requested."""


class BoundsTooLarge(QlodError):
    """Requested bound exceeds the configured memory guard."""


class TableTooSmall(QlodError):
    """A tabulated object does not cover the requested norm range."""


class FormatVersionMismatch(QlodError):
    """Cache file has a bad magic header or unknown format version."""


class CorruptFile(QlodError):
    """A function CSV or prime cache file is malformed or inconsistent."""


class ZeroOrUnitModulus(QlodError):
    """Moduli must have norm at least 2."""


class EmptyModulusRange(QlodError):
    """Large-sieve modulus range requires Q1 < Q2."""


class UnsupportedWeight(QlodError):
    """Large-sieve weight tabulation must be positive and non-increasing."""
