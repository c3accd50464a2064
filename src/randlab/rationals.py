"""Exact rational helpers: parsing, num/den formatting, integer log2 brackets.

All arithmetic in the library is exact.  Values are plain rationals; when
gmpy2 is installed its mpq type (fully interoperable with Fraction) is used
internally for speed, otherwise fractions.Fraction serves.
"""

import math
from fractions import Fraction

from .errors import SpecParseError

try:
    from gmpy2 import mpq as RAT
except ImportError:  # pragma: no cover
    RAT = Fraction

ZERO = RAT(0)
ONE = RAT(1)
HALF = RAT(1, 2)


def parse_rational(text: str):
    """Parse "num/den" or "num" into an exact rational."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return RAT(int(num), int(den))
        return RAT(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecParseError(f"bad rational {text!r}: {exc}") from exc


def format_rational(q) -> str:
    """Serialize as "num/den" (always with an explicit denominator)."""
    if not hasattr(q, "denominator"):
        q = RAT(q)
    return f"{q.numerator}/{q.denominator}"


def neg_log2_bracket(q) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= -log2(q) <= hi and hi - lo <= 1.

    lo == hi exactly when q is a power of two.  q must be positive.
    """
    q = q if hasattr(q, "denominator") else RAT(q)
    if q <= 0:
        raise ValueError("neg_log2_bracket needs a positive rational")
    n, d = int(q.numerator), int(q.denominator)
    # k = ceil(-log2 q): smallest integer with q >= 2^-k, i.e. n*2^k >= d.
    k = d.bit_length() - n.bit_length()
    while not _ge_shifted(n, k, d):
        k += 1
    while k > -(10**9) and _ge_shifted(n, k - 1, d):
        k -= 1
    if _eq_shifted(n, k, d):
        return (k, k)
    return (k - 1, k)


def _ge_shifted(n: int, k: int, d: int) -> bool:
    # n * 2^k >= d with k possibly negative
    if k >= 0:
        return n << k >= d
    return n >= d << (-k)


def _eq_shifted(n: int, k: int, d: int) -> bool:
    if k >= 0:
        return n << k == d
    return n == d << (-k)


def frac_log2(q) -> float:
    """Float log2 of a positive rational, safe for huge numerators/denominators."""
    q = q if hasattr(q, "denominator") else RAT(q)
    if q <= 0:
        raise ValueError("frac_log2 needs a positive rational")
    return _int_log2(int(q.numerator)) - _int_log2(int(q.denominator))


def _int_log2(n: int) -> float:
    shift = n.bit_length() - 64
    if shift > 0:
        return math.log2(n >> shift) + shift
    return math.log2(n)
