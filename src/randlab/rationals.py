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


def parse_rational(text: str, what: str = "rational"):
    """Parse "num/den" or "num" into an exact rational; `what` names the
    input in the parse error."""
    if not isinstance(text, str):
        raise SpecParseError(f"bad {what} {text!r}: not a string")
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return RAT(int(num), int(den))
        return RAT(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecParseError(f"bad {what} {text!r}: {exc}") from exc


def format_rational(q) -> str:
    """Serialize a rational as "num/den" (always with an explicit denominator)."""
    return f"{q.numerator}/{q.denominator}"


def neg_log2_bracket(n: int, d: int) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= -log2(n/d) <= hi and hi - lo <= 1.

    lo == hi exactly when n/d is a power of two.  n and d must be positive
    ints; the pair need not be in lowest terms.
    """
    if n <= 0 or d <= 0:
        raise ValueError("neg_log2_bracket needs a positive rational")
    # with k = bitlen(d) - bitlen(n), n/d lies in (2^(-k-1), 2^(-k+1)), so
    # ceil(-log2 n/d) is k where n*2^k >= d and k + 1 otherwise
    k = d.bit_length() - n.bit_length()
    a, b = n << max(k, 0), d << max(-k, 0)
    if a == b:  # n/d is 2^-k
        return (k, k)
    if a < b:
        k += 1
    return (k - 1, k)


def frac_log2(q) -> float:
    """Float log2 of a positive rational, safe for huge numerators/denominators."""
    return _int_log2(int(q.numerator)) - _int_log2(int(q.denominator))


def _int_log2(n: int) -> float:
    shift = n.bit_length() - 64
    if shift > 0:
        return math.log2(n >> shift) + shift
    return math.log2(n)
