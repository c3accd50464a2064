"""Finite prefix-free machines: code tables, complexity, the induced
semimeasure, request-set construction, and deficiency traces along a point's
cell names.  A weight is one integer sum of 2^(top - n) over codeword or
request lengths n, over the common denominator 2^top, top the longest n.
"""

import math
from typing import Optional

from . import bits
from .errors import ConstructionError, PreconditionError, check_enumeration_depth
from .measure import Measure, Record
from .rationals import RAT

INF = math.inf


def _dyadic_weight(lengths):
    lengths = list(lengths)
    top = max(lengths, default=0)
    return RAT(sum(1 << (top - n) for n in lengths), 1 << top)


class PrefixFreeMachine:
    """Finite code table mapping codewords to output strings; the domain must
    be prefix-free, so by Kraft's inequality its weight is at most 1."""

    def __init__(self, table: dict):
        self.table, self._shortest = dict(table), {}  # _shortest: output -> length of its shortest codeword
        shortest, validate = self._shortest, bits.validate_bits
        for c, o in self.table.items():
            validate(c)
            validate(o)
            if shortest.get(o, INF) > len(c):
                shortest[o] = len(c)
        bad = bits.prefix_free_violation(self.table)
        if bad is not None:
            raise ConstructionError(f"domain not prefix-free: {bad[0]!r} < {bad[1]!r}")

    def kraft_weight(self):
        return self.semimeasure("")

    def complexity(self, sigma: str):
        """Length of the shortest codeword producing sigma, or math.inf."""
        return self._shortest.get(sigma, INF)

    def semimeasure(self, sigma: str):
        """Total weight of codewords whose output extends sigma."""
        return _dyadic_weight(len(c) for c, out in self.table.items() if out.startswith(sigma))

    def max_output_length(self) -> int:
        return max((len(o) for o in self.table.values()), default=0)

    def bounded_by(self, nu: Measure) -> bool:
        """Is the semimeasure dominated by nu, semimeasure <= nu at every
        string up to the longest output?"""
        depth = self.max_output_length()
        check_enumeration_depth(depth)
        strings = (sigma for n in range(depth + 1) for sigma in bits.all_strings(n))
        return all(self.semimeasure(sigma) <= nu.mass(sigma) for sigma in strings)


def request_weight(requests):
    return _dyadic_weight(n for n, _ in requests)


def kc_build(requests) -> PrefixFreeMachine:
    """Build a prefix-free machine honoring every (length, output) request.

    A free block of [0,1) of size 2^-k is the length-k codeword prefix that
    names it.  A request of length n takes the free block b of the largest
    length k <= n: its codeword is b + "0"*(n-k), and b + "0"*(j-k-1) + "1"
    is freed for j in k+1..n.  Free blocks thus keep distinct sizes, so one
    fits every request while the total request weight stays at most 1.
    """
    requests = [(int(n), bits.validate_bits(sigma)) for n, sigma in requests]
    if any(n < 0 for n, _ in requests):
        raise PreconditionError("request lengths must be nonnegative")
    if request_weight(requests) > 1:
        raise PreconditionError(f"request weight {request_weight(requests)} exceeds 1")
    free = {0: ""}  # block length k -> the one free block of size 2^-k
    table = {}
    for n, sigma in requests:
        k = max(j for j in free if j <= n)
        b = free.pop(k)
        free.update((j, b + "0" * (j - k - 1) + "1") for j in range(k + 1, n + 1))
        table[b + "0" * (n - k)] = sigma
    return PrefixFreeMachine(table)


class DeficiencyRow(Record):
    def __init__(self, n: int, neg_log_mass_low, neg_log_mass_high, complexity, d_low, d_high):
        self.n = n
        self.neg_log_mass_low, self.neg_log_mass_high = neg_log_mass_low, neg_log_mass_high  # ints, or math.inf on a null cell
        self.complexity = complexity  # int or math.inf
        self.d_low, self.d_high = d_low, d_high  # neg_log_mass_low - complexity (with inf conventions)


class DeficiencyTrace(Record):
    """Per-prefix compression deficiency of a point's cell names.

    Rows bracket -log2(cell mass) by exact integers (they collapse when the
    mass is dyadic); an uncompressed prefix shows -inf, and a null cell ends
    the trace with the nullity flag set.
    """

    def __init__(self, point, rows: Optional[list] = None, nullity_at: Optional[int] = None, undetermined_at: Optional[int] = None):
        self.point, self.rows = point, [] if rows is None else rows
        self.nullity_at, self.undetermined_at = nullity_at, undetermined_at

    @property
    def not_random_by_nullity(self) -> bool:
        return self.nullity_at is not None


def deficiency_trace(machine: PrefixFreeMachine, dec, x, length: int) -> DeficiencyTrace:
    """Deficiency d_n = -log2 mass(cell of x at depth n) - K(name prefix)."""
    naming = dec.name_point(x, length, brackets=True)
    trace = DeficiencyTrace(point=x, undetermined_at=naming.undetermined_at)
    name, rows, complexity = naming.bits, trace.rows, machine.complexity
    for n, bracket in enumerate(naming.brackets, 1):
        if bracket is None:
            trace.nullity_at = n
            break
        lo, hi = bracket
        k = complexity(name[:n])
        rows.append(DeficiencyRow(n, lo, hi, k, lo - k, hi - k))  # lo - inf is -inf
    return trace


def semimeasure_superadditive(machine: PrefixFreeMachine) -> bool:
    """Exact check of semimeasure(s) >= semimeasure(s0) + semimeasure(s1) for
    every prefix of every output (beyond them all three are 0)."""
    m = machine.semimeasure
    prefixes = {out[:i] for out in machine.table.values() for i in range(len(out) + 1)}
    return all(m(s) >= m(s + "0") + m(s + "1") for s in prefixes)
