"""Finite prefix-free machines: code tables, complexity, the induced
semimeasure, request-set construction, and deficiency traces along a point's
cell names.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import bits
from .errors import ConstructionError, PreconditionError, check_enumeration_depth
from .measure import Measure
from .rationals import RAT, ZERO, neg_log2_bracket

INF = math.inf


class PrefixFreeMachine:
    """Finite code table mapping codewords to output strings.

    The domain must be prefix-free (Kraft weight then never exceeds 1); pass
    relaxed=True to allow arbitrary domains as long as the total weight stays
    at most 1.
    """

    def __init__(self, table: dict, relaxed: bool = False):
        self.table, self._shortest = {}, {}  # _shortest: output -> length of its shortest codeword
        for c, o in dict(table).items():
            c, o = bits.validate_bits(c), bits.validate_bits(o)
            self.table[c] = o
            self._shortest[o] = min(len(c), self._shortest.get(o, INF))
        self.relaxed = relaxed
        if not relaxed:
            bad = bits.prefix_free_violation(self.table.keys())
            if bad is not None:
                raise ConstructionError(f"domain not prefix-free: {bad[0]!r} < {bad[1]!r}")
        if self.kraft_weight() > 1:
            raise ConstructionError(f"total weight {self.kraft_weight()} exceeds 1")

    def __len__(self):
        return len(self.table)

    def kraft_weight(self):
        top = max(map(len, self.table), default=0)  # one integer sum over the common denominator 2**top
        return RAT(sum(1 << (top - len(c)) for c in self.table), 1 << top)

    def complexity(self, sigma: str):
        """Length of the shortest codeword producing sigma, or math.inf."""
        return self._shortest.get(sigma, INF)

    def semimeasure(self, sigma: str) -> Fraction:
        """Total weight of codewords whose output extends sigma."""
        return sum(
            (Fraction(1, 2 ** len(c)) for c, out in self.table.items() if out.startswith(sigma)),
            ZERO,
        )

    def max_output_length(self) -> int:
        return max((len(o) for o in self.table.values()), default=0)


@dataclass
class MachineClass:
    computable_measure: bool
    bounded_by: Optional[bool]


def classify_machine(machine: PrefixFreeMachine, nu: Optional[Measure] = None) -> MachineClass:
    """Finite tables always have exactly computable semimeasure weight; when a
    measure is supplied, check domination semimeasure <= nu at every string up
    to the longest output."""
    bounded = None
    if nu is not None:
        depth = machine.max_output_length()
        check_enumeration_depth(depth)
        strings = (sigma for n in range(depth + 1) for sigma in bits.all_strings(n))
        bounded = all(machine.semimeasure(sigma) <= nu.mass(sigma) for sigma in strings)
    return MachineClass(computable_measure=True, bounded_by=bounded)


def request_weight(requests) -> Fraction:
    return sum((Fraction(1, 2**n) for n, _ in requests), ZERO)


def kc_build(requests, relaxed: bool = False) -> PrefixFreeMachine:
    """Build a prefix-free machine honoring every (length, output) request.

    Allocation walks the dyadic picture of [0,1): each request takes the
    free block with the tightest adequate size (splitting off its left end),
    which keeps free block sizes pairwise distinct and therefore never fails
    while the total request weight stays at most 1.
    """
    requests = [(int(n), bits.validate_bits(sigma)) for n, sigma in requests]
    if any(n < 0 for n, _ in requests):
        raise PreconditionError("request lengths must be nonnegative")
    if request_weight(requests) > 1:
        raise PreconditionError(f"request weight {request_weight(requests)} exceeds 1")
    free = {0: [Fraction(0)]}  # block size 2^-k -> sorted left endpoints
    table = {}
    for n, sigma in requests:
        k = max((size for size in free if size <= n and free[size]), default=None)
        if k is None:
            raise PreconditionError("allocation failed despite Kraft bound")
        start = free[k].pop(0)
        # split [start, start + 2^-k): assign the leftmost 2^-n piece,
        # release the ladder of remaining blocks
        for j in range(n, k, -1):
            free.setdefault(j, []).append(start + Fraction(1, 2**j))
            free[j].sort()
        codeword = _codeword_of(start, n)
        table[codeword] = sigma
    return PrefixFreeMachine(table, relaxed=relaxed)


def _codeword_of(start, n: int) -> str:
    if n == 0:
        return ""
    num = int(start.numerator) * (2**n // int(start.denominator)) if start != 0 else 0
    return format(num, "b").zfill(n)


@dataclass
class DeficiencyRow:
    n: int
    neg_log_mass_low: object  # int, or math.inf on a null cell
    neg_log_mass_high: object
    complexity: object  # int or math.inf
    d_low: object  # neg_log_mass_low - complexity (with inf conventions)
    d_high: object


@dataclass
class DeficiencyTrace:
    """Per-prefix compression deficiency of a point's cell names.

    Rows bracket -log2(cell mass) by exact integers (they collapse when the
    mass is dyadic); an uncompressed prefix shows -inf, and a null cell ends
    the trace with the nullity flag set.
    """

    point: object
    rows: list = field(default_factory=list)
    nullity_at: Optional[int] = None
    undetermined_at: Optional[int] = None

    @property
    def not_random_by_nullity(self) -> bool:
        return self.nullity_at is not None


def deficiency_trace(machine: PrefixFreeMachine, dec, x, length: int) -> DeficiencyTrace:
    """Deficiency d_n = -log2 mass(cell of x at depth n) - K(name prefix)."""
    naming = dec.name_point(x, length)
    trace = DeficiencyTrace(point=x, undetermined_at=naming.undetermined_at)
    name = naming.bits
    for n in range(1, len(name) + 1):
        prefix = name[:n]
        mass = dec.cell_mass(prefix)
        if mass == 0:
            trace.nullity_at = n
            break
        lo, hi = neg_log2_bracket(mass)
        k = machine.complexity(prefix)
        if k is INF:
            d_lo = d_hi = -INF
        else:
            d_lo, d_hi = lo - k, hi - k
        trace.rows.append(
            DeficiencyRow(
                n=n,
                neg_log_mass_low=lo,
                neg_log_mass_high=hi,
                complexity=k,
                d_low=d_lo,
                d_high=d_hi,
            )
        )
    return trace


def semimeasure_superadditive(machine: PrefixFreeMachine) -> bool:
    """Exact check of semimeasure(s) >= semimeasure(s0) + semimeasure(s1) for
    every string up to the longest output (trivially true beyond)."""
    counts = {}
    for codeword, out in machine.table.items():
        w = Fraction(1, 2 ** len(codeword))
        for i in range(len(out) + 1):
            counts[out[:i]] = counts.get(out[:i], ZERO) + w
    for sigma in counts:
        if counts.get(sigma, ZERO) < counts.get(sigma + "0", ZERO) + counts.get(sigma + "1", ZERO):
            return False
    return True
