"""Cell decompositions of the unit interval (and of unit cubes via digit
interleaving) under Lebesgue measure, with exact interval arithmetic.

Three decomposition families are built in:

  binary_digits      cell(sigma) = [0.sigma, 0.sigma + 2^-|sigma|)
  bary_grouped(b)    one b-ary digit is read through the binary codes
                     0 -> "0", 1 -> "10", ..., b-1 -> "1"*(b-1)
  interleave(d)      points of [0,1)^d named by interleaving the binary
                     digits of the coordinates (cells are boxes)

All masses are interval lengths (Lebesgue), kept as exact rationals; the
endpoints of every cell form the null exceptional set on which naming is
reported undetermined.
"""

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional

from .bits import validate_bits
from .errors import ConstructionError, PreconditionError, check_enumeration_depth, check_size
from .measure import FrozenRecord, Measure, PathCache, Record
from .rationals import HALF, ONE, RAT, ZERO, neg_log2_bracket


class Region(FrozenRecord):
    """Finite union of half-open intervals [lo, hi) inside [0, 1)."""

    def __init__(self, intervals: tuple):
        self.__dict__.update(intervals=intervals)  # ((lo, hi), ...) disjoint, sorted, merged

    @staticmethod
    def from_pairs(pairs) -> "Region":
        cleaned = []
        for lo, hi in pairs:
            lo, hi = RAT(lo), RAT(hi)
            if lo > hi:
                raise ConstructionError(f"inverted interval [{lo}, {hi})")
            if lo < hi:
                cleaned.append((lo, hi))
        cleaned.sort()
        merged = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1]:
                if lo < merged[-1][1]:
                    raise ConstructionError("overlapping intervals in region")
                merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        return Region(intervals=tuple(merged))

    @staticmethod
    def interval(lo, hi) -> "Region":
        return Region.from_pairs([(lo, hi)])

    def length(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.intervals), ZERO)


class NamingOutcome(Record):
    """Result of naming a point to a requested depth.

    bits holds the digits determined before either finishing or striking a
    cell endpoint; undetermined_at is the 1-based depth of the first endpoint
    hit, or None when the full name was extracted.  brackets, when naming was
    asked for them, holds neg_log2_bracket of the mass of each cell bits[:i + 1]
    up to the first null cell, which gets None; else brackets is None.
    """

    def __init__(self, bits: str, undetermined_at: Optional[int] = None, brackets: Optional[list] = None):
        self.bits, self.undetermined_at, self.brackets = bits, undetermined_at, brackets

    @property
    def determined(self) -> bool:
        return self.undetermined_at is None


def _unit_coordinates(point, dim: int) -> tuple:
    """A point of [0, 1]^dim as a tuple of rationals, from a tuple or, in one
    dimension, a bare coordinate."""
    point = tuple(map(RAT, point if isinstance(point, (tuple, list)) else (point,)))
    if len(point) != dim:
        raise PreconditionError(f"expected {dim} coordinates, got {len(point)}")
    for x in point:
        if not ZERO <= x <= ONE:
            raise PreconditionError(f"point coordinate {x} lies outside [0, 1]")
    return point


class CellDecomposition:
    """Binary tree of regions refining [0,1) (or [0,1)^d) under Lebesgue.

    Subclasses give the root node, _root(), _children(sigma, node), the
    nodes of sigma's 0-child and 1-child, and _mass_pair(sigma, node), the
    mass of sigma's cell as an int pair; every node is read through a
    one-path cache, which builds the root at its first read.
    Naming reads _point(x), x coerced and checked, and _locate(x, sigma,
    node): the bit and the node of the child that holds x, and whether x
    lies on an endpoint of either child.  The label is the spec name
    without its colon.
    """

    def __init__(self, spec_name: str):
        self.spec_name = spec_name
        self.label = spec_name.replace(":", "")

    @cached_property
    def _path(self) -> PathCache:
        return PathCache(self._root())

    def __repr__(self):
        return f"CellDecomposition({self.label})"

    def _node(self, sigma: str):
        return self._path.read(sigma, self._children)

    def cell(self, sigma: str):
        return self._node(sigma)

    def name_point(self, x, n: int, brackets: bool = False) -> NamingOutcome:
        """The unique name of x to depth n; undetermined on any cell boundary.

        The half-open convention decides membership deterministically, but a
        point that coincides with a boundary of some depth <= n cell is part
        of the null exceptional set and is reported as such.  With brackets,
        each named cell's -log2 mass bracket is read on the same descent.
        """
        found = [] if brackets else None
        return NamingOutcome(*self._descend(self._point(x), n, True, found), found)

    def resolved_name(self, x, n: int) -> str:
        """The name x gets when boundaries are resolved by the half-open rule."""
        return self._descend(self._point(x), n, stop_on_edge=False)[0]

    def _descend(self, x, n: int, stop_on_edge: bool, brackets: Optional[list] = None):
        """Walk down the nodes that hold x: x's name to depth n under the
        half-open rule and None, or, with stop_on_edge, the name above the
        first depth whose cells have x on an endpoint and that depth.  Given
        a list, appends to it the -log2 bracket of each named cell's mass
        (Lebesgue cells are never null)."""
        sigma, node = "", self._path.root
        for depth in range(1, n + 1):
            bit, node, on_edge = self._locate(x, sigma, node)
            if on_edge and stop_on_edge:
                return sigma, depth
            sigma += "01"[bit]
            if brackets is not None:
                brackets.append(neg_log2_bracket(*self._mass_pair(sigma, node)))
        return sigma, None

    def pushforward(self) -> Measure:
        """The measure on names, mass(sigma) = Lebesgue mass of cell(sigma),
        given by the share of each cell that its 1-child carries."""
        doc = lambda: {"kind": "pushforward", "decomposition": self.spec_name}
        return Measure(self._split, label=f"push({self.label})", doc=doc)


class BaryGroupedDecomposition(CellDecomposition):
    """Base-b digits read through grouped binary splits; binary digits are
    the case b = 2.

    The node at sigma is the integer state (L, b^(k+1), peeled): the digit
    interval [L/b^k, (L+1)/b^k) together with the number of digit values
    already peeled off, so the cell is [(L*b + peeled)/b^(k+1), (L+1)/b^k).
    Bit 0 selects the next digit value, bit 1 defers among the remaining
    ones (the final deferral lands on the last digit directly).
    """

    def __init__(self, base: int, spec_name=None):
        if base < 2:
            raise ConstructionError("digit base must be at least 2")
        check_size(base, "digit base")
        super().__init__(spec_name or f"bary:{base}")
        self.base = base
        self._splits = {}  # p -> split, built at its first read

    def _root(self):
        return 0, self.base, 0

    def _children(self, sigma, state):
        low, width, peeled = state
        b = self.base
        deferred = (low * b + b - 1, width * b, 0) if peeled + 1 == b - 1 else (low, width, peeled + 1)
        return (low * b + peeled, width * b, 0), deferred

    def _endpoints(self, state):
        """The cell of a state as [lo/den, hi/den), returned as (lo, hi, den)."""
        low, width, peeled = state
        return low * self.base + peeled, (low + 1) * self.base, width

    def cell(self, sigma: str):
        lo, hi, den = self._endpoints(self._node(sigma))
        return Region.interval(RAT(lo, den), RAT(hi, den))

    def _mass_pair(self, sigma, state):
        _, width, peeled = state
        return self.base - peeled, width

    def _split(self, sigma: str):
        # a cell with p values peeled (the trailing 1s of sigma, mod b-1)
        # leaves (b-1-p)/(b-p) of its mass to its 1-child
        p = (len(sigma) - len(sigma.rstrip("1"))) % (self.base - 1)
        try:
            return self._splits[p]
        except KeyError:
            return self._splits.setdefault(p, RAT(self.base - 1 - p, self.base - p))

    def _point(self, x):
        (x,) = _unit_coordinates(x, 1)
        return x.numerator, x.denominator

    def _locate(self, x, sigma, state):
        # the children of [lo, hi)/d are [lo, lo + 1)/d and [lo + 1, hi)/d
        num, den = x
        lo, hi, d = self._endpoints(state)
        at, cut = num * d, (lo + 1) * den
        bit = at >= cut
        return bit, self._children(sigma, state)[bit], at in (lo * den, cut, hi * den)


class InterleaveDecomposition(CellDecomposition):
    """Points of [0,1)^d named by interleaving coordinate binary digits."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ConstructionError("dimension must be at least 1")
        check_size(dim, "dimension")
        super().__init__(f"interleave:{dim}")
        self.dim = dim

    def _root(self):
        return ((ZERO, ONE),) * self.dim

    def _children(self, sigma, box):
        axis = len(sigma) % self.dim
        lo, hi = box[axis]
        mid = (lo + hi) / 2
        child0 = box[:axis] + ((lo, mid),) + box[axis + 1 :]
        child1 = box[:axis] + ((mid, hi),) + box[axis + 1 :]
        return child0, child1

    def _mass_pair(self, sigma, box):
        return 1, 1 << len(sigma)

    def _split(self, sigma: str):
        return HALF

    def _point(self, point):
        return _unit_coordinates(point, self.dim)

    def _locate(self, point, sigma, box):
        axis = len(sigma) % self.dim
        children = self._children(sigma, box)
        (lo, mid), (_, hi) = children[0][axis], children[1][axis]
        bit = point[axis] >= mid
        return bit, children[bit], point[axis] in (lo, mid, hi)


class NaturalDecomposition(CellDecomposition):
    """The identity decomposition of the Cantor space under a given measure:
    the cell of sigma is the cylinder [sigma], a point is a bit string, and
    its name is itself.  Cell masses come from the measure, so null cells
    exist whenever the measure has them.  Its pushforward is the measure
    itself, so it has no spec name of its own."""

    def __init__(self, mu: Measure):
        self.label, self.mu = f"natural({mu.label})", mu

    def cell(self, sigma: str):
        return sigma

    def name_point(self, x, n: int, brackets: bool = False) -> NamingOutcome:
        if not isinstance(x, str):
            raise PreconditionError("points of the natural decomposition are bit strings")
        validate_bits(x)
        bits, found = x[:n], None
        if brackets:
            found, total = [], self.mu.total
            num, den = total.numerator, total.denominator
            for i in range(len(bits)):
                # the measure's own stepping, holding one pair
                num, den = self.mu.children_pairs(bits[:i], num, den)[bits[i] == "1"]
                found.append(neg_log2_bracket(num, den) if num else None)
                if not num:
                    break
        return NamingOutcome(bits, len(x) + 1 if len(x) < n else None, found)

    def resolved_name(self, x, n: int) -> str:
        return x[:n]

    def pushforward(self) -> Measure:
        return self.mu


def natural(mu: Measure) -> CellDecomposition:
    return NaturalDecomposition(mu)


def binary_digits() -> CellDecomposition:
    return BaryGroupedDecomposition(2, "binary")


def bary_grouped(base: int) -> CellDecomposition:
    return BaryGroupedDecomposition(base)


def interleave(dim: int) -> CellDecomposition:
    return InterleaveDecomposition(dim)


def _require_interval_cells(dec: CellDecomposition):
    if not isinstance(dec, BaryGroupedDecomposition):
        raise PreconditionError(f"open-set decomposition needs interval cells; {dec.label} has none")


def _cover(dec: BaryGroupedDecomposition, spans, den: int, depth: int):
    """Walk dec's cells against the union of the disjoint [a/den, b/den) in spans: the
    maximal cells of depth <= depth inside it (0-child first), their total length
    as an int pair, and the depth-`depth` cells that cross its boundary."""
    chosen, straddlers, num, cden = [], [], 0, 1
    stack = [("", dec._path.root)]
    while stack:
        sigma, state = stack.pop()
        lo, hi, d = dec._endpoints(state)
        lo_x, hi_x = lo * den, hi * den
        for a, b in spans:
            a, b = a * d, b * d
            if lo_x < b and a < hi_x:
                break
        else:
            continue
        if a <= lo_x and hi_x <= b:  # a cell inside the union lies in the one span it meets
            chosen.append(sigma)
            if d > cden:  # denominators are powers of one base, so one divides the other
                num, cden = num * (d // cden), d
            num += (hi - lo) * (cden // d)
        elif len(sigma) >= depth:
            straddlers.append(sigma)
        else:
            s0, s1 = dec._children(sigma, state)
            stack += ((sigma + "1", s1), (sigma + "0", s0))
    return chosen, (num, cden), straddlers


class OpenDecomposition(Record):
    """Prefix-free cells of depth <= d wholly inside an open region."""

    def __init__(self, generators: tuple, covered: Fraction, residual: Fraction):
        self.generators, self.covered, self.residual = generators, covered, residual


def decompose_open(dec: CellDecomposition, region: Region, depth: int) -> OpenDecomposition:
    """Greedy maximal cells inside the region, with the exact uncovered mass."""
    _require_interval_cells(dec)
    den = lcm(*(x.denominator for interval in region.intervals for x in interval))
    chosen, (num, cden), _ = _cover(dec, [(int(lo * den), int(hi * den)) for lo, hi in region.intervals], den, depth)
    covered = RAT(num, cden)
    return OpenDecomposition(generators=tuple(chosen), covered=covered, residual=region.length() - covered)


class RefinementRow(Record):
    def __init__(self, sigmas: tuple, covered: Fraction, residual: Fraction, straddlers: tuple):
        self.sigmas, self.covered, self.residual = sigmas, covered, residual
        self.straddlers = straddlers  # depth-d source cells crossing the target cell's boundary (at most two)


class RefinementRelation(Record):
    """Per target cell: source cells covering it at the working depth."""

    def __init__(self, source: CellDecomposition, target: CellDecomposition, depth: int, target_depth: int, rows: dict):
        self.source, self.target, self.depth, self.target_depth = source, target, depth, target_depth
        self.rows = rows  # tau -> RefinementRow


def refine(
    source: CellDecomposition, target: CellDecomposition, depth: int, target_depth: Optional[int] = None
) -> RefinementRelation:
    """Cover every target cell (to target_depth, default depth) by maximal
    source cells of depth <= depth, with exact residuals."""
    _require_interval_cells(source)
    _require_interval_cells(target)
    target_depth = depth if target_depth is None else target_depth
    check_enumeration_depth(target_depth)
    rows, stack = {}, [("", target._path.root)]
    while stack:
        tau, state = stack.pop()
        a, b, den = target._endpoints(state)
        sigmas, (num, cden), straddlers = _cover(source, ((a, b),), den, depth)
        residual = RAT((b - a) * cden - num * den, den * cden)
        rows[tau] = RefinementRow(tuple(sigmas), RAT(num, cden), residual, tuple(straddlers))
        if len(tau) < target_depth:
            s0, s1 = target._children(tau, state)
            stack += ((tau + "1", s1), (tau + "0", s0))
    return RefinementRelation(source=source, target=target, depth=depth, target_depth=target_depth, rows=rows)


class TransferRow(Record):
    def __init__(self, low: Fraction, high: Fraction):
        self.low, self.high = low, high


class TransferResult(Record):
    """Exact interval bounds for the transported measure on target names."""

    def __init__(self, relation: RefinementRelation, rows: dict):
        self.relation, self.rows = relation, rows  # tau -> TransferRow

    def interval(self, tau: str) -> tuple[Fraction, Fraction]:
        row = self.rows[tau]
        return (row.low, row.high)


def transfer_measure(rel: RefinementRelation, nu: Measure) -> TransferResult:
    """Transport a measure on source names to interval bounds on target names.

    The lower bound sums nu over the covering source cells; the upper bound
    adds the nu-mass of every depth-d source cell that leaks across the
    target cell's boundary.  Each distinct source cell's mass is read once,
    in one lexicographic sweep.
    """
    source_cells = sorted({sigma for row in rel.rows.values() for sigma in row.sigmas + row.straddlers})
    masses = {sigma: nu.mass(sigma) for sigma in source_cells}
    rows = {}
    for tau, row in rel.rows.items():
        low = sum((masses[sigma] for sigma in row.sigmas), ZERO)
        rows[tau] = TransferRow(low=low, high=low + sum((masses[sigma] for sigma in row.straddlers), ZERO))
    return TransferResult(relation=rel, rows=rows)
