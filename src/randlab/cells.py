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

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ConstructionError, PreconditionError
from .measure import Measure, from_masses
from .rationals import ONE, RAT, ZERO


@dataclass(frozen=True)
class Region:
    """Finite union of half-open intervals [lo, hi) inside [0, 1)."""

    intervals: tuple  # ((lo, hi), ...) disjoint, sorted, merged

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
        lo, hi = RAT(lo), RAT(hi)
        if lo > hi:
            raise ConstructionError(f"inverted interval [{lo}, {hi})")
        return Region(intervals=(((lo, hi)),) if lo < hi else ())

    @staticmethod
    def empty() -> "Region":
        return Region(intervals=())

    def length(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.intervals), ZERO)

    def contains_point(self, x) -> bool:
        return any(lo <= x < hi for lo, hi in self.intervals)

    def endpoints(self) -> set:
        pts = set()
        for lo, hi in self.intervals:
            pts.add(lo)
            pts.add(hi)
        return pts

    def contains_region(self, other: "Region") -> bool:
        return all(
            any(lo <= olo and ohi <= hi for lo, hi in self.intervals)
            for olo, ohi in other.intervals
        )

    def intersect(self, other: "Region") -> "Region":
        out = []
        for lo, hi in self.intervals:
            for olo, ohi in other.intervals:
                a, b = max(lo, olo), min(hi, ohi)
                if a < b:
                    out.append((a, b))
        return Region.from_pairs(out)

    def intersects(self, other: "Region") -> bool:
        return bool(self.intersect(other).intervals)

    def subtract(self, other: "Region") -> "Region":
        out = list(self.intervals)
        for olo, ohi in other.intervals:
            nxt = []
            for lo, hi in out:
                if ohi <= lo or hi <= olo:
                    nxt.append((lo, hi))
                    continue
                if lo < olo:
                    nxt.append((lo, olo))
                if ohi < hi:
                    nxt.append((ohi, hi))
            out = nxt
        return Region.from_pairs(out)


@dataclass
class NamingOutcome:
    """Result of naming a point to a requested depth.

    bits holds the digits determined before either finishing or striking a
    cell endpoint; undetermined_at is the 1-based depth of the first endpoint
    hit, or None when the full name was extracted.
    """

    bits: str
    undetermined_at: Optional[int] = None

    @property
    def determined(self) -> bool:
        return self.undetermined_at is None


class CellDecomposition:
    """Binary tree of regions refining [0,1) (or [0,1)^d) under Lebesgue."""

    def __init__(self, kind: str, label: str, spec_name: str = None):
        self.kind = kind
        self.label = label
        self.spec_name = spec_name or label
        self._cells = {}

    def __repr__(self):
        return f"CellDecomposition({self.label})"

    # subclasses fill these in
    def _children(self, sigma, cell):
        raise NotImplementedError

    def _root(self):
        raise NotImplementedError

    def cell(self, sigma: str):
        got = self._cells.get(sigma)
        if got is not None:
            return got
        if sigma == "":
            value = self._root()
        else:
            parent = self.cell(sigma[:-1])
            value = self._children(sigma[:-1], parent)[int(sigma[-1])]
        self._cells[sigma] = value
        return value

    def cell_mass(self, sigma: str):
        return self._measure(self.cell(sigma))

    def _measure(self, cell) -> Fraction:
        return cell.length()

    def name_point(self, x, n: int) -> NamingOutcome:
        """The unique name of x to depth n; undetermined on any cell boundary.

        The half-open convention decides membership deterministically, but a
        point that coincides with a boundary of some depth <= n cell is part
        of the null exceptional set and is reported as such.
        """
        raise NotImplementedError

    def resolved_name(self, x, n: int) -> str:
        """The name x gets when boundaries are resolved by the half-open rule."""
        raise NotImplementedError

    def pushforward(self) -> Measure:
        """The measure on names: mass(sigma) = Lebesgue mass of cell(sigma)."""
        from .measure import MeasureSpec

        m = from_masses(self.cell_mass, label=f"push({self.label})")
        m.spec = MeasureSpec("pushforward", decomposition=self)
        return m


class _IntervalDecomposition(CellDecomposition):
    """Common naming logic for decompositions whose cells are intervals."""

    def name_point(self, x, n: int) -> NamingOutcome:
        x = RAT(x)
        sigma = ""
        for depth in range(1, n + 1):
            c0, c1 = self.cell(sigma + "0"), self.cell(sigma + "1")
            if x in c0.endpoints() or x in c1.endpoints():
                return NamingOutcome(bits=sigma, undetermined_at=depth)
            sigma += "0" if c0.contains_point(x) else "1"
        return NamingOutcome(bits=sigma)

    def resolved_name(self, x, n: int) -> str:
        x = RAT(x)
        sigma = ""
        for _ in range(n):
            sigma += "0" if self.cell(sigma + "0").contains_point(x) else "1"
        return sigma


class BinaryDigitsDecomposition(_IntervalDecomposition):
    def __init__(self):
        super().__init__(kind="binary_digits", label="binary", spec_name="binary")

    def _root(self):
        return Region.interval(0, 1)

    def cell_mass(self, sigma: str):
        return RAT(1, 2 ** len(sigma))

    def _children(self, sigma, cell):
        (lo, hi), = cell.intervals
        mid = (lo + hi) / 2
        return Region.interval(lo, mid), Region.interval(mid, hi)


class BaryGroupedDecomposition(_IntervalDecomposition):
    """Base-b digits read through grouped binary splits.

    Each node is a digit interval [L/b^k, (L+1)/b^k) together with the number
    of digit values already peeled off: bit 0 selects the next digit value,
    bit 1 defers among the remaining ones (the final deferral lands on the
    last digit directly).
    """

    def __init__(self, base: int):
        if base < 2:
            raise ConstructionError("digit base must be at least 2")
        super().__init__(kind="bary_grouped", label=f"bary{base}", spec_name=f"bary:{base}")
        self.base = base
        self._state = {"": (0, 0, 0)}  # sigma -> (L, k, peeled), all ints

    def _root(self):
        return Region.interval(0, 1)

    def _node_state(self, sigma):
        got = self._state.get(sigma)
        if got is not None:
            return got
        low, k, peeled = self._node_state(sigma[:-1])
        b = self.base
        if sigma[-1] == "0":
            value = (low * b + peeled, k + 1, 0)
        elif peeled + 1 == b - 1:
            value = (low * b + b - 1, k + 1, 0)
        else:
            value = (low, k, peeled + 1)
        self._state[sigma] = value
        return value

    def _region_of_state(self, state):
        low, k, peeled = state
        b = self.base
        return Region.interval(RAT(low * b + peeled, b ** (k + 1)), RAT(low + 1, b**k))

    def cell(self, sigma: str):
        got = self._cells.get(sigma)
        if got is None:
            got = self._region_of_state(self._node_state(sigma))
            self._cells[sigma] = got
        return got

    def _children(self, sigma, cell):
        return self.cell(sigma + "0"), self.cell(sigma + "1")

    def cell_mass(self, sigma: str):
        _, k, peeled = self._node_state(sigma)
        return RAT(self.base - peeled, self.base ** (k + 1))


class InterleaveDecomposition(CellDecomposition):
    """Points of [0,1)^d named by interleaving coordinate binary digits."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ConstructionError("dimension must be at least 1")
        super().__init__(kind="interleave", label=f"interleave{dim}", spec_name=f"interleave:{dim}")
        self.dim = dim

    def _root(self):
        return tuple((ZERO, ONE) for _ in range(self.dim))

    def _children(self, sigma, box):
        axis = len(sigma) % self.dim
        lo, hi = box[axis]
        mid = (lo + hi) / 2
        child0 = box[:axis] + ((lo, mid),) + box[axis + 1 :]
        child1 = box[:axis] + ((mid, hi),) + box[axis + 1 :]
        return child0, child1

    def _measure(self, box):
        vol = ONE
        for lo, hi in box:
            vol *= hi - lo
        return vol

    def cell_mass(self, sigma: str):
        return RAT(1, 2 ** len(sigma))

    def name_point(self, point, n: int) -> NamingOutcome:
        point = tuple(RAT(c) for c in (point if isinstance(point, (tuple, list)) else (point,)))
        if len(point) != self.dim:
            raise PreconditionError(f"expected {self.dim} coordinates, got {len(point)}")
        sigma = ""
        box = self.cell("")
        for depth in range(1, n + 1):
            axis = (depth - 1) % self.dim
            child0, child1 = self._children(sigma, box)
            mid = child0[axis][1]
            x = point[axis]
            if x == mid or x == child0[axis][0] or x == child1[axis][1]:
                return NamingOutcome(bits=sigma, undetermined_at=depth)
            if x < mid:
                sigma, box = sigma + "0", child0
            else:
                sigma, box = sigma + "1", child1
        return NamingOutcome(bits=sigma)

    def resolved_name(self, point, n: int) -> str:
        point = tuple(RAT(c) for c in (point if isinstance(point, (tuple, list)) else (point,)))
        sigma = ""
        box = self.cell("")
        for depth in range(1, n + 1):
            axis = (depth - 1) % self.dim
            child0, child1 = self._children(sigma, box)
            if point[axis] < child0[axis][1]:
                sigma, box = sigma + "0", child0
            else:
                sigma, box = sigma + "1", child1
        return sigma


class NaturalDecomposition(CellDecomposition):
    """The identity decomposition of the Cantor space under a given measure:
    the cell of sigma is the cylinder [sigma], a point is a bit string, and
    its name is itself.  Cell masses come from the measure, so null cells
    exist whenever the measure has them."""

    def __init__(self, mu: Measure):
        super().__init__(kind="natural", label=f"natural({mu.label})", spec_name="natural")
        self.mu = mu

    def cell(self, sigma: str):
        return sigma

    def cell_mass(self, sigma: str):
        return self.mu.mass(sigma)

    def name_point(self, x, n: int) -> NamingOutcome:
        if not isinstance(x, str):
            raise PreconditionError("points of the natural decomposition are bit strings")
        if len(x) < n:
            return NamingOutcome(bits=x, undetermined_at=len(x) + 1)
        return NamingOutcome(bits=x[:n])

    def resolved_name(self, x, n: int) -> str:
        return x[:n]

    def pushforward(self) -> Measure:
        return self.mu


def natural(mu: Measure) -> CellDecomposition:
    return NaturalDecomposition(mu)


def binary_digits() -> CellDecomposition:
    return BinaryDigitsDecomposition()


def bary_grouped(base: int) -> CellDecomposition:
    return BaryGroupedDecomposition(base)


def interleave(dim: int) -> CellDecomposition:
    return InterleaveDecomposition(dim)


def build_decomposition(kind: str, param: Optional[int] = None) -> CellDecomposition:
    if kind == "binary_digits":
        return binary_digits()
    if kind == "bary_grouped":
        return bary_grouped(param if param is not None else 3)
    if kind == "interleave":
        return interleave(param if param is not None else 1)
    raise ConstructionError(f"unknown decomposition kind {kind!r}")


def _require_interval_cells(dec: CellDecomposition):
    if isinstance(dec, InterleaveDecomposition):
        raise PreconditionError("open-set decomposition needs interval cells, not boxes")


@dataclass
class OpenDecomposition:
    """Prefix-free cells of depth <= d wholly inside an open region."""

    generators: tuple
    covered: Fraction
    residual: Fraction


def decompose_open(dec: CellDecomposition, region: Region, depth: int) -> OpenDecomposition:
    """Greedy maximal cells inside the region, with the exact uncovered mass."""
    _require_interval_cells(dec)
    chosen = []
    covered = ZERO

    def walk(sigma: str):
        nonlocal covered
        cell = dec.cell(sigma)
        if cell.length() == 0 or not region.intersects(cell):
            return
        if region.contains_region(cell):
            chosen.append(sigma)
            covered += cell.length()
            return
        if len(sigma) < depth:
            walk(sigma + "0")
            walk(sigma + "1")

    walk("")
    return OpenDecomposition(
        generators=tuple(chosen), covered=covered, residual=region.length() - covered
    )


@dataclass
class RefinementRow:
    sigmas: tuple
    covered: Fraction
    residual: Fraction


@dataclass
class RefinementRelation:
    """Per target cell: source cells covering it at the working depth."""

    source: CellDecomposition
    target: CellDecomposition
    depth: int
    target_depth: int
    rows: dict  # tau -> RefinementRow

    def row(self, tau: str) -> RefinementRow:
        return self.rows[tau]


def refine(
    source: CellDecomposition,
    target: CellDecomposition,
    depth: int,
    target_depth: Optional[int] = None,
) -> RefinementRelation:
    """Cover every target cell (to target_depth, default depth) by maximal
    source cells of depth <= depth, with exact residuals."""
    _require_interval_cells(source)
    _require_interval_cells(target)
    if target_depth is None:
        target_depth = depth
    rows = {}
    stack = [""]
    while stack:
        tau = stack.pop()
        dec = decompose_open(source, target.cell(tau), depth)
        rows[tau] = RefinementRow(sigmas=dec.generators, covered=dec.covered, residual=dec.residual)
        if len(tau) < target_depth:
            stack.append(tau + "1")
            stack.append(tau + "0")
    return RefinementRelation(source=source, target=target, depth=depth, target_depth=target_depth, rows=rows)


@dataclass
class TransferRow:
    low: Fraction
    high: Fraction


@dataclass
class TransferResult:
    """Exact interval bounds for the transported measure on target names."""

    relation: RefinementRelation
    rows: dict  # tau -> TransferRow

    def interval(self, tau: str) -> tuple[Fraction, Fraction]:
        row = self.rows[tau]
        return (row.low, row.high)


def transfer_measure(rel: RefinementRelation, nu: Measure) -> TransferResult:
    """Transport a measure on source names to interval bounds on target names.

    The lower bound sums nu over the covering source cells; the upper bound
    adds the nu-mass of every depth-d source cell that leaks across the
    target cell's boundary.
    """
    rows = {}
    for tau, row in rel.rows.items():
        low = sum((nu.mass(sigma) for sigma in row.sigmas), ZERO)
        slack = _straddler_mass(rel, tau, row, nu)
        rows[tau] = TransferRow(low=low, high=low + slack)
    return TransferResult(relation=rel, rows=rows)


def _straddler_mass(rel: RefinementRelation, tau: str, row, nu: Measure) -> Fraction:
    target_cell = rel.target.cell(tau)
    chosen = set(row.sigmas)
    total = ZERO

    def walk(sigma: str):
        nonlocal total
        if sigma in chosen:
            return
        cell = rel.source.cell(sigma)
        if cell.length() == 0 or not target_cell.intersects(cell):
            return
        if len(sigma) == rel.depth:
            total += nu.mass(sigma)
            return
        walk(sigma + "0")
        walk(sigma + "1")

    walk("")
    return total
