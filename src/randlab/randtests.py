"""Finite-depth randomness tests and the conversions among them.

Five object kinds circulate here: martingales (from the martingale module),
savings pairs, integral step functions, level tests (plain and
measure-bounded), and summable piece tests.  Every conversion is exact and
every defining inequality is checkable to a stated depth by
verify_test_bounds.

Level extraction uses the closed threshold value >= 2^n.  The bounding
inequalities hold for it exactly (Markov with a closed sublevel set), and it
is the variant under which a savings floor of exactly 2^n at a prefix keeps
that prefix inside level n.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import bits
from .errors import ConstructionError, PreconditionError, check_enumeration_depth
from .martingale import Martingale, SavingsPair, from_measures, to_measure
from .measure import AuditReport, Measure
from .rationals import ZERO


@dataclass(frozen=True)
class CylinderSet:
    """Finite prefix-free set of generators, truncated at a stated depth."""

    generators: tuple
    depth: int

    def __post_init__(self):
        bad = bits.prefix_free_violation(self.generators)
        if bad is not None:
            raise ConstructionError(f"generators not prefix-free: {bad[0]!r} < {bad[1]!r}")
        if any(len(g) > self.depth for g in self.generators):
            raise ConstructionError("generator longer than the truncation depth")
        object.__setattr__(self, "generators", tuple(sorted(self.generators)))

    @staticmethod
    def from_strings(strings, depth=None) -> "CylinderSet":
        gens = bits.normalize(strings)
        if depth is None:
            depth = max((len(g) for g in gens), default=0)
        return CylinderSet(generators=gens, depth=depth)

    def mass(self, mu: Measure) -> Fraction:
        return sum((mu.mass(g) for g in self.generators), ZERO)

    def mass_within(self, mu: Measure, sigma: str) -> Fraction:
        """Exact mass of (this set) intersect [sigma]."""
        if any(sigma.startswith(g) for g in self.generators):
            return mu.mass(sigma)
        return sum((mu.mass(g) for g in self.generators if g.startswith(sigma)), ZERO)

    def covers_prefix(self, p: str) -> bool:
        """True iff [p] is wholly inside the set."""
        return bits.covers(self.generators, p)

    def is_empty(self) -> bool:
        return not self.generators


@dataclass
class MLTest:
    """Levels U_1, U_2, ... with mass(U_n) <= 2^-n under the base measure."""

    base: Measure
    levels: list  # levels[i] is U_{i+1}

    def level(self, n: int) -> CylinderSet:
        return self.levels[n - 1]

    @property
    def n_levels(self) -> int:
        return len(self.levels)


@dataclass
class BoundedMLTest(MLTest):
    """Level test additionally dominated cell-wise by a bounding measure."""

    bound: Measure = None
    witness: Optional["IntegralStep"] = None  # carries the g+1 domination witness


@dataclass
class VitaliTest:
    """Pieces with summable intersection masses dominated by the bound."""

    base: Measure
    pieces: list
    bound: Measure


@dataclass
class IntegralStep:
    """Nonnegative step function constant on depth-d cells, with a bound measure.

    unit_witness records that bound <= integral of (g+1) holds by construction,
    which verify_test_bounds then checks exactly."""

    base: Measure
    depth: int
    values: dict  # length-depth string -> Fraction >= 0
    bound: Measure
    unit_witness: bool = False

    def __post_init__(self):
        if any(len(cell) != self.depth for cell in self.values):
            raise ConstructionError(f"step cells must all have length {self.depth}")

    def value(self, cell: str) -> Fraction:
        return self.values.get(cell, ZERO)

    def max_value(self) -> Fraction:
        return max(self.values.values(), default=ZERO)

    def integrals(self, depth: int) -> dict:
        """sigma -> exact integral over [sigma], for |sigma| <= min(depth, self.depth),
        summed bottom-up from the cells in one pass; zero integrals are left out."""
        layer = {cell: v * self.base.mass(cell) for cell, v in self.values.items() if v != 0}
        out = {}
        for n in range(self.depth, -1, -1):
            if n <= depth:
                out.update(layer)
            parents = {}
            for cell, x in layer.items():
                parents[cell[:-1]] = parents.get(cell[:-1], ZERO) + x
            layer = parents
        return out


def _cover_counts(pieces, depth: int) -> dict:
    """Depth-d cell -> number of pieces holding it, expanding each generator (none deeper)."""
    check_enumeration_depth(depth)
    counts = {}
    for piece in pieces:
        for g in piece.generators:
            for tail in bits.all_strings(depth - len(g)):
                counts[g + tail] = counts.get(g + tail, 0) + 1
    return counts


def _cover_integrals(base: Measure, pieces, depth: int) -> dict:
    """integrals(depth) of the piece-count function, with cells as deep as any generator."""
    d = max([depth] + [len(g) for piece in pieces for g in piece.generators])
    return IntegralStep(base=base, depth=d, values=_cover_counts(pieces, d), bound=None).integrals(depth)


def martingale_to_integral(sp: SavingsPair, depth: int) -> IntegralStep:
    """Step function equal to the savings floor on depth-d cells, bounded by
    the measure total*base carried through null cylinders."""
    check_enumeration_depth(depth)
    values = {cell: f for cell in bits.all_strings(depth) if (f := sp.savings(cell))}  # None and 0 dropped
    bound = to_measure(sp.total)
    return IntegralStep(base=sp.base, depth=depth, values=values, bound=bound, unit_witness=True)


def integral_to_bounded_ml(step: IntegralStep, n_levels: Optional[int] = None) -> BoundedMLTest:
    """Levels U_n = union of cells with value >= 2^n, inheriting the bound."""
    if n_levels is None:  # the largest n with 2^n <= max value, at least 1
        n_levels = max(1, int(step.max_value()).bit_length() - 1)
    levels = [
        CylinderSet.from_strings([cell for cell, v in step.values.items() if v >= 2**n], depth=step.depth)
        for n in range(1, n_levels + 1)
    ]
    return BoundedMLTest(base=step.base, levels=levels, bound=step.bound, witness=step if step.unit_witness else None)


def bounded_ml_to_vitali(test: BoundedMLTest) -> VitaliTest:
    """Pieces are the levels themselves, under the same bound."""
    return VitaliTest(base=test.base, pieces=list(test.levels), bound=test.bound)


def vitali_to_integral(test: VitaliTest, depth: int) -> IntegralStep:
    """Step function counting how many pieces contain each depth-d cell."""
    if any(len(g) > depth for piece in test.pieces for g in piece.generators):
        raise PreconditionError("piece generators deeper than the requested depth")
    values = {cell: Fraction(n) for cell, n in sorted(_cover_counts(test.pieces, depth).items())}
    return IntegralStep(base=test.base, depth=depth, values=values, bound=test.bound, unit_witness=False)


def integral_to_martingale(step: IntegralStep) -> Martingale:
    """The quotient martingale of the bound against the base."""
    if step.bound is None:
        raise PreconditionError("integral step carries no bound measure")
    return from_measures(step.bound, step.base)


def verify_test_bounds(obj, depth: int) -> AuditReport:
    """Exact verification of every defining inequality at all |sigma| <= depth
    (capped like every exhaustive enumeration) for an MLTest, BoundedMLTest,
    VitaliTest or IntegralStep.  A plain MLTest's report also notes the
    Schnorr-style property: every level mass is exactly representable."""
    report = AuditReport()
    if isinstance(obj, IntegralStep):
        _verify_integral(obj, depth, report)
    elif isinstance(obj, BoundedMLTest):
        _verify_ml_levels(obj, report)
        _verify_bounded(obj, depth, report)
    elif isinstance(obj, MLTest):
        _verify_ml_levels(obj, report)
        report.notes.append("schnorr-style: every level mass exactly representable")
    elif isinstance(obj, VitaliTest):
        _verify_vitali(obj, depth, report)
    else:
        raise ConstructionError(f"cannot verify object of type {type(obj).__name__}")
    return report


def _all_prefixes(depth: int):
    check_enumeration_depth(depth)
    for n in range(depth + 1):
        yield from bits.all_strings(n)


def _verify_ml_levels(test: MLTest, report: AuditReport):
    for n in range(1, test.n_levels + 1):
        report.checked += 1
        m = test.level(n).mass(test.base)
        if m > Fraction(1, 2**n):
            report.add(f"level {n} mass {m} exceeds 2^-{n}")


def _verify_bounded(test: BoundedMLTest, depth: int, report: AuditReport):
    within = [_cover_integrals(test.base, [level], depth) for level in test.levels]
    for sigma in _all_prefixes(depth):
        nu_sigma = test.bound.mass(sigma)
        for n, level_within in enumerate(within, 1):
            report.checked += 1
            lhs = level_within.get(sigma, ZERO)
            if lhs * 2**n > nu_sigma:
                report.add(f"bounded inequality fails at level {n}, sigma {sigma!r}: {lhs} > 2^-{n} * {nu_sigma}")
    if test.witness is not None:
        _verify_witness(test.witness, depth, report, test.witness.integrals(depth))


def _verify_vitali(test: VitaliTest, depth: int, report: AuditReport):
    within = _cover_integrals(test.base, test.pieces, depth)
    for sigma in _all_prefixes(depth):
        report.checked += 1
        total, nu_sigma = within.get(sigma, ZERO), test.bound.mass(sigma)
        if total > nu_sigma:
            report.add(f"summable bound fails at {sigma!r}: {total} > {nu_sigma}")


def _verify_integral(step: IntegralStep, depth: int, report: AuditReport):
    for v in step.values.values():
        if v < 0:
            report.add(f"negative step value {v}")
    integrals = step.integrals(depth)
    for sigma in _all_prefixes(min(depth, step.depth)):
        report.checked += 1
        lhs, nu_sigma = integrals.get(sigma, ZERO), step.bound.mass(sigma)
        if lhs > nu_sigma:
            report.add(f"integral bound fails at {sigma!r}: {lhs} > {nu_sigma}")
    if step.unit_witness:
        _verify_witness(step, depth, report, integrals)


def _verify_witness(step: IntegralStep, depth: int, report: AuditReport, integrals: dict):
    # absolute-continuity witness: bound(sigma) <= integral of (g+1) over [sigma]
    for sigma in _all_prefixes(min(depth, step.depth)):
        report.checked += 1
        upper = integrals.get(sigma, ZERO) + step.base.mass(sigma)
        if step.bound.mass(sigma) > upper:
            report.add(f"domination witness fails at {sigma!r}: {step.bound.mass(sigma)} > {upper}")


def check_coverage_transfer(sp: SavingsPair, test: BoundedMLTest, depth: int) -> AuditReport:
    """Check that a savings floor of at least 2^n at a prefix puts the whole
    prefix cylinder inside level n, for every prefix of length <= depth."""
    report = AuditReport()
    for p in _all_prefixes(depth):
        f = sp.savings(p)
        for n in range(1, test.n_levels + 1):
            if f is not None and f >= 2**n:
                report.checked += 1
                if not test.level(n).covers_prefix(p):
                    report.add(f"prefix {p!r} with floor {f} escapes level {n}")
    return report
