"""Finite-depth randomness tests and the conversions among them.

Five object kinds circulate here: martingales (from the martingale module),
savings martingales, integral step functions, level tests (plain and
measure-bounded), and summable piece tests.  Every conversion is exact and
every defining inequality is checkable to a stated depth by
verify_test_bounds.

Level extraction uses the closed threshold value >= 2^n.  The bounding
inequalities hold for it exactly (Markov with a closed sublevel set), and it
is the variant under which a savings floor of exactly 2^n at a prefix keeps
that prefix inside level n.
"""

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from math import gcd
from typing import Optional

from . import bits
from .errors import ConstructionError, PreconditionError, check_enumeration_depth
from .martingale import Martingale, SavingsMartingale, from_measures, to_measure
from .measure import AuditReport, FrozenRecord, Measure, Record, fair_coin
from .rationals import RAT, ZERO


class CylinderSet(FrozenRecord):
    """Finite prefix-free set of generators, truncated at a stated depth."""

    def __init__(self, generators: tuple, depth: int):
        bad = bits.prefix_free_violation(generators)
        if bad is not None:
            raise ConstructionError(f"generators not prefix-free: {bad[0]!r} < {bad[1]!r}")
        if any(len(g) > depth for g in generators):
            raise ConstructionError("generator longer than the truncation depth")
        self.__dict__.update(generators=tuple(sorted(generators)), depth=depth)

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


class MLTest(Record):
    """Levels U_1, U_2, ... with mass(U_n) <= 2^-n under the base measure."""

    def __init__(self, base: Measure, levels: list):
        self.base, self.levels = base, levels  # levels[i] is U_{i+1}

    def level(self, n: int) -> CylinderSet:
        return self.levels[n - 1]

    @property
    def n_levels(self) -> int:
        return len(self.levels)


class BoundedMLTest(MLTest):
    """Level test additionally dominated cell-wise by a bounding measure."""

    def __init__(self, base: Measure, levels: list, bound: Measure, witness: Optional["IntegralStep"] = None):
        super().__init__(base, levels)
        self.bound, self.witness = bound, witness  # witness carries the g+1 domination witness


class VitaliTest(Record):
    """Pieces with summable intersection masses dominated by the bound."""

    def __init__(self, base: Measure, pieces: list, bound: Measure):
        self.base, self.pieces, self.bound = base, pieces, bound


class IntegralStep(Record):
    """Nonnegative step function constant on depth-d cells, with a bound measure.

    unit_witness records that bound <= integral of (g+1) holds by construction,
    which verify_test_bounds then checks exactly."""

    def __init__(self, base: Measure, depth: int, values: dict, bound: Measure, unit_witness: bool = False):
        self.base, self.depth, self.bound, self.unit_witness = base, depth, bound, unit_witness
        self.values = values  # length-depth string -> Fraction >= 0
        if any(len(cell) != self.depth for cell in self.values):
            raise ConstructionError(f"step cells must all have length {self.depth}")

    def value(self, cell: str) -> Fraction:
        return self.values.get(cell, ZERO)

    def max_value(self) -> Fraction:
        return max(self.values.values(), default=ZERO)

    def integrals(self, depth: int) -> dict:
        """sigma -> exact integral over [sigma], for |sigma| <= min(depth, self.depth)
        with a nonzero cell below sigma, folded bottom-up in one walk along the cells."""
        cells = _weighted(self.values)
        walk = _walk(self.base, None, min(depth, self.depth), [cells], full=False) if cells else ()
        return {sigma: RAT(*ints[0]) for sigma, _, _, ints in walk}


def _weighted(values: dict) -> list:
    return sorted((cell, v.numerator, v.denominator) for cell, v in values.items() if v)


def _walk(base: Measure, bound: Optional[Measure], depth: int, sets, full=True):
    """Iterative post-order walk over the prefixes of length <= depth (all when
    full, else those a generator extends), yielding (sigma, mu, nu, integrals):
    the base and bound masses as int pairs (nu None without a bound), and per
    set of sorted (generator, weight_num, weight_den) the integral over [sigma]
    of its weighted indicators, summed up from deeper generators.  The stack
    holds one path and its pending siblings, so memory is bounded by the depth."""
    m = base.mass("")
    nu = None if bound is None else (bound.total.numerator, bound.total.denominator)
    stack = [("", m.numerator, m.denominator, nu, [(0, len(s), 0, 1) for s in sets], None)]
    while stack:
        sigma, mn, md, nu, states, up = stack.pop()
        k = len(sigma)
        if states is None:  # leaving an inner node: up is (its integrals, its parent's)
            acc, up = [(n // g, d // g) for n, d in up[0] for g in (gcd(n, d),)], up[1]
        else:
            deeper, here = full and k < depth, []
            for entries, (lo, hi, wn, wd) in zip(sets, states):
                while lo < hi and len(entries[lo][0]) == k:  # a generator equal to sigma
                    _, a, b = entries[lo]
                    wn, wd, lo = wn * b + a * wd, wd * b, lo + 1
                deeper = deeper or lo < hi
                here.append((lo, hi, wn, wd))
            acc = [(0, 1) if deeper else (wn * mn, wd * md) for _, _, wn, wd in here]  # a leaf's own integrals
            if deeper:
                stack.append((sigma, mn, md, nu, None, (acc, up)))
                kids = base.children_pairs(sigma, mn, md)
                nus = bound.children_pairs(sigma, *nu) if nu is not None and k < depth else (None, None)
                mids = [bisect_left(entries, (sigma + "1",), lo, hi) for entries, (lo, hi, _, _) in zip(sets, here)]
                for b in (1, 0):
                    split = [(mid, hi, wn, wd) if b else (lo, mid, wn, wd) for mid, (lo, hi, wn, wd) in zip(mids, here)]
                    if (full and k < depth) or any(lo < hi or wn for lo, hi, wn, _ in split):  # else it adds nothing
                        stack.append((sigma + "01"[b], *kids[b], nus[b], split, acc))
                continue
        if k <= depth:
            yield sigma, (mn, md), nu, acc
        if up is not None:
            up[:] = [(un * d + n * ud, ud * d) for (un, ud), (n, d) in zip(up, acc)]


def martingale_to_integral(sp: SavingsMartingale, depth: int) -> IntegralStep:
    """Step function equal to the savings floor on depth-d cells, bounded by
    the measure capital*base carried through null cylinders, whose split rows the
    one walk of the savings kernel records for the verifier and the snapshot."""
    check_enumeration_depth(depth)
    kernel, values, floors = sp.kernel, {}, {}
    read, bound, root = kernel.read_pair, to_measure(sp), kernel.root()
    stack = [("", root, read(root), bound.total.numerator, bound.total.denominator)]
    while stack:
        cell, payload, here, pn, pd = stack.pop()
        if len(cell) < depth:  # null subtrees too: they have rows, though no floor
            p0, p1 = kernel.children(cell, payload)
            (n0, d0), (n1, d1) = bound.record_row(cell, pn, pd, r0 := read(p0), r1 := read(p1))
            stack += [(cell + "1", p1, r1, n1, d1), (cell + "0", p0, r0, n0, d0)]
        elif here[0] and (floor := kernel.read_floor_pair(payload))[0]:  # a positive cell's nonzero floor F/D, one value per (F, D)
            values[cell] = floors.get(floor) or floors.setdefault(floor, RAT(*floor))
    return IntegralStep(base=sp.base, depth=depth, values=values, bound=bound, unit_witness=True)


def integral_to_bounded_ml(step: IntegralStep, n_levels: Optional[int] = None) -> BoundedMLTest:
    """Levels U_n = union of cells with value >= 2^n, inheriting the bound."""
    if n_levels is None:  # the largest n with 2^n <= max value, at least 1
        n_levels = max(1, int(step.max_value()).bit_length() - 1)
    # v >= 2^n exactly when floor(v) has more than n bits; a value below 1, negative ones included, is in no level
    widths = {cell: max(int(v), 0).bit_length() for cell, v in step.values.items()}
    levels = [
        CylinderSet.from_strings([cell for cell, width in widths.items() if width > n], depth=step.depth) for n in range(1, n_levels + 1)
    ]
    return BoundedMLTest(base=step.base, levels=levels, bound=step.bound, witness=step if step.unit_witness else None)


def bounded_ml_to_vitali(test: BoundedMLTest) -> VitaliTest:
    """Pieces are the levels themselves, under the same bound."""
    return VitaliTest(base=test.base, pieces=list(test.levels), bound=test.bound)


def vitali_to_integral(test: VitaliTest, depth: int) -> IntegralStep:
    """Step function counting how many pieces contain each depth-d cell."""
    if any(len(g) > depth for piece in test.pieces for g in piece.generators):
        raise PreconditionError("piece generators deeper than the requested depth")
    check_enumeration_depth(depth)
    counts = Counter(g + tail for piece in test.pieces for g in piece.generators for tail in bits.all_strings(depth - len(g)))
    values = {cell: RAT(n) for cell, n in sorted(counts.items())}
    return IntegralStep(base=test.base, depth=depth, values=values, bound=test.bound, unit_witness=False)


def integral_to_martingale(step: IntegralStep) -> Martingale:
    """The quotient martingale of the bound against the base."""
    if step.bound is None:
        raise PreconditionError("integral step carries no bound measure")
    return from_measures(step.bound, step.base)


def verify_test_bounds(obj, depth: int) -> AuditReport:
    """Exact verification of every defining inequality at all |sigma| <= depth
    (capped like every exhaustive enumeration) for an MLTest, BoundedMLTest,
    VitaliTest or IntegralStep.  Each kind is one _walk; violations come by
    prefix length, then lexicographically."""
    report = AuditReport()
    if isinstance(obj, IntegralStep):
        _verify_integral(obj, depth, report)
    elif isinstance(obj, BoundedMLTest):
        _verify_bounded(obj, depth, report)
    elif isinstance(obj, MLTest):
        (_, _, _, masses), = _walk(obj.base, None, 0, _level_sets(obj.levels))  # the root alone
        _verify_ml_levels(masses, report)
    elif isinstance(obj, VitaliTest):
        _verify_vitali(obj, depth, report)
    else:
        raise ConstructionError(f"cannot verify object of type {type(obj).__name__}")
    return report


def _level_sets(sets, depth=None) -> list:
    """Weight-1 generator lists for _walk; a verify depth also caps the generators."""
    if depth is not None:
        check_enumeration_depth(max([depth] + [len(g) for s in sets for g in s.generators]))
    return [[(g, 1, 1) for g in s.generators] for s in sets]


def _verify_ml_levels(masses: list, report: AuditReport):
    for n, (a, b) in enumerate(masses, 1):
        report.checked += 1
        if a << n > b:
            report.add(f"level {n} mass {RAT(a, b)} exceeds 2^-{n}")


def _verify_bounded(test: BoundedMLTest, depth: int, report: AuditReport):
    text, w = "bounded inequality fails at level {n}, sigma {sigma!r}: {lhs} > 2^-{n} * {nu}", test.witness
    shared = w is not None and w.base is test.base and w.bound is test.bound  # then one walk checks both
    masses, failed = _check_bounds(test, depth, report, _level_sets(test.levels, depth), text, 1, w if shared else None)
    _verify_ml_levels(masses, report)
    report.violations += failed
    if w is not None and not shared:
        report.violations += _check_bounds(w, min(depth, w.depth), report, [_weighted(w.values)], witness=w)[1]


def _verify_vitali(test: VitaliTest, depth: int, report: AuditReport):
    pieces = sorted(entry for piece in _level_sets(test.pieces, depth) for entry in piece)
    report.violations += _check_bounds(test, depth, report, [pieces], "summable bound fails at {sigma!r}: {lhs} > {nu}")[1]


def _verify_integral(step: IntegralStep, depth: int, report: AuditReport):
    report.violations += [f"negative step value {v}" for v in step.values.values() if v < 0]
    text, witness = "integral bound fails at {sigma!r}: {lhs} > {nu}", step if step.unit_witness else None
    report.violations += _check_bounds(step, min(depth, step.depth), report, [_weighted(step.values)], text, 0, witness)[1]


def _check_bounds(test, depth: int, report: AuditReport, sets: list, text=None, shift=0, witness=None):
    """Given a text, integral * 2^(n*shift) <= bound for the n-th set on every [sigma], |sigma| <= depth;
    given a witness step over the same base and bound (the only set when it is the test), bound <= its
    integral of (g+1) at |sigma| <= its depth.  Returns the sets' root integrals and the violations in order."""
    check_enumeration_depth(depth)
    over, under, top = [], [], -1 if witness is None else witness.depth
    extra = [] if witness is None or witness is test else [_weighted(witness.values)]
    checked = len(sets) if text else 0
    for sigma, (mn, md), (bn, bd), ints in _walk(test.base, test.bound, depth, sets + extra):
        k = len(sigma)
        report.checked += checked + (k <= top)
        for n in range(1, checked + 1):
            a, b = ints[n - 1]
            if (a << n * shift) * bd > bn * b:
                over.append((k, sigma, n, text.format(n=n, sigma=sigma, lhs=RAT(a, b), nu=RAT(bn, bd))))
        if k <= top:
            a, b = ints[-1]
            un, ud = a * md + mn * b, b * md
            if bn * ud > un * bd:
                under.append((k, sigma, 0, f"domination witness fails at {sigma!r}: {RAT(bn, bd)} > {RAT(un, ud)}"))
    return ints[: len(sets)], [v[-1] for v in sorted(over)] + [v[-1] for v in sorted(under)]


def check_coverage_transfer(sp: SavingsMartingale, test: BoundedMLTest, depth: int) -> AuditReport:
    """Check that a savings floor of at least 2^n at a prefix puts the whole
    prefix cylinder inside level n, for every prefix of length <= depth.  One
    walk reads each level's integral under the fair coin, which is 2^-|p|
    exactly when the level covers [p], and the floor at p off the savings martingale."""
    check_enumeration_depth(depth)
    report, failed = AuditReport(), []
    for p, (mn, md), _, within in _walk(fair_coin(), None, depth, _level_sets(test.levels)):
        f = sp.savings(p)  # None on a null cylinder, which has no floor
        for n, (a, b) in enumerate(within, 1):
            if f is not None and f >= 2**n:
                report.checked += 1
                if a * md != mn * b:
                    failed.append((len(p), p, n, f"prefix {p!r} with floor {f} escapes level {n}"))
    report.violations += [v[-1] for v in sorted(failed)]
    return report
