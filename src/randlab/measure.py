"""Exact-rational finite measures on the full binary tree.

A measure is stored as its conditional splits: split(sigma) is the fraction
of sigma's mass carried by the 1-child (by convention 1/2 below a null
cylinder, which is never observable through mass/conditional).  Masses are
products of splits along the path from the root, so additivity

    mass(sigma + "0") + mass(sigma + "1") == mass(sigma)

holds exactly by construction.  The built-in constructors all produce
probability measures (mass("") == 1); martingale-derived bounds may carry a
different total mass.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .bits import validate_bits
from .errors import ConstructionError, check_enumeration_depth
from .rationals import HALF, ONE, RAT, ZERO


@dataclass(frozen=True)
class MeasureSpec:
    """Construction recipe for build_measure; see specfmt for the file format."""

    kind: str
    p: Optional[Fraction] = None
    entries: tuple = ()
    default: Fraction = HALF
    total: Fraction = ONE
    factors: tuple = ()
    decomposition: object = None


class Measure:
    """Finite measure on the binary tree, immutable apart from its mass cache."""

    def __init__(self, split_fn: Callable[[str], Fraction], total=ONE, label="measure", spec=None):
        self._split_fn = split_fn
        self._total = RAT(total)
        if self._total < 0:
            raise ConstructionError("total mass must be nonnegative")
        self.label = label
        self.spec = spec
        self._mass = {"": self._total}

    def __repr__(self):
        return f"Measure({self.label})"

    def split(self, sigma: str):
        """Conditional weight of the 1-child (1/2 convention below nulls)."""
        s = RAT(self._split_fn(sigma))
        if not (0 <= s <= 1):
            raise ConstructionError(f"split outside [0,1] at {sigma!r}: {s}")
        return s

    def mass(self, sigma: str) -> Fraction:
        """Exact mass of the cylinder [sigma]."""
        memo = self._mass
        got = memo.get(sigma)
        if got is not None:
            return got
        # walk down from the deepest cached ancestor
        i = len(sigma)
        while sigma[:i] not in memo:
            i -= 1
        m = memo[sigma[:i]]
        for j in range(i, len(sigma)):
            prefix = sigma[:j]
            if m == 0:
                m = ZERO
            else:
                s = self.split(prefix)
                m = m * s if sigma[j] == "1" else m * (1 - s)
            memo[sigma[: j + 1]] = m
        return m

    def children_pairs(self, sigma: str, n: int, d: int):
        """Children masses as unnormalized (num, den) int pairs, den > 0,
        given mass(sigma) == n/d; used by the exhaustive tree walks.

        Mass-backed measures override this to read the underlying function
        directly, so additivity audits check the function itself.
        """
        if n == 0:
            return (0, 1), (0, 1)
        s = self._split_fn(sigma)
        p, q = s.numerator, s.denominator
        if not 0 <= p <= q:
            raise ConstructionError(f"split outside [0,1] at {sigma!r}: {RAT(s)}")
        d *= q
        return (n * (q - p), d), (n * p, d)

    def conditional(self, sigma: str, bit: int) -> Optional[Fraction]:
        """mass(sigma+bit)/mass(sigma), or None when [sigma] is null."""
        m = self.mass(sigma)
        if m == 0:
            return None
        s = self.split(sigma)
        return s if bit in (1, "1") else 1 - s

    def is_null(self, sigma: str) -> bool:
        return self.mass(sigma) == 0

    @property
    def total(self) -> Fraction:
        return self._total

    def scaled(self, factor, label=None) -> "Measure":
        """Same splits, total multiplied by factor."""
        factor = RAT(factor)
        return Measure(self._split_fn, self._total * factor, label or f"{self.label}*{factor}")


class _MassBackedMeasure(Measure):
    """Measure defined by an additive mass function; splits are derived."""

    def __init__(self, mass_fn, label="measure", spec=None, memoized=False):
        if memoized:
            fn = mass_fn
        else:
            memo = {}

            def fn(sigma: str):
                v = memo.get(sigma)
                if v is None:
                    v = RAT(mass_fn(sigma))
                    memo[sigma] = v
                return v

        self._fn = fn
        self._mass_fn = mass_fn

        def split(sigma: str):
            m = fn(sigma)
            if m == 0:
                return HALF
            return fn(sigma + "1") / m

        super().__init__(split, fn(""), label=label, spec=spec)

    def children_pairs(self, sigma: str, n: int, d: int):
        # read the function directly, bypassing the memo: additivity audits
        # then check the function itself rather than an arithmetic identity,
        # and a walk leaves no per-node cache behind
        if n == 0:
            return (0, 1), (0, 1)
        m0, m1 = self._mass_fn(sigma + "0"), self._mass_fn(sigma + "1")
        return (m0.numerator, m0.denominator), (m1.numerator, m1.denominator)


def from_masses(mass_fn: Callable[[str], Fraction], label="measure", spec=None, memoized=False) -> Measure:
    """Measure with the splits induced by a mass function, which must be
    additive (children masses summing to the parent's) with mass_fn("") as
    the total; every library construction that lands here provably is.
    """
    return _MassBackedMeasure(mass_fn, label=label, spec=spec, memoized=memoized)


def fair_coin() -> Measure:
    return Measure(lambda sigma: HALF, label="fair_coin", spec=MeasureSpec("fair_coin"))


def bernoulli(p) -> Measure:
    p = RAT(p)
    if not (0 <= p <= 1):
        raise ConstructionError(f"bernoulli parameter outside [0,1]: {p}")
    return Measure(lambda sigma: p, label=f"bernoulli({p})", spec=MeasureSpec("bernoulli", p=p))


def split_table(entries, default=HALF, total=ONE) -> Measure:
    """Measure from an explicit finite table of splits, default split below it.

    entries maps sigma -> split at sigma (the conditional weight of sigma+"1").
    """
    table = {}
    for sigma, q in dict(entries).items():
        validate_bits(sigma)
        q = RAT(q)
        if not (0 <= q <= 1):
            raise ConstructionError(f"split outside [0,1] at {sigma!r}: {q}")
        table[sigma] = q
    default = RAT(default)
    if not (0 <= default <= 1):
        raise ConstructionError(f"default split outside [0,1]: {default}")
    spec = MeasureSpec(
        "split_table",
        entries=tuple(sorted(table.items())),
        default=default,
        total=RAT(total),
    )
    return Measure(
        lambda sigma: table.get(sigma, default),
        total=total,
        label="split_table",
        spec=spec,
    )


def interleave_product(mu1: Measure, mu2: Measure) -> Measure:
    """Product measure read through alternating coordinates.

    Even positions draw from mu1, odd positions from mu2; the mass of sigma is
    mu1(even bits of sigma) * mu2(odd bits of sigma).
    """

    def mass_fn(sigma: str) -> Fraction:
        return mu1.mass(sigma[0::2]) * mu2.mass(sigma[1::2])

    m = from_masses(mass_fn, label=f"interleave({mu1.label},{mu2.label})")
    m.spec = MeasureSpec("interleave", factors=(mu1, mu2))
    return m


def build_measure(spec: MeasureSpec) -> Measure:
    """Build a measure from a recipe (fair_coin, bernoulli, split_table,
    interleave, or a pushforward handle from the cells module)."""
    kind = spec.kind
    if kind == "fair_coin":
        return fair_coin()
    if kind == "bernoulli":
        return bernoulli(spec.p)
    if kind == "split_table":
        return split_table(dict(spec.entries), default=spec.default, total=spec.total)
    if kind == "interleave":
        mu1, mu2 = spec.factors
        if isinstance(mu1, MeasureSpec):
            mu1 = build_measure(mu1)
        if isinstance(mu2, MeasureSpec):
            mu2 = build_measure(mu2)
        return interleave_product(mu1, mu2)
    if kind == "pushforward":
        return spec.decomposition.pushforward()
    raise ConstructionError(f"unknown measure kind {kind!r}")


@dataclass
class AuditReport:
    """Outcome of an exhaustive exact check; violations are data, not errors."""

    checked: int = 0
    violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, description: str):
        self.violations.append(description)


def check_additivity(mu: Measure, depth: int) -> AuditReport:
    """Verify mass(s0)+mass(s1) == mass(s) and null monotonicity to depth.

    For split-backed measures the walk recomputes the children masses from
    the conditional splits (the arithmetic the public mass() performs); for
    mass-backed measures it reads the underlying function, so the audit
    genuinely tests that function's additivity.  Masses travel as
    unnormalized (num, den) int pairs compared by cross-multiplication.
    """
    check_enumeration_depth(depth)
    report = AuditReport()
    root = mu.mass("")
    stack = [("", root.numerator, root.denominator)]
    while stack:
        sigma, n, d = stack.pop()
        if len(sigma) >= depth:
            continue
        (n0, d0), (n1, d1) = mu.children_pairs(sigma, n, d)
        report.checked += 1
        if (n0 * d1 + n1 * d0) * d != n * d0 * d1:
            report.add(f"additivity fails at {sigma!r}: {RAT(n0, d0)}+{RAT(n1, d1)} != {RAT(n, d)}")
        if n == 0 and (n0 != 0 or n1 != 0):
            report.add(f"null cylinder {sigma!r} has massive child")
        stack.append((sigma + "1", n1, d1))
        stack.append((sigma + "0", n0, d0))
    return report


def measures_agree(a: Measure, b: Measure, depth: int) -> bool:
    """Extensional equality of masses at every string of length <= depth."""
    stack = [""]
    while stack:
        sigma = stack.pop()
        if a.mass(sigma) != b.mass(sigma):
            return False
        if len(sigma) < depth:
            stack.append(sigma + "1")
            stack.append(sigma + "0")
    return True
