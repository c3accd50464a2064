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

from fractions import Fraction
from typing import Callable, Optional

from .bits import validate_bits
from .errors import ConstructionError, check_enumeration_depth
from .rationals import HALF, ONE, RAT, format_rational


class Record:
    """A plain record whose fields are its constructor's parameters: records
    of one class are == when their fields are, repr lists the fields by name,
    and records are unhashable unless frozen.  Each subclass writes its own
    __init__."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A record that hashes by value and refuses assignment; its __init__
    fills __dict__ directly."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PathCache:
    """The node at a string, by an iterative descent from the root that
    reuses the last path it took.

    Both children of each node on that path are kept, so a lexicographic
    sweep asks children(prefix, node) for the children of each internal node
    once, and the cache is one path long: its memory is bounded by the query
    depth, not by the number of queries.  children is passed at each read, so
    the cache holds no reference to its owner.
    """

    __slots__ = ("root", "path", "kids")

    def __init__(self, root):
        self.root = root
        self.path = ""  # the last string descended to
        self.kids = []  # kids[j]: both children of path[:j]

    def read(self, sigma: str, children):
        path, kids = self.path, self.kids
        if sigma.startswith(path):  # a descent below the last path copies neither string
            k = len(path)
        elif path.startswith(sigma):
            k = len(sigma)
        else:
            k = next(i for i in range(len(sigma)) if path[i] != sigma[i])
        node = self.root if k == 0 else kids[k - 1][sigma[k - 1] == "1"]
        if k < len(sigma):
            del kids[k + 1 :]
            try:
                for j in range(k, len(sigma)):
                    if j == len(kids):
                        kids.append(children(sigma[:j], node))
                    node = kids[j][sigma[j] == "1"]
            finally:
                # a children() that raised leaves the path the kids cover
                self.path = sigma[: len(kids)]
        return node


# a node's children's nullity (0-child, 1-child): null node, split 1, split 0, else
_BOTH_NULL, _ZERO_NULL, _ONE_NULL, _NEITHER_NULL = (True, True), (True, False), (False, True), (False, False)


class Measure:
    """Finite measure on the binary tree, immutable apart from its path cache;
    doc, if given, returns a fresh document of the constructor call (see specfmt)."""

    def __init__(self, split_fn: Callable[[str], Fraction], total=ONE, label="measure", doc=None):
        self._split_fn = split_fn
        self._total = RAT(total)
        if self._total < 0:
            raise ConstructionError("total mass must be nonnegative")
        self.label = label
        self.doc = doc
        self._path = PathCache((self._total.numerator, self._total.denominator))
        self._nulls = PathCache(self._total.numerator == 0)

    def __repr__(self):
        return f"Measure({self.label})"

    def split(self, sigma: str):
        """Conditional weight of the 1-child (1/2 convention below nulls)."""
        s = self._split_fn(sigma)
        if not isinstance(s, RAT):
            s = RAT(s)
        if not 0 <= s.numerator <= s.denominator:
            raise ConstructionError(f"split outside [0,1] at {sigma!r}: {s}")
        return s

    def mass(self, sigma: str) -> Fraction:
        """Exact mass of the cylinder [sigma]: the children_pairs of the
        audits stepped along the path, one rational built at the end."""
        return RAT(*self._pair(sigma))

    def _pair(self, sigma: str):
        return self._path.read(sigma, lambda prefix, pair: self.children_pairs(prefix, *pair))

    def children_pairs(self, sigma: str, n: int, d: int):
        """Children masses as unnormalized (num, den) int pairs, den > 0,
        given mass(sigma) == n/d; mass() and the exhaustive tree walks read
        masses through it.

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
        if self.is_null(sigma):
            return None
        s = self.split(sigma)
        return s if bit in (1, "1") else 1 - s

    def is_null(self, sigma: str) -> bool:
        """Is [sigma] null?  Read off a path of booleans of its own, so no mass
        is built; as in mass(), no split is read below a null cylinder."""
        return self._nulls.read(sigma, self._null_children)

    def _null_children(self, sigma: str, null: bool):
        if null:
            return _BOTH_NULL
        s = self.split(sigma)
        return _ZERO_NULL if s.numerator == s.denominator else _ONE_NULL if s.numerator == 0 else _NEITHER_NULL

    @property
    def total(self) -> Fraction:
        return self._total

    def scaled(self, factor, label=None) -> "Measure":
        """Same splits, total multiplied by factor."""
        factor = RAT(factor)
        return Measure(self._split_fn, self._total * factor, label or f"{self.label}*{factor}")


class _MassBackedMeasure(Measure):
    """Measure defined by an additive mass function; splits are derived."""

    def __init__(self, mass_fn, label):
        def split(sigma: str):
            m = RAT(mass_fn(sigma))
            if m == 0:
                return HALF
            return RAT(mass_fn(sigma + "1")) / m

        super().__init__(split, mass_fn(""), label=label)
        self._mass_fn = mass_fn

    def mass(self, sigma: str) -> Fraction:
        # the function itself, not a product of the splits derived from it
        return RAT(self._mass_fn(sigma))

    def is_null(self, sigma: str) -> bool:
        return self._mass_fn(sigma) == 0

    def children_pairs(self, sigma: str, n: int, d: int):
        # read the function directly, below a null cylinder too: additivity
        # audits then check the function itself rather than an arithmetic
        # identity, and see a massive child of a null cylinder
        m0, m1 = self._mass_fn(sigma + "0"), self._mass_fn(sigma + "1")
        return (m0.numerator, m0.denominator), (m1.numerator, m1.denominator)


def from_masses(mass_fn: Callable[[str], Fraction], label="measure") -> Measure:
    """Measure with the splits induced by a mass function, which must be
    additive (children masses summing to the parent's) with mass_fn("") as
    the total; the measure to_measure builds is one of these.

    mass() returns mass_fn itself, so even a non-additive function is read
    as given (check_additivity reports it).  Nothing is cached: every read
    calls mass_fn.
    """
    return _MassBackedMeasure(mass_fn, label=label)


def fair_coin() -> Measure:
    return Measure(lambda sigma: HALF, label="fair_coin", doc=lambda: {"kind": "fair_coin"})


def bernoulli(p) -> Measure:
    p = RAT(p)
    if not (0 <= p <= 1):
        raise ConstructionError(f"bernoulli parameter outside [0,1]: {p}")
    return Measure(lambda sigma: p, label=f"bernoulli({p})", doc=lambda: {"kind": "bernoulli", "p": format_rational(p)})


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
    total = RAT(total)

    def doc():
        entries = [[sigma, format_rational(q)] for sigma, q in sorted(table.items())]
        return {"kind": "split_table", "entries": entries, "default": format_rational(default), "total": format_rational(total)}

    return Measure(lambda sigma: table.get(sigma, default), total=total, label="split_table", doc=doc)


def interleave_product(mu1: Measure, mu2: Measure) -> Measure:
    """Product measure read through alternating coordinates.

    Even positions draw from mu1, odd positions from mu2; the mass of sigma is
    mu1(even bits of sigma) * mu2(odd bits of sigma) for additive factors.
    The split at sigma is the split of the factor that draws the next bit, at
    the bits that factor has drawn so far.
    """

    def split(sigma: str):
        return mu2.split(sigma[1::2]) if len(sigma) % 2 else mu1.split(sigma[0::2])

    doc = (lambda: {"kind": "interleave", "factors": [mu1.doc(), mu2.doc()]}) if mu1.doc and mu2.doc else None
    return Measure(split, mu1.total * mu2.total, label=f"interleave({mu1.label},{mu2.label})", doc=doc)


class AuditReport(Record):
    """Outcome of an exhaustive exact check; violations are data, not errors."""

    def __init__(self, checked: int = 0, violations: Optional[list] = None):
        self.checked = checked
        self.violations = [] if violations is None else violations

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
    """Extensional equality of masses at every string of length <= depth, as
    int pairs stepped down both measures' children_pairs (see there)."""
    stack = [("", a.total.numerator, a.total.denominator, b.total.numerator, b.total.denominator)]
    while stack:
        sigma, an, ad, bn, bd = stack.pop()
        if an * bd != bn * ad:
            return False
        if len(sigma) < depth:
            (a0, a1), (b0, b1) = a.children_pairs(sigma, an, ad), b.children_pairs(sigma, bn, bd)
            stack += [(sigma + "1", *a1, *b1), (sigma + "0", *a0, *b0)]
    return True
