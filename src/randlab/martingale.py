"""Martingales over a base measure: quotients, the inverse recursion back to a
measure, the savings transform, capital traces, and exhaustive audits."""

import random
from fractions import Fraction
from math import gcd
from typing import Callable, Optional

from .errors import ConstructionError, PreconditionError, check_enumeration_depth
from .measure import AuditReport, Measure, PathCache, Record, _MassBackedMeasure
from .rationals import ONE, RAT, ZERO


class Martingale:
    """Capital function on finite strings, fair against its base measure.

    Every value comes from the tree kernel.  Library constructors pass
    kernel=; a hand-built Martingale(base, capital_fn) wraps the function in
    a CapitalFnKernel, and one given neither is refused.  capital(sigma) is
    None exactly on null cylinders for every martingale the library builds;
    hand-built tables may violate that, which check_fairness reports.

    A kernel is a tree walker whose payloads carry exact values as
    unnormalized int pairs: root() is the root's payload, children(sigma,
    payload) the payloads of sigma's two children, and read_pair(payload)
    -> (mass_num, mass_den, cap_num, cap_den), every den > 0 and cap_num
    None where the capital is undefined; the exhaustive audits walk those
    pairs.
    """

    def __init__(
        self,
        base: Measure,
        capital_fn: Optional[Callable[[str], Optional[Fraction]]] = None,
        label="martingale",
        kernel=None,
    ):
        if capital_fn is None and kernel is None:
            raise PreconditionError("a martingale needs a capital function or a kernel")
        self.base = base
        self.label = label
        self.kernel = kernel if kernel is not None else CapitalFnKernel(base, capital_fn)
        self._path = PathCache(self.kernel.root())

    def __repr__(self):
        return f"Martingale({self.label} vs {self.base.label})"

    def payload(self, sigma: str):
        """The kernel payload at sigma, read through a one-path cache."""
        return self._path.read(sigma, self.kernel.children)

    def capital(self, sigma: str) -> Optional[Fraction]:
        _, _, cn, cd = self.kernel.read_pair(self.payload(sigma))
        return None if cn is None else RAT(cn, cd)


def _start_capital(mart: Martingale) -> Fraction:
    """capital(""), refused where it is undefined (a base of total mass 0)."""
    start = mart.capital("")
    if start is None:
        base = mart.base
        raise PreconditionError(f"capital('') of {mart.label} is undefined (base {base.label} has total mass {base.total})")
    return start


class QuotientKernel:
    """Fused walker for numerator/denominator martingales: payloads carry the
    base mass and the numerator mass down the tree as unnormalized int pairs
    (mass_num, mass_den, nu_num, nu_den)."""

    def __init__(self, nu: Measure, mu: Measure):
        self.nu = nu
        self.mu = mu

    def root(self):
        m, n = self.mu.mass(""), self.nu.mass("")
        return (m.numerator, m.denominator, n.numerator, n.denominator)

    def children(self, sigma: str, payload):
        mn, md, nn, nd = payload
        (a0, b0), (a1, b1) = self.mu.children_pairs(sigma, mn, md)
        (c0, e0), (c1, e1) = self.nu.children_pairs(sigma, nn, nd)
        return (a0, b0, c0, e0), (a1, b1, c1, e1)

    def read_pair(self, payload):
        mn, md, nn, nd = payload
        if mn == 0:
            return mn, md, None, 1
        if mn < 0:
            return mn, md, -nn * md, -nd * mn
        return mn, md, nn * md, nd * mn


class SavingsKernel:
    """Fused walker for the savings recursion of a source kernel's capital + 1, scaled to start at 1.

    Payloads are (source payload, N, F, D): total capital N/D and savings
    floor F/D over one shared denominator, divided by gcd(N, F, D) at every
    node (unreduced, the denominator's bit length roughly triples per
    level).  Below a null cylinder the N, F, D slots are unused.
    """

    def __init__(self, inner):
        self.inner = inner

    def root(self):
        return (self.inner.root(), 1, 0, 1)

    def children(self, sigma: str, payload):
        src, n_here, f_here, den = payload
        inner = self.inner
        src0, src1 = inner.children(sigma, src)
        active = n_here - f_here
        if active:
            # parent source capital plus 1 is shifted/cd
            _, _, cn, cd = inner.read_pair(src)
            shifted = cn + cd
        out = []
        for branch in (src0, src1):
            mass_b, _, cn_b, cd_b = inner.read_pair(branch)
            if mass_b == 0:
                out.append((branch, 0, 0, 1))
            elif not active:
                out.append((branch, f_here, f_here, den))
            else:
                # n_b = f + (rn/rd) * active over den * rd; rd != 0, as a node of source capital -1 got rn = 0, N = F
                rn = (cn_b + cd_b) * cd
                rd = cd_b * shifted
                if rd < 0:
                    rn, rd = -rn, -rd
                d_b = den * rd
                f_b = f_here * rd
                n_b = f_b + rn * active
                f_b = max(f_b, n_b - d_b)
                g = gcd(n_b, f_b, d_b)
                out.append((branch, n_b // g, f_b // g, d_b // g))
        return tuple(out)

    def read_pair(self, payload):
        src, n_here, _, den = payload
        mn, md, _, _ = self.inner.read_pair(src)
        if mn == 0:
            return mn, md, None, 1
        return mn, md, n_here, den

    def read_floor_pair(self, payload):
        """The savings floor at a positive cylinder, as its int pair (F, D)."""
        return payload[2:]


class CapitalFnKernel:
    """Walker for a hand-built capital function: payloads are the strings
    themselves, read through the base mass and the function."""

    def __init__(self, base: Measure, capital_fn: Callable[[str], Optional[Fraction]]):
        self.base = base
        self.capital_fn = capital_fn

    def root(self):
        return ""

    def children(self, sigma: str, payload):
        return (sigma + "0", sigma + "1")

    def read_pair(self, payload):
        m = self.base.mass(payload)
        c = self.capital_fn(payload)
        if c is None:
            return m.numerator, m.denominator, None, 1
        return m.numerator, m.denominator, c.numerator, c.denominator


def from_measures(nu: Measure, mu: Measure, label=None) -> Martingale:
    """The quotient martingale capital(sigma) = nu(sigma)/mu(sigma)."""
    if isinstance(nu, MartingaleMeasure) and nu.martingale.base is mu and not isinstance(nu.martingale.kernel, CapitalFnKernel):
        # nu is capital*mass for a library martingale over the same base, so
        # the quotient's values coincide with that martingale's node for node;
        # a hand-built function need not be fair or None on null cylinders,
        # so its quotient keeps reading the masses
        kernel = nu.martingale.kernel
    else:
        kernel = QuotientKernel(nu, mu)
    return Martingale(mu, label=label or f"{nu.label}/{mu.label}", kernel=kernel)


def table_martingale(base: Measure, entries, start=ONE) -> Martingale:
    """Martingale from an explicit finite capital table.

    Strings below the table inherit the deepest tabulated ancestor's value
    (constant continuation, which preserves fairness); the root defaults to
    the start capital when not tabulated.
    """
    table = {sigma: RAT(v) for sigma, v in dict(entries).items()}
    if "" not in table:
        table[""] = RAT(start)

    def capital(sigma: str) -> Optional[Fraction]:
        if base.is_null(sigma):
            return None
        for i in range(len(sigma), -1, -1):  # the table holds "", so some prefix is found
            if sigma[:i] in table:
                return table[sigma[:i]]

    return Martingale(base, capital, "table")


class MartingaleMeasure(_MassBackedMeasure):
    """The measure nu with nu = capital * mass, extended through null cylinders.

    On a positive cylinder the value is forced to capital(sigma)*mu(sigma);
    when one child is null its mass is recovered from the sibling by
    additivity, and below a fully null node everything is squeezed to zero.
    split_rows maps a string to the row record_row made for it, and is empty
    until a conversion records them; children_pairs answers from a string's
    row and split from its split row, each from nu where there is none."""

    def __init__(self, mart: Martingale):
        read, payload = mart.kernel.read_pair, mart.payload

        def nu(sigma: str) -> Fraction:
            here = read(payload(sigma))
            if here[0] > 0 or not sigma:
                return RAT(*_capital_mass(here))
            p = sigma[:-1]  # a null cylinder: its mass follows from its parent and sibling
            kids = _children_masses(*_capital_mass(read(payload(p))), read(payload(p + "0")), read(payload(p + "1")))
            return RAT(*kids[sigma[-1] == "1"])

        super().__init__(nu, label=f"measure({mart.label})")
        self.martingale = mart
        self.split_rows, self._splits = {}, {}

    def record_row(self, sigma: str, pn: int, pd: int, read0, read1) -> tuple:
        """Record sigma's row from its children's kernel reads, given its own
        mass pn/pd, and return both children's masses as int pairs.  The row
        is their reduced split (a, b, a/b), one tuple per (a, b), if that
        rebuilds both masses; else it is their pairs alone."""
        row = kids = _children_masses(pn, pd, read0, read1)
        if pn > 0:
            (n0, d0), (n1, d1) = kids
            a, b = n1 * pd, d1 * pn
            g = gcd(a, b)
            a, b = a // g, b // g
            if n0 * pd * b == pn * (b - a) * d0:  # 0-child: parent * (1 - a/b)
                row = self._splits.get((a, b)) or self._splits.setdefault((a, b), (a, b, RAT(a, b)))
        self.split_rows[sigma] = row
        return kids

    def children_pairs(self, sigma: str, n: int, d: int):
        row = self.split_rows.get(sigma)
        if row is None:
            return super().children_pairs(sigma, n, d)
        if len(row) == 2:  # explicit children pairs
            return row
        a, b, _ = row
        return (n * (b - a), d * b), (n * a, d * b)

    def split(self, sigma: str):
        row = self.split_rows.get(sigma)
        if row is None or len(row) == 2:  # below the rows, or children pairs: nu's own split
            return super().split(sigma)
        if not 0 <= row[0] <= row[1]:
            raise ConstructionError(f"split outside [0,1] at {sigma!r}: {row[2]}")
        return row[2]


to_measure = MartingaleMeasure


def _capital_mass(read_pair) -> tuple:
    mn, md, cn, cd = read_pair
    return (cn * mn, cd * md) if mn > 0 else (0, 1)


def _children_masses(pn, pd, read0, read1) -> tuple:
    """to_measure's masses of both children of a node whose own is pn/pd, from
    their kernel reads: capital*mass, or nu(parent) - nu(sibling) for a null
    child with a positive sibling (whose parent is then positive)."""
    (n0, d0), (n1, d1) = _capital_mass(read0), _capital_mass(read1)
    if read0[0] <= 0 < read1[0]:
        n0, d0 = pn * d1 - n1 * pd, pd * d1
    elif read1[0] <= 0 < read0[0]:
        n1, d1 = pn * d0 - n0 * pd, pd * d0
    return (n0, d0), (n1, d1)


class SavingsMartingale(Martingale):
    """A martingale with the savings property, whose kernel also carries its savings floor."""

    def savings(self, sigma: str) -> Optional[Fraction]:
        """The savings floor at sigma, None on null cylinders."""
        kernel, payload = self.kernel, self.payload(sigma)
        if kernel.read_pair(payload)[0] == 0:
            return None
        return RAT(*kernel.read_floor_pair(payload))


def savings_transform(mart: Martingale) -> SavingsMartingale:
    """Split a martingale into active capital plus a nondecreasing savings floor.

    The source capital is first replaced by capital+1 so the recursion never
    divides by zero, and the result is scaled to start at 1, which is what
    makes the floor-to-total sandwich hold at the root as well; a start
    capital of -1 shifts to 0, which cannot be scaled to 1.
    """
    if _start_capital(mart) == -1:
        raise PreconditionError("cannot normalize a martingale with zero start capital")
    return SavingsMartingale(mart.base, label=f"savings({mart.label})", kernel=SavingsKernel(mart.kernel))


class CapitalTrace(Record):
    """Capital along the prefixes of a finite string."""

    def __init__(self, prefix: str, values: list, hit_null_at: Optional[int] = None):
        self.prefix, self.values, self.hit_null_at = prefix, values, hit_null_at

    @property
    def max_attained(self) -> Fraction:
        return max(self.values)

    @property
    def final(self) -> Fraction:
        return self.values[-1]

    @property
    def not_random_by_nullity(self) -> bool:
        return self.hit_null_at is not None


def run(mart: Martingale, x: str) -> CapitalTrace:
    """Capital after each bit of x; stops early when a prefix goes null."""
    values = []
    for n in range(len(x) + 1):
        c = mart.capital(x[:n])
        if c is None:
            return CapitalTrace(prefix=x, values=values, hit_null_at=n)
        values.append(c)
    return CapitalTrace(prefix=x, values=values)


def check_fairness(mart: Martingale, depth: int) -> AuditReport:
    """Exact fairness at every string of length < depth, plus the
    null-iff-undefined correspondence at every string it touches.

    The walk reads the martingale's tree kernel, the same source capital()
    reads.  Values travel as unnormalized int pairs compared by
    cross-multiplication.
    """
    check_enumeration_depth(depth)
    kernel = mart.kernel
    report = AuditReport()
    if depth > 0:
        _fairness_visit(kernel, report, depth, "", kernel.root())
    return report


def _fairness_visit(kernel, report: AuditReport, depth: int, sigma: str, payload):
    """Audit the subtree at sigma; returns capital*mass as a (num, den) pair
    (with the "undefined * 0 = 0" convention)."""
    mn, md, cn, cd = kernel.read_pair(payload)
    if cn is None:
        if mn != 0:
            report.add(f"capital undefined on positive cylinder {sigma!r}")
    elif mn == 0:
        report.add(f"capital defined on null cylinder {sigma!r}: {RAT(cn, cd)}")
    elif cn < 0:
        report.add(f"negative capital at {sigma!r}: {RAT(cn, cd)}")
    tn, td = (0, 1) if (cn is None or mn == 0) else (cn * mn, cd * md)
    if len(sigma) < depth:
        report.checked += 1
        p0, p1 = kernel.children(sigma, payload)
        an, ad = _fairness_visit(kernel, report, depth, sigma + "0", p0)
        bn, bd = _fairness_visit(kernel, report, depth, sigma + "1", p1)
        ln, ld = an * bd + bn * ad, ad * bd
        if mn > 0 and ln * td != tn * ld:
            report.add(f"fairness fails at {sigma!r}: {RAT(ln, ld)} != {RAT(tn, td)}")
    return tn, td


class VilleReport(Record):
    """Exhaustive hitting-mass audit against the capital(eps)/c bound."""

    def __init__(self, n: int, threshold: Fraction, fraction: Fraction, bound: Fraction, passed: bool):
        self.n, self.threshold, self.fraction, self.bound, self.passed = n, threshold, fraction, bound, passed


def _ville_threshold(n: int, c) -> Fraction:
    q = RAT(c)  # both ville audits bound the hitting mass of paths of length n by capital("")/q
    if n < 0 or q <= 0:
        raise PreconditionError(f"ville needs n >= 0 and c > 0, got n={n} and c={q}")
    return q


def ville_audit(mart: Martingale, n: int, thresholds) -> list[VilleReport]:
    """Exact mass of {x of length n : some prefix capital >= c} vs capital("")/c,
    one report per threshold c.

    Enumerates the full depth-n tree once, auditing every threshold in the
    same sweep.  Null subtrees carry no mass and are skipped.
    """
    check_enumeration_depth(n)
    start = _start_capital(mart)
    cs = [_ville_threshold(n, q) for q in thresholds]
    qs = [(q.numerator, q.denominator) for q in cs]
    hits = [{} for _ in cs]  # per threshold: leaf mass denominator -> summed numerators
    kernel = mart.kernel
    stack = [("", kernel.root(), None, 1)]
    while stack:
        sigma, payload, top_n, top_d = stack.pop()
        mn, md, cn, cd = kernel.read_pair(payload)
        if mn == 0:
            continue
        if top_n is None or cn * top_d > top_n * cd:
            top_n, top_d = cn, cd
        if len(sigma) == n:
            for (qn, qd), hit in zip(qs, hits):
                if top_n * qd >= qn * top_d:
                    hit[md] = hit.get(md, 0) + mn
            continue
        p0, p1 = kernel.children(sigma, payload)
        stack.append((sigma + "1", p1, top_n, top_d))
        stack.append((sigma + "0", p0, top_n, top_d))
    reports = []
    for q, hit in zip(cs, hits):
        fraction = sum((RAT(num, den) for den, num in hit.items()), ZERO)
        bound = start / q
        reports.append(VilleReport(n=n, threshold=q, fraction=fraction, bound=bound, passed=fraction <= bound))
    return reports


def ville_monte_carlo(mart: Martingale, n: int, thresholds, samples: int, seed: int) -> list[tuple]:
    """Sampled estimate of the hitting fraction for depths past the exhaustive
    cap.  Statistical, not exact: returns one (estimate, bound) pair of floats
    per threshold, all estimated from the same samples.

    Each sample steps kernel payloads down its path and compares capitals as
    int pairs by cross-multiplication, so no per-prefix value is cached.
    """
    start = _start_capital(mart)
    rng = random.Random(seed)
    cs = [_ville_threshold(n, q) for q in thresholds]
    qs = [(q.numerator, q.denominator) for q in cs]
    children, read_pair, split, draw = mart.kernel.children, mart.kernel.read_pair, mart.base.split, rng.random
    root = mart.kernel.root()
    _, _, root_n, root_d = read_pair(root)
    hits = [0] * len(cs)
    for _ in range(samples):
        sigma, payload = "", root
        best_n, best_d = root_n, root_d
        for _step in range(n):
            s = split(sigma)
            # the split's correctly rounded float, as float(s) gives it
            one = draw() < s.numerator / s.denominator
            payload = children(sigma, payload)[one]
            sigma += "1" if one else "0"
            _, _, cn, cd = read_pair(payload)
            if cn is None:
                break
            if cn * best_d > best_n * cd:
                best_n, best_d = cn, cd
        for i, (qn, qd) in enumerate(qs):
            if best_n * qd >= qn * best_d:
                hits[i] += 1
    return [(h / samples, float(start / q)) for h, q in zip(hits, cs)]
