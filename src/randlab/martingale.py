"""Martingales over a base measure: quotients, the inverse recursion back to a
measure, the savings transform, capital traces, and exhaustive audits."""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Optional

from .errors import PreconditionError, check_enumeration_depth
from .measure import AuditReport, Measure, from_masses
from .rationals import ONE, RAT, ZERO


class Martingale:
    """Capital function on finite strings, fair against its base measure.

    capital(sigma) is None exactly on null cylinders for every martingale the
    library builds; hand-built tables may violate that, which check_fairness
    reports.
    """

    def __init__(
        self,
        base: Measure,
        capital_fn: Callable[[str], Optional[Fraction]],
        label="martingale",
        kernel=None,
    ):
        self.base = base
        self._capital_fn = capital_fn
        self.label = label
        self.kernel = kernel  # optional fused tree walker for exhaustive audits

    def __repr__(self):
        return f"Martingale({self.label} vs {self.base.label})"

    def capital(self, sigma: str) -> Optional[Fraction]:
        return self._capital_fn(sigma)


class _PairKernel:
    """Tree walker whose payloads carry exact values as unnormalized int pairs.

    Subclasses provide root(), children(sigma, payload) and read_pair(payload)
    -> (mass_num, mass_den, cap_num, cap_den), every den > 0 and cap_num None
    where the capital is undefined; the exhaustive audits walk those pairs.
    """

    def read(self, payload):
        """(mass, capital) as exact rationals, where values leave the pairs."""
        mn, md, cn, cd = self.read_pair(payload)
        return RAT(mn, md), (None if cn is None else RAT(cn, cd))


class QuotientKernel(_PairKernel):
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


class SavingsKernel(_PairKernel):
    """Fused walker for the savings recursion stacked on a source kernel.

    Payloads are (source payload, N, F, D): total capital N/D and savings
    floor F/D over one shared denominator, divided by gcd(N, F, D) at every
    node (unreduced, the denominator's bit length roughly triples per
    level).  Below a null cylinder the N, F, D slots are unused.
    """

    def __init__(self, inner, shift: bool, scale=ONE):
        self.inner = inner
        self.offset = 1 if shift else 0
        self.scale = scale

    def root(self):
        payload = self.inner.root()
        _, _, cn, cd = self.inner.read_pair(payload)
        n = (cn + self.offset * cd) * self.scale.numerator
        d = cd * self.scale.denominator
        g = gcd(n, d)
        return (payload, n // g, 0, d // g)

    def children(self, sigma: str, payload):
        src, n_here, f_here, den = payload
        inner, offset = self.inner, self.offset
        src0, src1 = inner.children(sigma, src)
        active = n_here - f_here
        if active:
            # parent source capital plus offset is shifted/cd
            _, _, cn, cd = inner.read_pair(src)
            shifted = cn + offset * cd
        out = []
        for branch in (src0, src1):
            mass_b, _, cn_b, cd_b = inner.read_pair(branch)
            if mass_b == 0:
                out.append((branch, 0, 0, 1))
            elif not active:
                out.append((branch, f_here, f_here, den))
            else:
                # n_b = f + ratio * active with ratio = rn/rd, over den * rd
                rn = (cn_b + offset * cd_b) * cd
                rd = cd_b * shifted
                if rd <= 0:
                    if rd == 0:
                        raise ZeroDivisionError(f"savings recursion divides by zero capital at {sigma!r}")
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

    def read_floor(self, payload):
        """The savings floor at a positive cylinder, as an exact rational."""
        _, _, f_here, den = payload
        return RAT(f_here, den)


class CapitalFnKernel(_PairKernel):
    """Fallback walker querying the public capital function per node."""

    def __init__(self, mart):
        self.mart = mart

    def root(self):
        return ""

    def children(self, sigma: str, payload):
        return (sigma + "0", sigma + "1")

    def read_pair(self, payload):
        m = self.mart.base.mass(payload)
        c = self.mart.capital(payload)
        if c is None:
            return m.numerator, m.denominator, None, 1
        return m.numerator, m.denominator, c.numerator, c.denominator


def from_measures(nu: Measure, mu: Measure, label=None) -> Martingale:
    """The quotient martingale capital(sigma) = nu(sigma)/mu(sigma)."""

    def capital(sigma: str) -> Optional[Fraction]:
        m = mu.mass(sigma)
        if m == 0:
            return None
        return nu.mass(sigma) / m

    source = getattr(nu, "derived_from_martingale", None)
    if source is not None and source.base is mu and source.kernel is not None:
        # nu is capital*mass for a martingale over the same base, so the
        # quotient's values coincide with that martingale's node for node
        kernel = source.kernel
    else:
        kernel = QuotientKernel(nu, mu)
    mart = Martingale(mu, capital, label or f"{nu.label}/{mu.label}", kernel=kernel)
    mart.quotient = (nu, mu)
    return mart


def table_martingale(base: Measure, entries, start=ONE, label="table") -> Martingale:
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
        for i in range(len(sigma), -1, -1):
            if sigma[:i] in table:
                return table[sigma[:i]]
        return RAT(start)

    return Martingale(base, capital, label)


def to_measure(mart: Martingale, label=None) -> Measure:
    """The measure nu with nu = capital * mass, extended through null cylinders.

    On a positive cylinder the value is forced to capital(sigma)*mu(sigma);
    when one child is null its mass is recovered from the sibling by
    additivity, and below a fully null node everything is squeezed to zero.
    """
    mu = mart.base
    kernel = mart.kernel or CapitalFnKernel(mart)
    payloads = {"": kernel.root()}

    def payload(sigma: str):
        got = payloads.get(sigma)
        if got is None:
            parent = sigma[:-1]
            p0, p1 = kernel.children(parent, payload(parent))
            payloads[parent + "0"] = p0
            payloads[parent + "1"] = p1
            got = payloads[sigma]
        return got

    memo: dict[str, Fraction] = {}

    def nu(sigma: str) -> Fraction:
        got = memo.get(sigma)
        if got is not None:
            return got
        mn, md, cn, cd = kernel.read_pair(payload(sigma))
        if mn > 0:
            value = RAT(cn * mn, cd * md)
        elif sigma == "":
            value = ZERO
        else:
            parent, bit = sigma[:-1], sigma[-1]
            sibling = parent + ("1" if bit == "0" else "0")
            sn, sd, csn, csd = kernel.read_pair(payload(sibling))
            if sn > 0:
                value = nu(parent) - RAT(csn * sn, csd * sd)
            else:
                value = ZERO
        memo[sigma] = value
        return value

    out = from_masses(nu, label=label or f"measure({mart.label})", memoized=True)
    out.derived_from_martingale = mart
    return out


@dataclass
class SavingsPair:
    """A martingale with the savings property plus its savings floor."""

    total: Martingale
    savings: Callable[[str], Optional[Fraction]]
    shifted: bool
    scale: Fraction = ONE

    @property
    def base(self) -> Measure:
        return self.total.base


def savings_transform(mart: Martingale, shift: bool = True, normalize: bool = True) -> SavingsPair:
    """Split a martingale into active capital plus a nondecreasing savings floor.

    With shift=True (the default) the source capital is first replaced by
    capital+1 so the recursion never divides by zero; with normalize=True the
    result is scaled to start at 1, which is what makes the floor-to-total
    sandwich hold at the root as well.  Both knobs are recorded on the result
    so capital comparisons stay interpretable.
    """
    mu = mart.base
    offset = 1 if shift else 0
    start = mart.capital("") + offset
    if normalize and start == 0:
        raise PreconditionError("cannot normalize a martingale with zero start capital")
    scale = 1 / start if normalize else ONE
    memo: dict[str, tuple[Optional[Fraction], Optional[Fraction]]] = {}

    def source(sigma: str) -> Optional[Fraction]:
        c = mart.capital(sigma)
        if c is None:
            return None
        return c + offset

    def pair(sigma: str) -> tuple[Optional[Fraction], Optional[Fraction]]:
        got = memo.get(sigma)
        if got is not None:
            return got
        if mu.is_null(sigma):
            value = (None, None)
        elif sigma == "":
            value = (source("") * scale, ZERO)
        else:
            n_parent, f_parent = pair(sigma[:-1])
            active = n_parent - f_parent
            if active == 0:
                n_here = f_parent
            else:
                num, den = source(sigma), source(sigma[:-1])
                n_here = f_parent + (num / den) * active
            value = (n_here, max(f_parent, n_here - 1))
        memo[sigma] = value
        return value

    kernel = SavingsKernel(mart.kernel or CapitalFnKernel(mart), shift, scale)
    total = Martingale(mu, lambda sigma: pair(sigma)[0], label=f"savings({mart.label})", kernel=kernel)
    return SavingsPair(total=total, savings=lambda sigma: pair(sigma)[1], shifted=shift, scale=scale)


@dataclass
class CapitalTrace:
    """Capital along the prefixes of a finite string."""

    prefix: str
    values: list
    hit_null_at: Optional[int] = None

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

    Library-built martingales carry a fused tree kernel that produces the
    same values as the public capital function; hand-built ones are walked
    through capital() directly.  Values travel as unnormalized int pairs
    compared by cross-multiplication.
    """
    check_enumeration_depth(depth)
    kernel = mart.kernel or CapitalFnKernel(mart)
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


@dataclass
class VilleReport:
    """Exhaustive hitting-mass audit against the capital(eps)/c bound."""

    n: int
    threshold: Fraction
    fraction: Fraction
    bound: Fraction
    passed: bool


def ville_audit(mart: Martingale, n: int, c, thresholds=None) -> VilleReport | list[VilleReport]:
    """Exact mass of {x of length n : some prefix capital >= c} vs capital("")/c.

    Enumerates the full depth-n tree once; pass several thresholds to audit
    them in the same sweep (a list is returned in that case).  Null subtrees
    carry no mass and are skipped.
    """
    check_enumeration_depth(n)
    many = thresholds is not None
    cs = [RAT(q) for q in (thresholds if many else [c])]
    qs = [(q.numerator, q.denominator) for q in cs]
    hits = [{} for _ in cs]  # per threshold: leaf mass denominator -> summed numerators
    kernel = mart.kernel or CapitalFnKernel(mart)
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
    start = mart.capital("")
    reports = []
    for q, hit in zip(cs, hits):
        fraction = sum((RAT(num, den) for den, num in hit.items()), ZERO)
        bound = start / q
        reports.append(VilleReport(n=n, threshold=q, fraction=fraction, bound=bound, passed=fraction <= bound))
    return reports if many else reports[0]


def ville_monte_carlo(mart: Martingale, n: int, c, samples: int, seed: int = 0):
    """Sampled estimate of the hitting fraction for depths past the exhaustive
    cap.  Statistical, not exact: returns (estimate, bound) as floats."""
    import random as _random

    rng = _random.Random(seed)
    threshold = RAT(c)
    mu = mart.base
    hits = 0
    for _ in range(samples):
        sigma = ""
        best = mart.capital("")
        for _step in range(n):
            s = mu.split(sigma)
            sigma += "1" if rng.random() < float(s) else "0"
            cap = mart.capital(sigma)
            if cap is None:
                break
            if cap > best:
                best = cap
        if best >= threshold:
            hits += 1
    return hits / samples, float(mart.capital("") / threshold)
