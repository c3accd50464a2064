"""Finite binary strings and exact algebra on prefix-free cylinder unions.

A cylinder union is represented by a tuple of generator strings; the set it
stands for is the union of all infinite extensions of the generators.  All
operations keep the representation prefix-free and in canonical form
(minimal generators, sibling pairs merged, sorted).
"""

from itertools import product

from .errors import ConstructionError


_BITS = frozenset("01")


def validate_bits(s: str) -> str:
    if not _BITS.issuperset(s):
        raise ConstructionError(f"not a binary string: {s!r}")
    return s


def champernowne_bits(length: int) -> str:
    """Concatenated binary numerals 1, 10, 11, 100, ... truncated to length."""
    out = []
    total = 0
    k = 1
    while total < length:
        chunk = format(k, "b")
        out.append(chunk)
        total += len(chunk)
        k += 1
    return "".join(out)[:length]


def all_strings(n: int):
    """All binary strings of length n, in lexicographic order."""
    for bits in product("01", repeat=n):
        yield "".join(bits)


def prefix_free_violation(strings) -> tuple[str, str] | None:
    """Return a (prefix, extension) pair violating prefix-freeness, or None;
    a repeated string is a pair of itself."""
    ordered = sorted(strings)
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            return (a, b)
    return None


def normalize(strings) -> tuple[str, ...]:
    """Canonical form of a cylinder union: minimal generators, siblings merged.

    One pass in sorted order: a string that extends the last kept generator
    is covered by it, and a 1-child whose 0-sibling was kept last merges into
    their parent, which may merge again.
    """
    out = []
    for g in sorted(set(strings)):
        if out and g.startswith(out[-1]):
            continue
        while g[-1:] == "1" and out and out[-1] == g[:-1] + "0":
            out.pop()
            g = g[:-1]
        out.append(g)
    return tuple(out)


def intersect(a_gens, b_gens) -> tuple[str, ...]:
    """Generators of the intersection of two cylinder unions."""
    out = []
    for a in a_gens:
        for b in b_gens:
            if b.startswith(a):
                out.append(b)
            elif a.startswith(b):
                out.append(a)
    return normalize(out)


def _carve(g: str, s: str) -> list[str]:
    # [g] minus [s] for g a proper prefix of s: ladder of flipped siblings
    return [s[:i] + ("1" if s[i] == "0" else "0") for i in range(len(g), len(s))]


def subtract(a_gens, b_gens) -> tuple[str, ...]:
    """Generators of (union of a_gens) minus (union of b_gens)."""
    current = list(a_gens)
    for s in b_gens:
        nxt = []
        for g in current:
            if g.startswith(s):
                continue  # fully removed
            if s.startswith(g) and s != g:
                nxt.extend(_carve(g, s))
            else:
                nxt.append(g)
        current = nxt
    return normalize(current)


def restrict_bit(gens, index: int, bit: int) -> tuple[str, ...]:
    """Intersect a cylinder union with the event {x : x(index) == bit}."""
    want = str(bit)
    out = []
    for g in gens:
        if len(g) > index:
            if g[index] == want:
                out.append(g)
        else:
            for mid in all_strings(index - len(g)):
                out.append(g + mid + want)
    return normalize(out)


def covers(gens, p: str) -> bool:
    """True iff the cylinder [p] is wholly inside the union of the generators:
    a generator is a prefix of p, or the generators below p merge into p."""
    return any(p.startswith(g) for g in gens) or normalize([g for g in gens if g.startswith(p)]) == (p,)


def member_prefix(gens, x: str):
    """Membership of [x]'s points in the union: True, False, or None (undecided)."""
    if covers(gens, x):
        return True
    compatible = [g for g in gens if g.startswith(x)]
    if not compatible:
        return False
    return None
