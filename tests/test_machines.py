import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import randlab
from randlab import ConstructionError, PreconditionError, PrefixFreeMachine, ResourceLimitError
from randlab import cells
from randlab.bits import validate_bits
from randlab.machines import semimeasure_superadditive
from randlab.rationals import RAT

from test_formats import _reference_bracket


F = Fraction
TWO_CODE_MACHINE = {"0": "0", "10": "11"}


def test_complexity_table_scan():
    m = PrefixFreeMachine(TWO_CODE_MACHINE)
    assert m.complexity("11") == 2
    assert m.complexity("0") == 1
    assert m.complexity("01") == math.inf
    # one output of three codewords, the shortest neither first nor last
    assert PrefixFreeMachine({"111": "0", "0": "0", "10": "0"}).complexity("0") == 1


def test_semimeasure_values():
    m = PrefixFreeMachine(TWO_CODE_MACHINE)
    assert m.semimeasure("") == F(3, 4)
    assert m.semimeasure("1") == F(1, 4)
    assert m.semimeasure("00") == 0


def test_prefix_free_domain_enforced():
    with pytest.raises(ConstructionError):
        PrefixFreeMachine({"0": "1", "01": "1"})


def test_kc_build_worked_case():
    m = randlab.kc_build([(1, "0"), (2, "11")])
    assert m.kraft_weight() == F(3, 4)
    assert m.complexity("11") <= 2
    assert any(len(c) == 1 and out == "0" for c, out in m.table.items())
    assert any(len(c) == 2 and out == "11" for c, out in m.table.items())


def test_kc_build_empty():
    assert randlab.kc_build([]).table == {}


def test_kc_build_refuses_a_negative_length():
    with pytest.raises(PreconditionError, match="request lengths must be nonnegative"):
        randlab.kc_build([(-1, "0")])


def test_kc_build_kraft_violation():
    with pytest.raises(PreconditionError):
        randlab.kc_build([(1, "0"), (1, "1"), (2, "00")])


def test_kc_build_duplicate_requests():
    m = randlab.kc_build([(3, "1"), (3, "1"), (2, "1")])
    codes = [c for c, out in m.table.items() if out == "1"]
    assert sorted(len(c) for c in codes) == [2, 3, 3]


def test_kc_deterministic():
    reqs = [(2, "01"), (1, "1"), (3, "000")]
    assert randlab.kc_build(reqs).table == randlab.kc_build(reqs).table


def _random_requests(rng):
    total = F(0)
    out = []
    for _ in range(rng.randint(1, 16)):
        n = rng.randint(1, 10)
        if total + F(1, 2**n) > 1:
            continue
        total += F(1, 2**n)
        out.append((n, "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))))
    return out


def _reference_kc_table(requests):
    """The request-set allocation on Fraction blocks: free block size 2^-k ->
    sorted left endpoints, and a codeword read off its block's endpoint."""
    free = {0: [F(0)]}
    table = {}
    for n, sigma in requests:
        k = max(size for size in free if size <= n and free[size])
        start = free[k].pop(0)
        for j in range(n, k, -1):
            free.setdefault(j, []).append(start + F(1, 2**j))
            free[j].sort()
        table[format(int(start * 2**n), "b").zfill(n) if n else ""] = sigma
    return table


def _within_kraft(requests):
    """The longest prefix of requests whose weight is at most 1."""
    total = F(0)
    for i, (n, _) in enumerate(requests):
        total += F(1, 2**n)
        if total > 1:
            return requests[:i]
    return requests


_REQUESTS = st.lists(
    st.tuples(st.integers(0, 12), st.sampled_from(["", "0", "1", "01", "110"])), max_size=40
).map(_within_kraft)


@given(_REQUESTS)
@settings(max_examples=300, deadline=None)
@example([])
@example([(0, "")])
@example([(0, "1")])
@example([(1, "0"), (2, "0"), (2, "0")])  # weight exactly 1, with a repeat
@example([(3, "1"), (3, "1"), (2, "1"), (12, "")])
@example([(12, "0"), (1, "1"), (5, "0"), (2, "1")])
def test_kc_build_allocates_as_the_fraction_blocks_did(requests):
    assert list(randlab.kc_build(requests).table.items()) == list(_reference_kc_table(requests).items())


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_kc_build_postconditions(seed):
    rng = random.Random(seed)
    reqs = _random_requests(rng)
    m = randlab.kc_build(reqs)
    assert m.kraft_weight() == randlab.request_weight(reqs)
    assert semimeasure_superadditive(m)
    for n, sigma in reqs:
        assert any(len(c) == n and out == sigma for c, out in m.table.items())
        assert m.complexity(sigma) <= n


TEXT = st.one_of(
    st.text(alphabet="01", max_size=40),
    st.text(alphabet="01 \t\n\ufffd\u00e9\u0661\u2070", max_size=12),
    st.text(max_size=12),
)


@given(TEXT)
@settings(max_examples=300, deadline=None)
@example("")
@example(" ")
@example("0 1")
@example("01\n")
@example("\ufffd")
@example("0\ufffd1")
@example("\u0661")  # a digit to int(), not a bit
def test_validate_bits_accepts_exactly_what_the_character_scan_accepted(s):
    scan_accepts = not any(ch not in "01" for ch in s)
    try:
        assert validate_bits(s) is s
        accepted = True
    except ConstructionError as exc:
        assert str(exc) == f"not a binary string: {s!r}"
        accepted = False
    assert accepted == scan_accepts


@given(st.lists(st.text(alphabet="01", max_size=14), max_size=40))
@settings(max_examples=200, deadline=None)
@example([])
@example([""])
@example(["0", "10", "110", "111"])
def test_integer_kraft_weight_equals_the_fraction_sum(strings):
    # the minimal strings of any list are prefix-free
    domain = {g for g in strings if not any(h != g and g.startswith(h) for h in strings)}
    m = PrefixFreeMachine(dict.fromkeys(domain, "1"))
    weight = m.kraft_weight()
    assert isinstance(weight, RAT)
    assert weight == sum((F(1, 2 ** len(c)) for c in domain), F(0))


@given(
    st.lists(st.tuples(st.text(alphabet="01", max_size=10), st.text(alphabet="01", max_size=4)), max_size=30),
    st.lists(st.integers(0, 40), max_size=12),
)
@settings(max_examples=200, deadline=None)
@example([], [])
@example([("", "")], [0])
@example([("0", "1"), ("10", "11"), ("110", "")], [0, 0, 1])
def test_integer_weights_equal_the_fraction_sums(pairs, lengths):
    table = {c: out for c, out in pairs if not any(h != c and c.startswith(h) for h, _ in pairs)}
    m = PrefixFreeMachine(table)
    depth = m.max_output_length()
    for sigma in ("".join(t) for n in range(depth + 2) for t in itertools.product("01", repeat=n)):
        assert m.semimeasure(sigma) == sum((F(1, 2 ** len(c)) for c, out in table.items() if out.startswith(sigma)), F(0))
    counts = {}
    for c, out in table.items():
        for i in range(len(out) + 1):
            counts[out[:i]] = counts.get(out[:i], F(0)) + F(1, 2 ** len(c))
    reference = all(w >= counts.get(s + "0", 0) + counts.get(s + "1", 0) for s, w in counts.items())
    for out in set(table.values()):
        assert m.complexity(out) == min(len(c) for c, o in table.items() if o == out)
    assert semimeasure_superadditive(m) == reference
    requests = [(n, "") for n in lengths]  # any weight, above 1 too
    assert randlab.request_weight(requests) == sum((F(1, 2**n) for n in lengths), F(0))


def test_classify_bounded(fair):
    assert PrefixFreeMachine(TWO_CODE_MACHINE).bounded_by(fair) is True


def test_classify_unbounded(fair):
    m = PrefixFreeMachine({"0": "0", "10": "01"})  # semimeasure(0) = 3/4 > 1/2
    assert m.semimeasure("0") == F(3, 4)
    assert m.bounded_by(fair) is False


def test_bounded_by_walks_every_string_in_order_until_the_first_excess():
    # the check reads nu at every string up to the longest output, by length
    # and then lexicographically, whether or not an output extends it, and
    # stops at the first string whose semimeasure exceeds nu's mass
    read = []

    def fair_mass(sigma):
        read.append(sigma)
        return Fraction(1, 2 ** len(sigma))

    nu, strings = randlab.from_masses(fair_mass), ["".join(b) for n in range(4) for b in itertools.product("01", repeat=n)]
    read.clear()
    assert PrefixFreeMachine({"000": "011", "01": "1"}).bounded_by(nu)
    assert read == strings
    read.clear()
    # semimeasure('011') = 1/4 > 1/8; every string before it reads no excess
    assert not PrefixFreeMachine({"00": "011", "01": "1"}).bounded_by(nu)
    assert read == strings[: strings.index("011") + 1]


def test_classify_machine_keeps_to_the_depth_cap(monkeypatch, fair):
    # the domination check walks every string up to the longest output (7 bits)
    m = PrefixFreeMachine({"0": "0101010", "1": ""})
    monkeypatch.setenv("RANDLAB_DEPTH_LIMIT", "6")
    with pytest.raises(ResourceLimitError, match="depth 7 exceeds cap 6"):
        m.bounded_by(fair)
    monkeypatch.setenv("RANDLAB_DEPTH_LIMIT", "7")
    assert m.bounded_by(fair) is False  # semimeasure('01') = 1/2 > 1/4


def test_superadditivity_direct():
    m = PrefixFreeMachine({"00": "0", "01": "00", "1": "01"})
    assert semimeasure_superadditive(m)
    assert m.semimeasure("0") >= m.semimeasure("00") + m.semimeasure("01")


def test_superadditivity_reads_the_machines_semimeasure(monkeypatch):
    # every string weighing 1 gives each pair of children twice its parent
    m = PrefixFreeMachine({"00": "0", "01": "00", "1": "01"})
    monkeypatch.setattr(PrefixFreeMachine, "semimeasure", lambda self, sigma: RAT(1))
    assert not semimeasure_superadditive(m)


def test_deficiency_worked_case():
    machine = randlab.kc_build([(2, "11")])
    dec = cells.binary_digits()
    trace = randlab.deficiency_trace(machine, dec, F(7, 8), 2)
    assert not trace.not_random_by_nullity
    assert [(r.n, r.d_low, r.d_high) for r in trace.rows] == [(1, -math.inf, -math.inf), (2, 0, 0)]


def test_deficiency_empty_machine():
    trace = randlab.deficiency_trace(PrefixFreeMachine({}), cells.binary_digits(), F(1, 3), 4)
    assert all(r.d_low == -math.inf and r.d_high == -math.inf for r in trace.rows)
    assert len(trace.rows) == 4


def test_deficiency_null_cell_flag(null_at_one):
    machine = randlab.kc_build([(2, "11")])
    trace = randlab.deficiency_trace(machine, cells.natural(null_at_one), "111", 3)
    assert trace.not_random_by_nullity
    assert trace.nullity_at == 1
    assert trace.rows == []


def test_deficiency_non_dyadic_brackets():
    # ternary-grouped cells have non-dyadic masses, so the -log2 term brackets
    machine = randlab.kc_build([(1, "1")])
    trace = randlab.deficiency_trace(machine, cells.bary_grouped(3), F(1, 2), 3)
    first = trace.rows[0]  # cell mass 2/3: -log2 strictly between 0 and 1
    assert (first.neg_log_mass_low, first.neg_log_mass_high) == (0, 1)
    assert (first.d_low, first.d_high) == (-1, 0)


def test_deficiency_undetermined_point():
    machine = randlab.kc_build([(2, "11")])
    trace = randlab.deficiency_trace(machine, cells.binary_digits(), F(1, 2), 4)
    assert trace.undetermined_at == 1
    assert trace.rows == []


# decomposition name -> (decomposition, digit base, number of coordinates;
# None for a bare point)
_INTERVALS = {
    "binary": (cells.binary_digits, 2, None),
    **{f"bary:{b}": (lambda b=b: cells.bary_grouped(b), b, None) for b in range(3, 13)},
    **{f"interleave:{d}": (lambda d=d: cells.interleave(d), 2, d) for d in range(1, 4)},
}
_NATURAL_SPLITS = st.sampled_from([F(0), F(1), F(1, 2), F(1, 3), F(2, 5), F(5, 6)])


@st.composite
def _deficiency_cases(draw):
    """(machine, decomposition, point, length): points on and off cell
    endpoints, or bit strings named through split tables with null
    cylinders, and a machine with codewords for some prefixes of the name."""
    name = draw(st.one_of(st.sampled_from(sorted(_INTERVALS)), st.just("natural")))
    if name == "natural":
        entries = draw(st.dictionaries(st.text(alphabet="01", max_size=4), _NATURAL_SPLITS, max_size=6))
        entries[draw(st.text(alphabet="01", max_size=3))] = draw(st.sampled_from([F(0), F(1)]))
        dec = cells.natural(randlab.split_table(entries, default=draw(_NATURAL_SPLITS)))
        point = draw(st.text(alphabet="01", max_size=32))
    else:
        make, base, dim = _INTERVALS[name]
        dec = make()

        def coordinate():
            # powers of the base put points on cell endpoints; other factors keep them off
            den = base ** draw(st.integers(0, 8)) * draw(st.sampled_from([1, 1, 3, 5, 7, 11]))
            return F(draw(st.integers(0, den)), den)

        point = coordinate() if dim is None else tuple(coordinate() for _ in range(dim))
    n = draw(st.integers(0, 30))
    bits = dec.name_point(point, n).bits
    outputs = st.one_of(st.sampled_from([bits[:i] for i in range(len(bits) + 1)]), st.text(alphabet="01", max_size=6))
    requests = _within_kraft(draw(st.lists(st.tuples(st.integers(1, 12), outputs), max_size=12)))
    return randlab.kc_build(requests), dec, point, n


def _cell_length(dec, sigma: str):
    """The cell's mass as a Fraction: its Lebesgue length or box volume, or
    for the natural decomposition the mass of the cylinder it is."""
    cell = dec.cell(sigma)
    if isinstance(dec, cells.NaturalDecomposition):
        return dec.mu.mass(cell)
    if isinstance(cell, tuple):
        return math.prod((hi - lo for lo, hi in cell), start=F(1))
    return cell.length()


def _reference_deficiency(machine, dec, x, n):
    """deficiency_trace by its definition, one Fraction cell length and one
    bracket search per prefix of x's name: (rows, nullity_at, undetermined_at)."""
    naming = dec.name_point(x, n)
    rows = []
    for i in range(1, len(naming.bits) + 1):
        prefix = naming.bits[:i]
        mass = _cell_length(dec, prefix)
        if mass == 0:
            return rows, i, naming.undetermined_at
        lo, hi = _reference_bracket(mass)
        k = machine.complexity(prefix)
        d = (-math.inf, -math.inf) if k == math.inf else (lo - k, hi - k)
        rows.append(randlab.machines.DeficiencyRow(i, lo, hi, k, *d))
    return rows, None, naming.undetermined_at


@given(_deficiency_cases())
@settings(max_examples=300, deadline=None)
@example((randlab.kc_build([(2, "11")]), cells.binary_digits(), F(3, 4), 4))  # an endpoint at depth 2
@example((randlab.kc_build([(1, "")]), cells.natural(randlab.split_table({"1": 0})), "110", 4))  # null at depth 2
def test_the_one_descent_trace_meets_its_definition(case):
    machine, dec, x, n = case
    trace = randlab.deficiency_trace(machine, dec, x, n)
    assert (trace.rows, trace.nullity_at, trace.undetermined_at) == _reference_deficiency(machine, dec, x, n)
    # the brackets naming reads on its descent are those of the geometric
    # cell lengths, up to the first null cell; plain naming builds none
    naming = dec.name_point(x, n, brackets=True)
    lengths = [_cell_length(dec, naming.bits[:i]) for i in range(1, len(naming.bits) + 1)]
    lengths = lengths[: next((i + 1 for i, m in enumerate(lengths) if m == 0), len(lengths))]
    assert naming.brackets == [_reference_bracket(m) if m else None for m in lengths]
    assert dec.name_point(x, n) == randlab.cells.NamingOutcome(naming.bits, naming.undetermined_at)


def test_bounded_machine_quotient_stays_below_one(fair):
    # domination read as a quotient: semimeasure/measure never exceeds 1
    m = PrefixFreeMachine(TWO_CODE_MACHINE)
    assert m.bounded_by(fair)
    for n in range(m.max_output_length() + 1):
        for bits in __import__("itertools").product("01", repeat=n):
            sigma = "".join(bits)
            assert m.semimeasure(sigma) <= fair.mass(sigma)
