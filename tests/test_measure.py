import gc
import itertools
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randlab
from randlab import ConstructionError, cells
from randlab.measure import PathCache


def test_fair_coin_masses(fair):
    assert fair.mass("010") == Fraction(1, 8)
    assert fair.mass("0110") == Fraction(1, 16)
    assert fair.mass("") == 1


def test_bernoulli_product_masses(bern13):
    assert bern13.mass("11") == Fraction(1, 9)
    assert bern13.mass("10") == Fraction(2, 9)
    # p^(#1s) * (1-p)^(#0s)
    assert bern13.mass("1100") == Fraction(1, 9) * Fraction(4, 9)


def test_split_table_degenerate(null_at_one):
    assert null_at_one.mass("1") == 0
    assert null_at_one.mass("0") == 1
    assert null_at_one.mass("11") == 0


def test_conditional(fair, bern13, null_at_one):
    assert bern13.conditional("0", 1) == Fraction(1, 3)
    assert fair.conditional("0101", 0) == Fraction(1, 2)
    assert null_at_one.conditional("1", 0) is None


def test_is_null(fair, null_at_one):
    for sigma in ("", "0", "1", "0101"):
        assert not fair.is_null(sigma)
    assert null_at_one.is_null("1")
    assert not null_at_one.is_null("0")


def test_is_null_reads_no_split_below_a_null_cylinder():
    # [1] is null and every split below the root is out of range: nullity
    # there is read without a split, and elsewhere the split is refused as
    # mass() refuses it
    calls = []
    mu = randlab.Measure(lambda sigma: calls.append(sigma) or (Fraction(0) if sigma == "" else Fraction(2)))
    assert mu.is_null("1011") and mu.is_null("1") and not mu.is_null("0")
    assert calls == [""]
    for read in (mu.is_null, mu.mass):
        with pytest.raises(ConstructionError, match=r"^split outside \[0,1\] at '0': 2$"):
            read("00")
    assert randlab.Measure(lambda sigma: Fraction(1, 2), total=0).is_null("")


def test_mass_backed_nullity_reads_the_mass_function():
    # the derived split at '' is f('1')/f('') = 0, by which [0] would carry
    # the whole mass; nullity reads f itself, as mass() does
    mu = randlab.from_masses(lambda s: Fraction(1 if s == "" else 0))
    assert mu.is_null("0") and mu.mass("0") == 0
    assert mu.is_null("1") and not mu.is_null("")
    assert not randlab.Measure(mu.split).is_null("0")


def test_bad_split_rejected():
    with pytest.raises(ConstructionError) as err:
        randlab.split_table({"01": Fraction(3, 2)})
    assert "01" in str(err.value)
    with pytest.raises(ConstructionError):
        randlab.bernoulli(Fraction(-1, 2))


def test_a_negative_total_is_refused():
    with pytest.raises(ConstructionError, match="total mass must be nonnegative"):
        randlab.Measure(lambda sigma: Fraction(1, 2), total=-1)


def test_a_split_function_may_return_an_int():
    mu = randlab.Measure(lambda sigma: 1)
    assert (mu.split(""), mu.mass("1"), mu.mass("01")) == (1, 1, 0)
    assert isinstance(mu.split(""), Fraction)


def test_path_cache_reads_on_after_a_read_that_raised():
    # the split at '01' is out of range; a read through it raises, and the
    # cached path must still answer every other string (it gave IndexError)
    mu = randlab.Measure(lambda sigma: Fraction(2) if sigma == "01" else Fraction(1, 2))
    assert mu.mass("0000") == Fraction(1, 16)
    for _ in range(2):
        with pytest.raises(ConstructionError):
            mu.mass("011")
    assert [mu.mass(s) for s in ("0000", "00", "01", "1", "")] == [Fraction(1, 2**k) for k in (4, 2, 2, 1, 0)]


def test_total_mass_one_for_all_builtins(builtin_measure_map):
    for name, mu in builtin_measure_map.items():
        assert mu.mass("") == 1, name


def test_additivity_all_builtins(builtin_measure_map):
    for name, mu in builtin_measure_map.items():
        report = randlab.check_additivity(mu, 10)
        assert report.ok, (name, report.violations)


def test_null_monotone(null_at_one):
    report = randlab.check_additivity(null_at_one, 8)
    assert report.ok
    for tail in ("0", "1", "01", "0011"):
        assert null_at_one.mass("1" + tail) == 0


def test_additivity_violation_text():
    mu = randlab.from_masses(lambda s: Fraction(1, 3 ** len(s)))
    assert randlab.check_additivity(mu, 2).violations == [
        "additivity fails at '': 1/3+1/3 != 1",
        "additivity fails at '0': 1/9+1/9 != 1/3",
        "additivity fails at '1': 1/9+1/9 != 1/3",
    ]


def test_additivity_rejects_split_outside_unit_interval():
    mu = randlab.Measure(lambda s: Fraction(3, 2) if s == "0" else Fraction(1, 2))
    with pytest.raises(ConstructionError, match="split outside \\[0,1\\] at '0': 3/2"):
        randlab.check_additivity(mu, 3)


def _audit_measure(mu, mart):
    randlab.check_additivity(mu, 4)


def _compare_measure(mu, mart):
    randlab.measures_agree(mu, mu, 4)


def _audit_fairness(mu, mart):
    randlab.check_fairness(mart, 4)


def _audit_ville(mu, mart):
    randlab.ville_audit(mart, 4, [Fraction(2)])


def _capital_walk(mu, mart):
    for sigma in ("0101", "0110", "1", ""):
        mart.capital(sigma)


def _savings_walk(mu, mart):
    sp = randlab.savings_transform(mart)
    for sigma in ("0101", "0110", "1"):
        sp.capital(sigma)
        sp.savings(sigma)


def _to_measure_walk(mu, mart):
    nu = randlab.to_measure(mart)
    for sigma in ("0101", "0110", "1"):
        nu.mass(sigma)


@pytest.mark.parametrize(
    "walk",
    [_audit_measure, _compare_measure, _audit_fairness, _audit_ville, _capital_walk, _savings_walk, _to_measure_walk],
)
def test_walkers_release_the_audited_measure(walk):
    # with the cycle collector off, only reference counting can free the
    # measure (and its memos) once the walk has returned
    mu = cells.bary_grouped(3).pushforward()
    mart = randlab.from_measures(randlab.fair_coin(), mu)
    ref = weakref.ref(mu)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        walk(mu, mart)
        del mu, mart
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_interleave_of_fair_is_fair(fair):
    prod = randlab.interleave_product(randlab.fair_coin(), randlab.fair_coin())
    assert randlab.measures_agree(prod, fair, 8)


def test_interleave_mixes_factors(bern13):
    prod = randlab.interleave_product(randlab.bernoulli(Fraction(1, 3)), randlab.fair_coin())
    # even positions from the bernoulli factor, odd from the fair one
    assert prod.mass("1") == Fraction(1, 3)
    assert prod.mass("11") == Fraction(1, 3) * Fraction(1, 2)
    assert prod.mass("110") == Fraction(1, 3) * Fraction(1, 2) * Fraction(2, 3)


def test_measures_agree_sees_a_difference_only_at_the_deepest_level():
    entries = {"0" * k: Fraction(1, 2) for k in range(4)}
    mu, nu = randlab.split_table(entries), randlab.split_table({**entries, "000": Fraction(1, 3)})
    assert randlab.measures_agree(mu, nu, 3)
    assert not randlab.measures_agree(mu, nu, 4)
    assert not randlab.measures_agree(nu, mu, 4)


def test_measures_agree_compares_a_non_additive_function_by_its_own_values(fair):
    # its derived splits match the fair coin's, but its masses at "0" do not
    lopsided = randlab.from_masses(lambda s: Fraction(3, 4) if s == "0" else Fraction(1, 2) ** len(s))
    assert lopsided.split("") == fair.split("")
    assert not randlab.measures_agree(lopsided, fair, 1)
    assert randlab.measures_agree(lopsided, lopsided, 6)
    assert randlab.measures_agree(randlab.from_masses(lambda s: Fraction(1, 2) ** len(s)), fair, 6)


def test_scaled_total():
    mu = randlab.fair_coin().scaled(Fraction(2))
    assert mu.mass("") == 2
    assert mu.mass("0") == 1


@st.composite
def split_tables(draw):
    entries = {}
    for sigma in draw(st.lists(st.text(alphabet="01", max_size=4), max_size=6)):
        entries[sigma] = Fraction(draw(st.integers(0, 8)), 8)
    default = Fraction(draw(st.integers(0, 4)), 4)
    return randlab.split_table(entries, default=default)


@given(split_tables())
@settings(max_examples=60, deadline=None)
def test_split_table_invariants(mu):
    report = randlab.check_additivity(mu, 6)
    assert report.ok
    # null cylinders stay null along every extension
    stack = [("", mu.mass(""))]
    while stack:
        sigma, m = stack.pop()
        if m == 0:
            assert mu.mass(sigma + "01") == 0
            continue
        if len(sigma) < 5:
            stack.append((sigma + "0", mu.mass(sigma + "0")))
            stack.append((sigma + "1", mu.mass(sigma + "1")))


def _held_after(queries):
    """Bytes still allocated once queries() has run (its results are dropped)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        queries()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


QUERIED = [format(i, "014b") for i in range(10_000)]


def _queried_measures():
    out = dict(randlab.builtin_measures())
    out["to_measure"] = randlab.to_measure(randlab.from_measures(randlab.bernoulli(Fraction(2, 3)), randlab.fair_coin()))
    out["from_masses"] = randlab.from_masses(lambda s: Fraction(1, 2 ** len(s)))
    return out


@pytest.mark.parametrize("name", sorted(_queried_measures()))
def test_distinct_mass_queries_leave_memory_flat(name):
    # a memo entry per string held 0.4-1.6 MB after these queries; the one-path
    # cache holds one depth-14 path whatever the number of queries
    mu = _queried_measures()[name]
    mu.mass(QUERIED[0])

    def queries():
        for sigma in QUERIED:
            mu.mass(sigma)

    assert _held_after(queries) < 32 * 1024
    assert len(mu._path.kids) <= 14


def _interleave_reference(mu1, mu2, sigma):
    return mu1.mass(sigma[0::2]) * mu2.mass(sigma[1::2])


@st.composite
def weighted_split_tables(draw):
    entries = {}
    for sigma in draw(st.lists(st.text(alphabet="01", max_size=4), max_size=6)):
        entries[sigma] = Fraction(draw(st.integers(0, 4)), 4)
    default = Fraction(draw(st.integers(0, 2)), 2)
    return randlab.split_table(entries, default=default, total=Fraction(draw(st.integers(0, 6)), 3))


MOVES = ("deeper", "sibling", "ancestor", "unrelated", "again")


@st.composite
def read_walks(draw):
    """(move, string) pairs, each string a move from the one before: one bit
    deeper, its sibling, an ancestor, an unrelated string, or itself again."""
    reads, sigma = [], ""
    for move in draw(st.lists(st.sampled_from(MOVES), max_size=40)):
        if move == "deeper":
            sigma += draw(st.sampled_from("01"))
        elif move == "sibling" and sigma:
            sigma = sigma[:-1] + "10"[int(sigma[-1])]
        elif move == "ancestor":
            sigma = sigma[: draw(st.integers(0, len(sigma)))]
        elif move == "unrelated":
            sigma = draw(st.text(alphabet="01", max_size=8))
        reads.append((move, sigma))
    return reads


@given(weighted_split_tables(), read_walks())
@settings(max_examples=150, deadline=None)
def test_path_cache_reads_what_a_fresh_measure_reads(mu, reads):
    # mu's own caches and a bare PathCache over its mass pairs answer every
    # read of the walk as a measure that has read nothing else; a read one bit
    # below the last path asks for one node's children
    cache, asked = PathCache((mu.total.numerator, mu.total.denominator)), []

    def children(prefix, pair):
        asked.append(prefix)
        return mu.children_pairs(prefix, *pair)

    for move, sigma in reads:
        fresh, last, before = mu.scaled(1), cache.path, len(asked)
        assert (mu.mass(sigma), mu.is_null(sigma)) == (fresh.mass(sigma), fresh.is_null(sigma)), sigma
        assert Fraction(*cache.read(sigma, children)) == fresh.mass(sigma), sigma
        if move == "deeper" and last == sigma[:-1]:
            assert asked[before:] == [last]


def test_a_walk_one_bit_deeper_asks_once_per_step(bern13):
    cache, asked = PathCache((1, 1)), []

    def children(prefix, pair):
        asked.append(prefix)
        return bern13.children_pairs(prefix, *pair)

    x = "0110100110010110" * 4
    for j in range(len(x) + 1):
        assert Fraction(*cache.read(x[:j], children)) == bern13.mass(x[:j])
    assert asked == [x[:j] for j in range(len(x))]
    assert cache.path is x  # the last path is the string read, not a copy of it


@given(weighted_split_tables(), weighted_split_tables())
@settings(max_examples=40, deadline=None)
def test_split_backed_interleave_is_the_product_of_factor_masses(mu1, mu2):
    # the additivity audit of a split-backed interleave checks an arithmetic
    # identity; this checks the measure against the product it stands for
    prod = randlab.interleave_product(mu1, mu2)
    assert prod.total == mu1.total * mu2.total
    for n in range(9):
        for sigma in map("".join, itertools.product("01", repeat=n)):
            assert prod.mass(sigma) == _interleave_reference(mu1, mu2, sigma), sigma


def test_interleave_of_a_non_additive_factor_reads_its_derived_splits():
    # the factor's mass("1")/mass("") = 1/3 is its split at '', so the product
    # gives "0" the other 2/3 (the product of factor masses gave it 1/3)
    thirds = randlab.from_masses(lambda s: Fraction(1, 3 ** len(s)))
    prod = randlab.interleave_product(thirds, randlab.fair_coin())
    assert prod.mass("0") == Fraction(2, 3)
    assert prod.mass("1") == Fraction(1, 3)
    assert randlab.check_additivity(prod, 4).ok
    assert randlab.check_additivity(thirds, 1).violations == ["additivity fails at '': 1/3+1/3 != 1"]
