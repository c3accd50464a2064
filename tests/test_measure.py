import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randlab
from randlab import ConstructionError, cells
from randlab.measure import MeasureSpec


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


def test_bad_split_rejected():
    with pytest.raises(ConstructionError) as err:
        randlab.split_table({"01": Fraction(3, 2)})
    assert "01" in str(err.value)
    with pytest.raises(ConstructionError):
        randlab.bernoulli(Fraction(-1, 2))


def test_build_measure_dispatch():
    mu = randlab.build_measure(MeasureSpec("bernoulli", p=Fraction(1, 3)))
    assert mu.mass("11") == Fraction(1, 9)
    with pytest.raises(ConstructionError):
        randlab.build_measure(MeasureSpec("nonsense"))


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
    randlab.ville_audit(mart, 4, Fraction(2))


@pytest.mark.parametrize("walk", [_audit_measure, _compare_measure, _audit_fairness, _audit_ville])
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
