import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randlab
from randlab import ResourceLimitError
from randlab.martingale import CapitalFnKernel


def test_quotient_capitals(fair, bern13):
    m = randlab.from_measures(randlab.fair_coin(), bern13)
    assert m.capital("1") == Fraction(3, 2)
    assert m.capital("11") == Fraction(9, 4)
    ident = randlab.from_measures(randlab.fair_coin(), fair)
    for sigma in ("", "0", "10", "0110"):
        assert ident.capital(sigma) == 1


def test_quotient_undefined_on_null(null_at_one):
    m = randlab.from_measures(null_at_one, null_at_one)
    assert m.capital("") == 1
    assert m.capital("1") is None


def test_to_measure_squeeze(null_at_one):
    m = randlab.from_measures(null_at_one, null_at_one)
    assert m.capital("") == 1 and m.capital("0") == 1
    nu = randlab.to_measure(m)
    assert nu.mass("0") == 1  # forced directly on the positive child
    assert nu.mass("1") == 0  # recovered from the sibling by additivity
    assert nu.mass("10") == 0 and nu.mass("11") == 0  # squeezed below
    assert randlab.check_additivity(nu, 8).ok


def test_to_measure_roundtrip(fair, bern13):
    nu0 = randlab.bernoulli(Fraction(2, 3))
    m = randlab.from_measures(nu0, fair)
    assert randlab.measures_agree(randlab.to_measure(m), nu0, 10)


def test_unit_martingale_gives_base(bern13):
    one = randlab.table_martingale(bern13, {})
    assert randlab.measures_agree(randlab.to_measure(one), bern13, 8)


def test_savings_one_level_worked_case(fair):
    mart = randlab.table_martingale(fair, {"": 2, "0": 4, "1": 0})
    sp = randlab.savings_transform(mart, shift=False, normalize=False)
    assert sp.total.capital("") == 2 and sp.savings("") == 0
    assert sp.total.capital("0") == 4 and sp.savings("0") == 3
    assert sp.total.capital("1") == 0 and sp.savings("1") == 0


def test_savings_constant_martingale(fair):
    for c in (Fraction(1, 2), Fraction(1), Fraction(3)):
        sp = randlab.savings_transform(randlab.table_martingale(fair, {}, start=c), shift=False, normalize=False)
        for sigma in ("0", "1", "01", "110"):
            assert sp.total.capital(sigma) == c
            assert sp.savings(sigma) == max(0, c - 1)


def test_savings_floor_monotone_all_paths(battery_marts):
    sp = randlab.savings_transform(battery_marts["lr_bern23_vs_fair"])
    for path in itertools.product("01", repeat=8):
        prev = Fraction(0)
        for n in range(9):
            f = sp.savings("".join(path[:n]))
            assert prev <= f
            prev = f


def test_savings_shift_recorded(battery_marts):
    assert randlab.savings_transform(battery_marts["identity"]).shifted
    assert not randlab.savings_transform(battery_marts["identity"], shift=False, normalize=False).shifted


def test_run_traces(fair, battery_marts):
    allin = battery_marts["all_in_on_0"]
    assert randlab.run(allin, "0000").values == [1, 2, 4, 8, 16]
    assert randlab.run(allin, "0100").values == [1, 2, 0, 0, 0]
    ident = battery_marts["identity"]
    assert randlab.run(ident, "10110").values == [1] * 6


def test_run_null_flag(null_at_one):
    m = randlab.from_measures(null_at_one, null_at_one)
    trace = randlab.run(m, "10")
    assert trace.not_random_by_nullity
    assert trace.hit_null_at == 1
    assert trace.values == [1]


def test_fairness_battery(battery_marts):
    for name, m in battery_marts.items():
        report = randlab.check_fairness(m, 12)
        assert report.ok, (name, report.violations[:3])


def test_fairness_detects_bad_table(fair):
    bad = randlab.table_martingale(fair, {"": 1, "0": 2, "1": 2})
    report = randlab.check_fairness(bad, 2)
    assert not report.ok
    assert any("''" in v for v in report.violations)


def test_fairness_violation_text(fair):
    unfair = randlab.table_martingale(fair, {"0": 2, "1": 2})
    assert randlab.check_fairness(unfair, 2).violations == ["fairness fails at '': 2 != 1"]
    negative = randlab.table_martingale(fair, {"0": -1, "1": 3})
    assert randlab.check_fairness(negative, 2).violations == [
        "negative capital at '0': -1",
        "negative capital at '00': -1",
        "negative capital at '01': -1",
    ]


def test_fairness_detects_impossibility_violation(null_at_one):
    bad = randlab.Martingale(null_at_one, lambda sigma: Fraction(1))
    report = randlab.check_fairness(bad, 3)
    assert any("null cylinder" in v for v in report.violations)


def test_ville_all_in_equality(battery_marts):
    res = randlab.ville_audit(battery_marts["all_in_on_0"], 10, Fraction(8))
    assert res.fraction == Fraction(1, 8) == res.bound
    assert res.passed


def test_ville_identity(battery_marts):
    res = randlab.ville_audit(battery_marts["identity"], 8, Fraction(2))
    assert res.fraction == 0
    assert res.bound == Fraction(1, 2)
    assert res.passed


def test_ville_likelihood_ratio(battery_marts):
    res = randlab.ville_audit(battery_marts["lr_bern23_vs_fair"], 12, Fraction(4))
    assert res.passed and res.fraction <= Fraction(1, 4)


def test_ville_matches_bruteforce(battery_marts):
    # independent oracle: enumerate all strings and take running maxima
    m = battery_marts["lr_fair_vs_bern13"]
    n, c = 8, Fraction(2)
    expected = Fraction(0)
    for bits in itertools.product("01", repeat=n):
        x = "".join(bits)
        best = max(m.capital(x[:k]) for k in range(n + 1))
        if best >= c:
            expected += m.base.mass(x)
    res = randlab.ville_audit(m, n, c)
    assert res.fraction == expected


def test_ville_repeated_threshold_counted_once(battery_marts):
    m = battery_marts["lr_bern23_vs_fair"]
    single = randlab.ville_audit(m, 8, Fraction(2))
    assert randlab.ville_audit(m, 8, None, thresholds=[2, 2]) == [single, single]


def test_ville_resource_cap(battery_marts, monkeypatch):
    with pytest.raises(ResourceLimitError):
        randlab.ville_audit(battery_marts["identity"], 25, Fraction(2))
    monkeypatch.setenv("RANDLAB_DEPTH_LIMIT", "4")
    with pytest.raises(ResourceLimitError):
        randlab.ville_audit(battery_marts["identity"], 5, Fraction(2))


def test_table_martingale_constant_continuation(fair):
    m = randlab.table_martingale(fair, {"0": Fraction(3, 2), "1": Fraction(1, 2)})
    assert m.capital("010101") == Fraction(3, 2)
    assert randlab.check_fairness(m, 8).ok


def _assert_kernel_matches_public_values(mart, depth):
    kernel = mart.kernel or CapitalFnKernel(mart)
    stack = [("", kernel.root())]
    while stack:
        sigma, payload = stack.pop()
        mass, cap = kernel.read(payload)
        assert mass == mart.base.mass(sigma), (mart.label, sigma)
        assert cap == mart.capital(sigma), (mart.label, sigma)
        if len(sigma) < depth:
            p0, p1 = kernel.children(sigma, payload)
            stack.append((sigma + "0", p0))
            stack.append((sigma + "1", p1))


def test_kernels_agree_with_public_values(battery_marts):
    # the fused audit walkers must reproduce mass and capital node for node
    for m in battery_marts.values():
        for mart in (m, randlab.savings_transform(m).total):
            _assert_kernel_matches_public_values(mart, 6)


@st.composite
def dominated_split_tables(draw):
    """(nu, mu) split tables with nu absolutely continuous w.r.t. mu: where
    mu's split is 0 or 1, nu's split is the same, so nu vanishes on mu-nulls."""
    splits = st.fractions(min_value=0, max_value=1, max_denominator=6)

    def pair():
        s = draw(splits)
        return s, (s if s in (0, 1) else draw(splits))

    keys = draw(st.lists(st.text(alphabet="01", max_size=4), unique=True, max_size=6))
    table = {sigma: pair() for sigma in keys}
    mu_default, nu_default = pair()
    mu = randlab.split_table({sigma: s for sigma, (s, _) in table.items()}, default=mu_default)
    nu = randlab.split_table({sigma: t for sigma, (_, t) in table.items()}, default=nu_default)
    return nu, mu


@given(dominated_split_tables())
@settings(max_examples=40, deadline=None)
def test_kernels_agree_on_generated_measures(pair):
    nu, mu = pair
    mart = randlab.from_measures(nu, mu)
    for m in (mart, randlab.savings_transform(mart).total):
        _assert_kernel_matches_public_values(m, 6)
        assert randlab.check_fairness(m, 6).ok, m.label


def test_ville_partition_independent(battery_marts):
    # exhaustive sweep equals the exact combination of disjoint prefix ranges
    m = battery_marts["lr_bern23_vs_fair"]
    n, c = 8, Fraction(2)
    whole = randlab.ville_audit(m, n, c).fraction
    by_parts = Fraction(0)
    for first in "01":
        for bits in itertools.product("01", repeat=n - 1):
            x = first + "".join(bits)
            best = max(m.capital(x[:k]) for k in range(n + 1))
            if best >= c:
                by_parts += m.base.mass(x)
    assert whole == by_parts


def test_ville_monte_carlo_labelled_estimate(battery_marts):
    from randlab.martingale import ville_monte_carlo

    estimate, bound = ville_monte_carlo(battery_marts["all_in_on_0"], 24, Fraction(8), 500, seed=11)
    assert bound == 0.125
    assert 0 <= estimate <= 1
    again, _ = ville_monte_carlo(battery_marts["all_in_on_0"], 24, Fraction(8), 500, seed=11)
    assert estimate == again
