import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import randlab
from randlab import bits
from randlab import (
    BoundedMLTest,
    ConstructionError,
    CylinderSet,
    IntegralStep,
    MLTest,
    ResourceLimitError,
    VitaliTest,
)
from randlab.randtests import check_coverage_transfer


def markov_fixture(fair):
    """Step function worth 4 on the cell 11, bounded by its own integrals."""
    bound = randlab.split_table({"": 1, "1": 1})  # mass 1 on [11], matching the integrals
    return IntegralStep(base=fair, depth=2, values={"11": Fraction(4)}, bound=bound)


def test_cylinder_set_prefix_free():
    with pytest.raises(ConstructionError):
        CylinderSet(generators=("0", "01"), depth=4)
    with pytest.raises(ConstructionError, match="'0' < '0'"):  # a repeat would count its mass twice
        CylinderSet(generators=("0", "0"), depth=1)
    with pytest.raises(ConstructionError, match="generator longer than the truncation depth"):
        CylinderSet(generators=("010",), depth=2)
    cs = CylinderSet.from_strings(["10", "11", "01"])
    assert cs.generators == ("01", "1")  # siblings merged, sorted


def test_cylinder_mass_within(fair):
    cs = CylinderSet.from_strings(["01", "001"])
    assert cs.mass(fair) == Fraction(1, 4) + Fraction(1, 8)
    assert cs.mass_within(fair, "0") == Fraction(3, 8)
    assert cs.mass_within(fair, "01") == Fraction(1, 4)
    assert cs.mass_within(fair, "011") == Fraction(1, 8)  # inside a generator
    assert cs.mass_within(fair, "1") == 0


def test_cylinder_covers_prefix():
    cs = CylinderSet.from_strings(["00", "01"])
    assert bits.covers(cs.generators, "0")
    assert bits.covers(cs.generators, "001")
    assert not bits.covers(cs.generators, "")
    assert not bits.covers(cs.generators, "1")
    assert bits.covers(("00", "01"), "0")  # a union of descendants covers too


def _covers_by_halves(gens, p):
    """[p] is covered when a generator is a prefix of p, or when the
    generators below p cover both halves of [p]."""
    if any(p.startswith(g) for g in gens):
        return True
    deeper = [g for g in gens if g.startswith(p) and g != p]
    return bool(deeper) and _covers_by_halves(deeper, p + "0") and _covers_by_halves(deeper, p + "1")


@given(st.lists(st.text(alphabet="01", max_size=4), max_size=6), st.text(alphabet="01", max_size=4))
@settings(max_examples=300, deadline=None)
def test_covers_matches_its_recursive_definition(gens, p):
    # generator sets need not be prefix-free
    assert bits.covers(gens, p) == _covers_by_halves(gens, p)


def test_martingale_to_integral_worked_case(fair):
    mart = randlab.table_martingale(fair, {"": 2, "0": 4, "1": 0})
    sp = randlab.savings_transform(mart)
    step = randlab.martingale_to_integral(sp, 1)
    # totals 5/3 and 1/3 with floors 2/3 and 0 below the root
    assert step.values == {"0": Fraction(2, 3)}
    assert step.bound.mass("0") == Fraction(5, 6)
    integral = step.integrals(1)["0"]
    assert integral == Fraction(2, 3) * fair.mass("0")  # 1/3
    assert integral <= step.bound.mass("0") <= integral + fair.mass("0")
    report = randlab.verify_test_bounds(step, 1)
    assert report.ok, report.violations


def test_martingale_to_integral_identity(fair, battery_marts):
    sp = randlab.savings_transform(battery_marts["identity"])
    step = randlab.martingale_to_integral(sp, 4)
    assert step.values == {}
    assert randlab.measures_agree(step.bound, fair, 6)


CAPITALS = st.sampled_from([Fraction(v) for v in (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 3)])
SAVINGS_BASES = {
    "fair": randlab.fair_coin(),
    "bernoulli(1/3)": randlab.bernoulli(Fraction(1, 3)),
    "null 11": randlab.split_table({"": Fraction(1, 3), "1": 0}),
}


@given(
    st.sampled_from(sorted(SAVINGS_BASES)),
    st.dictionaries(st.text(alphabet="01", max_size=4), CAPITALS, max_size=8),
)
@example("fair", {"0": -1, "00": 3})
@example("null 11", {"": 3, "1": -1, "10": -2})
@settings(max_examples=150, deadline=None)
def test_savings_of_any_capital_table_starts_at_one_and_walks_the_chain(base, table):
    # a source capital of -1 below the root makes its node inactive (N = F),
    # so the savings recursion never divides by the shifted parent capital 0
    mart = randlab.table_martingale(SAVINGS_BASES[base], table)
    try:
        sp = randlab.savings_transform(mart)
    except randlab.PreconditionError:
        assert mart.capital("") in (-1, None)
        return
    assert (sp.capital(""), sp.savings("")) == (1, 0)
    randlab.check_fairness(sp, 6)
    randlab.verify_test_bounds(randlab.martingale_to_integral(sp, 5), 5)


def test_integral_sandwich_battery(battery_marts):
    for name, m in battery_marts.items():
        sp = randlab.savings_transform(m)
        step = randlab.martingale_to_integral(sp, 6)
        integrals = step.integrals(6)
        for n in range(7):
            for bits in itertools.product("01", repeat=n):
                sigma = "".join(bits)
                lower = integrals.get(sigma, 0)
                upper = lower + step.base.mass(sigma)
                assert lower <= step.bound.mass(sigma) <= upper, (name, sigma)


def test_integral_to_bounded_ml_markov(fair):
    step = markov_fixture(fair)
    test = randlab.integral_to_bounded_ml(step, n_levels=3)
    assert test.level(1).generators == ("11",)
    assert test.level(1).mass_within(fair, "1") == Fraction(1, 4)
    assert test.bound.mass("1") == 1
    # closed threshold: the value-4 cell sits exactly on level 2
    assert test.level(2).generators == ("11",)
    assert not test.level(3).generators
    report = randlab.verify_test_bounds(test, 2)
    assert report.ok, report.violations


def test_integral_to_bounded_ml_zero(fair):
    step = IntegralStep(base=fair, depth=2, values={}, bound=randlab.fair_coin())
    test = randlab.integral_to_bounded_ml(step)
    assert all(not level.generators for level in test.levels)


def _levels_by_comparison(step, n_levels):
    """The level extraction that compares every value with 2**n, level by level."""
    return [
        CylinderSet.from_strings([cell for cell, v in step.values.items() if v >= 2**n], depth=step.depth)
        for n in range(1, n_levels + 1)
    ]


_STEP_VALUES = st.one_of(
    st.fractions(min_value=-8, max_value=8),
    st.integers(-(2**70), 2**70).map(Fraction),
    st.integers(0, 70).map(lambda k: Fraction(2**k)),
    st.tuples(st.integers(0, 70), st.sampled_from([-1, 1]), st.integers(1, 5)).map(lambda t: 2 ** t[0] + Fraction(t[1], t[2])),
)


@given(
    st.integers(0, 3).flatmap(lambda d: st.tuples(st.just(d), st.dictionaries(st.sampled_from(list(bits.all_strings(d))), _STEP_VALUES))),
    st.one_of(st.none(), st.integers(1, 72)),
)
@settings(max_examples=200, deadline=None)
def test_levels_from_each_cells_top_level_match_the_comparisons(case, n_levels):
    # fractional, zero, negative and 2**n values: a cell is in U_n exactly when its value is >= 2**n
    depth, values = case
    step = IntegralStep(base=randlab.fair_coin(), depth=depth, values=values, bound=randlab.fair_coin())
    want = max(1, int(step.max_value()).bit_length() - 1) if n_levels is None else n_levels
    assert randlab.integral_to_bounded_ml(step, n_levels).levels == _levels_by_comparison(step, want)


def test_bounded_ml_to_vitali(fair):
    test = randlab.integral_to_bounded_ml(markov_fixture(fair), n_levels=2)
    vit = randlab.bounded_ml_to_vitali(test)
    assert vit.pieces == test.levels
    assert randlab.verify_test_bounds(vit, 2).ok
    empty = randlab.integral_to_bounded_ml(
        IntegralStep(base=fair, depth=1, values={}, bound=randlab.fair_coin())
    )
    assert all(not p.generators for p in randlab.bounded_ml_to_vitali(empty).pieces)


def test_vitali_to_integral_counts(fair):
    bound = randlab.fair_coin().scaled(2)
    vit = randlab.VitaliTest(
        base=fair,
        pieces=[CylinderSet.from_strings(["0"]), CylinderSet.from_strings(["0"])],
        bound=bound,
    )
    step = randlab.vitali_to_integral(vit, 1)
    assert step.values == {"0": Fraction(2)}
    assert step.integrals(1) == {"": 1, "0": 1}


def test_vitali_to_integral_disjoint(fair):
    vit = randlab.VitaliTest(
        base=fair,
        pieces=[CylinderSet.from_strings(["00"]), CylinderSet.from_strings(["01"])],
        bound=randlab.fair_coin(),
    )
    step = randlab.vitali_to_integral(vit, 2)
    assert step.values == {"00": Fraction(1), "01": Fraction(1)}
    assert step.integrals(0) == {"": Fraction(1, 2)}


def test_vitali_roundtrip_keeps_bounds(battery_marts):
    for name, m in battery_marts.items():
        sp = randlab.savings_transform(m)
        step = randlab.martingale_to_integral(sp, 8)
        test = randlab.integral_to_bounded_ml(step)
        back = randlab.vitali_to_integral(randlab.bounded_ml_to_vitali(test), 8)
        report = randlab.verify_test_bounds(back, 8)
        assert report.ok, (name, report.violations[:3])


def test_integral_to_martingale_markov(fair):
    step = markov_fixture(fair)
    mart = randlab.integral_to_martingale(step)
    assert mart.capital("11") == 4
    # capital dominates the cell average of the step function
    for bits in itertools.product("01", repeat=2):
        cell = "".join(bits)
        assert mart.capital(cell) >= step.value(cell)


def test_integral_to_martingale_identity(fair):
    step = IntegralStep(base=fair, depth=3, values={}, bound=randlab.fair_coin())
    mart = randlab.integral_to_martingale(step)
    for sigma in ("", "0", "101"):
        assert mart.capital(sigma) == 1


def test_verify_detects_level_mass_violation(fair):
    bad = MLTest(base=fair, levels=[CylinderSet.from_strings(["0", "10"])])
    report = randlab.verify_test_bounds(bad, 2)
    assert not report.ok  # 3/4 > 1/2
    boundary = MLTest(base=fair, levels=[CylinderSet.from_strings(["0"])])
    assert randlab.verify_test_bounds(boundary, 2).ok  # equality passes


def test_verify_integral_reports_each_negative_step_value(fair):
    # a value of 0 is not negative; the integral bound holds on every cylinder
    step = IntegralStep(base=fair, depth=1, values={"0": Fraction(-1), "1": Fraction(0)}, bound=fair)
    report = randlab.verify_test_bounds(step, 1)
    assert report.violations == ["negative step value -1"]
    assert report.checked == 3


def test_verify_empty_test(fair):
    empty = MLTest(base=fair, levels=[CylinderSet.from_strings([])])
    report = randlab.verify_test_bounds(empty, 4)
    assert report.ok


def test_coverage_transfer_battery(battery_marts):
    for name, m in battery_marts.items():
        sp = randlab.savings_transform(m)
        test = randlab.integral_to_bounded_ml(randlab.martingale_to_integral(sp, 8))
        report = check_coverage_transfer(sp, test, 8)
        assert report.ok, (name, report.violations[:3])


def test_coverage_transfer_counts_a_floor_of_exactly_2_to_the_n():
    # over bernoulli(4/5), capital 5 at "0" shifts to a total of 3 and a
    # floor of exactly 2 = 2^1 at "0", "00" and "01"; "1" keeps floor 0
    base = randlab.bernoulli(Fraction(4, 5))
    sp = randlab.savings_transform(randlab.table_martingale(base, {"0": 5, "1": 0}))
    assert [sp.savings(s) for s in ("", "0", "1", "00", "01")] == [0, 2, 0, 2, 2]
    test = randlab.integral_to_bounded_ml(randlab.martingale_to_integral(sp, 2))
    report = check_coverage_transfer(sp, test, 2)
    assert report.ok and report.checked == 3
    # a level 1 that misses them lets each of the three escape
    empty = BoundedMLTest(base=base, levels=[CylinderSet.from_strings([], depth=2)], bound=test.bound)
    assert check_coverage_transfer(sp, empty, 2).violations == [
        f"prefix {p!r} with floor 2 escapes level 1" for p in ("0", "00", "01")
    ]


def test_a_bounded_test_needs_its_bound():
    # without one, verifying or serializing the test died with a raw error
    with pytest.raises(TypeError, match="bound"):
        BoundedMLTest(randlab.fair_coin(), [CylinderSet.from_strings(["00"])])


def test_chain_soundness_small(battery_marts):
    # capital of the cycled martingale dominates the cell averages of the
    # level-count step function it came from
    m = battery_marts["all_in_on_0"]
    sp = randlab.savings_transform(m)
    step = randlab.martingale_to_integral(sp, 6)
    test = randlab.integral_to_bounded_ml(step)
    back = randlab.vitali_to_integral(randlab.bounded_ml_to_vitali(test), 6)
    final = randlab.integral_to_martingale(back)
    assert randlab.check_fairness(final, 6).ok
    for bits in itertools.product("01", repeat=6):
        cell = "".join(bits)
        cap = final.capital(cell)
        if cap is not None and final.base.mass(cell) > 0:
            assert cap >= back.value(cell)


def pinned_fixtures():
    """One failing test of each verified kind over a non-uniform base; the
    generators sit at depth 3, the verify depths are 2 and 4."""
    base = randlab.bernoulli(Fraction(1, 3))
    bound = randlab.split_table({"": Fraction(1, 4), "1": Fraction(2, 3), "01": 1}, total=Fraction(3, 2))
    values = {"110": Fraction(9), "111": Fraction(2), "011": Fraction(5, 2), "000": Fraction(1, 2)}
    step = IntegralStep(base=base, depth=3, values=values, bound=bound, unit_witness=True)
    levels = [
        CylinderSet.from_strings(["1", "001"], depth=3),
        CylinderSet.from_strings(["11"], depth=3),
        CylinderSet.from_strings(["011"], depth=3),
    ]
    return {
        "integral": step,
        "bounded_ml": BoundedMLTest(base=base, levels=levels, bound=bound, witness=step),
        "vitali": VitaliTest(base=base, pieces=levels + [CylinderSet.from_strings(["0"], depth=3)], bound=bound),
    }


# (checked, violations one per line), in the order the verifier reports them
PINNED_REPORTS = {
    ("integral", 2): (
        14,
        """
integral bound fails at '1': 20/27 > 3/8
integral bound fails at '11': 20/27 > 1/4
domination witness fails at '0': 9/8 > 1
domination witness fails at '01': 9/16 > 11/27
""",
    ),
    ("integral", 4): (
        30,
        """
integral bound fails at '1': 20/27 > 3/8
integral bound fails at '11': 20/27 > 1/4
integral bound fails at '110': 2/3 > 1/8
domination witness fails at '0': 9/8 > 1
domination witness fails at '01': 9/16 > 11/27
domination witness fails at '001': 9/32 > 4/27
domination witness fails at '011': 9/16 > 7/27
domination witness fails at '111': 1/8 > 1/9
""",
    ),
    ("bounded_ml", 2): (
        31,
        """
bounded inequality fails at level 1, sigma '1': 1/3 > 2^-1 * 3/8
bounded inequality fails at level 2, sigma '1': 1/9 > 2^-2 * 3/8
bounded inequality fails at level 3, sigma '01': 2/27 > 2^-3 * 9/16
bounded inequality fails at level 1, sigma '10': 2/9 > 2^-1 * 1/8
bounded inequality fails at level 2, sigma '11': 1/9 > 2^-2 * 1/4
domination witness fails at '0': 9/8 > 1
domination witness fails at '01': 9/16 > 11/27
""",
    ),
    ("bounded_ml", 4): (
        111,
        """
bounded inequality fails at level 1, sigma '1': 1/3 > 2^-1 * 3/8
bounded inequality fails at level 2, sigma '1': 1/9 > 2^-2 * 3/8
bounded inequality fails at level 3, sigma '01': 2/27 > 2^-3 * 9/16
bounded inequality fails at level 1, sigma '10': 2/9 > 2^-1 * 1/8
bounded inequality fails at level 2, sigma '11': 1/9 > 2^-2 * 1/4
bounded inequality fails at level 1, sigma '001': 4/27 > 2^-1 * 9/32
bounded inequality fails at level 3, sigma '011': 2/27 > 2^-3 * 9/16
bounded inequality fails at level 1, sigma '100': 4/27 > 2^-1 * 1/16
bounded inequality fails at level 1, sigma '101': 2/27 > 2^-1 * 1/16
bounded inequality fails at level 1, sigma '110': 2/27 > 2^-1 * 1/8
bounded inequality fails at level 2, sigma '110': 2/27 > 2^-2 * 1/8
bounded inequality fails at level 2, sigma '111': 1/27 > 2^-2 * 1/8
bounded inequality fails at level 1, sigma '0010': 8/81 > 2^-1 * 9/64
bounded inequality fails at level 3, sigma '0110': 4/81 > 2^-3 * 9/32
bounded inequality fails at level 1, sigma '1000': 8/81 > 2^-1 * 1/32
bounded inequality fails at level 1, sigma '1001': 4/81 > 2^-1 * 1/32
bounded inequality fails at level 1, sigma '1010': 4/81 > 2^-1 * 1/32
bounded inequality fails at level 1, sigma '1011': 2/81 > 2^-1 * 1/32
bounded inequality fails at level 1, sigma '1100': 4/81 > 2^-1 * 1/16
bounded inequality fails at level 2, sigma '1100': 4/81 > 2^-2 * 1/16
bounded inequality fails at level 2, sigma '1101': 2/81 > 2^-2 * 1/16
bounded inequality fails at level 2, sigma '1110': 2/81 > 2^-2 * 1/16
domination witness fails at '0': 9/8 > 1
domination witness fails at '01': 9/16 > 11/27
domination witness fails at '001': 9/32 > 4/27
domination witness fails at '011': 9/16 > 7/27
domination witness fails at '111': 1/8 > 1/9
""",
    ),
    ("vitali", 2): (
        7,
        """
summable bound fails at '1': 4/9 > 3/8
summable bound fails at '00': 16/27 > 9/16
summable bound fails at '10': 2/9 > 1/8
""",
    ),
    ("vitali", 4): (
        31,
        """
summable bound fails at '1': 4/9 > 3/8
summable bound fails at '00': 16/27 > 9/16
summable bound fails at '10': 2/9 > 1/8
summable bound fails at '000': 8/27 > 9/32
summable bound fails at '001': 8/27 > 9/32
summable bound fails at '010': 4/27 > 0
summable bound fails at '100': 4/27 > 1/16
summable bound fails at '101': 2/27 > 1/16
summable bound fails at '110': 4/27 > 1/8
summable bound fails at '0000': 16/81 > 9/64
summable bound fails at '0010': 16/81 > 9/64
summable bound fails at '0100': 8/81 > 0
summable bound fails at '0101': 4/81 > 0
summable bound fails at '1000': 8/81 > 1/32
summable bound fails at '1001': 4/81 > 1/32
summable bound fails at '1010': 4/81 > 1/32
summable bound fails at '1100': 8/81 > 1/16
""",
    ),
}


@pytest.mark.parametrize(("kind", "depth"), sorted(PINNED_REPORTS))
def test_verifier_reports_are_pinned(kind, depth):
    checked, text = PINNED_REPORTS[(kind, depth)]
    report = randlab.verify_test_bounds(pinned_fixtures()[kind], depth)
    assert report.violations == text.strip().splitlines()
    assert report.checked == checked


def test_integral_step_cells_must_have_the_step_depth(fair):
    with pytest.raises(ConstructionError):
        IntegralStep(base=fair, depth=3, values={"01": Fraction(1)}, bound=fair)


def test_vitali_to_integral_refuses_pieces_deeper_than_the_step(fair):
    test = VitaliTest(base=fair, pieces=[CylinderSet.from_strings(["010"])], bound=fair)
    with pytest.raises(randlab.PreconditionError, match="piece generators deeper than the requested depth"):
        randlab.vitali_to_integral(test, 2)


def test_integral_to_martingale_refuses_a_step_without_a_bound(fair):
    # without the refusal the quotient kernel dies reading the bound's root mass
    with pytest.raises(randlab.PreconditionError, match="integral step carries no bound measure"):
        randlab.integral_to_martingale(IntegralStep(base=fair, depth=1, values={}, bound=None))


def test_only_tests_and_steps_are_verified():
    with pytest.raises(ConstructionError, match="cannot verify object of type object"):
        randlab.verify_test_bounds(object(), 2)


def test_verifying_generators_deeper_than_the_cap_hits_the_cap(fair, monkeypatch):
    # the one-pass verifier expands generators to cells, so their depth is an
    # enumeration depth like any other
    monkeypatch.setenv("RANDLAB_DEPTH_LIMIT", "6")
    deep = CylinderSet.from_strings(["0" * 7])
    with pytest.raises(ResourceLimitError):
        randlab.verify_test_bounds(VitaliTest(base=fair, pieces=[deep], bound=fair), 2)
    with pytest.raises(ResourceLimitError):
        randlab.verify_test_bounds(BoundedMLTest(base=fair, levels=[deep], bound=fair), 2)
    shallow = CylinderSet.from_strings(["0" * 6])
    assert randlab.verify_test_bounds(VitaliTest(base=fair, pieces=[shallow], bound=fair), 2).ok


def test_conversions_and_verification_respect_the_depth_cap(fair, battery_marts, monkeypatch):
    monkeypatch.setenv("RANDLAB_DEPTH_LIMIT", "6")
    sp = randlab.savings_transform(battery_marts["all_in_on_0"])
    with pytest.raises(ResourceLimitError):
        randlab.martingale_to_integral(sp, 7)
    step = randlab.martingale_to_integral(sp, 6)
    vitali = randlab.bounded_ml_to_vitali(randlab.integral_to_bounded_ml(step))
    with pytest.raises(ResourceLimitError):
        randlab.verify_test_bounds(vitali, 7)
    with pytest.raises(ResourceLimitError):
        randlab.vitali_to_integral(vitali, 7)
    # an integral step is walked to its own depth at most
    assert randlab.verify_test_bounds(step, 7).checked == randlab.verify_test_bounds(step, 6).checked
    # a plain level test is verified from its level masses alone
    assert randlab.verify_test_bounds(MLTest(base=fair, levels=[CylinderSet.from_strings(["0"])]), 30).ok


@st.composite
def bases_steps_and_sets(draw):
    """A split_table base, a step function on its depth-d cells (d <= 3) and
    up to three cylinder sets with generators of length <= 3."""
    splits = st.fractions(min_value=0, max_value=1, max_denominator=6)
    keys = draw(st.lists(st.text(alphabet="01", max_size=3), unique=True, max_size=5))
    base = randlab.split_table({sigma: draw(splits) for sigma in keys}, default=draw(splits))
    depth = draw(st.integers(0, 3))
    cells = ["".join(bits) for bits in itertools.product("01", repeat=depth)]
    values = {
        cell: draw(st.fractions(min_value=0, max_value=5, max_denominator=4))
        for cell in draw(st.lists(st.sampled_from(cells), unique=True))
    }
    generators = st.lists(st.text(alphabet="01", max_size=3), max_size=4)
    sets = [CylinderSet.from_strings(draw(generators), depth=3) for _ in range(draw(st.integers(1, 3)))]
    return base, values, depth, sets


@given(bases_steps_and_sets())
@settings(max_examples=60, deadline=None)
def test_one_pass_integrals_match_the_definitions(case):
    base, values, step_depth, sets = case
    # a zero bound makes every verifier report each positive left-hand side
    zero = randlab.split_table({}, total=0)
    step = IntegralStep(base=base, depth=step_depth, values=values, bound=zero)
    prefixes = ["".join(bits) for n in range(5) for bits in itertools.product("01", repeat=n)]

    def brute(sigma):
        return sum((v * base.mass(cell) for cell, v in values.items() if cell.startswith(sigma)), Fraction(0))

    integrals = step.integrals(4)
    assert set(integrals) <= {sigma for sigma in prefixes if len(sigma) <= step_depth}
    for sigma in prefixes:
        if len(sigma) <= step_depth:
            assert integrals.get(sigma, 0) == brute(sigma), sigma
    for depth in (1, 4):
        shown = [sigma for sigma in prefixes if len(sigma) <= min(depth, step_depth) and brute(sigma) > 0]
        report = randlab.verify_test_bounds(step, depth)
        assert report.violations == [f"integral bound fails at {sigma!r}: {brute(sigma)} > 0" for sigma in shown]

        in_depth = [sigma for sigma in prefixes if len(sigma) <= depth]
        bounded = BoundedMLTest(base=base, levels=sets, bound=zero)
        expected = [
            f"level {n} mass {level.mass(base)} exceeds 2^-{n}"
            for n, level in enumerate(sets, 1)
            if level.mass(base) > Fraction(1, 2**n)
        ]
        for sigma in in_depth:
            for n, level in enumerate(sets, 1):
                lhs = level.mass_within(base, sigma)
                if lhs > 0:
                    expected.append(f"bounded inequality fails at level {n}, sigma {sigma!r}: {lhs} > 2^-{n} * 0")
        assert randlab.verify_test_bounds(bounded, depth).violations == expected

        expected = []
        for sigma in in_depth:
            total = sum((piece.mass_within(base, sigma) for piece in sets), Fraction(0))
            if total > 0:
                expected.append(f"summable bound fails at {sigma!r}: {total} > 0")
        vitali = VitaliTest(base=base, pieces=sets, bound=zero)
        assert randlab.verify_test_bounds(vitali, depth).violations == expected
