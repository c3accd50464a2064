import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import randlab
from randlab import PreconditionError, ResourceLimitError


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


def test_to_measure_of_unfair_martingale_reads_capital_times_mass(fair):
    # mass() is the documented capital*mass even where that is not additive;
    # the additivity audit is what reports the unfairness
    nu = randlab.to_measure(randlab.table_martingale(fair, {"0": Fraction(3, 2), "1": Fraction(3, 2)}))
    assert nu.mass("0") == Fraction(3, 4)
    assert nu.mass("1") == Fraction(3, 4)
    assert randlab.check_additivity(nu, 2).violations == ["additivity fails at '': 3/4+3/4 != 1"]


def test_to_measure_reads_a_null_child_off_its_sibling():
    # a null child's mass is its parent's minus its positive sibling's, as the
    # docstring says: an unfair table makes it -1, where capital * mass is 0
    for split, entries, null, sibling in ((1, {"1": 2}, "0", "1"), (0, {"0": 2}, "1", "0")):
        nu = randlab.to_measure(randlab.table_martingale(randlab.split_table({"": split}), entries))
        assert (nu.mass(""), nu.mass(null), nu.mass(sibling)) == (1, -1, 2), null


def test_unit_martingale_gives_base(bern13):
    one = randlab.table_martingale(bern13, {})
    assert randlab.measures_agree(randlab.to_measure(one), bern13, 8)


def test_savings_one_level_worked_case(fair):
    mart = randlab.table_martingale(fair, {"": 2, "0": 4, "1": 0})
    sp = randlab.savings_transform(mart)
    assert isinstance(sp, randlab.Martingale) and (sp.base, sp.label) == (fair, f"savings({mart.label})")
    # capital + 1 is 3, 5, 1, scaled by 1/3 to start at 1
    assert sp.capital("") == 1 and sp.savings("") == 0
    assert sp.capital("0") == Fraction(5, 3) and sp.savings("0") == Fraction(2, 3)
    assert sp.capital("1") == Fraction(1, 3) and sp.savings("1") == 0


def test_savings_constant_martingale(fair):
    for c in (Fraction(1, 2), Fraction(1), Fraction(3)):
        sp = randlab.savings_transform(randlab.table_martingale(fair, {}, start=c))
        for sigma in ("", "0", "1", "01", "110"):
            assert sp.capital(sigma) == 1
            assert sp.savings(sigma) == 0


def test_savings_floor_monotone_all_paths(battery_marts):
    sp = randlab.savings_transform(battery_marts["lr_bern23_vs_fair"])
    for path in itertools.product("01", repeat=8):
        prev = Fraction(0)
        for n in range(9):
            f = sp.savings("".join(path[:n]))
            assert prev <= f
            prev = f


def test_run_traces(fair, battery_marts):
    allin = battery_marts["all_in_on_0"]
    assert randlab.run(allin, "0000").values == [1, 2, 4, 8, 16]
    trace = randlab.run(allin, "0100")
    assert trace.values == [1, 2, 0, 0, 0]
    assert (trace.final, trace.max_attained) == (0, 2)
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


def test_a_martingale_needs_a_capital_function_or_a_kernel(fair):
    # without either, the first capital() read died with a raw TypeError
    with pytest.raises(PreconditionError, match="needs a capital function or a kernel"):
        randlab.Martingale(fair)


def test_fairness_reports_a_capital_undefined_on_a_positive_cylinder(fair):
    # only a hand-built capital function can return None where the base is positive
    holey = randlab.Martingale(fair, lambda sigma: None if sigma == "01" else Fraction(1))
    assert randlab.check_fairness(holey, 2).violations == [
        "capital undefined on positive cylinder '01'",
        "fairness fails at '0': 1/4 != 1/2",
    ]


def test_quotient_over_a_negative_mass_reads_a_positive_denominator(fair):
    # a from_masses base need not be a measure: here "1" and below carry
    # negative mass, and the quotient's capital pairs keep den > 0 there
    mu = randlab.from_masses(lambda h: Fraction(3 if h[:1] != "1" else -1, 2 ** len(h)) if h else Fraction(1))
    mart = randlab.from_measures(fair, mu)
    assert mart.kernel.read_pair(mart.payload("1")) == (-1, 2, -2, 2)
    assert mart.capital("1") == -1
    assert randlab.check_fairness(mart, 2).violations == [
        "negative capital at '1': -1",
        "negative capital at '10': -1",
        "negative capital at '11': -1",
    ]


def test_ville_all_in_equality(battery_marts):
    (res,) = randlab.ville_audit(battery_marts["all_in_on_0"], 10, [Fraction(8)])
    assert res.fraction == Fraction(1, 8) == res.bound
    assert res.passed


def test_ville_identity(battery_marts):
    (res,) = randlab.ville_audit(battery_marts["identity"], 8, [Fraction(2)])
    assert res.fraction == 0
    assert res.bound == Fraction(1, 2)
    assert res.passed


def test_ville_likelihood_ratio(battery_marts):
    (res,) = randlab.ville_audit(battery_marts["lr_bern23_vs_fair"], 12, [Fraction(4)])
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
    (res,) = randlab.ville_audit(m, n, [c])
    assert res.fraction == expected


def test_ville_audit_fails_where_every_path_hits(fair):
    # capital 4 after either first bit: every path of length 4 reaches 2
    (res,) = randlab.ville_audit(randlab.table_martingale(fair, {"0": 4, "1": 4}), 4, [Fraction(2)])
    assert (res.fraction, res.bound, res.passed) == (1, Fraction(1, 2), False)


def test_ville_audit_skips_null_subtrees(null_at_one):
    # the base gives "1" mass 0, so the quotient is undefined there and below
    nu = randlab.split_table({"": 0, "0": Fraction(3, 4)})
    (res,) = randlab.ville_audit(randlab.from_measures(nu, null_at_one), 2, [Fraction(3, 2)])
    assert (res.fraction, res.bound, res.passed) == (Fraction(1, 2), Fraction(2, 3), True)


def test_ville_repeated_threshold_counted_once(battery_marts):
    # two equal thresholds give two equal reports, each the report of one
    m = battery_marts["lr_bern23_vs_fair"]
    (single,) = randlab.ville_audit(m, 8, [Fraction(2)])
    assert randlab.ville_audit(m, 8, [2, 2]) == [single, single]


def test_zero_mass_base_is_refused():
    from randlab.martingale import ville_monte_carlo

    zero = randlab.split_table({}, total=0)
    mart = randlab.from_measures(zero, zero)
    for call in (
        lambda: randlab.savings_transform(mart),
        lambda: randlab.ville_audit(mart, 4, [Fraction(2)]),
        lambda: ville_monte_carlo(mart, 4, [Fraction(2)], 5, 0),
    ):
        with pytest.raises(PreconditionError, match="total mass 0"):
            call()


def test_ville_resource_cap(battery_marts, monkeypatch):
    with pytest.raises(ResourceLimitError):
        randlab.ville_audit(battery_marts["identity"], 25, [Fraction(2)])
    monkeypatch.setenv("RANDLAB_DEPTH_LIMIT", "4")
    with pytest.raises(ResourceLimitError):
        randlab.ville_audit(battery_marts["identity"], 5, [Fraction(2)])


def test_table_martingale_constant_continuation(fair):
    m = randlab.table_martingale(fair, {"0": Fraction(3, 2), "1": Fraction(1, 2)})
    assert m.capital("010101") == Fraction(3, 2)
    assert randlab.check_fairness(m, 8).ok


def _quotient_reference(nu, mu, sigma):
    m = mu.mass(sigma)
    return None if m == 0 else nu.mass(sigma) / m


def _savings_reference(source, sigma):
    """(total, floor) at sigma by the worked recursion over the +1-shifted,
    normalized source capital: N = f + (c(s)/c(parent))*(N - f), then
    f = max(f, N - 1); recomputed from the root, nothing cached."""
    def c(s):
        return source(s) + 1

    if source(sigma) is None:
        return None, None
    n, f = Fraction(1), Fraction(0)
    for j in range(1, len(sigma) + 1):
        if n != f:
            n = f + (c(sigma[:j]) / c(sigma[: j - 1])) * (n - f)
        f = max(f, n - 1)
    return n, f


def _walk_kernel(mart, depth):
    kernel = mart.kernel
    stack = [("", kernel.root())]
    while stack:
        sigma, payload = stack.pop()
        mn, md, cn, cd = kernel.read_pair(payload)
        yield sigma, (Fraction(mn, md), None if cn is None else Fraction(cn, cd))
        if len(sigma) < depth:
            p0, p1 = kernel.children(sigma, payload)
            stack.append((sigma + "0", p0))
            stack.append((sigma + "1", p1))


def _assert_kernel_matches_public_values(mart, nu, mu, depth):
    # kernel.read_pair(), capital() and savings() against plain recomputation
    # from the measures; the walk order (1-branch first) also moves the
    # public path cache back and forth
    for sigma, (mass, cap) in _walk_kernel(mart, depth):
        assert mass == mu.mass(sigma), (mart.label, sigma)
        assert cap == mart.capital(sigma) == _quotient_reference(nu, mu, sigma), (mart.label, sigma)
    sp = randlab.savings_transform(mart)
    for sigma, (mass, cap) in _walk_kernel(sp, depth):
        total, floor = _savings_reference(lambda s: _quotient_reference(nu, mu, s), sigma)
        assert mass == mu.mass(sigma), (mart.label, sigma)
        assert cap == sp.capital(sigma) == total, (mart.label, sigma)
        assert sp.savings(sigma) == floor, (mart.label, sigma)


def test_kernels_agree_with_public_values(battery_marts):
    # the fused walkers must reproduce mass, capital and savings node for node
    for m in battery_marts.values():
        _assert_kernel_matches_public_values(m, m.kernel.nu, m.kernel.mu, 6)


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
    _assert_kernel_matches_public_values(mart, nu, mu, 6)
    for m in (mart, randlab.savings_transform(mart)):
        assert randlab.check_fairness(m, 6).ok, m.label


def test_ville_partition_independent(battery_marts):
    # exhaustive sweep equals the exact combination of disjoint prefix ranges
    m = battery_marts["lr_bern23_vs_fair"]
    n, c = 8, Fraction(2)
    whole = randlab.ville_audit(m, n, [c])[0].fraction
    by_parts = Fraction(0)
    for first in "01":
        for bits in itertools.product("01", repeat=n - 1):
            x = first + "".join(bits)
            best = max(m.capital(x[:k]) for k in range(n + 1))
            if best >= c:
                by_parts += m.base.mass(x)
    assert whole == by_parts


_SPLITS = st.fractions(min_value=0, max_value=1, max_denominator=6)
_SPLIT_TABLES = st.builds(
    lambda entries, default: randlab.split_table(entries, default=default),
    st.dictionaries(st.text(alphabet="01", max_size=4), _SPLITS, max_size=6),
    _SPLITS,
)


def _by_parts(check, depth):
    """A per-prefix check run separately over the root, the strings under '0'
    and the strings under '1' (each to length depth), then merged: the total
    checked count and the set of violations."""
    parts = [[""]] + [
        [first + "".join(t) for n in range(depth) for t in itertools.product("01", repeat=n)] for first in "01"
    ]
    checked, found = 0, set()
    for part in parts:
        for sigma in part:
            checked += check(sigma, found)
    return checked, found


def _additivity_at(mu, depth):
    def check(sigma, found):
        if len(sigma) >= depth:
            return 0
        m, m0, m1 = mu.mass(sigma), mu.mass(sigma + "0"), mu.mass(sigma + "1")
        if m0 + m1 != m:
            found.add(f"additivity fails at {sigma!r}: {m0}+{m1} != {m}")
        if m == 0 and (m0 != 0 or m1 != 0):
            found.add(f"null cylinder {sigma!r} has massive child")
        return 1

    return check


def _fairness_at(mart, depth):
    def weighted(sigma):  # capital * mass, 0 where undefined or null
        m, c = mart.base.mass(sigma), mart.capital(sigma)
        return 0 if c is None or m == 0 else c * m

    def check(sigma, found):
        m, c = mart.base.mass(sigma), mart.capital(sigma)
        if c is None:
            if m != 0:
                found.add(f"capital undefined on positive cylinder {sigma!r}")
        elif m == 0:
            found.add(f"capital defined on null cylinder {sigma!r}: {c}")
        elif c < 0:
            found.add(f"negative capital at {sigma!r}: {c}")
        if len(sigma) >= depth:
            return 0
        total = weighted(sigma + "0") + weighted(sigma + "1")
        if m > 0 and total != weighted(sigma):
            found.add(f"fairness fails at {sigma!r}: {total} != {weighted(sigma)}")
        return 1

    return check


@given(
    _SPLIT_TABLES,
    _SPLIT_TABLES,
    st.dictionaries(st.text(alphabet="01", max_size=5), _SPLITS, max_size=4),
    st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
@example(randlab.fair_coin(), randlab.fair_coin(), {"": Fraction(0)}, 1)  # a null root with massive children
def test_audits_partition_independent(nu, mu, overrides, depth):
    # an audit's checked count and violations are the merge of the same
    # per-prefix checks over disjoint parts of the string space; the
    # overridden mass function is not additive, and nu need not be dominated
    # by mu, so both audits see violations
    bent = randlab.from_masses(lambda sigma: overrides.get(sigma, mu.mass(sigma)))
    for m in (mu, bent):
        report = randlab.check_additivity(m, depth)
        assert (report.checked, set(report.violations)) == _by_parts(_additivity_at(m, depth), depth)
    mart = randlab.from_measures(nu, mu)
    report = randlab.check_fairness(mart, depth)
    assert (report.checked, set(report.violations)) == _by_parts(_fairness_at(mart, depth), depth)


@st.composite
def _capital_tables(draw):
    """A table martingale, or a hand-built capital function that is None on
    some strings, null or positive, and defined on the rest, over a split
    table with null cylinders; values may be negative."""
    base = draw(_SPLIT_TABLES)
    values = st.fractions(min_value=-1, max_value=6, max_denominator=4)
    entries = draw(st.dictionaries(st.text(alphabet="01", max_size=4), values, max_size=6))
    start = draw(values)
    if draw(st.booleans()):
        return randlab.table_martingale(base, entries, start=start)
    holes = draw(st.sets(st.text(alphabet="01", max_size=4), max_size=4))

    def capital(sigma):
        if sigma in holes:
            return None
        return next((entries[sigma[:i]] for i in range(len(sigma), -1, -1) if sigma[:i] in entries), start)

    return randlab.Martingale(base, capital, "hand-built")


@given(_capital_tables(), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
@example(randlab.Martingale(randlab.fair_coin(), lambda sigma: None if sigma == "0" else Fraction(1)), 2)  # None on a positive cylinder
def test_fairness_audit_partition_independent_on_capital_tables(mart, depth):
    # as above, for capitals no quotient yields: undefined on a positive
    # cylinder, defined on a null one, or negative
    report = randlab.check_fairness(mart, depth)
    assert (report.checked, set(report.violations)) == _by_parts(_fairness_at(mart, depth), depth)


@st.composite
def _savings_sources(draw):
    """A capital table (unfair in general) or a quotient of two split tables,
    over a split_table base with null cylinders, and a depth."""
    base = draw(_SPLIT_TABLES)
    if draw(st.booleans()):
        mart = randlab.from_measures(draw(_SPLIT_TABLES), base)
    else:
        values = st.fractions(min_value=0, max_value=6, max_denominator=4)
        entries = draw(st.dictionaries(st.text(alphabet="01", max_size=4), values, max_size=6))
        mart = randlab.table_martingale(base, entries, start=draw(values))
    return mart, draw(st.integers(0, 6))


@given(_savings_sources())
@settings(max_examples=60, deadline=None)
def test_savings_sandwich_on_generated_martingales(case):
    # f <= N <= f + 1 on every positive cylinder, with the floor nondecreasing
    # from each cylinder to its children; a null cylinder has neither
    mart, depth = case
    sp = randlab.savings_transform(mart)
    for n in range(depth + 1):
        for sigma in randlab.bits.all_strings(n):
            f, total = sp.savings(sigma), sp.capital(sigma)
            if mart.base.is_null(sigma):
                assert f is None and total is None, sigma
                continue
            assert f <= total <= f + 1, sigma
            if sigma:
                assert sp.savings(sigma[:-1]) <= f, sigma


def test_ville_monte_carlo_labelled_estimate(battery_marts):
    from randlab.martingale import ville_monte_carlo

    [(estimate, bound)] = ville_monte_carlo(battery_marts["all_in_on_0"], 24, [Fraction(8)], 500, seed=11)
    assert bound == 0.125
    assert 0 <= estimate <= 1
    [(again, _)] = ville_monte_carlo(battery_marts["all_in_on_0"], 24, [Fraction(8)], 500, seed=11)
    assert estimate == again


def _reference_monte_carlo(mart, n, thresholds, samples, seed):
    """ville_monte_carlo by its definition: each sample draws bit after bit
    with random.Random(seed).random() < float(split), stops at a null child
    and hits a threshold where its largest prefix capital reaches it."""
    rng, start = random.Random(seed), mart.capital("")
    hits = [0] * len(thresholds)
    for _ in range(samples):
        prefix, best = "", start
        for _ in range(n):
            prefix += "1" if rng.random() < float(mart.base.split(prefix)) else "0"
            value = mart.capital(prefix)
            if value is None:
                break
            best = max(best, value)
        hits = [h + (best >= c) for h, c in zip(hits, thresholds)]
    return [(h / samples, float(start / c)) for h, c in zip(hits, thresholds)]


@pytest.mark.parametrize("seed", [0, 5, 23])
def test_ville_monte_carlo_matches_a_reference_loop(seed):
    from randlab.martingale import ville_monte_carlo

    thresholds = [Fraction(3, 2), Fraction(2), Fraction(8)]
    mart = randlab.from_measures(randlab.bernoulli(Fraction(2, 3)), randlab.fair_coin())
    assert ville_monte_carlo(mart, 40, thresholds, 60, seed) == _reference_monte_carlo(mart, 40, thresholds, 60, seed)


def test_ville_monte_carlo_matches_a_reference_loop_over_null_splits():
    from randlab.martingale import ville_monte_carlo

    # splits of 1, 0 and 1 at "0", "01" and "011" each make a null child,
    # and 1/7 is no float; the hand-built capital is undefined from "010"
    # on, so a sample stops there although the base gives it mass
    base = randlab.split_table({"": Fraction(1, 7), "0": 1, "01": 0, "011": 1, "1": Fraction(5, 6)})
    model = randlab.from_measures(randlab.bernoulli(Fraction(1, 3)), base)
    mart = randlab.Martingale(base, lambda sigma: None if sigma.startswith("010") else model.capital(sigma))
    thresholds = [Fraction(1), Fraction(5, 4), Fraction(3)]
    for seed in (1, 2, 3):
        assert ville_monte_carlo(mart, 12, thresholds, 80, seed) == _reference_monte_carlo(mart, 12, thresholds, 80, seed)
        assert ville_monte_carlo(model, 12, thresholds, 80, seed) == _reference_monte_carlo(model, 12, thresholds, 80, seed)


def test_long_path_values_match_iterative_reference():
    # a 1500-bit query is deeper than the recursion limit: every value must
    # come from an iterative descent and equal a step-by-step recomputation
    rng = random.Random(3)
    x = "".join(rng.choice("01") for _ in range(1500))
    fair = randlab.fair_coin()
    sp = randlab.savings_transform(randlab.from_measures(randlab.bernoulli(Fraction(2, 3)), fair))
    cap, n, f = Fraction(1), Fraction(1), Fraction(0)
    totals = [n]
    for bit in x:
        ratio = (cap * (Fraction(4, 3) if bit == "1" else Fraction(2, 3)) + 1) / (cap + 1)
        cap *= Fraction(4, 3) if bit == "1" else Fraction(2, 3)
        if n != f:
            n = f + ratio * (n - f)
        f = max(f, n - 1)
        totals.append(n)
    assert sp.capital(x) == n
    assert sp.savings(x) == f
    assert randlab.run(sp, x).values == totals
    assert randlab.to_measure(sp).mass(x) == n / 2**1500


def test_ville_monte_carlo_keeps_no_per_prefix_cache():
    from randlab.martingale import ville_monte_carlo

    nu, mu = randlab.bernoulli(Fraction(2, 3)), randlab.fair_coin()
    mart = randlab.from_measures(nu, mu)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for seed in (1, 2):
            ville_monte_carlo(mart, 200, [Fraction(2)], 200, seed=seed)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # each measure's path cache holds at most one path: n + 1 nodes
    for m in (nu, mu):
        assert len(m._path.path) <= 200 and len(m._path.kids) <= 200
    assert grown < 256 * 1024, grown
