import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import randlab
from randlab import PreconditionError, StrategyViolation, bits
from randlab.betting import (
    BettingStrategy,
    BitAllInStrategy,
    BitEvent,
    CylinderEvent,
    KnowledgeState,
    LikelihoodRatioStrategy,
    NullStrategy,
    TableStrategy,
    walk_strategy,
)

F = Fraction


def test_kl_payoff_fair_independent(fair):
    assert randlab.kl_payoff(fair, {2: 1, 6: 0}, 4, 1) == 1


def test_kl_payoff_bernoulli(bern13):
    assert randlab.kl_payoff(bern13, {}, 0, 1) == 2
    assert randlab.kl_payoff(bern13, {}, 0, 0) == F(1, 2)


def test_kl_payoff_undefined_cases(null_at_one):
    # conditioning on a null event
    assert randlab.kl_payoff(null_at_one, {0: 1}, 1, 0) is None
    # betting on a conditionally null side
    assert randlab.kl_payoff(null_at_one, {}, 0, 1) is None
    with pytest.raises(PreconditionError):
        randlab.kl_payoff(null_at_one, {0: 0}, 0, 1)


def test_doubling_stake_and_traces(fair):
    s = randlab.doubling_strategy(["00"], fair)
    win = randlab.play(s, fair, "00")
    assert win.values == [1, 2]
    loss = randlab.play(s, fair, "01")
    assert loss.values == [1, F(2, 3)]  # stake 1/3 lost on the first bet


def test_doubling_exhaustive_depth2(fair):
    s = randlab.doubling_strategy(["00"], fair)
    for bits in itertools.product("01", repeat=2):
        x = "".join(bits)
        result = randlab.play(s, fair, x)
        assert result.final == (2 if x == "00" else F(2, 3))


def test_doubling_preconditions(fair, null_at_one):
    with pytest.raises(PreconditionError):
        randlab.doubling_strategy(["0", "10"], fair)  # mass 3/4 > 1/2
    with pytest.raises(PreconditionError):
        randlab.doubling_strategy(["11"], null_at_one)  # null generator


def test_doubling_empty_target(fair):
    s = randlab.doubling_strategy([], fair)
    result = randlab.play(s, fair, "0101")
    assert result.values == [1]


def test_zero_stake_constant_capital(fair):
    nodes = {h: (BitEvent(len(h), 0), F(0)) for h in ("", "0", "1", "00", "01", "10", "11")}
    s = TableStrategy(nodes)
    for bits in itertools.product("01", repeat=3):
        result = randlab.play(s, fair, "".join(bits))
        assert result.values == [1, 1, 1, 1]


def test_play_undetermined_when_sample_short(fair):
    s = randlab.doubling_strategy(["000"], fair)
    result = randlab.play(s, fair, "00")
    assert result.undetermined


def test_play_reports_overstake(fair):
    s = TableStrategy({"": (BitEvent(0, 1), F(2))})
    result = randlab.play(s, fair, "101")
    assert result.violation is not None
    assert result.values == [1]


def test_play_rejects_degenerate_event(fair):
    s = TableStrategy({"": (CylinderEvent(("0", "1")), F(1, 2))})
    result = randlab.play(s, fair, "01")
    assert result.violation is not None


def test_knowledge_masses_add(fair):
    s = randlab.doubling_strategy(["00", "0110", "101"], fair)
    tree = walk_strategy(s, fair, 6)
    for history, node in tree.items():
        if node.terminal:
            continue
        m0 = tree[history + "0"].knowledge.mass
        m1 = tree[history + "1"].knowledge.mass
        assert m0 + m1 == node.knowledge.mass, history


def test_strategy_to_cantor_doubling(fair):
    s = randlab.doubling_strategy(["00"], fair)
    nu, mart = randlab.strategy_to_cantor(s, fair, 6)
    assert nu.mass("1") == F(1, 4)
    assert nu.mass("0") == F(3, 4)
    assert randlab.check_fairness(mart, 6).ok


def test_strategy_to_cantor_zero_stake(fair):
    nodes = {h: (BitEvent(len(h), 1), F(0)) for h in ("", "0", "1")}
    nu, mart = randlab.strategy_to_cantor(TableStrategy(nodes), fair, 4)
    for sigma in ("", "0", "1", "01"):
        assert mart.capital(sigma) == 1
    assert randlab.check_fairness(mart, 4).ok


def test_transported_fairness_battery(fair, bern13):
    strategies = [
        randlab.doubling_strategy(["00", "0110", "101"], fair),
        BitAllInStrategy("0"),
        BitAllInStrategy("0110"),
        LikelihoodRatioStrategy(randlab.bernoulli(F(3, 4))),
        NullStrategy(),
    ]
    for s in strategies:
        nu, mart = randlab.strategy_to_cantor(s, fair, 8)
        report = randlab.check_fairness(mart, 8)
        assert report.ok, (type(s).__name__, report.violations[:3])


def test_transport_matches_play(fair):
    s = randlab.doubling_strategy(["00", "0110", "101"], fair)
    nu, mart = randlab.strategy_to_cantor(s, fair, 6)
    for bits in itertools.product("01", repeat=6):
        x = "".join(bits)
        played = randlab.play(s, fair, x)
        trace = randlab.run(mart, played.history)
        assert played.values == trace.values, x


def test_classify_bit_all_in_balanced(fair):
    profile = randlab.classify_strategy(BitAllInStrategy("0"), fair, 6)
    assert profile.balanced
    assert profile.exhaustive_trend == F(1, 64)


def test_classify_doubling_unbalanced(fair):
    profile = randlab.classify_strategy(randlab.doubling_strategy(["00"], fair), fair, 6)
    assert not profile.balanced
    tree = walk_strategy(randlab.doubling_strategy(["00"], fair), fair, 2)
    assert tree[""].conditional == F(1, 4)


def test_classify_null_strategy(fair):
    profile = randlab.classify_strategy(NullStrategy(), fair, 6)
    assert profile.exhaustive_trend == 1
    assert profile.bets_audited == 0


def test_interval_morphism_doubling(fair):
    s = randlab.doubling_strategy(["00"], fair)
    intervals = randlab.strategy_to_interval_morphism(s, fair, 4)
    assert intervals["0"] == (F(0), F(3, 4))
    assert intervals["1"] == (F(3, 4), F(1))


def test_interval_morphism_null_strategy(fair):
    intervals = randlab.strategy_to_interval_morphism(NullStrategy(), fair, 4)
    assert intervals == {"": (F(0), F(1))}


def test_interval_lengths_equal_masses(fair):
    strategies = [
        randlab.doubling_strategy(["00", "0110"], fair),
        BitAllInStrategy("01"),
        LikelihoodRatioStrategy(randlab.bernoulli(F(2, 3))),
    ]
    for s in strategies:
        tree = walk_strategy(s, fair, 6)
        intervals = randlab.strategy_to_interval_morphism(s, fair, 6)
        for history, (a, b) in intervals.items():
            assert b - a == tree[history].knowledge.mass, (type(s).__name__, history)


def test_balanced_strategy_induces_fair_measure(fair):
    nu, _ = randlab.strategy_to_cantor(BitAllInStrategy("0101"), fair, 8)
    assert randlab.measures_agree(nu, fair, 8)


def test_doubling_stopping_consistency(fair):
    # capital after k straight losses equals one minus the combined wager
    target = randlab.CylinderSet.from_strings(["00", "0110", "101"])
    s = randlab.doubling_strategy(target, fair)
    tree = walk_strategy(s, fair, 8)
    union_mass = F(0)
    for k, gen in enumerate(target.generators):
        union_mass += fair.mass(gen)
        history = "0" * (k + 1)
        expected_loss = union_mass / (1 - union_mass)
        assert 1 - tree[history].capital == expected_loss, history


def test_likelihood_ratio_replicates_quotient(fair):
    model = randlab.bernoulli(F(3, 4))
    s = LikelihoodRatioStrategy(model)
    mart = randlab.from_measures(model, fair)
    for x in ("1111111111", "0101100111", "0000000000"):
        played = randlab.play(s, fair, x)
        assert played.values == randlab.run(mart, x).values
        # wins are exactly the predicted-side hits, so history mirrors the sample
        assert len(played.history) == len(x)


def test_likelihood_ratio_keeps_no_per_history_state(fair):
    rng = random.Random(5)
    x = "".join(rng.choice("01") for _ in range(400))
    s = LikelihoodRatioStrategy(randlab.bernoulli(F(3, 4)))

    def held():
        return {name: len(v) if isinstance(v, (dict, list, set)) else v for name, v in vars(s).items()}

    before = held()
    first = randlab.play(s, fair, x)
    # under bernoulli(9/10) the strategy bets on 0s, not 1s: the same object
    # must still play exactly as a fresh one would
    skewed = randlab.bernoulli(F(9, 10))
    second = randlab.play(s, skewed, x[::-1])
    assert held() == before
    assert first.values == randlab.play(LikelihoodRatioStrategy(s.model), fair, x).values
    assert second.values == randlab.play(LikelihoodRatioStrategy(s.model), skewed, x[::-1]).values
    assert len(first.values) == len(second.values) == 401


def test_bit_all_in_after_bust_keeps_learning(fair):
    s = BitAllInStrategy("1")
    result = randlab.play(s, fair, "0110")
    assert result.values == [1, 0, 0, 0, 0]
    profile = randlab.classify_strategy(s, fair, 4)
    assert profile.exhaustive_trend == F(1, 16)


def test_play_accepts_rational_sample(fair):
    s = randlab.doubling_strategy(["00"], fair)
    # 1/5 starts 0011... in binary, so the first bet on [00] wins
    result = randlab.play(s, fair, F(1, 5), max_steps=6)
    assert result.final == 2
    losing = randlab.play(s, fair, F(2, 3), max_steps=6)  # binary 1010...
    assert losing.final == F(2, 3)


def _reference_play(strategy, mu, x):
    """play() by its definition from cylinder masses: each bet's odds and each
    knowledge mass read mu.mass of every generator of the knowledge set.

    Returns (values, events, knowledge masses, undetermined, violation)."""
    gens, mass, capital, history = ("",), mu.mass(""), strategy.start_capital, ""
    values, events, masses = [capital], [], [mass]

    def stop(undetermined=False, violation=None):
        return values, events, masses, undetermined, violation

    for _ in range(len(x)):
        weights = tuple(mu.mass(g) / mass for g in gens) if mass else (F(1),) * len(gens)
        decision = strategy.bet(history, capital, KnowledgeState(gens, mass, weights), mu)
        if decision is None:
            break
        event, stake = decision
        if isinstance(event, BitEvent):
            if event.index >= len(x):
                return stop(undetermined=True)
            outcome = int(x[event.index]) == event.side
            win = bits.restrict_bit(gens, event.index, event.side)
            lose = bits.restrict_bit(gens, event.index, 1 - event.side)
        else:
            outcome = bits.member_prefix(event.generators, x)
            if outcome is None:
                return stop(undetermined=True)
            win = bits.intersect(gens, event.generators)
            lose = bits.subtract(gens, event.generators)
        stake = F(stake)
        if stake < 0:
            return stop(violation=f"negative stake {stake} at {history!r}")
        if stake > capital:
            return stop(violation=f"stake {stake} exceeds capital {capital} at {history!r}")
        win_mass = sum((mu.mass(g) for g in win), F(0))
        lose_mass = sum((mu.mass(g) for g in lose), F(0))
        if win_mass == 0 or lose_mass == 0:
            return stop(violation=f"bet on a conditionally null or sure event at {history!r}: {event.describe()}")
        if outcome:
            gens, mass, capital, history = win, win_mass, capital + stake * lose_mass / win_mass, history + "1"
        else:
            gens, mass, capital, history = lose, lose_mass, capital - stake, history + "0"
        values.append(capital)
        events.append(event.describe())
        masses.append(mass)
    return stop()


def _assert_play_matches_reference(strategy, mu, x):
    # a strategy's own refusal to bet propagates from both
    try:
        played = randlab.play(strategy, mu, x)
        got = (played.values, played.events, played.knowledge_masses, played.undetermined, played.violation)
    except StrategyViolation as exc:
        got = ("raised", str(exc))
    try:
        expected = _reference_play(strategy, mu, x)
    except StrategyViolation as exc:
        expected = ("raised", str(exc))
    assert got == expected
    return got


_SPLITS = st.fractions(min_value=0, max_value=1, max_denominator=6)


def _split_tables():
    """split_table measures whose splits include 0 and 1, so some branches
    are null and some bets are on sure events."""
    return st.builds(
        lambda entries, default: randlab.split_table(entries, default=default),
        st.dictionaries(st.text(alphabet="01", max_size=4), _SPLITS, max_size=6),
        _SPLITS,
    )


@st.composite
def _prefix_free_sets(draw):
    strings = draw(st.lists(st.text(alphabet="01", min_size=1, max_size=3), min_size=1, max_size=4, unique=True))
    return tuple(g for g in strings if not any(g != h and g.startswith(h) for h in strings))


def _events():
    bit_events = st.builds(BitEvent, st.integers(0, 5), st.integers(0, 1))
    return st.one_of(bit_events, st.builds(CylinderEvent, _prefix_free_sets()))


def _table_strategies():
    histories = st.text(alphabet="01", max_size=4)
    stakes = st.fractions(min_value=0, max_value=1, max_denominator=4)
    return st.builds(TableStrategy, st.dictionaries(histories, st.tuples(_events(), stakes), max_size=12))


_SAMPLES = st.text(alphabet="01", max_size=8)


@given(_split_tables(), _split_tables(), _SAMPLES)
@settings(max_examples=80, deadline=None)
def test_likelihood_ratio_play_matches_mass_definition(mu, model, x):
    _assert_play_matches_reference(LikelihoodRatioStrategy(model), mu, x)


@given(_split_tables(), st.text(alphabet="01", min_size=1, max_size=3), _SAMPLES)
@settings(max_examples=60, deadline=None)
def test_bit_all_in_play_matches_mass_definition(mu, sides, x):
    _assert_play_matches_reference(BitAllInStrategy(sides), mu, x)


@given(_split_tables(), _table_strategies(), _SAMPLES)
@settings(max_examples=120, deadline=None)
def test_table_play_matches_mass_definition(mu, strategy, x):
    _assert_play_matches_reference(strategy, mu, x)


_STARTS = [F(-1), F(0), F(1, 3), F(1), F(5, 2)]


def _share_table_strategies():
    """Table strategies that bet at the root, whose stakes may be negative,
    all in or over the capital, and whose start capital may be negative,
    zero or fractional."""
    histories = st.text(alphabet="01", min_size=1, max_size=4)
    stakes = st.one_of(st.sampled_from(_STARTS), st.fractions(min_value=-1, max_value=3, max_denominator=4))
    bets = st.tuples(_events(), stakes)
    return st.builds(
        lambda root, nodes, start: TableStrategy({"": root, **nodes}, start),
        bets,
        st.dictionaries(histories, bets, max_size=12),
        st.sampled_from(_STARTS),
    )


_BIT1 = BitEvent(0, 1)


@given(_split_tables(), _share_table_strategies(), _SAMPLES)
@settings(max_examples=200, deadline=None)
@example(randlab.fair_coin(), TableStrategy({"": (_BIT1, F(0))}, F(-1)), "1")  # any stake exceeds capital -1
@example(randlab.fair_coin(), TableStrategy({"": (_BIT1, F(1, 2))}, F(0)), "1")
@example(randlab.fair_coin(), TableStrategy({"": (_BIT1, F(1))}, F(1)), "1")  # all in is allowed
@example(randlab.bernoulli(F(1, 3)), TableStrategy({"": (_BIT1, F(1, 2))}, F(5, 2)), "1")  # payoff 2
@example(randlab.fair_coin(), TableStrategy({"": (_BIT1, F(1)), "0": (BitEvent(1, 1), F(1, 2))}), "00")  # bust, then stake
@example(randlab.fair_coin(), TableStrategy({"": (_BIT1, F(1)), "0": (BitEvent(1, 1), F(0))}), "00")
def test_stake_as_share_of_capital_matches_mass_definition(mu, strategy, x):
    # a bet moves the capital by one factor, capital * (1 + share * payoff)
    # or capital * (1 - share) with share = stake / capital; play must give
    # the values and violations of capital + stake * payoff and capital - stake
    _assert_play_matches_reference(strategy, mu, x)


class _ShareStrategy(BettingStrategy):
    """Bets on the next coordinate, staking a fixed share of the capital per
    history; a history with no share stops betting."""

    def __init__(self, shares, start_capital):
        self.shares, self.start_capital = shares, start_capital

    def bet(self, history, capital, knowledge, mu):
        decision = self.shares.get(history)
        if decision is None:
            return None
        side, share = decision
        return BitEvent(len(history), side), share * capital


_INNER_SPLITS = _SPLITS.filter(lambda s: 0 < s < 1)
_SHORT_HISTORIES = ["".join(h) for n in range(4) for h in itertools.product("01", repeat=n)]


@given(
    st.builds(
        lambda entries, default: randlab.split_table(entries, default=default),
        st.dictionaries(st.text(alphabet="01", max_size=4), _INNER_SPLITS, max_size=6),
        _INNER_SPLITS,
    ),
    st.fixed_dictionaries(
        {h: st.none() | st.tuples(st.integers(0, 1), st.fractions(0, 1, max_denominator=4)) for h in _SHORT_HISTORIES}
    ),
    st.sampled_from(_STARTS[1:]),
)
@settings(max_examples=100, deadline=None)
def test_walk_moves_capital_by_the_stake(mu, shares, start):
    # every successor's capital, recomputed from its parent's stake
    tree = walk_strategy(_ShareStrategy(shares, start), mu, 4)
    for history, node in tree.items():
        if not node.terminal:
            assert tree[history + "1"].capital == node.capital + node.stake * node.payoff, history
            assert tree[history + "0"].capital == node.capital - node.stake, history


def test_play_over_mass_backed_base_matches_mass_definition():
    # an interleave product reads its mass function, not a product of splits
    mu = randlab.interleave_product(randlab.bernoulli(F(1, 3)), randlab.split_table({"": F(3, 4), "1": F(1, 5)}))
    x = "1100110111010010"
    values = _assert_play_matches_reference(LikelihoodRatioStrategy(randlab.bernoulli(F(2, 3))), mu, x)[0]
    assert len(values) == len(x) + 1
    _assert_play_matches_reference(BitAllInStrategy("01"), mu, x)
    cylinders = {
        "": (CylinderEvent(("00", "11")), F(1, 4)),
        "1": (BitEvent(4, 0), F(1, 8)),
        "10": (CylinderEvent(("1100", "111")), F(1, 2)),
    }
    events = _assert_play_matches_reference(TableStrategy(cylinders), mu, x)[1]
    assert events == ["cyl{00,11}", "bit[4]=0", "cyl{1100,111}"]


def test_bet_odds_come_from_splits_of_a_non_additive_mass_function():
    # the children of "0" carry 1/2 each, twice the mass of "0" itself
    def mass(sigma):
        return F(1, 2 ** (len(sigma) - 1 if sigma[:1] == "0" and len(sigma) > 1 else len(sigma)))

    mu = randlab.from_masses(mass)
    assert not randlab.check_additivity(mu, 2).ok
    # the odds of a bet are the conditional weights the measure's splits give:
    # split("0") = mass("01") / mass("0") = 1, so bit 1 is surely 1 inside
    # [0] and betting on bit[1]=0 there is a bet on a null event (a reading
    # of mass("00") / mass("0") would call it sure and double the capital)
    result = randlab.play(BitAllInStrategy("0"), mu, "00")
    assert result.values == [1, 2]
    assert result.knowledge_masses == [1, F(1, 2)]
    assert result.violation == "bet on a conditionally null or sure event at '1': bit[1]=0"


def _reference_likelihood_ratio_bet(model, mu, prefix, capital):
    """The bet by its definition: both conditionals of both measures, the
    side with the larger model/base ratio (ties to 1), and the stake
    capital * (ratio - 1) * p / (1 - p)."""
    base_p, ratios = [], []
    for b in (0, 1):
        pc, nc = mu.conditional(prefix, b), model.conditional(prefix, b)
        if pc is None or pc == 0:
            raise StrategyViolation(f"base measure degenerate after {prefix!r}")
        base_p.append(pc)
        ratios.append((F(0) if nc is None else nc) / pc)
    side = 1 if ratios[1] >= ratios[0] else 0
    p = base_p[side]
    return BitEvent(len(prefix), side), capital * (ratios[side] - 1) * p / (1 - p)


@given(_split_tables(), _split_tables(), st.text(alphabet="01", max_size=5), st.fractions(0, 4, max_denominator=5))
@settings(max_examples=100, deadline=None)
def test_likelihood_ratio_bet_matches_its_definition(mu, model, prefix, capital):
    knowledge = KnowledgeState((prefix,), mu.mass(prefix), (F(1),))
    outcomes = []
    for bet in (
        lambda: LikelihoodRatioStrategy(model).bet(prefix, capital, knowledge, mu),
        lambda: _reference_likelihood_ratio_bet(model, mu, prefix, capital),
    ):
        try:
            outcomes.append(bet())
        except StrategyViolation as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_likelihood_ratio_breaks_ties_toward_one(fair):
    event, stake = LikelihoodRatioStrategy(fair).bet("", F(1), KnowledgeState(("",), F(1), (F(1),)), fair)
    assert event == BitEvent(0, 1) and stake == 0


def test_bets_read_no_split_below_a_null_cylinder():
    # [1] is null; the split function is out of range below it, which a
    # mass reading never sees, and neither does the bet's conditional weight
    mu = randlab.Measure(lambda sigma: F(0) if sigma == "" else F(2))
    result = randlab.play(TableStrategy({"": (CylinderEvent(("10",)), F(1, 2))}), mu, "0")
    assert result.violation == "bet on a conditionally null or sure event at '': cyl{10}"


def test_long_likelihood_ratio_play_holds_one_model_path():
    # the model's mass memo kept every prefix of the sample, O(n^2)
    # characters: 9.7 MB after these 4000 steps; the one-path cache keeps one
    # path of 4000 nodes of growing int pairs, about 2 MB
    rng = random.Random(5)
    x = "".join("1" if rng.random() < 1 / 3 else "0" for _ in range(4000))
    strategy, mu = LikelihoodRatioStrategy(randlab.fair_coin()), randlab.bernoulli(F(1, 3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        steps = len(randlab.play(strategy, mu, x).values) - 1
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert steps == 4000
    assert len(strategy.model._path.kids) <= 4000
    assert held < 4 * 1024 * 1024, held
