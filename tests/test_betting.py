import itertools
import random
import re
import time
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
    StrategyKernel,
    TableStrategy,
    _side,
    _walk_side,
)

F = Fraction


def walk_strategy(strategy, mu, depth):
    """The history tree to the depth as a dict history -> node, stepping
    StrategyKernel.children: a node's bet, then its win subtree, then its
    loss subtree, so the first StrategyViolation raised is the parent's.  A
    node that bet has its children in the tree, and one that stopped has none."""
    kernel = StrategyKernel(strategy, mu, depth)
    tree, stack = {}, [kernel.root()]
    while stack:
        node = stack.pop()
        tree[node.history] = node
        lose, win = kernel.children(node.history, node)
        if lose is not None:
            stack += (lose, win)
    return tree


def _histories(depth):
    """Every history up to the depth, in pre-order."""
    stack = [""]
    while stack:
        h = stack.pop()
        yield h
        if len(h) < depth:
            stack += (h + "1", h + "0")


def _profile(strategy, mu, depth):
    """(balanced, largest mass at the depth, bets) read off the knowledge
    measure: a positive history shorter than the depth bets where its win
    branch holds less than its whole mass, and the bet is balanced when the
    win branch holds half of it."""
    nu, _ = randlab.strategy_to_cantor(strategy, mu, depth)
    balanced, trend, bets = True, F(0), 0
    for h in _histories(depth):
        m = nu.mass(h)
        if len(h) == depth:
            trend = max(trend, m)
        elif m and nu.mass(h + "1") != m:
            bets += 1
            balanced = balanced and 2 * nu.mass(h + "1") == m
    return balanced, trend, bets


def _interval(nu, h):
    """The interval of a history: its length is the knowledge mass, and it
    starts past the loss branches of the prefixes where h won."""
    a = sum((nu.mass(h[:i] + "0") for i in range(len(h)) if h[i] == "1"), F(0))
    return a, a + nu.mass(h)


def _kl_play(mu, known, target, side):
    """A Kolmogorov-Loveland bet played: stake 0 on each known coordinate
    (index -> bit) in turn, then the whole capital on bit `target` = side,
    against a sample that meets every bet.  Its final capital minus 1 is the
    bet's odds."""
    steps = [*sorted(known.items()), (target, side)]
    nodes = {"1" * k: (BitEvent(i, b), F(k == len(known))) for k, (i, b) in enumerate(steps)}
    x = ["0"] * max(len(steps), *(i + 1 for i, _ in steps))  # play makes at most one bet a bit
    for i, b in steps[::-1]:
        x[i] = str(b)
    return randlab.play(TableStrategy(nodes), mu, "".join(x))


def test_kl_payoff_fair_independent(fair):
    assert _kl_play(fair, {2: 1, 6: 0}, 4, 1).final - 1 == 1


def test_kl_payoff_bernoulli(bern13):
    assert _kl_play(bern13, {}, 0, 1).final - 1 == 2
    assert _kl_play(bern13, {}, 0, 0).final - 1 == F(1, 2)
    assert _kl_play(bern13, {3: 0, 1: 1}, 2, 0).final - 1 == F(1, 2)


def test_kl_payoff_undefined_cases(fair, null_at_one):
    # conditioning on a null event
    assert _kl_play(null_at_one, {0: 1}, 1, 0).violation == "bet on a conditionally null or sure event at '': bit[0]=1"
    # betting on a conditionally null side
    assert _kl_play(null_at_one, {}, 0, 1).violation == "bet on a conditionally null or sure event at '': bit[0]=1"
    # and on a sure one: bit 0 is surely 0 under null_at_one
    assert _kl_play(null_at_one, {}, 0, 0).violation == "bet on a conditionally null or sure event at '': bit[0]=0"
    # a revealed coordinate is sure on one side and null on the other
    for side in (0, 1):
        assert _kl_play(fair, {0: 0}, 0, side).violation == f"bet on a conditionally null or sure event at '1': bit[0]={side}"


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


class _Silent(BettingStrategy):
    """States neither bet() nor share()."""


def test_a_strategy_that_states_no_bet_is_a_precondition_error(fair):
    # the base bet() and share() read each other: this was a RecursionError
    message = re.escape("_Silent overrides neither bet() nor share()")
    with pytest.raises(PreconditionError, match=message):
        randlab.play(_Silent(), fair, "0101")
    with pytest.raises(PreconditionError, match=message):
        walk_strategy(_Silent(), fair, 2)
    with pytest.raises(PreconditionError, match=message):
        _Silent().bet("", F(1), KnowledgeState(("",), F(1), (F(1),)), fair)


def test_a_bet_on_no_event_is_a_precondition_error(fair):
    # play asks whether the sample lies in the event, the walk resolves both
    # sides of the bet: each refuses it with the same message
    strategy = TableStrategy({"": ("0", F(1, 2))})
    for walk in (lambda: walk_strategy(strategy, fair, 1), lambda: randlab.play(strategy, fair, "01")):
        with pytest.raises(PreconditionError, match="^unknown event type str$"):
            walk()


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
        if history + "1" not in tree:
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
    assert _profile(BitAllInStrategy("0"), fair, 6) == (True, F(1, 64), 63)


def test_classify_doubling_unbalanced(fair):
    assert _profile(randlab.doubling_strategy(["00"], fair), fair, 6) == (False, F(3, 4), 1)
    tree = walk_strategy(randlab.doubling_strategy(["00"], fair), fair, 2)
    assert tree["1"].knowledge.mass / tree[""].knowledge.mass == F(1, 4)  # the bet's conditional probability


def test_classify_null_strategy(fair):
    assert _profile(NullStrategy(), fair, 6) == (True, 1, 0)


def test_interval_morphism_doubling(fair):
    nu, _ = randlab.strategy_to_cantor(randlab.doubling_strategy(["00"], fair), fair, 4)
    assert _interval(nu, "0") == (F(0), F(3, 4))
    assert _interval(nu, "1") == (F(3, 4), F(1))


def test_interval_morphism_null_strategy(fair):
    # the null strategy never bets, so its win branches keep the whole interval
    nu, _ = randlab.strategy_to_cantor(NullStrategy(), fair, 4)
    intervals = {h: _interval(nu, h) for h in _histories(4)}
    assert {h: i for h, i in intervals.items() if i[1] > i[0]} == {"1" * k: (F(0), F(1)) for k in range(5)}


def test_interval_lengths_equal_masses(fair):
    # each history's interval is as long as its node's knowledge mass, and the
    # children of a node that bet tile its interval, loss branch first
    strategies = [
        randlab.doubling_strategy(["00", "0110"], fair),
        BitAllInStrategy("01"),
        LikelihoodRatioStrategy(randlab.bernoulli(F(2, 3))),
    ]
    for s in strategies:
        tree = walk_strategy(s, fair, 6)
        nu, _ = randlab.strategy_to_cantor(s, fair, 6)
        for history, node in tree.items():
            a, b = _interval(nu, history)
            assert b - a == node.knowledge.mass, (type(s).__name__, history)
            if history + "1" in tree:
                (a0, b0), (a1, b1) = _interval(nu, history + "0"), _interval(nu, history + "1")
                assert (a0, b0, b1) == (a, a1, b), (type(s).__name__, history)


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
    assert _profile(s, fair, 4)[1] == F(1, 16)


def test_play_accepts_rational_sample(fair):
    s = randlab.doubling_strategy(["00"], fair)
    # 1/5 starts 0011... in binary, so the first bet on [00] wins
    result = randlab.play(s, fair, randlab.binary_digits().resolved_name(F(1, 5), 6))
    assert result.final == 2
    losing = randlab.play(s, fair, randlab.binary_digits().resolved_name(F(2, 3), 6))  # binary 1010...
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


def _knowledge_masses(strategy, mu, history):
    """The knowledge mass at each prefix of a played history, read off the
    nodes of the strategy's tree kernel (play keeps only the capitals)."""
    kernel = StrategyKernel(strategy, mu, len(history))
    node = kernel.root()
    masses = [node.knowledge.mass]
    for bit in history:
        node = kernel.children(node.history, node)[bit == "1"]
        masses.append(node.knowledge.mass)
    return masses


def _assert_play_matches_reference(strategy, mu, x):
    # a strategy's own refusal to bet propagates from both
    try:
        played = randlab.play(strategy, mu, x)
        masses = _knowledge_masses(strategy, mu, played.history)
        got = (played.values, played.events, masses, played.undetermined, played.violation)
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
        if history + "1" in tree:
            p = tree[history + "1"].knowledge.mass / node.knowledge.mass  # the bet's conditional probability
            stake, payoff = shares[history][1] * node.capital, (1 - p) / p
            assert tree[history + "1"].capital == node.capital + stake * payoff, history
            assert tree[history + "0"].capital == node.capital - stake, history


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
    assert _knowledge_masses(BitAllInStrategy("0"), mu, result.history) == [1, F(1, 2)]
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
    # the model answers nullity off a path of booleans and builds no masses
    assert not strategy.model._path.kids and len(strategy.model._nulls.kids) <= 4000
    assert held < 4 * 1024 * 1024, held


def _descend(strategy, mu, x, kept):
    """The knowledge states at the depths in kept along the history x, stepping
    StrategyKernel.children; every other node is dropped on the way."""
    kernel = StrategyKernel(strategy, mu, len(x))
    node, states = kernel.root(), {}
    for j in range(len(x) + 1):
        if j in kept:
            states[j] = node.knowledge
        if j < len(x):
            node = kernel.children(node.history, node)[x[j] == "1"]
    return states


@pytest.mark.parametrize("deepest_first", [True, False])
def test_a_deferred_knowledge_mass_multiplies_out_20000_levels_deep(bern13, deepest_first):
    # each resolved side defers its mass to its parent's cell, so the deepest
    # state's first read multiplies out a chain 20000 cells long; the read is
    # a loop, and each cell on the way keeps its product and drops its parent
    rng = random.Random(7)
    x = "".join(rng.choice("01") for _ in range(20000))
    kept = (0, 1, 10000, 19999, 20000)
    states = _descend(BitAllInStrategy("1"), bern13, x, kept)  # a win, history bit 1, is sample bit 1
    expected = {j: F(2 ** x[:j].count("0"), 3**j) for j in kept}  # the product of bern13's splits
    order = sorted(kept, reverse=deepest_first)
    assert [states[j].mass for j in order] == [expected[j] for j in order]
    assert all(len(state._cell) == 1 for state in states.values())
    # a deferred state reads as one given its mass (the deepest mass has too
    # many digits for a repr)
    given = {j: KnowledgeState((x[:j],), expected[j], (F(1),)) for j in (1, 20000)}
    assert all(not states[j].null and states[j] == given[j] for j in given)
    assert repr(states[1]) == repr(given[1])


def test_a_long_play_keeps_no_parent_generators():
    # a step's state keeps its parent's mass cell and two ints, not the parent:
    # the parents' one-cylinder generators of a 6000-step bet would hold
    # 6000^2/2 characters, 18 MB; with its 5999 deferred cells this play holds about 1 MB
    class Keeping(LikelihoodRatioStrategy):
        def share(self, history, capital, knowledge, mu):
            self.knowledge = knowledge
            return super().share(history, capital, knowledge, mu)

    rng = random.Random(11)
    x = "".join("1" if rng.random() < 1 / 3 else "0" for _ in range(6000))
    strategy, mu = Keeping(randlab.fair_coin()), randlab.bernoulli(F(1, 3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = randlab.play(strategy, mu, x)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(result.factors) == 6000 and result.history == x
    assert held < 4 * 1024 * 1024, held
    # the last state asked for a bet still reads its mass
    assert strategy.knowledge.generators == (x[:5999],) and strategy.knowledge.mass == mu.mass(x[:5999])


def test_a_null_knowledge_state_is_a_degenerate_base_for_the_likelihood_ratio(fair, null_at_one):
    # the split at a null cylinder is 1/2 by convention, so only the state's
    # nullity stops the bet there
    with pytest.raises(StrategyViolation, match="^base measure degenerate after '1'$"):
        LikelihoodRatioStrategy(fair).share("1", F(1), KnowledgeState(("1",), F(0), (F(1),)), null_at_one)
    with pytest.raises(StrategyViolation, match="^base measure degenerate after ''$"):
        randlab.play(LikelihoodRatioStrategy(fair), fair.scaled(0), "01")


def _reference_normalize(strings):
    """bits.normalize as it was: drop generators under a kept prefix, then
    merge sibling pairs one at a time, restarting after each merge."""
    minimal = set()
    for g in sorted(set(strings), key=len):
        if not any(g.startswith(p) for p in minimal if len(p) < len(g)):
            minimal.add(g)
    merged = True
    while merged:
        merged = False
        for g in sorted(minimal, key=len, reverse=True):
            if not g:
                continue
            sib = g[:-1] + ("1" if g[-1] == "0" else "0")
            if sib in minimal:
                minimal.discard(g)
                minimal.discard(sib)
                minimal.add(g[:-1])
                merged = True
                break
    return tuple(sorted(minimal))


@given(st.lists(st.text(alphabet="01", max_size=5), max_size=14))
@settings(max_examples=400, deadline=None)
@example(["000", "001", "01", "1"])  # a merge that cascades to the root
@example(["0", "00", "01", "1"])
def test_normalize_matches_the_pairwise_definition(strings):
    assert bits.normalize(strings) == _reference_normalize(strings)


def test_far_bit_bet_is_not_quadratic(bern13):
    # restricting the root to bit 13 makes 8192 generators: one sorted pass
    # normalizes them and each finds its knowledge generator by bisection
    # (about 3 s with the pairwise normalize and the linear lookup, 2 vCPUs)
    strategy = TableStrategy({"": (BitEvent(13, 1), F(1, 2))})
    start = time.perf_counter()
    result = randlab.play(strategy, bern13, "0" * 13 + "1")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.5, elapsed
    assert result.values == [1, 2] and _knowledge_masses(strategy, bern13, result.history) == [1, F(1, 3)]


def test_far_bit_bet_reads_each_split_once():
    # the 8192 side generators of a root bet on bit 13 share their weight
    # products along common prefixes: one split per node of the trie above
    # them, 2^14 - 1, where each generator's own path read 8192 * 14 = 114688
    calls = []

    def split(sigma):
        calls.append(sigma)
        return F(1, 3)

    mu, strategy = randlab.Measure(split), TableStrategy({"": (BitEvent(13, 1), F(1, 2))})
    result = randlab.play(strategy, mu, "0" * 13 + "1")
    assert result.values == [1, 2]
    assert len(calls) == len(set(calls)) == 2**14 - 1
    assert _knowledge_masses(strategy, mu, result.history) == [1, F(1, 3)]
    # a cylinder bet below a knowledge set of several generators reads each
    # split between them and the side's generators once, too
    calls.clear()
    strategy = TableStrategy({"": (BitEvent(1, 1), F(1, 2)), "1": (CylinderEvent(("0100", "0111", "11")), F(1, 2))})
    result = randlab.play(strategy, mu, "0111")
    assert result.events == ["bit[1]=1", "cyl{0100,0111,11}"]
    assert len(calls) == len(set(calls))


@given(_split_tables(), st.text(alphabet="01", max_size=5), st.integers(0, 1), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_a_next_bit_bet_reads_one_split_as_the_walk_does(mu, g, side, rng):
    # a bet on the next coordinate of one cylinder resolves each side from
    # one split; the walk over the restricted generators is the reference
    knowledge, event = KnowledgeState((g,), mu.mass(g), (F(1),)), BitEvent(len(g), side)
    for won in (True, False):
        assert _side(knowledge, event, mu, won) == _walk_side(knowledge, event, mu, won, None)
    # nullity, read off its path of booleans in any order, is a mass of 0
    strings = ["".join(t) for n in range(7) for t in itertools.product("01", repeat=n)]
    rng.shuffle(strings)
    assert [mu.is_null(s) for s in strings] == [mu.mass(s) == 0 for s in strings]


def _reference_kl_play(mu, known, target, side):
    """_kl_play's odds or violation by their definition from cylinder
    masses: each bet restricts the knowledge set, and one whose side holds
    none or all of the set's mass is refused."""
    gens, mass = ("",), mu.mass("")
    for k, (index, bit) in enumerate([*sorted(known.items()), (target, side)]):
        win = bits.restrict_bit(gens, index, bit)
        win_mass = sum((mu.mass(g) for g in win), F(0))
        if mass == 0 or win_mass in (0, mass):
            return f"bet on a conditionally null or sure event at {'1' * k!r}: bit[{index}]={bit}"
        gens, odds, mass = win, (mass - win_mass) / win_mass, win_mass
    return odds


@given(
    _split_tables(),
    st.dictionaries(st.integers(0, 4), st.integers(0, 1), max_size=3),
    st.integers(0, 5),
    st.integers(0, 1),
)
@settings(max_examples=150, deadline=None)
def test_kl_payoff_matches_the_mass_ratio(mu, known, target, side):
    played = _kl_play(mu, known, target, side)
    assert (played.violation or played.final - 1) == _reference_kl_play(mu, known, target, side)


def test_kl_payoff_reads_a_non_additive_base_through_its_splits():
    # as for bets: split("0") = mass("01") / mass("0") = 1, so bit 1 is surely
    # 1 inside [0], and bit 2 is 0 inside [0] with weight split("0") *
    # (1 - split("01")) = 1/2: odds 1, where the mass ratio reads (mass("000") +
    # mass("010")) / mass("0") = 1, a sure event
    mu = randlab.from_masses(lambda s: F(1, 2 ** (len(s) - 1 if s[:1] == "0" and len(s) > 1 else len(s))))
    assert _kl_play(mu, {0: 0}, 1, 0).violation == "bet on a conditionally null or sure event at '1': bit[1]=0"
    assert _kl_play(mu, {0: 0}, 2, 0).final - 1 == 1


def test_kl_payoff_guards_the_target_expansion(fair, monkeypatch):
    # restricting the root to bit 5 expands it 64-fold, past a cap of 2^4
    monkeypatch.setenv("RANDLAB_DEPTH_LIMIT", "4")
    with pytest.raises(randlab.ResourceLimitError):
        _kl_play(fair, {}, 5, 1)
    assert _kl_play(fair, {}, 3, 1).final - 1 == 1


def test_a_play_reads_the_depth_cap_once(monkeypatch):
    calls = []
    read = randlab.betting.enumeration_limit
    monkeypatch.setattr(randlab.betting, "enumeration_limit", lambda: calls.append(1) or read())
    rng = random.Random(4)
    x = "".join(rng.choice("01") for _ in range(4000))
    result = randlab.play(LikelihoodRatioStrategy(randlab.fair_coin()), randlab.bernoulli(F(1, 3)), x)
    assert len(result.factors) == 4000
    assert len(calls) == 1


def test_a_zero_depth_cap_refuses_the_first_next_bit_bet(monkeypatch):
    mu, strategy = randlab.bernoulli(F(1, 3)), LikelihoodRatioStrategy(randlab.fair_coin())
    nu, mart = randlab.strategy_to_cantor(strategy, mu, 3)
    monkeypatch.setenv("RANDLAB_DEPTH_LIMIT", "0")
    # the kernel reads the cap at its first bet, so a cap lowered after
    # strategy_to_cantor returned still applies
    for read in (lambda: randlab.play(strategy, mu, "0110"), lambda: nu.mass("1"), lambda: mart.capital("0")):
        with pytest.raises(randlab.ResourceLimitError) as exc:
            read()
        assert str(exc.value) == "restricting bit 0 would expand the knowledge set 2-fold"


@given(
    _split_tables(),
    st.one_of(_table_strategies(), st.builds(LikelihoodRatioStrategy, _split_tables())),
    st.text(alphabet="01", min_size=1, max_size=6),
)
@settings(max_examples=120, deadline=None)
def test_transport_matches_play_and_is_fair(mu, strategy, x):
    # for every step k, the transported martingale's capital at the k-step
    # history is play's k-th value, and its knowledge measure holds play's
    # k-th knowledge mass
    try:
        played = randlab.play(strategy, mu, x)
    except StrategyViolation:
        played = None  # a likelihood-ratio strategy refuses a degenerate base
    nu, mart = randlab.strategy_to_cantor(strategy, mu, len(x))
    if played is not None:
        # play keeps the start, final and largest capitals and the factors;
        # values is no field but rebuilt from them
        values = played.values
        assert (played.start, played.final, played.max_attained) == (values[0], values[-1], max(values))
        assert len(played.factors) == len(values) - 1
        assert isinstance(vars(type(played))["values"], property) and "values" not in vars(played)
        masses = _knowledge_masses(strategy, mu, played.history)
        for k, (value, mass) in enumerate(zip(values, masses)):
            assert mart.capital(played.history[:k]) == value, k
            assert nu.mass(played.history[:k]) == mass, k
    # the audit resolves the bet at every history the walk does
    try:
        walk_strategy(strategy, mu, len(x))
    except StrategyViolation:
        with pytest.raises(StrategyViolation):
            randlab.check_fairness(mart, len(x))
    else:
        report = randlab.check_fairness(mart, len(x))
        assert report.ok, report.violations[:3]


def test_transport_raises_a_violation_where_a_read_reaches_it(fair):
    # the tree is not walked up front: the over-stake at '01' is raised by
    # the first read below it, and reads elsewhere go on
    s = TableStrategy({"": (BitEvent(0, 1), F(1, 2)), "0": (BitEvent(1, 1), F(1, 4)), "01": (BitEvent(2, 1), F(5))})
    nu, mart = randlab.strategy_to_cantor(s, fair, 4)
    assert mart.capital("01") == F(3, 4) and nu.mass("01") == F(1, 4)
    for read in (lambda: mart.capital("010"), lambda: nu.mass("011"), lambda: randlab.check_fairness(mart, 4)):
        with pytest.raises(StrategyViolation, match="stake 5 exceeds capital 3/4 at '01'"):
            read()
    # '00' stopped betting: its win branch is itself, its loss branch null
    assert [mart.capital(h) for h in ("1", "00", "0011", "0010", "")] == [F(3, 2), F(1, 4), F(1, 4), None, 1]
    with pytest.raises(StrategyViolation):
        walk_strategy(s, fair, 4)


def test_walks_raise_the_parents_violation_first(fair):
    # over-stakes at '1' and at '0': a read below a node raises the node's
    # violation, and each audit raises the first one its walk reaches, where
    # the loss subtree comes first
    s = TableStrategy({"": (BitEvent(0, 1), F(1, 2)), "0": (BitEvent(1, 1), F(2)), "1": (BitEvent(1, 1), F(3))})
    nu, mart = randlab.strategy_to_cantor(s, fair, 3)
    for walk in (lambda: randlab.check_fairness(mart, 3), lambda: randlab.check_additivity(nu, 3), lambda: mart.capital("01")):
        with pytest.raises(StrategyViolation, match="stake 2 exceeds capital 1/2 at '0'$"):
            walk()
    for read in (lambda: mart.capital("10"), lambda: nu.mass("111")):
        with pytest.raises(StrategyViolation, match="stake 3 exceeds capital 3/2 at '1'$"):
            read()


class _CountingStrategy(BettingStrategy):
    """Bets a quarter of the capital on the next coordinate up to `stop`
    bits, counting the bets asked for."""

    def __init__(self, stop):
        self.stop, self.asked = stop, 0

    def bet(self, history, capital, knowledge, mu):
        self.asked += 1
        return (BitEvent(len(history), 1), capital / 4) if len(history) < self.stop else None


def test_transport_asks_each_history_once(fair):
    # a stopped node hands its win branch itself and is not asked again
    for stop, depth in ((0, 6), (2, 6), (6, 6)):
        s = _CountingStrategy(stop)
        _, mart = randlab.strategy_to_cantor(s, fair, depth)
        assert randlab.check_fairness(mart, depth).ok
        assert s.asked == 2 ** min(stop + 1, depth) - 1, stop
        assert mart.capital("1" * 8) == F(5, 4) ** min(stop, depth)


def test_knowledge_measure_and_capital_read_one_node_path(bern13):
    # the knowledge masses are the martingale's own nodes, read through its one
    # path cache, so a lexicographic sweep of both asks each of the 63 inner
    # histories for its bet once (share() asks bet() once)
    tree = walk_strategy(_CountingStrategy(6), bern13, 6)
    s = _CountingStrategy(6)
    nu, mart = randlab.strategy_to_cantor(s, bern13, 6)
    for h in sorted(tree):
        assert (nu.mass(h), mart.capital(h)) == (tree[h].knowledge.mass, tree[h].capital), h
    assert len(tree) == 127 and s.asked == 63


def test_a_null_base_raises_the_root_bet_at_every_read_below_it(fair):
    # the knowledge mass of a history is its node's, so a read below the root
    # of a null base resolves the root's bet, as the capital's read does
    nu, mart = randlab.strategy_to_cantor(BitAllInStrategy("0"), fair.scaled(0), 3)
    assert nu.mass("") == 0 and nu.split("") == F(1, 2)
    for read in (lambda: nu.mass("1"), lambda: mart.capital("1"), lambda: randlab.check_additivity(nu, 3), lambda: randlab.check_fairness(mart, 3)):
        with pytest.raises(StrategyViolation, match="conditionally null or sure event at ''"):
            read()


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_transport_and_classification_hold_one_path(bern13):
    # the 2^depth dict of nodes is gone: at depth 12 both peaked at 7.1 MB.
    # A pre-order sweep of the knowledge measure reads through the
    # martingale's one path cache
    strategy = LikelihoodRatioStrategy(randlab.fair_coin())

    def transport():
        assert randlab.check_fairness(randlab.strategy_to_cantor(strategy, bern13, 12)[1], 12).ok

    def classify():
        assert _profile(strategy, bern13, 12)[2] == 2**12 - 1

    assert _peak_mib(transport) < 1
    assert _peak_mib(classify) < 1


def _builtin_strategies():
    cylinder_sets = st.sampled_from([["00"], ["010", "11"], ["1"], []])
    return st.one_of(
        st.just(NullStrategy()),
        st.builds(BitAllInStrategy, st.text(alphabet="01", min_size=1, max_size=3)),
        st.builds(LikelihoodRatioStrategy, _split_tables()),
        _table_strategies(),
        cylinder_sets.map(lambda gens: randlab.doubling_strategy(gens, randlab.fair_coin())),
    )


def _outcome(call):
    try:
        return call()
    except (StrategyViolation, ZeroDivisionError) as exc:
        return repr(exc)


@given(
    _split_tables(),
    _builtin_strategies(),
    st.text(alphabet="01", max_size=4),
    st.one_of(st.sampled_from(_STARTS), st.fractions(-2, 3, max_denominator=6)),
)
@settings(max_examples=300, deadline=None)
@example(randlab.fair_coin(), BitAllInStrategy("0"), "", F(0))
@example(randlab.fair_coin(), BitAllInStrategy("0"), "", F(-1))
@example(randlab.bernoulli(F(1, 3)), LikelihoodRatioStrategy(randlab.fair_coin()), "01", F(0))
@example(randlab.bernoulli(F(1, 3)), LikelihoodRatioStrategy(randlab.fair_coin()), "", F(-1))
@example(randlab.fair_coin(), TableStrategy({"": (_BIT1, F(1, 2))}), "", F(0))  # a stake without a share
def test_share_form_agrees_with_bet(mu, strategy, history, capital):
    # the same event, and the stake bet() states is capital * share, or the
    # stake share() hands on where it states one
    knowledge = KnowledgeState((history,), mu.mass(history), (F(1),))
    shared = _outcome(lambda: strategy.share(history, capital, knowledge, mu))
    stated = _outcome(lambda: strategy.bet(history, capital, knowledge, mu))
    if shared is None or isinstance(shared, str):
        assert shared == stated
        return
    event, (n, d), stake = shared
    assert d > 0 and event == stated[0]
    assert F(stated[1]) == (capital * F(n, d) if stake is None else stake)
    if capital:
        assert capital * F(n, d) == F(stated[1])
    if isinstance(strategy, BitAllInStrategy):
        assert (event, stated[1]) == (BitEvent(len(history), int(strategy.sides[len(history) % len(strategy.sides)])), capital)


class _ShareTableStrategy(BettingStrategy):
    """A hand-built strategy that states its bets as shares of the capital:
    history -> (event, share)."""

    def __init__(self, nodes, start_capital):
        self.nodes, self.start_capital = nodes, start_capital

    def share(self, history, capital, knowledge, mu):
        decision = self.nodes.get(history)
        if decision is None:
            return None
        event, share = decision
        return event, (share.numerator, share.denominator), None


def _share_tables():
    """Share strategies that bet at the root, with shares that may be
    negative, 0, 1 or above 1, and start capitals below, at and above 0."""
    histories = st.text(alphabet="01", min_size=1, max_size=4)
    shares = st.one_of(st.sampled_from([F(-1), F(0), F(1), F(3, 2)]), st.fractions(-1, 3, max_denominator=4))
    bets = st.tuples(_events(), shares)
    return st.builds(
        lambda root, nodes, start: _ShareTableStrategy({"": root, **nodes}, start),
        bets,
        st.dictionaries(histories, bets, max_size=12),
        st.sampled_from(_STARTS),
    )


@given(_split_tables(), _share_tables(), _SAMPLES)
@settings(max_examples=200, deadline=None)
@example(randlab.fair_coin(), _ShareTableStrategy({"": (_BIT1, F(-1, 2))}, F(1)), "1")  # negative stake -1/2
@example(randlab.fair_coin(), _ShareTableStrategy({"": (_BIT1, F(3, 2))}, F(2)), "1")  # stake 3 exceeds capital 2
@example(randlab.fair_coin(), _ShareTableStrategy({"": (_BIT1, F(1, 2))}, F(-1)), "1")  # negative stake -1/2
@example(randlab.fair_coin(), _ShareTableStrategy({"": (_BIT1, F(-1, 2))}, F(-1)), "1")  # stake 1/2 exceeds capital -1
@example(randlab.fair_coin(), _ShareTableStrategy({"": (_BIT1, F(0))}, F(-1)), "1")  # stake 0 exceeds capital -1
@example(randlab.fair_coin(), _ShareTableStrategy({"": (_BIT1, F(5))}, F(0)), "1")  # stake 0 at capital 0 passes
@example(randlab.fair_coin(), _ShareTableStrategy({"": (_BIT1, F(1)), "0": (BitEvent(1, 1), F(-3))}, F(1)), "00")
def test_share_strategy_violations_match_the_stake_definition(mu, strategy, x):
    # the violations of stated shares are those of their stakes, capital *
    # share, read by _reference_play through bet()
    _assert_play_matches_reference(strategy, mu, x)


@given(
    _split_tables(),
    st.one_of(
        st.builds(LikelihoodRatioStrategy, _split_tables()),
        st.builds(BitAllInStrategy, st.text(alphabet="01", min_size=1, max_size=3)),
        _share_table_strategies(),
        _share_tables(),
    ),
    st.text(alphabet="01", max_size=14),
)
@settings(max_examples=200, deadline=None)
def test_max_attained_is_the_largest_value(mu, strategy, x):
    try:
        result = randlab.play(strategy, mu, x)
    except StrategyViolation:
        return  # a likelihood-ratio strategy refuses a degenerate base
    assert result.max_attained == max(result.values)


def test_max_attained_over_a_long_rising_play():
    # a fair model over a bernoulli(1/3) base on fair bits: the capital
    # rises by about (9/8)^(1/2) a step, with a new maximum every few steps
    rng = random.Random(3)
    x = "".join(rng.choice("01") for _ in range(1500))
    result = randlab.play(LikelihoodRatioStrategy(randlab.fair_coin()), randlab.bernoulli(F(1, 3)), x)
    assert len(result.values) == 1501
    assert result.max_attained == max(result.values) > result.values[0]


def _starting_at(strategy, start):
    """The strategy with its start capital (the class's is 1) set to start."""
    strategy.start_capital = start
    return strategy


_BERNOULLI = st.fractions(min_value=0, max_value=1, max_denominator=12).map(randlab.bernoulli)
_INNER_BERNOULLI = st.fractions(min_value=F(1, 12), max_value=F(11, 12), max_denominator=12).map(randlab.bernoulli)


@given(
    st.one_of(
        st.tuples(
            st.builds(_starting_at, st.builds(LikelihoodRatioStrategy, _BERNOULLI), st.sampled_from(_STARTS)),
            _INNER_BERNOULLI,
            st.text(alphabet="01", max_size=120),
        ),
        st.tuples(
            st.builds(
                _starting_at,
                st.builds(BitAllInStrategy, st.text(alphabet="01", min_size=1, max_size=3)),
                st.sampled_from(_STARTS),
            ),
            _split_tables(),
            _SAMPLES,
        ),
        st.tuples(st.one_of(_share_table_strategies(), _share_tables()), _split_tables(), _SAMPLES),
    )
)
@settings(max_examples=200, deadline=None)
@example((LikelihoodRatioStrategy(randlab.fair_coin()), randlab.bernoulli(F(1, 3)), "1101" * 25))
@example((_starting_at(LikelihoodRatioStrategy(randlab.bernoulli(F(1, 3))), F(5, 2)), randlab.bernoulli(F(2, 3)), "0110"))
@example((_starting_at(BitAllInStrategy("0"), F(1, 3)), randlab.fair_coin(), "0010"))  # busts at step 3, then learns
@example((TableStrategy({"": (_BIT1, F(1, 2)), "1": (BitEvent(1, 0), F(5))}, F(3)), randlab.fair_coin(), "11"))  # over-stake
@example((TableStrategy({"": (_BIT1, F(1, 3)), "1": (BitEvent(5, 0), F(1, 4))}), randlab.fair_coin(), "11"))  # undetermined
@example((_ShareTableStrategy({"": (_BIT1, F(-1))}, F(0)), randlab.bernoulli(F(1, 3)), "1"))  # 0 won at factor -1
@example((_ShareTableStrategy({"": (_BIT1, F(5))}, F(0)), randlab.fair_coin(), "0"))  # 0 lost at factor -4
def test_capital_digits_step_the_play_values(play_args):
    # the capital trace's digits come from the start capital stepped through
    # play's factors, not from the values; they must print the same pairs
    from randlab.cli import _capital_digits

    try:
        result = randlab.play(*play_args)
    except StrategyViolation:
        return  # a likelihood-ratio strategy refuses a degenerate base
    assert len(result.factors) == len(result.values) - 1
    digits = list(_capital_digits(result.values[0], result.factors))
    assert digits == [(str(v.numerator), str(v.denominator)) for v in result.values]


def test_capital_digits_context_never_rounds():
    import decimal

    from randlab.cli import _exact_context

    exact = _exact_context()
    assert exact.traps[decimal.Inexact] and exact.traps[decimal.Rounded]
    assert exact.prec == decimal.MAX_PREC
    with pytest.raises(decimal.Inexact):
        exact.to_integral_exact(decimal.Decimal("5.5"))
