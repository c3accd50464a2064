import itertools
import random
from fractions import Fraction

import pytest

import randlab
from randlab import PreconditionError
from randlab.betting import (
    BitAllInStrategy,
    BitEvent,
    CylinderEvent,
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
