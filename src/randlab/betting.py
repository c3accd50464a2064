"""Staged betting on decidable events of the binary tree with exact fair odds.

A strategy is asked, per win/loss history, which event it bets on and how
much; knowledge states are tracked as prefix-free cylinder unions, so every
conditional probability and payoff stays an exact rational.  Strategies may
bet on single coordinates out of order (nonmonotonic bit betting) or on
arbitrary cylinder unions; a bet on a fresh coordinate pays the ratio of the
conditional mass of the losing side to the winning side.
"""

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd
from typing import Optional

from . import bits
from .errors import (
    PreconditionError,
    ResourceLimitError,
    StrategyViolation,
    check_enumeration_depth,
    enumeration_limit,
)
from .martingale import Martingale
from .measure import FrozenRecord, Measure, Record, from_masses
from .randtests import CylinderSet
from .rationals import ONE, RAT, ZERO


class BitEvent(FrozenRecord):
    """The event that coordinate `index` equals `side`."""

    def __init__(self, index: int, side: int):
        self.__dict__.update(index=index, side=side)

    def describe(self) -> str:
        return f"bit[{self.index}]={self.side}"


class CylinderEvent(FrozenRecord):
    """A union of cylinders given by prefix-free generators."""

    def __init__(self, generators: tuple):
        self.__dict__.update(generators=generators)

    def describe(self) -> str:
        return "cyl{" + ",".join(self.generators) + "}"


def _side(knowledge: "KnowledgeState", event, mu: Measure, won: bool, limit: Optional[int] = None):
    """The part of a knowledge set where the event holds (won) or fails, as
    (generators, weights, q): the part's generators, each one's weight given
    the part (None where the part is null), and q, the part's weight given
    the set, an int pair (num, den).  limit is the depth cap, read here
    where the caller does not pass it.

    A bet on the next coordinate of a single cylinder g, as every monotone
    bit strategy makes, has the one generator g + bit of weight 1, and q is
    mu's split at g read once; every other bet goes through _walk_side.
    """
    gens = knowledge.generators
    if isinstance(event, BitEvent) and len(gens) == 1 and event.index == len(gens[0]):
        _check_expansion(event, 2, limit)
        s, bit = mu.split(gens[0]), event.side if won else 1 - event.side
        qn, qd = s.numerator if bit else s.denominator - s.numerator, s.denominator
        return (gens[0] + "01"[bit],), (ONE,) if qn else None, (qn, qd)
    return _walk_side(knowledge, event, mu, won, limit)


def _check_expansion(event: BitEvent, cost: int, limit: Optional[int]):
    if cost > (1 << (enumeration_limit() if limit is None else limit)):
        raise ResourceLimitError(f"restricting bit {event.index} would expand the knowledge set {cost}-fold")


def _walk_side(knowledge: "KnowledgeState", event, mu: Measure, won: bool, limit: Optional[int]):
    """_side of any bet, by a walk over the side's generators.

    A generator's weight is the weight of the knowledge generator above it
    times the measure's splits between the two, so no cylinder mass is read
    and no two masses are divided; generators in a row share the products
    and the splits along their common prefix.
    """
    gens = knowledge.generators
    if isinstance(event, BitEvent):
        # fresh generators shorter than the coordinate get expanded 2^gap-fold
        _check_expansion(event, sum(1 << max(0, event.index + 1 - len(g)) for g in gens), limit)
        side = bits.restrict_bit(gens, event.index, event.side if won else 1 - event.side)
    elif isinstance(event, CylinderEvent):
        side = (bits.intersect if won else bits.subtract)(gens, event.generators)
    else:
        raise _unknown_event(event)
    weights, qn, qd, last = [], 0, 1, None
    for h in side:
        # knowledge sets are prefix-free, canonical and sorted, so the one
        # knowledge generator above h is the last one not after it
        i = bisect_right(gens, h) - 1
        if i != last:  # path[k]: [num, den] of the weight of h[:top + k], then its split
            w, last, top = knowledge.weights[i], i, len(gens[i])
            path = [[w.numerator, w.denominator]]
        else:  # keep the path down to where h parts from the last generator
            del path[next(j for j in range(len(h)) if h[j] != prev[j]) - top + 1 :]
        for j in range(top + len(path) - 1, len(h)):
            if not path[-1][0]:
                break  # as in Measure.mass, no split is read below a null cylinder
            if len(path[-1]) == 2:
                path[-1].append(mu.split(h[:j]))
            n, d, s = path[-1]
            path.append([n * s.numerator if h[j] == "1" else n * (s.denominator - s.numerator), d * s.denominator])
        (n, d, *_), prev = path[-1], h
        weights.append((n, d))
        g = gcd(d, qd)
        qn, qd = qn * (d // g) + n * (qd // g), qd // g * d
    return side, tuple(RAT(n * qd, d * qn) for n, d in weights) if qn else None, (qn, qd)


def _unknown_event(event) -> PreconditionError:
    return PreconditionError(f"unknown event type {type(event).__name__}")


def _membership(event, x: str):
    """Does the sample with prefix x lie in the event? True/False/None."""
    if isinstance(event, BitEvent):
        if event.index >= len(x):
            return None
        return int(x[event.index]) == event.side
    if isinstance(event, CylinderEvent):
        return bits.member_prefix(event.generators, x)
    raise _unknown_event(event)


class KnowledgeState(Record):
    """Information accumulated along a win/loss history: the set's generators,
    its mass, and each generator's conditional weight (its mass over the
    set's mass)."""

    def __init__(self, generators: tuple, mass: Fraction, weights: tuple):
        self.generators, self.mass, self.weights = generators, mass, weights


class BettingStrategy:
    """Base class: subclasses answer bet() with an (event, stake) pair or None.

    Returning None ends betting on that history branch; capital and knowledge
    freeze from then on.  A subclass may instead state its stake as a share
    of the capital, as in Kolmogorov-Loveland betting, by overriding share();
    the bet loop reads only share().
    """

    start_capital = ONE

    def bet(self, history: str, capital: Fraction, knowledge: KnowledgeState, mu: Measure):
        """(event, stake) or None; here read off share(), stake = capital * share."""
        decision = self.share(history, capital, knowledge, mu)
        return decision and (decision[0], capital * RAT(*decision[1]))

    def share(self, history: str, capital: Fraction, knowledge: KnowledgeState, mu: Measure):
        """The bet as (event, share, stake) or None: share is the stake over
        the capital as an int pair (num, den), den > 0, and stake the stake
        bet() states, or None where it is capital * share.  A stake at a
        capital of 0 has no share: the share is 0 and the stake is checked."""
        if type(self).bet is BettingStrategy.bet:  # the two defaults would call each other
            raise PreconditionError(f"{type(self).__name__} overrides neither bet() nor share()")
        decision = self.bet(history, capital, knowledge, mu)
        if decision is None:
            return None
        event, stake = decision[0], RAT(decision[1])
        share = stake / capital if capital else ZERO
        return event, (share.numerator, share.denominator), stake


class NullStrategy(BettingStrategy):
    """Never bets; capital stays put and nothing is learned."""

    def bet(self, history, capital, knowledge, mu):
        return None


class TableStrategy(BettingStrategy):
    """Explicit decision table: history -> (event, stake)."""

    def __init__(self, nodes: dict, start_capital=ONE):
        self.nodes = dict(nodes)
        self.start_capital = RAT(start_capital)

    def bet(self, history, capital, knowledge, mu):
        return self.nodes.get(history)


class BitAllInStrategy(BettingStrategy):
    """Bets the whole current capital on successive coordinates.

    sides is cycled to pick the predicted value of each coordinate; after a
    bust the stakes are zero but knowledge keeps refining bit by bit.
    """

    def __init__(self, sides: str = "0"):
        if not sides or any(ch not in "01" for ch in sides):
            raise PreconditionError("sides must be a nonempty binary string")
        self.sides = sides

    def share(self, history, capital, knowledge, mu):
        k = len(history)
        return BitEvent(k, int(self.sides[k % len(self.sides)])), (1, 1), None


class LikelihoodRatioStrategy(BettingStrategy):
    """Monotone bit betting that replicates the model/base quotient martingale.

    It bets on coordinates 0, 1, 2, ... in order, so after k bets its
    knowledge set is the single cylinder of the k bits seen; it keeps no
    per-history state.
    """

    def __init__(self, model: Measure):
        self.model = model

    def share(self, history, capital, knowledge, mu):
        (prefix,) = knowledge.generators
        # the knowledge set is [prefix], so its mass is mu.mass(prefix)
        if knowledge.mass == 0 or not 0 < (s := mu.split(prefix)).numerator < s.denominator:
            raise StrategyViolation(f"base measure degenerate after {prefix!r}")
        null = self.model.is_null(prefix)
        t = ZERO if null else self.model.split(prefix)
        (sn, sd), (tn, td) = (s.numerator, s.denominator), (t.numerator, t.denominator)
        # the model/base ratio on side 1, t/s, is at least the one on side 0,
        # (1-t)/(1-s), exactly when t >= s; a null model cylinder makes both
        # ratios 0 and the tie goes to side 1.  The share that turns capital
        # into capital * ratio is (ratio - 1) * p / (1 - p).
        if null or tn * sd >= sn * td:
            return BitEvent(len(prefix), 1), (tn * sd - sn * td, td * (sd - sn)), None
        return BitEvent(len(prefix), 0), (sn * td - tn * sd, sn * td), None


class DoublingStrategy(BettingStrategy):
    """Bets through the generators of a target cylinder set in order, staking
    exactly enough to lift capital to the target (2) on a win."""

    def __init__(self, target_set: CylinderSet, mu: Measure):
        self.target_set = target_set
        total = target_set.mass(mu)
        if total > RAT(1, 2):
            raise PreconditionError(f"target set mass {total} exceeds 1/2")
        for g in target_set.generators:
            if mu.mass(g) == 0:
                raise PreconditionError(f"target generator {g!r} has zero mass")

    def bet(self, history, capital, knowledge, mu):
        if "1" in history:
            return None  # already won
        k = len(history)
        gens = self.target_set.generators
        if k >= len(gens):
            return None  # nothing left to chase
        event = CylinderEvent(generators=(gens[k],))
        pn, pd = _side(knowledge, event, mu, True)[2]
        return (event, (2 - capital) * RAT(pn, pd - pn))


def doubling_strategy(target, mu: Measure) -> DoublingStrategy:
    """Build the capital-doubling strategy for a cylinder set of mass <= 1/2."""
    if not isinstance(target, CylinderSet):
        target = CylinderSet.from_strings(target)
    return DoublingStrategy(target, mu)


class _Node(Record):
    def __init__(self, history: str, knowledge: KnowledgeState, capital: Fraction):
        self.history, self.knowledge, self.capital = history, knowledge, capital


class StrategyKernel:
    """A strategy's history tree as a tree kernel: payloads are _Nodes (None
    is null), read as the knowledge mass and the capital.  children() asks for
    the bet at a node and resolves both sides in one resolve() call, the
    resolver play uses;
    a node that stopped betting (no bet, or the depth reached) hands its win
    branch itself and its loss branch the null payload.  A bad bet raises
    StrategyViolation where a read first reaches it."""

    def __init__(self, strategy: BettingStrategy, mu: Measure, depth: int):
        self.strategy, self.mu, self.depth = strategy, mu, depth
        self._limit, self._rational = None, lru_cache(maxsize=64)(RAT)  # the depth cap, read at the first bet

    def root(self) -> _Node:
        return _Node(history="", knowledge=KnowledgeState(("",), self.mu.mass(""), (ONE,)), capital=self.strategy.start_capital)

    def resolve(self, history: str, knowledge, capital, event, share, stake, sides):
        """Validate a share() decision at a history and resolve each of the sides
        (True: won): its knowledge state, its capital and its capital factor,
        1 + share * payoff on a win and 1 - share on a loss.  Returns
        [(knowledge, capital, factor), ...]: with p the event's probability
        given the knowledge set, payoff = (1-p)/p is the fair winnings per unit
        staked; the factors are int pairs.  The depth cap is read at the first
        bet, and the rational of each recent int pair is built once."""
        (sn, sd), cn = share, capital.numerator
        # at capital <= 0 only a zero stake passes, and its share is 0
        if not (0 <= sn <= sd if cn > 0 else cn == 0 and not stake):
            stake = capital * RAT(sn, sd) if stake is None else stake
            if stake < 0:
                raise StrategyViolation(f"negative stake {stake} at {history!r}")
            raise StrategyViolation(f"stake {stake} exceeds capital {capital} at {history!r}")
        if self._limit is None:
            self._limit = enumeration_limit()
        rational, resolved = self._rational, []
        for won in sides:
            gens, weights, (qn, qd) = _side(knowledge, event, self.mu, won, self._limit)
            if knowledge.mass == 0 or qn == 0 or qn == qd:
                raise StrategyViolation(f"bet on a conditionally null or sure event at {history!r}: {event.describe()}")
            pn, pd = (qn, qd) if won else (qd - qn, qd)
            factor = (sd * pn + sn * (pd - pn), sd * pn) if won else (sd - sn, sd)
            side = KnowledgeState(gens, knowledge.mass * rational(qn, qd), weights)
            resolved.append((side, capital * rational(*factor), factor))
        return resolved

    def children(self, sigma: str, node):
        # a stopped node handed on as its own win branch is not asked again
        if node is not None and len(sigma) == len(node.history) < self.depth:
            decision = self.strategy.share(node.history, node.capital, node.knowledge, self.mu)
            if decision is not None:
                (win, win_capital, _), (lose, lose_capital, _) = self.resolve(
                    node.history, node.knowledge, node.capital, *decision, (True, False)
                )
                return _Node(node.history + "0", lose, lose_capital), _Node(node.history + "1", win, win_capital)
        return None, node

    def read_pair(self, node):
        if node is None:
            return 0, 1, None, 1
        m, c = node.knowledge.mass, node.capital
        return m.numerator, m.denominator, c.numerator, c.denominator


class PlayResult(Record):
    """One play of a strategy against a concrete sample.  factors[k] is step
    k's capital factor as an int pair (num, den), not always in lowest terms;
    equal pairs are one tuple, and values rebuilds the capitals from start."""

    def __init__(self, history, start, final, max_attained, factors, events, undetermined=False, violation=None):
        self.history, self.start, self.final, self.max_attained = history, start, final, max_attained
        self.factors, self.events, self.undetermined, self.violation = factors, events, undetermined, violation

    @property
    def values(self) -> list:
        return list(accumulate(self.factors, lambda v, f: v * RAT(*f), initial=self.start))


def play(strategy: BettingStrategy, mu: Measure, x: str) -> PlayResult:
    """Run the strategy against a bit string, at most one bet per bit; stops
    at a win/loss the string cannot decide."""
    kernel = StrategyKernel(strategy, mu, len(x))
    root, factors, events = kernel.root(), [], []
    history, knowledge, capital, start = root.history, root.knowledge, root.capital, root.capital
    seen = {}  # each factor pair once, so a bet that repeats its factors holds a few tuples
    best, rn, rd = start, 1, 1  # rn/rd: the capital over best, the product of the factors since
    for _ in range(len(x)):
        decision = strategy.share(history, capital, knowledge, mu)
        if decision is None:
            break
        outcome = _membership(decision[0], x)
        if outcome is None:
            return PlayResult(history, start, capital, best, factors, events, undetermined=True)
        try:
            ((knowledge, capital, factor),) = kernel.resolve(history, knowledge, capital, *decision, (outcome,))
        except StrategyViolation as exc:
            return PlayResult(history, start, capital, best, factors, events, violation=str(exc))
        history += "1" if outcome else "0"
        fn, fd = factor = seen.setdefault(factor, factor)
        rn, rd = rn * fn, rd * fd
        if rn > rd:
            best, rn, rd = capital, 1, 1
        factors.append(factor)
        events.append(decision[0].describe())
    return PlayResult(history, start, capital, best, factors, events)


def strategy_to_cantor(strategy: BettingStrategy, mu: Measure, depth: int):
    """Reread a strategy as a measure on histories plus a martingale over it,
    both read off the nodes of one StrategyKernel through one path cache.

    The martingale is the capital; the measure gives each history the mass
    of its knowledge set (0 at a null history), so beyond a terminal node the
    win branch keeps the whole mass (a stopped gambler formally bets on the
    whole space) and the capital is fair against it.  Nothing is walked up
    front: a bad bet raises StrategyViolation at the first read or audit that
    reaches its history.
    """
    check_enumeration_depth(depth)
    name = type(strategy).__name__
    mart = Martingale(None, label=f"capital({name})", kernel=StrategyKernel(strategy, mu, depth))
    mart.base = from_masses(lambda h: ZERO if (node := mart.payload(h)) is None else node.knowledge.mass, label=f"knowledge({name})")
    return mart.base, mart
