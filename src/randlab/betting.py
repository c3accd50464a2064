"""Staged betting on decidable events of the binary tree with exact fair odds.

A strategy is asked, per win/loss history, which event it bets on and how
much; knowledge states are tracked as prefix-free cylinder unions, so every
conditional probability and payoff stays an exact rational.  Strategies may
bet on single coordinates out of order (nonmonotonic bit betting) or on
arbitrary cylinder unions; a bet on a fresh coordinate pays the ratio of the
conditional mass of the losing side to the winning side.
"""

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import bits
from .errors import (
    PreconditionError,
    ResourceLimitError,
    StrategyViolation,
    check_enumeration_depth,
    enumeration_limit,
)
from .martingale import Martingale, _PairKernel
from .measure import Measure, PathCache
from .randtests import CylinderSet
from .rationals import HALF, ONE, RAT, ZERO


@dataclass(frozen=True)
class BitEvent:
    """The event that coordinate `index` equals `side`."""

    index: int
    side: int

    def describe(self) -> str:
        return f"bit[{self.index}]={self.side}"


@dataclass(frozen=True)
class CylinderEvent:
    """A union of cylinders given by prefix-free generators."""

    generators: tuple

    def describe(self) -> str:
        return "cyl{" + ",".join(self.generators) + "}"


def _side(knowledge: "KnowledgeState", event, mu: Measure, won: bool):
    """The part of a knowledge set where the event holds (won) or fails: its
    knowledge state (None where it is null) and q, its weight given the set.

    A generator's weight is the weight of the knowledge generator above it
    times the measure's splits between the two, so no cylinder mass is read
    and no two masses are divided.
    """
    gens = knowledge.generators
    if isinstance(event, BitEvent):
        # fresh generators shorter than the coordinate get expanded 2^gap-fold
        cost = sum(1 << max(0, event.index + 1 - len(g)) for g in gens)
        if cost > (1 << enumeration_limit()):
            raise ResourceLimitError(
                f"restricting bit {event.index} would expand the knowledge set {cost}-fold"
            )
        side = bits.restrict_bit(gens, event.index, event.side if won else 1 - event.side)
    elif isinstance(event, CylinderEvent):
        side = (bits.intersect if won else bits.subtract)(gens, event.generators)
    else:
        raise PreconditionError(f"unknown event type {type(event).__name__}")
    weights = []
    for h in side:
        # knowledge sets are prefix-free, canonical and sorted, so the one
        # knowledge generator above h is the last one not after it
        i = bisect_right(gens, h) - 1
        g, w = gens[i], knowledge.weights[i]
        for j in range(len(g), len(h)):
            if not w:
                break  # as in Measure.mass, no split is read below a null cylinder
            s = mu.split(h[:j])
            w = w * s if h[j] == "1" else w * (1 - s)
        weights.append(w)
    q = sum(weights, ZERO)
    return (KnowledgeState(side, knowledge.mass * q, tuple(w / q for w in weights)) if q else None), q


def _membership(event, x: str):
    """Does the sample with prefix x lie in the event? True/False/None."""
    if isinstance(event, BitEvent):
        if event.index >= len(x):
            return None
        return int(x[event.index]) == event.side
    return bits.member_prefix(event.generators, x)


@dataclass
class KnowledgeState:
    """Information accumulated along a win/loss history: the set's generators,
    its mass, and each generator's conditional weight (its mass over the
    set's mass)."""

    generators: tuple
    mass: Fraction
    weights: tuple


class BettingStrategy:
    """Base class: subclasses answer bet() with an (event, stake) pair or None.

    Returning None ends betting on that history branch; capital and knowledge
    freeze from then on.
    """

    start_capital = ONE

    def bet(self, history: str, capital: Fraction, knowledge: KnowledgeState, mu: Measure):
        raise NotImplementedError


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

    def __init__(self, sides: str = "0", start_capital=ONE):
        if not sides or any(ch not in "01" for ch in sides):
            raise PreconditionError("sides must be a nonempty binary string")
        self.sides = sides
        self.start_capital = RAT(start_capital)

    def bet(self, history, capital, knowledge, mu):
        k = len(history)
        side = int(self.sides[k % len(self.sides)])
        return (BitEvent(k, side), capital)


class LikelihoodRatioStrategy(BettingStrategy):
    """Monotone bit betting that replicates the model/base quotient martingale.

    It bets on coordinates 0, 1, 2, ... in order, so after k bets its
    knowledge set is the single cylinder of the k bits seen; it keeps no
    per-history state.
    """

    def __init__(self, model: Measure, start_capital=ONE):
        self.model = model
        self.start_capital = RAT(start_capital)

    def bet(self, history, capital, knowledge, mu):
        (prefix,) = knowledge.generators
        # the knowledge set is [prefix], so its mass is mu.mass(prefix)
        if knowledge.mass == 0 or (s := mu.split(prefix)) == 0 or s == 1:
            raise StrategyViolation(f"base measure degenerate after {prefix!r}")
        t = self.model.conditional(prefix, 1)
        # the model/base ratio on side 1, t/s, is at least the one on side 0,
        # (1-t)/(1-s), exactly when t >= s; a null model cylinder makes both
        # ratios 0 and the tie goes to side 1.  The stake that turns capital
        # into capital * ratio is capital * (ratio - 1) * p / (1 - p).
        if t is None or t >= s:
            return (BitEvent(len(prefix), 1), capital * (((t or ZERO) - s) / (1 - s)))
        return (BitEvent(len(prefix), 0), capital * ((s - t) / s))


class DoublingStrategy(BettingStrategy):
    """Bets through the generators of a target cylinder set in order, staking
    exactly enough to lift capital to the target (2) on a win."""

    def __init__(self, target_set: CylinderSet, mu: Measure, target=2, start_capital=ONE):
        self.target_set = target_set
        self.target = RAT(target)
        self.start_capital = RAT(start_capital)
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
        p = _side(knowledge, event, mu, True)[1]
        stake = (self.target - capital) * p / (1 - p)
        return (event, stake)


def doubling_strategy(target, mu: Measure) -> DoublingStrategy:
    """Build the capital-doubling strategy for a cylinder set of mass <= 1/2."""
    if not isinstance(target, CylinderSet):
        target = CylinderSet.from_strings(target)
    return DoublingStrategy(target, mu)


def kl_payoff(mu: Measure, known, target: int, side: int) -> Optional[Fraction]:
    """Per-unit winnings for betting that coordinate `target` equals `side`
    after the coordinates in `known` (pairs (index, bit)) have been revealed.

    None when the conditioning event or the chosen side is null.
    """
    known = dict(known)
    if target in known:
        raise PreconditionError(f"coordinate {target} was already revealed")
    # the conditional odds a bet reads: every restriction goes through _side
    knowledge = KnowledgeState(("",), mu.mass(""), (ONE,))
    for index, bit in [*sorted(known.items()), (target, side)]:
        knowledge, q = _side(knowledge, BitEvent(index, bit), mu, True)
        if q == 0 or knowledge.mass == 0:
            return None
    return (1 - q) / q


@dataclass
class _Node:
    history: str
    knowledge: KnowledgeState
    capital: Fraction
    event: object = None
    stake: Optional[Fraction] = None
    conditional: Optional[Fraction] = None
    payoff: Optional[Fraction] = None

    @property
    def terminal(self) -> bool:
        return self.event is None


def _resolve_bet(node: _Node, event, stake, mu: Measure, won: bool):
    """Validate a bet and build the successor on the side it resolved to.

    Returns (p, payoff, successor): p is the event's probability given the
    knowledge set, payoff = (1-p)/p the fair winnings per unit staked.
    """
    stake, capital = RAT(stake), node.capital
    if stake < 0:
        raise StrategyViolation(f"negative stake {stake} at {node.history!r}")
    # the stake is read once as a share of the capital, so the successor's
    # capital is the capital times one small factor; at capital <= 0 only a
    # zero stake passes, and its share is 0
    share = stake / capital if capital > 0 else ZERO
    if (share > 1) if capital > 0 else (stake > capital):
        raise StrategyViolation(f"stake {stake} exceeds capital {capital} at {node.history!r}")
    knowledge, q = _side(node.knowledge, event, mu, won)
    if node.knowledge.mass == 0 or q == 0 or q == 1:
        raise StrategyViolation(
            f"bet on a conditionally null or sure event at {node.history!r}: {event.describe()}"
        )
    p = q if won else 1 - q
    payoff = (1 - p) / p
    successor = _Node(
        history=node.history + ("1" if won else "0"),
        knowledge=knowledge,
        capital=capital * (1 + share * payoff) if won else capital * (1 - share),
    )
    return p, payoff, successor


class StrategyKernel(_PairKernel):
    """A strategy's history tree as a tree kernel: payloads are _Nodes (None
    is null), read as the knowledge mass and the capital.  children() asks for
    the bet at a node and resolves both sides with _resolve_bet, as play does;
    a node that stopped betting (no bet, or the depth reached) hands its win
    branch itself and its loss branch the null payload.  A bad bet raises
    StrategyViolation where a read first reaches it."""

    def __init__(self, strategy: BettingStrategy, mu: Measure, depth: int):
        self.strategy, self.mu, self.depth = strategy, mu, depth
        self._nodes = PathCache(self.root())

    def root(self) -> _Node:
        return _Node(history="", knowledge=KnowledgeState(("",), self.mu.mass(""), (ONE,)), capital=self.strategy.start_capital)

    def children(self, sigma: str, node):
        # a stopped node handed on as its own win branch is not asked again
        if node is not None and len(sigma) == len(node.history) < self.depth:
            decision = self.strategy.bet(node.history, node.capital, node.knowledge, self.mu)
            if decision is not None:
                event, stake = decision
                p, payoff, win = _resolve_bet(node, event, stake, self.mu, True)
                lose = _resolve_bet(node, event, stake, self.mu, False)[2]
                node.event, node.stake, node.conditional, node.payoff = event, stake, p, payoff
                return lose, win
        return None, node

    def read_pair(self, node):
        if node is None:
            return 0, 1, None, 1
        m, c = node.knowledge.mass, node.capital
        return m.numerator, m.denominator, c.numerator, c.denominator

    def split(self, sigma: str):
        """The knowledge measure's split at sigma (1 where betting stopped),
        read through the kernel's own one-path cache of nodes."""
        self._nodes.read(sigma + "1", self.children)  # resolves the bet at sigma
        node = self._nodes.read(sigma, self.children)
        if node is None or node.knowledge.mass == 0:
            return HALF
        return ONE if node.terminal else node.conditional


def _preorder(strategy: BettingStrategy, mu: Measure, depth: int):
    """The history tree's nodes to the depth, each once its bet is resolved:
    a node's bet, then its win subtree, then its loss subtree, so the first
    StrategyViolation raised is the parent's.  The walk holds only its stack."""
    check_enumeration_depth(depth)
    kernel = StrategyKernel(strategy, mu, depth)
    stack = [kernel.root()]
    while stack:
        node = stack.pop()
        lose, win = kernel.children(node.history, node)
        yield node
        if not node.terminal:
            stack += (lose, win)


def walk_strategy(strategy: BettingStrategy, mu: Measure, depth: int) -> dict:
    """The history tree to the depth as a dict history -> node, terminal
    nodes where the strategy stopped betting; raises StrategyViolation if it
    breaks the no-debt or non-degenerate-event rules anywhere in the tree."""
    return {node.history: node for node in _preorder(strategy, mu, depth)}


@dataclass
class PlayResult:
    """One play of a strategy against a concrete sample."""

    history: str
    values: list
    events: list
    knowledge_masses: list
    undetermined: bool = False
    violation: Optional[str] = None

    @property
    def final(self) -> Fraction:
        return self.values[-1]

    @property
    def max_attained(self) -> Fraction:
        return max(self.values)


def play(strategy: BettingStrategy, mu: Measure, x, max_steps: Optional[int] = None) -> PlayResult:
    """Run the strategy against a sample (a bit string, or a rational named
    through binary digits); stops at a win/loss the sample cannot decide."""
    if not isinstance(x, str):
        from .cells import binary_digits

        depth = max_steps if max_steps is not None else enumeration_limit()
        x = binary_digits().resolved_name(x, depth)
    if max_steps is None:
        max_steps = len(x)
    node = StrategyKernel(strategy, mu, max_steps).root()
    values = [node.capital]
    events, masses = [], [node.knowledge.mass]
    for _ in range(max_steps):
        decision = strategy.bet(node.history, node.capital, node.knowledge, mu)
        if decision is None:
            break
        event, stake = decision
        outcome = _membership(event, x)
        if outcome is None:
            return PlayResult(node.history, values, events, masses, undetermined=True)
        try:
            _, _, node = _resolve_bet(node, event, stake, mu, outcome)
        except StrategyViolation as exc:
            return PlayResult(node.history, values, events, masses, violation=str(exc))
        values.append(node.capital)
        events.append(event.describe())
        masses.append(node.knowledge.mass)
    return PlayResult(node.history, values, events, masses)


def strategy_to_cantor(strategy: BettingStrategy, mu: Measure, depth: int):
    """Reread a strategy as a measure on histories plus a martingale over it,
    both read off one StrategyKernel.

    The measure gives each history the mass of its knowledge set; beyond a
    terminal node the win branch keeps the whole mass (a stopped gambler
    formally bets on the whole space).  The martingale is the capital, fair
    against that measure.  Nothing is walked up front: a bad bet raises
    StrategyViolation at the first read or audit that reaches its history.
    """
    check_enumeration_depth(depth)
    kernel, name = StrategyKernel(strategy, mu, depth), type(strategy).__name__
    nu = Measure(kernel.split, mu.mass(""), label=f"knowledge({name})")
    return nu, Martingale(nu, label=f"capital({name})", kernel=kernel)


@dataclass
class StrategyProfile:
    balanced: bool
    exhaustive_trend: Fraction
    bets_audited: int


def classify_strategy(strategy: BettingStrategy, mu: Measure, depth: int) -> StrategyProfile:
    """Balanced iff every audited bet is a conditional-half event; the trend is
    the largest knowledge mass still held at the audit frontier."""
    balanced, bets, trend = True, 0, ZERO
    for node in _preorder(strategy, mu, depth):
        if node.terminal:
            trend = max(trend, node.knowledge.mass)
        else:
            bets += 1
            balanced = balanced and node.conditional == HALF
    return StrategyProfile(balanced=balanced, exhaustive_trend=trend, bets_audited=bets)


def strategy_to_interval_morphism(strategy: BettingStrategy, mu: Measure, depth: int) -> dict:
    """Map each history's knowledge set to an interval of matching length:
    the root goes to (0,1) and each split hands the loss branch the left part."""
    intervals = {"": (ZERO, ONE)}
    for node in _preorder(strategy, mu, depth):
        if not node.terminal:
            a, b = intervals[node.history]
            cut = a + node.knowledge.mass * (1 - node.conditional)  # the loss branch's mass
            intervals[node.history + "0"], intervals[node.history + "1"] = (a, cut), (cut, b)
    return intervals
