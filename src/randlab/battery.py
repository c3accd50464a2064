"""Built-in measure families and the five-martingale audit battery.

Every battery martingale starts with unit capital, which is what makes the
level-mass bound of converted tests exact at the boundary.
"""

from . import cells
from .martingale import Martingale, from_measures
from .measure import Measure, bernoulli, fair_coin, interleave_product, split_table
from .rationals import RAT


def all_in_on_bit(mu: Measure, side: int) -> Martingale:
    """Stake everything on the same bit value at every step."""
    degenerate = split_table({}, default=RAT(1 if side == 1 else 0))
    m = from_measures(degenerate, mu)
    m.label = f"all_in_on_{side}"
    return m


def builtin_measures() -> dict:
    """The measure families exercised by the audits."""
    return {
        "fair_coin": fair_coin(),
        "bernoulli(1/3)": bernoulli(RAT(1, 3)),
        "bernoulli(2/3)": bernoulli(RAT(2, 3)),
        "bernoulli(3/4)": bernoulli(RAT(3, 4)),
        "split_mix": split_table({"": RAT(1, 3), "1": RAT(3, 4), "10": RAT(1, 5)}),
        "interleave(fair,fair)": interleave_product(fair_coin(), fair_coin()),
        "push(binary)": cells.binary_digits().pushforward(),
        "push(bary3)": cells.bary_grouped(3).pushforward(),
    }


def battery() -> dict:
    """The five martingales every exhaustive audit runs over."""
    fair = fair_coin()
    mix = split_table({"": RAT(1, 3), "1": RAT(3, 4), "10": RAT(1, 5)})
    out = {
        "all_in_on_0": all_in_on_bit(fair, 0),
        "identity": from_measures(fair_coin(), fair, label="identity"),
        "lr_bern23_vs_fair": from_measures(bernoulli(RAT(2, 3)), fair),
        "lr_fair_vs_bern13": from_measures(fair_coin(), bernoulli(RAT(1, 3))),
        "lr_mix_vs_fair": from_measures(mix, fair),
    }
    return out
