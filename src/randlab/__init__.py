"""Exact-rational laboratory for randomness notions on the binary tree:
computable measures, martingales, test conversions, cell decompositions of
the unit interval, betting strategies and prefix-free machines.  Everything
is finite-depth and every identity is checked with exact rational arithmetic.
"""

from .errors import (
    ConstructionError,
    PreconditionError,
    RandlabError,
    ResourceLimitError,
    SpecParseError,
    StrategyViolation,
)
from .measure import (
    AuditReport,
    Measure,
    bernoulli,
    check_additivity,
    fair_coin,
    from_masses,
    interleave_product,
    measures_agree,
    split_table,
)
from .martingale import (
    CapitalTrace,
    Martingale,
    SavingsMartingale,
    VilleReport,
    check_fairness,
    from_measures,
    run,
    savings_transform,
    table_martingale,
    to_measure,
    ville_audit,
)
from .randtests import (
    BoundedMLTest,
    CylinderSet,
    IntegralStep,
    MLTest,
    VitaliTest,
    bounded_ml_to_vitali,
    check_coverage_transfer,
    integral_to_bounded_ml,
    integral_to_martingale,
    martingale_to_integral,
    verify_test_bounds,
    vitali_to_integral,
)
from .cells import (
    CellDecomposition,
    Region,
    RefinementRelation,
    bary_grouped,
    binary_digits,
    decompose_open,
    interleave,
    natural,
    refine,
    transfer_measure,
)
from .betting import (
    BettingStrategy,
    BitAllInStrategy,
    BitEvent,
    CylinderEvent,
    DoublingStrategy,
    KnowledgeState,
    LikelihoodRatioStrategy,
    NullStrategy,
    TableStrategy,
    doubling_strategy,
    play,
    strategy_to_cantor,
)
from .machines import (
    DeficiencyTrace,
    PrefixFreeMachine,
    deficiency_trace,
    kc_build,
    request_weight,
    semimeasure_superadditive,
)
from .battery import all_in_on_bit, battery, builtin_measures
from .bits import champernowne_bits

__version__ = "0.1.0"
