import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randlab
from randlab import ConstructionError, PreconditionError, Region
from randlab import cells


F = Fraction


# Point, overlap and containment tests on Regions and the volume of a box, the
# reference the walks and names below are checked against.
def contains_point(region, x):
    return any(lo <= x < hi for lo, hi in region.intervals)


def intersects(a, b):
    return any(max(lo, olo) < min(hi, ohi) for lo, hi in a.intervals for olo, ohi in b.intervals)


def contains_region(outer, inner):
    return all(any(lo <= ilo and ihi <= hi for lo, hi in outer.intervals) for ilo, ihi in inner.intervals)


def box_volume(box):
    vol = F(1)
    for lo, hi in box:
        vol *= hi - lo
    return vol


def cell_mass(dec, sigma):
    """The closed-form mass of sigma's cell, the int pair naming brackets."""
    return F(*dec._mass_pair(sigma, dec._node(sigma)))


def test_region_construction_and_length():
    r = Region.from_pairs([(F(1, 2), F(3, 4)), (0, F(1, 4))])
    assert r.intervals == ((F(0), F(1, 4)), (F(1, 2), F(3, 4)))
    assert r.length() == F(1, 2)
    assert Region.from_pairs([(F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))]).intervals == ((F(1, 4), F(3, 4)),)
    with pytest.raises(ConstructionError):
        Region.from_pairs([(F(1, 2), F(1, 4))])
    with pytest.raises(ConstructionError):
        Region.from_pairs([(0, F(1, 2)), (F(1, 4), F(3, 4))])
    assert Region.from_pairs([]).intervals == ()
    assert Region.interval(0, F(1, 2)).intervals == ((F(0), F(1, 2)),)
    assert Region.interval(F(1, 3), F(1, 3)).intervals == ()
    with pytest.raises(ConstructionError, match="inverted interval"):
        Region.interval(F(1, 2), F(1, 4))


def test_binary_cells():
    dec = cells.binary_digits()
    assert dec.cell("01").intervals == ((F(1, 4), F(1, 2)),)
    assert dec.cell("1").intervals == ((F(1, 2), F(1, 1)),)
    assert dec.cell("").intervals == ((F(0), F(1)),)


def test_bary_cells():
    dec = cells.bary_grouped(3)
    assert dec.cell("1").intervals == ((F(1, 3), F(1)),)
    assert cell_mass(dec, "1") == F(2, 3)
    assert dec.cell("10").intervals == ((F(1, 3), F(2, 3)),)
    assert dec.cell("11").intervals == ((F(2, 3), F(1)),)
    assert dec.cell("00").intervals == ((F(0), F(1, 9)),)
    quad = cells.bary_grouped(4)
    assert quad.cell("0").intervals == ((F(0), F(1, 4)),)
    assert quad.cell("110").intervals == ((F(2, 4), F(3, 4)),)
    assert quad.cell("111").intervals == ((F(3, 4), F(1)),)


def test_deep_cells_need_no_recursion():
    # 1500 bits is deeper than the recursion limit
    sigma = "0" * 1500
    assert cells.binary_digits().cell(sigma).intervals == ((F(0), F(1, 2**1500)),)
    ternary = cells.bary_grouped(3)
    assert ternary.cell(sigma).intervals == ((F(0), F(1, 3**1500)),)
    assert cell_mass(ternary, sigma + "1") == F(2, 3**1501)
    assert ternary.name_point(F(2, 3**1501), 1501, brackets=True).brackets[-1] == (2378, 2379)
    assert cells.interleave(2).cell(sigma) == ((F(0), F(1, 2**750)), (F(0), F(1, 2**750)))


def test_cell_mass_matches_geometry():
    # the closed-form masses must equal the region/box measures
    for dec in (cells.binary_digits(), cells.bary_grouped(3), cells.bary_grouped(5)):
        for n in range(7):
            for bits in itertools.product("01", repeat=n):
                sigma = "".join(bits)
                assert cell_mass(dec, sigma) == dec.cell(sigma).length(), (dec.label, sigma)
    box = cells.interleave(2)
    for n in range(7):
        for bits in itertools.product("01", repeat=n):
            sigma = "".join(bits)
            assert cell_mass(box, sigma) == box_volume(box.cell(sigma))


def test_cell_children_partition_parent():
    for dec in (cells.binary_digits(), cells.bary_grouped(3)):
        for n in range(6):
            for bits in itertools.product("01", repeat=n):
                sigma = "".join(bits)
                parent, c0, c1 = dec.cell(sigma), dec.cell(sigma + "0"), dec.cell(sigma + "1")
                ((lo, hi),), ((lo0, mid),), ((mid1, hi1),) = parent.intervals, c0.intervals, c1.intervals
                assert (lo0, mid1, hi1) == (lo, mid, hi) and lo < mid < hi
                assert c0.length() + c1.length() == parent.length()


def test_name_binary_worked_case():
    dec = cells.binary_digits()
    assert dec.name_point(F(7, 10), 8).bits == "10110011"


def test_name_undetermined_at_endpoints():
    dec = cells.binary_digits()
    out = dec.name_point(F(1, 2), 1)
    assert not out.determined and out.undetermined_at == 1
    # undetermined points at depth <= 4 are exactly the cell endpoints
    endpoints = {F(k, 16) for k in range(17)}
    for k in range(33):
        x = F(k, 32)
        out = dec.name_point(x, 4)
        assert out.determined == (x not in endpoints), x
    assert dec.name_point(F(1, 3), 12).determined


def test_name_bary():
    dec = cells.bary_grouped(3)
    assert dec.name_point(F(1, 2), 2).bits == "10"
    assert dec.name_point(F(1, 2), 8).determined
    out = dec.name_point(F(1, 3), 1)
    assert not out.determined and out.undetermined_at == 1


def test_resolved_name_halfopen():
    dec = cells.binary_digits()
    assert dec.resolved_name(F(1, 2), 3) == "100"
    assert dec.resolved_name(F(0), 3) == "000"


def test_interleave_naming():
    dec = cells.interleave(2)
    point = (F(1, 2), F(1, 4))
    assert dec.resolved_name(point, 4) == "1001"
    out = dec.name_point(point, 4)
    assert not out.determined and out.undetermined_at == 1
    irrational_ish = (F(1, 3), F(1, 5))
    assert dec.name_point(irrational_ish, 8).determined


# The per-digit loops that named points before the shared descent: grouped
# digits compared x with two Regions per digit, boxes compared the split axis.
# Kept here as the definition name_point and resolved_name must meet.
def reference_interval_name(dec, x, n):
    sigma, edge = "", None
    for depth in range(1, n + 1):
        c0, c1 = dec.cell(sigma + "0"), dec.cell(sigma + "1")
        if edge is None and x in {end for cell in (c0, c1) for interval in cell.intervals for end in interval}:
            edge = depth
        sigma += "0" if contains_point(c0, x) else "1"
    return sigma, edge


def reference_box_name(dec, point, n):
    sigma, edge, box = "", None, dec.cell("")
    for depth in range(1, n + 1):
        axis = (depth - 1) % dec.dim
        child0, child1 = dec._children(sigma, box)
        mid, x = child0[axis][1], point[axis]
        if edge is None and (x == mid or x == child0[axis][0] or x == child1[axis][1]):
            edge = depth
        if x < mid:
            sigma, box = sigma + "0", child0
        else:
            sigma, box = sigma + "1", child1
    return sigma, edge


# name -> (base, number of coordinates; None for a bare point)
NAMED = {"binary": (2, None), **{f"bary:{b}": (b, None) for b in range(3, 6)}, **{f"interleave:{d}": (2, d) for d in range(1, 4)}}


@st.composite
def named_points(draw):
    name = draw(st.sampled_from(sorted(NAMED)))
    base, dim = NAMED[name]

    def coordinate():
        # powers of the base put points on cell endpoints; other factors keep them off
        den = base ** draw(st.integers(0, 6)) * draw(st.sampled_from([1, 1, 3, 5, 7, 11]))
        return F(draw(st.integers(0, den)), den)

    point = coordinate() if dim is None else tuple(coordinate() for _ in range(dim))
    return name, point, draw(st.integers(0, 12))


@given(named_points())
@settings(max_examples=300, deadline=None)
def test_naming_matches_the_per_digit_loops(case):
    name, point, n = case
    dec = DECOMPOSITIONS[name]()
    reference = reference_box_name if isinstance(dec, cells.InterleaveDecomposition) else reference_interval_name
    resolved, edge = reference(dec, point, n)
    out = dec.name_point(point, n)
    assert (out.bits, out.undetermined_at) == ((resolved, None) if edge is None else (resolved[: edge - 1], edge))
    assert dec.resolved_name(point, n) == resolved


@pytest.mark.parametrize("name, point", [("binary", F(3, 2)), ("bary:3", F(-1, 2)), ("interleave:2", (F(1, 3), F(9, 8)))])
def test_points_outside_the_unit_cube_are_refused(name, point):
    dec = DECOMPOSITIONS[name]()
    for query in (dec.name_point, dec.resolved_name):
        with pytest.raises(PreconditionError, match="outside"):
            query(point, 4)


def test_decompose_open_worked_case():
    dec = cells.binary_digits()
    out = cells.decompose_open(dec, Region.interval(F(1, 3), F(2, 3)), 3)
    assert out.generators == ("011", "100")
    assert out.covered == F(1, 4)
    assert out.residual == F(1, 3) - F(1, 4)


def test_decompose_open_whole_space_and_empty():
    dec = cells.binary_digits()
    out = cells.decompose_open(dec, Region.interval(0, 1), 1)
    assert out.generators == ("",) and out.residual == 0
    out = cells.decompose_open(dec, Region.from_pairs([]), 4)
    assert out.generators == () and out.residual == 0


def test_decompose_open_rejects_boxes():
    with pytest.raises(PreconditionError):
        cells.decompose_open(cells.interleave(2), Region.interval(0, 1), 2)


def test_pushforward_binary_is_fair():
    push = cells.binary_digits().pushforward()
    assert randlab.measures_agree(push, randlab.fair_coin(), 16)


def test_pushforward_bary_masses():
    push = cells.bary_grouped(3).pushforward()
    assert push.mass("0") == F(1, 3)
    assert push.mass("1") == F(2, 3)
    assert push.mass("10") == F(1, 3)
    assert randlab.check_additivity(push, 10).ok


def test_bary_splits_are_built_at_their_first_read():
    dec = cells.bary_grouped(5)
    dec.name_point(F(1, 3), 3)
    assert dec._splits == {}  # naming reads no split
    push = dec.pushforward()
    assert [push.split("0" + "1" * p) for p in range(6)] == [F(4 - p % 4, 5 - p % 4) for p in range(6)]
    assert sorted(dec._splits) == [0, 1, 2, 3]


def test_pushforward_interleave_is_fair():
    push = cells.interleave(2).pushforward()
    assert randlab.measures_agree(push, randlab.fair_coin(), 10)


def test_refine_worked_case():
    rel = cells.refine(cells.binary_digits(), cells.bary_grouped(3), 4, target_depth=2)
    row = rel.rows["0"]
    assert row.sigmas == ("00", "0100")
    assert row.covered == F(5, 16)
    assert row.residual == F(1, 3) - F(5, 16)


def test_refine_identity():
    dec = cells.bary_grouped(3)
    rel = cells.refine(dec, cells.bary_grouped(3), 5, target_depth=3)
    for tau, row in rel.rows.items():
        assert row.sigmas == (tau,)
        assert row.residual == 0


def test_refine_residual_monotone():
    source, target = cells.binary_digits(), cells.bary_grouped(3)
    previous = None
    for depth in (4, 5, 6, 7, 8):
        rel = cells.refine(source, target, depth, target_depth=2)
        worst = {tau: row.residual for tau, row in rel.rows.items()}
        if previous is not None:
            for tau in worst:
                assert worst[tau] <= previous[tau]
        previous = worst


def test_transfer_interval_brackets_target_mass(fair):
    rel = cells.refine(cells.binary_digits(), cells.bary_grouped(3), 4, target_depth=2)
    result = cells.transfer_measure(rel, fair)
    low, high = result.interval("0")
    assert low == F(5, 16)
    assert low <= F(1, 3) <= high
    # additive compatibility of the lower bounds
    for tau in ("", "0", "1"):
        assert result.rows[tau + "0"].low + result.rows[tau + "1"].low <= result.rows[tau].high


def test_transfer_identity_zero_width(fair):
    rel = cells.refine(cells.bary_grouped(3), cells.bary_grouped(3), 4, target_depth=2)
    nu = cells.bary_grouped(3).pushforward()
    result = cells.transfer_measure(rel, nu)
    for tau, row in result.rows.items():
        assert row.low == row.high == nu.mass(tau)


def test_transfer_concentrated_measure():
    rel = cells.refine(cells.binary_digits(), cells.bary_grouped(3), 4, target_depth=1)
    nu = randlab.split_table({"": 1})  # all mass on names starting 1
    result = cells.transfer_measure(rel, nu)
    assert result.rows["1"].low == 1  # [1/2,1) sits inside [1/3,1)
    assert result.rows["0"].low == 0


def test_transferred_bound_dominates_test(fair, battery_marts):
    # a test bounded on source names stays bounded against kappa_high
    sp = randlab.savings_transform(battery_marts["all_in_on_0"])
    test = randlab.integral_to_bounded_ml(randlab.martingale_to_integral(sp, 8))
    rel = cells.refine(cells.binary_digits(), cells.bary_grouped(3), 8, target_depth=3)
    result = cells.transfer_measure(rel, test.bound)
    for tau, rrow in rel.rows.items():
        covered = rrow.sigmas
        for n in range(1, test.n_levels + 1):
            hit = sum(
                (test.level(n).mass_within(fair, sigma) for sigma in covered),
                F(0),
            )
            assert hit * 2**n <= result.rows[tau].high, (tau, n)


def test_natural_decomposition(null_at_one):
    nd = cells.natural(null_at_one)
    assert nd.name_point("01", 2, brackets=True).brackets == [(0, 0), (1, 1)]
    assert nd.name_point("10", 2, brackets=True).brackets == [None]  # [1] is null
    assert nd.name_point("01", 2).brackets is None
    out = nd.name_point("0110", 3)
    assert out.determined and out.bits == "011"
    assert not nd.name_point("01", 3).determined
    with pytest.raises(ConstructionError, match="not a binary string"):
        nd.name_point("2a1", 3)
    with pytest.raises(PreconditionError, match="points of the natural decomposition are bit strings"):
        nd.name_point(5, 3)
    assert nd.pushforward() is null_at_one


def test_grouping_average_identity(battery_marts):
    # ternary-digit group nodes average their digit children exactly
    dec = cells.bary_grouped(3)
    mu_a = dec.pushforward()
    mart = randlab.from_measures(randlab.bernoulli(F(1, 3)), mu_a)

    def code(digits):
        return "".join({0: "0", 1: "10", 2: "11"}[d] for d in digits)

    for length in range(4):
        for digits in itertools.product((0, 1, 2), repeat=length):
            node = code(digits) + "1"
            if len(node) + 1 > 8:
                continue
            lhs = mart.capital(node) * dec.cell(node).length()
            rhs = mart.capital(node + "0") * dec.cell(node + "0").length() + mart.capital(
                node + "1"
            ) * dec.cell(node + "1").length()
            assert lhs == rhs, node


# The recursive, Region-based walks that refine and transfer_measure used
# before the integer-endpoint walker; kept here as the definition it must meet.
def reference_decompose_open(dec, region, depth):
    chosen = []
    covered = F(0)

    def walk(sigma):
        nonlocal covered
        cell = dec.cell(sigma)
        if cell.length() == 0 or not intersects(region, cell):
            return
        if contains_region(region, cell):
            chosen.append(sigma)
            covered += cell.length()
            return
        if len(sigma) < depth:
            walk(sigma + "0")
            walk(sigma + "1")

    walk("")
    return tuple(chosen), covered, region.length() - covered


def reference_straddler_mass(source, target_cell, chosen, depth, nu):
    total = F(0)

    def walk(sigma):
        nonlocal total
        if sigma in chosen:
            return
        cell = source.cell(sigma)
        if cell.length() == 0 or not intersects(target_cell, cell):
            return
        if len(sigma) == depth:
            total += nu.mass(sigma)
            return
        walk(sigma + "0")
        walk(sigma + "1")

    walk("")
    return total


def interval_decompositions():
    return st.one_of(st.just("binary"), st.integers(2, 6)).map(
        lambda b: cells.binary_digits() if b == "binary" else cells.bary_grouped(b)
    )


splits = st.fractions(min_value=0, max_value=1, max_denominator=6)


@st.composite
def split_tables(draw):
    keys = draw(st.lists(st.text(alphabet="01", max_size=4), unique=True, max_size=6))
    return randlab.split_table({sigma: draw(splits) for sigma in keys}, default=draw(splits))


# mass-backed: capital * mass of a quotient martingale
MASS_BACKED = randlab.to_measure(randlab.from_measures(randlab.bernoulli(F(1, 3)), randlab.fair_coin()))


@given(
    interval_decompositions(),
    interval_decompositions(),
    st.integers(0, 7),
    st.integers(0, 4),
    st.one_of(split_tables(), st.just(MASS_BACKED)),
)
@settings(max_examples=80, deadline=None)
def test_refine_and_transfer_match_the_recursive_walks(source, target, depth, target_depth, nu):
    rel = cells.refine(source, target, depth, target_depth=target_depth)
    result = cells.transfer_measure(rel, nu)
    expected_taus = {"".join(bits) for n in range(target_depth + 1) for bits in itertools.product("01", repeat=n)}
    assert set(rel.rows) == set(result.rows) == expected_taus
    for tau, row in rel.rows.items():
        target_cell = target.cell(tau)
        sigmas, covered, residual = reference_decompose_open(source, target_cell, depth)
        assert (row.sigmas, row.covered, row.residual) == (sigmas, covered, residual), tau
        assert len(row.straddlers) <= 2
        low = sum((nu.mass(sigma) for sigma in sigmas), F(0))
        high = low + reference_straddler_mass(source, target_cell, set(sigmas), depth, nu)
        assert result.interval(tau) == (low, high), tau


@st.composite
def regions(draw):
    points = sorted(set(draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=40), max_size=8))))
    return Region.from_pairs(zip(points[0::2], points[1::2]))


@given(interval_decompositions(), regions(), st.integers(0, 7))
@settings(max_examples=120, deadline=None)
def test_decompose_open_matches_the_recursive_walk(dec, region, depth):
    out = cells.decompose_open(dec, region, depth)
    assert (out.generators, out.covered, out.residual) == reference_decompose_open(dec, region, depth)


def test_deep_refinement_needs_no_recursion():
    # 1200 source levels is deeper than the recursion limit
    rel = cells.refine(cells.binary_digits(), cells.bary_grouped(3), 1200, target_depth=1)
    row = rel.rows["0"]
    assert row.covered + row.residual == F(1, 3)
    assert 0 < row.residual < F(1, 2**1199)
    result = cells.transfer_measure(rel, randlab.fair_coin())
    assert result.rows["0"].low <= F(1, 3) <= result.rows["0"].high


def test_refine_and_transfer_reject_cells_that_are_not_intervals(fair):
    natural = cells.natural(fair)
    for source, target in ((natural, cells.binary_digits()), (cells.binary_digits(), natural)):
        with pytest.raises(PreconditionError):
            cells.refine(source, target, 3)
    with pytest.raises(PreconditionError):
        cells.decompose_open(natural, Region.interval(0, 1), 2)


DECOMPOSITIONS = {
    "binary": cells.binary_digits,
    **{f"bary:{b}": (lambda b=b: cells.bary_grouped(b)) for b in range(2, 7)},
    **{f"interleave:{d}": (lambda d=d: cells.interleave(d)) for d in range(1, 4)},
}


def _lebesgue_size(dec, sigma):
    cell = dec.cell(sigma)
    return box_volume(cell) if isinstance(dec, cells.InterleaveDecomposition) else cell.length()


@given(st.sampled_from(sorted(DECOMPOSITIONS)), st.lists(st.text(alphabet="01", max_size=12), max_size=20))
@settings(max_examples=80, deadline=None)
def test_pushforward_masses_are_the_cells_lebesgue_sizes(name, sigmas):
    # the pushforward is split-backed; its masses must still be the cell sizes
    dec = DECOMPOSITIONS[name]()
    push = dec.pushforward()
    for sigma in sigmas:
        assert push.mass(sigma) == _lebesgue_size(dec, sigma), (name, sigma)


def _held_after(queries):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        queries()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["binary", "bary:3", "interleave:2"])
def test_cell_queries_leave_memory_flat(name):
    # 5500 queries: 4500 cell() and 1000 name_point(); a memo entry per
    # string used to stay behind for every one of them
    dec = DECOMPOSITIONS[name]()
    sigmas = [format(i, "013b") for i in range(4500)]
    points = [F(2 * i + 1, 2003) for i in range(1000)]
    if name.startswith("interleave"):
        points = [(x, 1 - x) for x in points]
    dec.cell(sigmas[0]), dec.name_point(points[0], 12)

    def queries():
        for sigma in sigmas:
            dec.cell(sigma)
        for x in points:
            dec.name_point(x, 12)

    # about 1 KB stays, plus up to ~110 KB of pair tuples parked on CPython's
    # tuple free list by the interleave boxes; the memos held 1.9-5.8 MB
    assert _held_after(queries) < 128 * 1024


def _peak_of(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["bary:3", "interleave:2"])
def test_naming_memory_is_linear_in_the_length(name):
    # one exact mass pair kept per depth made naming to length 6000 peak at
    # 1.3 MB (bary:3) and 2.6 MB (interleave:2), quadratic in the length
    dec, length = DECOMPOSITIONS[name](), 6000
    x = F(1, 2) if name == "bary:3" else (F(1, 3), F(1, 5))  # on no cell endpoint
    assert _peak_of(lambda: dec.name_point(x, length)) < 64 * 1024
    assert _peak_of(lambda: dec.resolved_name(x, length)) < 64 * 1024
    # a bracket is two ints, about 120 bytes with its list slot
    assert _peak_of(lambda: dec.name_point(x, length, brackets=True)) < 160 * length


def test_natural_brackets_memory_is_linear_in_the_length():
    # reading each prefix's mass kept every prefix's pair on the measure's
    # path cache: 8.3 MB at length 6000, about 1.4 KB per depth
    dec, length = cells.natural(randlab.bernoulli(F(1, 3))), 6000
    x = randlab.champernowne_bits(length)
    assert _peak_of(lambda: dec.name_point(x, length, brackets=True)) < 160 * length


def test_pushforward_audit_leaves_nothing_on_the_decomposition():
    # the grouped-digit state memo kept 32767 states (6.4 MB) after this audit
    dec = cells.bary_grouped(3)
    push = dec.pushforward()
    held = _held_after(lambda: randlab.check_additivity(push, 14))
    assert held < 32 * 1024, held
