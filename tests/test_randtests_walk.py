"""The one-walk verifiers against the string-reading definitions they replace.

The reference functions below read every mass, bound and savings floor by
string, prefix by prefix, exactly as the verifiers did before they became one
depth-first walk on integer pairs.  They stay here as the executable
specification: violations (text and order), checked counts, integrals, step
values and bound snapshots must all agree.
"""

import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import randlab
import randlab.cli
from randlab import BoundedMLTest, CylinderSet, IntegralStep, MLTest, VitaliTest, bits, measure, specfmt
from randlab.martingale import SavingsKernel
from randlab.measure import AuditReport
from randlab.randtests import check_coverage_transfer
from randlab.rationals import format_rational

ZERO = Fraction(0)


def ref_prefixes(depth):
    for n in range(depth + 1):
        yield from bits.all_strings(n)


def ref_integrals(step, depth):
    layer = {cell: v * step.base.mass(cell) for cell, v in step.values.items() if v != 0}
    out = {}
    for n in range(step.depth, -1, -1):
        if n <= depth:
            out.update(layer)
        parents = {}
        for cell, x in layer.items():
            parents[cell[:-1]] = parents.get(cell[:-1], ZERO) + x
        layer = parents
    return out


def ref_counts(pieces, depth):
    counts = {}
    for piece in pieces:
        for g in piece.generators:
            for tail in bits.all_strings(depth - len(g)):
                counts[g + tail] = counts.get(g + tail, 0) + 1
    return {cell: Fraction(n) for cell, n in sorted(counts.items())}


def ref_cover_integrals(base, pieces, depth):
    d = max([depth] + [len(g) for piece in pieces for g in piece.generators])
    return ref_integrals(IntegralStep(base=base, depth=d, values=ref_counts(pieces, d), bound=None), depth)


def ref_witness(step, depth, report, integrals):
    for sigma in ref_prefixes(min(depth, step.depth)):
        report.checked += 1
        upper = integrals.get(sigma, ZERO) + step.base.mass(sigma)
        if step.bound.mass(sigma) > upper:
            report.add(f"domination witness fails at {sigma!r}: {step.bound.mass(sigma)} > {upper}")


def ref_verify(obj, depth):
    report = AuditReport()
    if isinstance(obj, IntegralStep):
        for v in obj.values.values():
            if v < 0:
                report.add(f"negative step value {v}")
        integrals = ref_integrals(obj, depth)
        for sigma in ref_prefixes(min(depth, obj.depth)):
            report.checked += 1
            lhs, nu_sigma = integrals.get(sigma, ZERO), obj.bound.mass(sigma)
            if lhs > nu_sigma:
                report.add(f"integral bound fails at {sigma!r}: {lhs} > {nu_sigma}")
        if obj.unit_witness:
            ref_witness(obj, depth, report, integrals)
        return report
    if isinstance(obj, MLTest):
        for n in range(1, obj.n_levels + 1):
            report.checked += 1
            m = obj.level(n).mass(obj.base)
            if m > Fraction(1, 2**n):
                report.add(f"level {n} mass {m} exceeds 2^-{n}")
    if isinstance(obj, BoundedMLTest):
        within = [ref_cover_integrals(obj.base, [level], depth) for level in obj.levels]
        for sigma in ref_prefixes(depth):
            nu_sigma = obj.bound.mass(sigma)
            for n, level_within in enumerate(within, 1):
                report.checked += 1
                lhs = level_within.get(sigma, ZERO)
                if lhs * 2**n > nu_sigma:
                    report.add(f"bounded inequality fails at level {n}, sigma {sigma!r}: {lhs} > 2^-{n} * {nu_sigma}")
        if obj.witness is not None:
            ref_witness(obj.witness, depth, report, ref_integrals(obj.witness, depth))
    if isinstance(obj, VitaliTest):
        within = ref_cover_integrals(obj.base, obj.pieces, depth)
        for sigma in ref_prefixes(depth):
            report.checked += 1
            total, nu_sigma = within.get(sigma, ZERO), obj.bound.mass(sigma)
            if total > nu_sigma:
                report.add(f"summable bound fails at {sigma!r}: {total} > {nu_sigma}")
    return report


def ref_coverage(sp, test, depth):
    report = AuditReport()
    for p in ref_prefixes(depth):
        f = sp.savings(p)
        for n in range(1, test.n_levels + 1):
            if f is not None and f >= 2**n:
                report.checked += 1
                if not bits.covers(test.level(n).generators, p):
                    report.add(f"prefix {p!r} with floor {f} escapes level {n}")
    return report


def ref_step_values(sp, depth):
    return {cell: f for cell in bits.all_strings(depth) if (f := sp.savings(cell))}


def ref_snapshot_entries(mu, depth):
    entries = []

    def walk(sigma):
        if mu.mass(sigma) > 0:
            entries.append([sigma, format_rational(mu.split(sigma))])
        if len(sigma) + 1 < depth:
            walk(sigma + "0")
            walk(sigma + "1")

    if depth > 0:
        walk("")
    return entries


def mass_states(mu, depth):
    """Each string's mass as a rational, stepped down mu.children_pairs, in walk order."""
    m = mu.mass("")
    out, stack = [], [("", m.numerator, m.denominator)]
    while stack:
        sigma, n, d = stack.pop()
        out.append((sigma, Fraction(n, d)))
        if len(sigma) < depth:
            (n0, d0), (n1, d1) = mu.children_pairs(sigma, n, d)
            stack += [(sigma + "1", n1, d1), (sigma + "0", n0, d0)]
    return out


def outcome(fn):
    try:
        return fn()
    except randlab.ConstructionError as exc:
        return str(exc)


def assert_same(obj, depth):
    got, want = randlab.verify_test_bounds(obj, depth), ref_verify(obj, depth)
    assert got.violations == want.violations
    assert got.checked == want.checked


# splits of exactly 0 and 1 make null cylinders
SPLITS = st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), st.fractions(min_value=0, max_value=1, max_denominator=6))
STRINGS = st.text(alphabet="01", max_size=3)


@st.composite
def bases(draw):
    keys = draw(st.lists(STRINGS, unique=True, max_size=6))
    return randlab.split_table({sigma: draw(SPLITS) for sigma in keys}, default=draw(SPLITS))


@st.composite
def table_martingales(draw, base):
    """Capital tables, unfair in general, so bound and witness checks fail."""
    keys = draw(st.lists(st.text(alphabet="01", max_size=4), unique=True, max_size=6))
    values = st.fractions(min_value=0, max_value=6, max_denominator=4)
    return randlab.table_martingale(base, {sigma: draw(values) for sigma in keys}, start=draw(values))


@st.composite
def chains(draw):
    base = draw(bases())
    mart = draw(st.one_of(table_martingales(base), st.just(randlab.from_measures(draw(bases()), base))))
    assume(mart.capital("") is not None)
    return base, mart, draw(st.integers(0, 6)), draw(st.integers(0, 6))


@given(chains())
@settings(max_examples=60, deadline=None)
def test_conversion_chain_matches_the_string_reading_verifiers(case):
    base, mart, step_depth, depth = case
    sp = randlab.savings_transform(mart)
    step = randlab.martingale_to_integral(sp, step_depth)
    assert step.values == ref_step_values(sp, step_depth)
    assert list(step.values) == sorted(step.values)
    assert step.integrals(depth) == ref_integrals(step, depth)
    bounded = randlab.integral_to_bounded_ml(step)
    vitali = randlab.bounded_ml_to_vitali(bounded)
    back = randlab.vitali_to_integral(vitali, step_depth)
    assert list(back.values.items()) == list(ref_counts(vitali.pieces, step_depth).items())
    for obj in (step, bounded, vitali, back):
        assert_same(obj, depth)
    got, want = check_coverage_transfer(sp, bounded, depth), ref_coverage(sp, bounded, depth)
    assert (got.violations, got.checked) == (want.violations, want.checked)
    # the bound's recorded rows read as capital * mass does, to the step depth;
    # an unfair bound can have a split outside [0, 1]: all refuse it at the same prefix
    kernel_bound = randlab.to_measure(sp)
    assert len(step.bound.split_rows) == 2**step_depth - 1
    assert mass_states(step.bound, step_depth) == mass_states(kernel_bound, step_depth)
    for d in (step_depth, depth, -1):
        want = outcome(lambda: ref_snapshot_entries(step.bound, d))
        assert outcome(lambda: specfmt.measure_snapshot_doc(step.bound, d)["entries"]) == want
        assert outcome(lambda: specfmt.measure_snapshot_doc(kernel_bound, d)["entries"]) == want


# an unfair capital table over a base with a null cylinder [1]
_NULL_CORNER = (randlab.split_table({"": 0}), {"0": Fraction(3), "00": Fraction(0), "1": Fraction(2)})


@given(chains())
@settings(max_examples=40, deadline=None)
@example((_NULL_CORNER[0], randlab.table_martingale(*_NULL_CORNER), 2, 3))
def test_bounded_ml_verified_past_its_step_depth_reads_the_kernel(case):
    # rows reach the step depth only: a deeper verify reads capital * mass
    # below them, as a bound without rows does, and both match the
    # string-reading verifier
    base, mart, step_depth, extra = case
    sp = randlab.savings_transform(mart)
    step = randlab.martingale_to_integral(sp, step_depth)
    depth = step_depth + 1 + extra % 3
    bounded = randlab.integral_to_bounded_ml(step)
    unrecorded = randlab.integral_to_bounded_ml(
        randlab.IntegralStep(
            base=step.base, depth=step.depth, values=step.values, bound=randlab.to_measure(sp), unit_witness=step.unit_witness
        )
    )
    got, want = randlab.verify_test_bounds(bounded, depth), randlab.verify_test_bounds(unrecorded, depth)
    assert (got.violations, got.checked) == (want.violations, want.checked)
    assert_same(bounded, depth)


@given(chains())
@settings(max_examples=40, deadline=None)
@example((_NULL_CORNER[0], randlab.table_martingale(*_NULL_CORNER), 2, 0))
def test_converted_bound_reads_as_a_fresh_to_measure(case):
    # rows above the step depth, capital * mass below it: across that boundary
    # the bound's children_pairs and split are those of a bound without rows
    base, mart, step_depth, _ = case
    sp = randlab.savings_transform(mart)
    bound, fresh = randlab.martingale_to_integral(sp, step_depth).bound, randlab.to_measure(sp)
    for sigma in ref_prefixes(step_depth + 2):
        m = fresh.mass(sigma)
        pairs = [bound.children_pairs(sigma, m.numerator, m.denominator), fresh.children_pairs(sigma, m.numerator, m.denominator)]
        assert [[Fraction(*p) for p in kids] for kids in pairs] == [[fresh.mass(sigma + "0"), fresh.mass(sigma + "1")]] * 2
        assert outcome(lambda: bound.split(sigma)) == outcome(lambda: fresh.split(sigma))


@pytest.mark.parametrize("target, walks", [("integral", 1), ("vitali", 1), ("bounded_ml", 1), ("cycle", 2)])
def test_convert_walks_the_savings_kernel_once(target, walks, capsys, monkeypatch, tmp_path):
    # the step walk records the bound's rows, which the verifier and the
    # snapshot read; cycle's fairness audit is the only second walk
    calls, real, depth = [], SavingsKernel.children, 8

    def counted(self, sigma, payload):
        calls.append(sigma)
        return real(self, sigma, payload)

    monkeypatch.setattr(SavingsKernel, "children", counted)
    args = ["convert", "--measure", "fair", "--martingale", "quotient:bernoulli:2/3/fair", "--to", target]
    out = [] if target == "cycle" else ["--out-test", str(tmp_path / "test.json")]
    assert randlab.cli.main(args + ["--depth", str(depth)] + out) == 0
    capsys.readouterr()
    assert len(calls) == walks * (2**depth - 1)


@st.composite
def hand_built_tests(draw):
    """Level sets and pieces with generators both shallower and deeper than
    the verify depth, a step on cells of its own depth, over a split_table
    base and bound (so the bound is read through its children_pairs) or a
    to_measure bound of a capital table."""
    base = draw(bases())
    bound = draw(st.one_of(bases(), bases().map(lambda b: b.scaled(Fraction(1, 2)))))
    if draw(st.booleans()):
        bound = randlab.to_measure(draw(table_martingales(base)))
    gens = st.lists(st.text(alphabet="01", max_size=5), max_size=5)
    sets = [CylinderSet.from_strings(draw(gens), depth=5) for _ in range(draw(st.integers(1, 4)))]
    step_depth = draw(st.integers(0, 5))
    cells = ["".join(digits) for digits in itertools.product("01", repeat=step_depth)]
    weights = st.fractions(min_value=-1, max_value=9, max_denominator=4)
    values = {cell: draw(weights) for cell in draw(st.lists(st.sampled_from(cells), unique=True))}
    step = IntegralStep(base=base, depth=step_depth, values=values, bound=bound, unit_witness=draw(st.booleans()))
    # a witness over the same base and bound is checked in the levels' walk, any other in a walk of its own
    other = IntegralStep(base=base, depth=step_depth, values=values, bound=draw(bases()), unit_witness=True)
    witness = draw(st.sampled_from([None, step, other]))
    tests = [
        step,
        MLTest(base=base, levels=sets),
        BoundedMLTest(base=base, levels=sets, bound=bound, witness=witness),
        VitaliTest(base=base, pieces=sets, bound=bound),
    ]
    return tests, draw(st.integers(0, 6))


@given(hand_built_tests())
@settings(max_examples=80, deadline=None)
def test_hand_built_tests_match_the_string_reading_verifiers(case):
    tests, depth = case
    for obj in tests:
        assert_same(obj, depth)
    step = tests[0]
    assert step.integrals(depth) == ref_integrals(step, depth)


def _memo_bytes(snapshot):
    """Bytes still held by allocations made in the measure module (the
    path cache behind every mass() and payload() read lives there)."""
    return sum(stat.size for stat in snapshot.filter_traces([tracemalloc.Filter(True, measure.__file__)]).statistics("filename"))


def test_convert_leaves_no_memo_that_grows_with_the_depth(capsys, monkeypatch):
    # measured inside the run, once the test has been verified and serialized
    # and its base and bound are still alive
    held = {}
    real = specfmt.test_to_doc

    def to_doc_then_measure(obj, depth=12):
        doc = real(obj, depth)
        held[depth] = _memo_bytes(tracemalloc.take_snapshot())
        return doc

    monkeypatch.setattr(specfmt, "test_to_doc", to_doc_then_measure)
    tracemalloc.start()
    try:
        for depth in (6, 12):
            args = ["convert", "--measure", "fair", "--martingale", "quotient:bernoulli:2/3/fair"]
            assert randlab.cli.main(args + ["--to", "bounded_ml", "--depth", str(depth)]) == 0
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    # a memo entry per prefix holds 2^13 strings and rationals at depth 12,
    # about 600 kB; what stays is a few kB that do not grow with the depth
    assert held[12] < 32 * 1024
    assert held[12] <= held[6] + 1024
