"""Acceptance battery: one test per criterion, each printing a verdict line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines as the
criteria execute.  Every inequality is exact rational arithmetic; the single
statistical criterion (likelihood-ratio growth) uses its stated band.
"""

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

import randlab
from randlab import cells
from randlab.battery import battery, builtin_measures
from randlab.randtests import check_coverage_transfer
from randlab.rationals import frac_log2
from randlab.sources import SourceSpec, generate_bits

F = Fraction


def verdict(num, ok, detail, started):
    elapsed = time.monotonic() - started
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s): {detail}"
    print(line)
    assert ok, line
    return elapsed


@dataclass
class Chain:
    mart: object
    sp: object
    step: object
    bml: object
    vit: object
    step_back: object
    final: object


def build_chain(mart, depth):
    sp = randlab.savings_transform(mart)
    step = randlab.martingale_to_integral(sp, depth)
    bml = randlab.integral_to_bounded_ml(step)
    vit = randlab.bounded_ml_to_vitali(bml)
    step_back = randlab.vitali_to_integral(vit, depth)
    final = randlab.integral_to_martingale(step_back)
    return Chain(mart, sp, step, bml, vit, step_back, final)


@pytest.fixture(scope="module")
def marts():
    return battery()


@pytest.fixture(scope="module")
def chains(marts):
    return {name: build_chain(m, 8) for name, m in marts.items()}


def test_criterion_01_exact_fairness_and_additivity(marts, chains):
    t0 = time.monotonic()
    depth = 16
    for name, mu in builtin_measures().items():
        report = randlab.check_additivity(mu, depth)
        assert report.ok, (name, report.violations[:2])
        assert mu.mass("") == 1, name
    for name, chain in chains.items():
        for mart in (chain.sp.total, chain.final):
            report = randlab.check_fairness(mart, depth)
            assert report.ok, (name, report.violations[:2])
    elapsed = verdict(
        1,
        True,
        "additivity and fairness exact at depth <16 for all built-ins and chain martingales",
        t0,
    )
    assert elapsed < 10


def test_criterion_02_ville_inequality(marts):
    t0 = time.monotonic()
    for name, m in marts.items():
        reports = randlab.ville_audit(m, 14, None, thresholds=[2, 4, 8])
        for rep in reports:
            assert rep.passed, (name, rep)
        if name == "all_in_on_0":
            at_8 = reports[2]
            assert at_8.fraction == F(1, 8) == at_8.bound
    elapsed = verdict(
        2,
        True,
        "hitting mass <= start/c over all 2^14 strings, c in {2,4,8}; all-in equality 1/8 at c=8",
        t0,
    )
    assert elapsed < 60


def test_criterion_03_conversion_cycle(marts, chains):
    t0 = time.monotonic()
    for name, chain in chains.items():
        for obj in (chain.step, chain.bml, chain.vit, chain.step_back):
            report = randlab.verify_test_bounds(obj, 8)
            assert report.ok, (name, type(obj).__name__, report.violations[:2])
        assert randlab.check_fairness(chain.final, 8).ok, name
        # the cycled martingale dominates the cell averages of the count step
        for bits in itertools.product("01", repeat=8):
            cell = "".join(bits)
            mass = chain.final.base.mass(cell)
            if mass > 0:
                assert chain.final.capital(cell) >= chain.step_back.value(cell), (name, cell)
        # coverage transfer at prefixes up to depth 10, test built at depth 10
        sp = chain.sp
        deep = randlab.integral_to_bounded_ml(randlab.martingale_to_integral(sp, 10))
        report = check_coverage_transfer(sp, deep, 10)
        assert report.ok, (name, report.violations[:2])
    verdict(3, True, "full cycle passes verify_test_bounds at depth 8; savings floor >= 2^n keeps prefixes inside level n up to depth 10", t0)


def test_criterion_04_savings_sandwich(marts):
    t0 = time.monotonic()
    depth = 12
    for name, m in marts.items():
        sp = randlab.savings_transform(m)
        kernel = sp.total.kernel
        stack = [("", kernel.root(), None)]
        while stack:
            sigma, payload, f_parent = stack.pop()
            mass, n_here = kernel.read(payload)
            if mass == 0:
                continue
            f_here = kernel.read_floor(payload)
            assert f_here <= n_here <= f_here + 1, (name, sigma)
            if f_parent is not None:
                assert f_parent <= f_here, (name, sigma)
            if len(sigma) < depth:
                p0, p1 = kernel.children(sigma, payload)
                stack.append((sigma + "0", p0, f_here))
                stack.append((sigma + "1", p1, f_here))
    verdict(4, True, "f <= N <= f+1 and monotone savings floor over all 2^12 paths", t0)


def test_criterion_05_round_trip_and_squeeze():
    t0 = time.monotonic()
    pairs = [
        (randlab.bernoulli(F(2, 3)), randlab.fair_coin()),
        (randlab.fair_coin(), randlab.bernoulli(F(1, 3))),
        (randlab.split_table({"": F(1, 3), "1": F(3, 4), "10": F(1, 5)}), randlab.fair_coin()),
        (randlab.fair_coin(), randlab.fair_coin()),
    ]
    for nu, mu in pairs:
        back = randlab.to_measure(randlab.from_measures(nu, mu))
        assert randlab.measures_agree(back, nu, 12), (nu.label, mu.label)
    null = randlab.split_table({"": 0})
    mart = randlab.from_measures(null, null)
    recovered = randlab.to_measure(mart)
    assert null.mass("1") == 0 and null.mass("0") == 1  # the second recursion case applies
    assert recovered.mass("1") == 0
    assert recovered.mass("0") == 1
    assert randlab.check_additivity(recovered, 12).ok
    verdict(5, True, "to_measure(from_measures(nu,mu)) == nu to depth 12; squeeze recovers nu(1)=0", t0)


def test_criterion_06_measure_transfer(marts):
    t0 = time.monotonic()
    A, B = cells.binary_digits(), cells.bary_grouped(3)
    rel = cells.refine(A, B, 12, target_depth=4)
    for tau, row in rel.rows.items():
        assert row.residual <= F(1, 1024), (tau, row.residual)
    fair = randlab.fair_coin()
    result = cells.transfer_measure(rel, fair)
    low0 = result.rows["0"].low
    assert F(1, 3) - F(1, 1024) <= low0 <= F(1, 3), low0
    # transported battery test: bounded inequality against kappa_high
    sp = randlab.savings_transform(marts["all_in_on_0"])
    test = randlab.integral_to_bounded_ml(randlab.martingale_to_integral(sp, 12))
    transported = cells.transfer_measure(rel, test.bound)
    for tau, rrow in rel.rows.items():
        high = transported.rows[tau].high
        for n in range(1, test.n_levels + 1):
            covered_hit = sum(
                (test.level(n).mass_within(fair, sigma) for sigma in rrow.sigmas), F(0)
            )
            assert covered_hit * 2**n <= high, (tau, n)
    elapsed = verdict(
        6,
        True,
        "depth-12 refinement residuals <= 2^-10; kappa_low(0) brackets 1/3; transported test stays bounded",
        t0,
    )
    assert elapsed < 30


def test_criterion_07_grouping_consistency():
    t0 = time.monotonic()
    dec = cells.bary_grouped(3)
    mu_a = dec.pushforward()
    marts = [
        randlab.from_measures(randlab.bernoulli(F(1, 3)), mu_a),
        randlab.from_measures(randlab.fair_coin(), mu_a),
    ]

    def code(digits):
        return "".join({0: "0", 1: "10", 2: "11"}[d] for d in digits)

    checked = 0
    for mart in marts:
        for length in range(4):
            for digits in itertools.product((0, 1, 2), repeat=length):
                node = code(digits) + "1"
                if len(node) + 1 > 8:
                    continue
                group_mass = dec.cell(node).length()
                digit1 = dec.cell(node + "0").length()
                digit2 = dec.cell(node + "1").length()
                lhs = mart.capital(node) * group_mass
                rhs = mart.capital(node + "0") * digit1 + mart.capital(node + "1") * digit2
                assert lhs == rhs, node
                checked += 1
    verdict(7, checked > 0, f"grouped digit capitals equal the mass-weighted average at depth <=8 ({checked} nodes)", t0)


def test_criterion_08_doubling_strategy():
    t0 = time.monotonic()
    fair = randlab.fair_coin()
    target = randlab.CylinderSet.from_strings(["00", "0110", "101"])
    assert target.mass(fair) == F(7, 16) <= F(1, 2)
    strategy = randlab.doubling_strategy(target, fair)
    union = F(0)
    losses = {}
    for k, gen in enumerate(target.generators):
        union += fair.mass(gen)
        losses[k + 1] = union / (1 - union)
    for bits in itertools.product("01", repeat=10):
        x = "".join(bits)
        result = randlab.play(strategy, fair, x)
        assert result.violation is None and not result.undetermined
        in_target = any(x.startswith(g) for g in target.generators)
        assert (result.final == 2) == in_target, x
        assert all(v >= 0 for v in result.values), x
        assert all(v <= 2 for v in result.values), x
        assert 1 - min(result.values) <= 1, x
        full_losses = result.history.count("0")
        if result.history and set(result.history) == {"0"}:
            assert 1 - result.final == losses[full_losses], x
    verdict(8, True, "capital hits 2 exactly on the target set, never negative, cumulative loss <= 1 (2^10 samples)", t0)


def test_criterion_09_kraft_chaitin():
    t0 = time.monotonic()
    rng = random.Random(20260809)
    from randlab.machines import semimeasure_superadditive

    for trial in range(1000):
        total = F(0)
        requests = []
        for _ in range(rng.randint(1, 20)):
            n = rng.randint(1, 12)
            if total + F(1, 2**n) > 1:
                continue
            total += F(1, 2**n)
            sigma = "".join(rng.choice("01") for _ in range(rng.randint(0, 8)))
            requests.append((n, sigma))
        machine = randlab.kc_build(requests)
        assert machine.kraft_weight() == total
        assert semimeasure_superadditive(machine)
        for n, sigma in requests:
            assert any(len(c) == n and out == sigma for c, out in machine.table.items()), trial
    elapsed = verdict(9, True, "1000 seeded request sets: prefix-free, every length honored, semimeasure superadditive", t0)
    assert elapsed < 10


def test_criterion_10_likelihood_ratio_growth():
    t0 = time.monotonic()
    fair = randlab.fair_coin()
    model = randlab.bernoulli(F(3, 4))
    mart = randlab.from_measures(model, fair)
    ratio = {b: model.conditional("", b) / fair.conditional("", b) for b in (0, 1)}
    length, streams = 2000, 200
    rates = []
    for seed in range(streams):
        bits = generate_bits(SourceSpec(kind="bernoulli", p=F(3, 4), seed=seed), length)
        capital = F(1)
        for b in bits:
            capital *= ratio[int(b)]
        if seed == 0:
            prefix = bits[:64]
            assert randlab.run(mart, prefix).values[-1] == math.prod(
                (ratio[int(b)] for b in prefix), start=F(1)
            )
        rates.append(frac_log2(capital) / length)
    mean = sum(rates) / streams
    expected = 0.75 * math.log2(3) - 1  # KL divergence of 3/4 against 1/2
    ok = abs(mean - expected) <= 0.05
    elapsed = verdict(
        10, ok, f"mean per-bit log2 growth {mean:.4f} within 0.05 of {expected:.4f} over 200x2000 bits", t0
    )
    assert elapsed < 30


def test_criterion_11_deficiency_worked_case(null_at_one):
    t0 = time.monotonic()
    machine = randlab.kc_build([(2, "11")])
    dec = cells.binary_digits()
    trace = randlab.deficiency_trace(machine, dec, F(7, 8), 2)  # binary name 11...
    assert trace.rows[1].n == 2
    assert trace.rows[1].d_low == 0 == trace.rows[1].d_high
    null_trace = randlab.deficiency_trace(machine, cells.natural(null_at_one), "11", 2)
    assert null_trace.not_random_by_nullity and null_trace.nullity_at == 1
    verdict(11, True, "d_2 = 0 exactly for the point named 11...; null cells flagged non-random", t0)
