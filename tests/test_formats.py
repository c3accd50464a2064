import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import randlab
from randlab import SpecParseError, cells, specfmt
from randlab.rationals import format_rational, neg_log2_bracket, parse_rational
from randlab.bits import champernowne_bits

F = Fraction


def test_rational_roundtrip():
    assert parse_rational("2/6") == F(1, 3)
    assert parse_rational("-3") == -3
    assert format_rational(parse_rational("4/8")) == "1/2"
    with pytest.raises(SpecParseError):
        parse_rational("1/0")
    with pytest.raises(SpecParseError):
        parse_rational("x")


def test_neg_log2_bracket():
    assert neg_log2_bracket(1, 8) == (3, 3)
    assert neg_log2_bracket(2, 3) == (0, 1)
    assert neg_log2_bracket(1, 3) == (1, 2)
    assert neg_log2_bracket(1, 1) == (0, 0)
    assert neg_log2_bracket(3, 1) == (-2, -1)
    # pairs out of lowest terms: the collapse test reads n/d reduced
    assert neg_log2_bracket(3, 24) == (3, 3)
    assert neg_log2_bracket(6, 9) == (0, 1)
    assert neg_log2_bracket(12, 3) == (-2, -2)
    for n, d in ((0, 1), (-1, 2), (1, 0)):
        with pytest.raises(ValueError, match="positive"):
            neg_log2_bracket(n, d)


def _reference_bracket(q):
    """The bracket found by search: k = ceil(-log2 q) is the least k with
    n*2^k >= d, and the bracket collapses where n*2^k == d."""

    def at_least(k):
        return q.numerator << k >= q.denominator if k >= 0 else q.numerator >= q.denominator << -k

    k = q.denominator.bit_length() - q.numerator.bit_length()
    while not at_least(k):
        k += 1
    while at_least(k - 1):
        k -= 1
    return (k, k) if q == F(2) ** -k else (k - 1, k)


_TERMS = st.one_of(
    st.integers(1, 2**12),
    st.integers(1, 2**1000),
    st.integers(0, 1000).map(lambda e: 2**e),
    st.integers(0, 1000).map(lambda e: 2**e + 1),
    st.integers(1, 1000).map(lambda e: 2**e - 1),
)


@given(_TERMS, _TERMS)
@settings(max_examples=500, deadline=None)
@example(1, 1)
@example(2**1000, 1)
@example(1, 2**1000)
@example(2**1000 - 1, 2**999)
@example(2**999 + 1, 2**1000)
@example(3 * 2**500, 2**1000)
@example(3, 3 * 2**10)
def test_neg_log2_bracket_matches_the_search(n, d):
    assert neg_log2_bracket(n, d) == _reference_bracket(F(n, d))


def test_measure_doc_roundtrip():
    docs = [
        {"kind": "fair_coin"},
        {"kind": "bernoulli", "p": "1/3"},
        {
            "kind": "split_table",
            "entries": [["", "0/1"], ["0", "1/2"]],
            "default": "1/2",
            "total": "1/1",
        },
        {"kind": "interleave", "factors": [{"kind": "fair_coin"}, {"kind": "bernoulli", "p": "2/3"}]},
        {"kind": "pushforward", "decomposition": "bary:3"},
    ]
    for doc in docs:
        mu = specfmt.measure_from_doc(doc)
        again = specfmt.measure_to_doc(mu)
        assert again == doc
        assert randlab.measures_agree(mu, specfmt.measure_from_doc(again), 6)


@pytest.mark.parametrize("kind", ["nonsense", "fair", None, 3, [], {}])
def test_measure_from_doc_refuses_an_unknown_kind(kind):
    doc = {} if kind is None else {"kind": kind}
    with pytest.raises(SpecParseError) as err:
        specfmt.measure_from_doc(doc)
    assert str(err.value) == f"unknown measure kind {kind!r}"


def test_measure_snapshot_exact_to_depth():
    nu = randlab.to_measure(randlab.from_measures(randlab.bernoulli(F(2, 3)), randlab.fair_coin()))
    doc = specfmt.measure_snapshot_doc(nu, 6)
    rebuilt = specfmt.measure_from_doc(doc)
    assert randlab.measures_agree(nu, rebuilt, 6)


@pytest.mark.parametrize(
    "factor",
    [
        lambda: randlab.to_measure(randlab.from_measures(randlab.bernoulli(F(2, 3)), randlab.fair_coin())),
        lambda: randlab.Measure(lambda s: F(1, 3)),
        lambda: randlab.fair_coin().scaled(2),
        lambda: randlab.from_masses(lambda s: F(2, 3) ** s.count("0") * F(1, 3) ** s.count("1")),
    ],
    ids=["to_measure", "split_fn", "scaled", "from_masses"],
)
def test_interleave_with_a_factor_without_spec_is_snapshot(factor):
    # a measure no constructor documents is written as its snapshot, on its own and inside an interleave
    for mu in (factor(), randlab.interleave_product(factor(), randlab.fair_coin())):
        assert mu.doc is None
        doc = specfmt.measure_to_doc(mu, 6)
        assert doc == specfmt.measure_snapshot_doc(mu, 6)
        assert doc["kind"] == "split_table"
        assert randlab.measures_agree(mu, specfmt.measure_from_doc(doc), 6)


def _text(q) -> str:
    return format_rational(F(q))


_ratios = st.builds(F, st.integers(0, 6), st.integers(1, 6)).filter(lambda q: q <= 1)
_leaf_docs = st.one_of(
    st.just({"kind": "fair_coin"}),
    st.builds(lambda p: {"kind": "bernoulli", "p": _text(p)}, _ratios),
    st.builds(
        lambda table, default, total: {
            "kind": "split_table", "entries": [[sigma, _text(q)] for sigma, q in sorted(table.items())],
            "default": _text(default), "total": _text(total),
        },
        st.dictionaries(st.text(alphabet="01", max_size=4), _ratios, max_size=5),
        _ratios,
        st.builds(F, st.integers(0, 9), st.integers(1, 4)),
    ),
    st.builds(
        lambda name: {"kind": "pushforward", "decomposition": name},
        st.sampled_from(["binary", "ternary"]) | st.builds("bary:{}".format, st.integers(2, 6))
        | st.builds("interleave:{}".format, st.integers(1, 4)),
    ),
)
_measure_docs = st.recursive(
    _leaf_docs, lambda inner: st.lists(inner, min_size=2, max_size=2).map(lambda f: {"kind": "interleave", "factors": f}),
    max_leaves=6,
)


def _mutate(doc):
    """Overwrite every field and list entry of a document and grow every list, in place."""
    for key, value in list(doc.items()) if isinstance(doc, dict) else enumerate(doc):
        if isinstance(value, (dict, list)):
            _mutate(value)
        doc[key] = "mutated"
    if isinstance(doc, list):
        doc.append("mutated")


@given(_measure_docs)
@settings(max_examples=80, deadline=None)
def test_measure_docs_round_trip(doc):
    mu = specfmt.measure_from_doc(doc)
    # the canonical document: ternary is bary_grouped(3), written as bary:3
    canonical = json.loads(json.dumps(doc).replace('"ternary"', '"bary:3"'))
    assert specfmt.measure_to_doc(mu) == canonical
    assert randlab.measures_agree(mu, specfmt.measure_from_doc(specfmt.measure_to_doc(mu)), 6)
    _mutate(mu.doc())
    assert mu.doc() == canonical


def test_parse_measure_compact(tmp_path):
    assert specfmt.parse_measure("fair").mass("01") == F(1, 4)
    assert specfmt.parse_measure("bernoulli:1/3").mass("1") == F(1, 3)
    prod = specfmt.parse_measure("interleave:fair*bernoulli:1/3")
    assert prod.mass("11") == F(1, 2) * F(1, 3)
    push = specfmt.parse_measure("push:ternary")
    assert push.mass("1") == F(2, 3)
    doc = {"kind": "split_table", "entries": [["", "0/1"]], "default": "1/2", "total": "1/1"}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert specfmt.parse_measure(f"split_table:{path}").mass("1") == 0
    with pytest.raises(SpecParseError):
        specfmt.parse_measure("nonsense:1")


def test_parse_martingale_quotient():
    m = specfmt.parse_martingale("quotient:bernoulli:2/3/fair", base=randlab.fair_coin())
    assert m.capital("1") == F(4, 3)
    m2 = specfmt.parse_martingale("quotient:fair/bernoulli:1/3", base=randlab.bernoulli(F(1, 3)))
    assert m2.capital("1") == F(3, 2)
    with pytest.raises(SpecParseError):
        specfmt.parse_martingale("quotient:fair", base=randlab.fair_coin())


def test_parse_martingale_table(tmp_path, fair):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"start": "1/1", "entries": {"0": "2/1", "1": "0/1"}}))
    m = specfmt.parse_martingale(f"table:{path}", base=fair)
    assert m.capital("0") == 2 and m.capital("1") == 0
    all_in = specfmt.parse_martingale("all_in:0", base=fair)
    assert all_in.capital("00") == 4


def test_parse_strategy(tmp_path, fair):
    cyl = tmp_path / "u.cylinders"
    cyl.write_text("00\n")
    s = specfmt.parse_strategy(f"doubling:{cyl}", fair)
    assert randlab.play(s, fair, "00").final == 2
    s2 = specfmt.parse_strategy("bit_all_in:0", fair)
    assert randlab.play(s2, fair, "00").final == 4
    s3 = specfmt.parse_strategy("likelihood_ratio:bernoulli:3/4", fair)
    assert randlab.play(s3, fair, "1").final == F(3, 2)
    assert specfmt.parse_strategy("null", fair).bet("", F(1), None, fair) is None


def test_cylinder_file_validation(tmp_path):
    good = tmp_path / "good.cyl"
    good.write_text("00\n01\n")
    assert specfmt.load_cylinder_file(str(good)) == ("00", "01")
    bad = tmp_path / "bad.cyl"
    bad.write_text("0\n01\n")
    with pytest.raises(SpecParseError):
        specfmt.load_cylinder_file(str(bad))


def test_machine_files(tmp_path):
    mfile = tmp_path / "m.machine"
    mfile.write_text("0\t0\n10\t11\n")
    machine = specfmt.load_machine_file(str(mfile))
    assert machine.table == {"0": "0", "10": "11"}
    bad = tmp_path / "bad.machine"
    bad.write_text("0 0\n")
    with pytest.raises(SpecParseError):
        specfmt.load_machine_file(str(bad))


def test_test_bundle_roundtrip(battery_marts):
    sp = randlab.savings_transform(battery_marts["all_in_on_0"])
    step = randlab.martingale_to_integral(sp, 6)
    test = randlab.integral_to_bounded_ml(step)
    doc = specfmt.test_to_doc(test, depth=8)
    rebuilt = specfmt.test_from_doc(json.loads(json.dumps(doc)))
    assert [lv.generators for lv in rebuilt.levels] == [lv.generators for lv in test.levels]
    assert randlab.verify_test_bounds(rebuilt, 6).ok
    step_doc = specfmt.test_to_doc(step, depth=8)
    step_back = specfmt.test_from_doc(step_doc)
    assert step_back.values == step.values
    assert randlab.verify_test_bounds(step_back, 6).ok


def test_a_plain_level_test_has_no_document(fair):
    # a test document carries a bound, which a plain MLTest lacks
    with pytest.raises(SpecParseError, match="cannot serialize MLTest"):
        specfmt.test_to_doc(randlab.MLTest(base=fair, levels=[]), depth=2)


def _stream(p, seed, length):
    rng = random.Random(seed)
    return "".join("1" if rng.random() < p else "0" for _ in range(length))


def test_sources_deterministic():
    assert specfmt.parse_source("prng:42", 64) == specfmt.parse_source("prng:42", 64) == _stream(0.5, 42, 64)
    assert specfmt.parse_source("bernoulli:3/4,seed=7", 64) == _stream(0.75, 7, 64)
    stream = specfmt.parse_source("bernoulli:3/4,seed=7", 500)
    assert stream == specfmt.parse_source("bernoulli:3/4,seed=7", 500)
    assert 0.6 < stream.count("1") / 500 < 0.9
    for seed in (0, 9, 42):
        fair = {specfmt.parse_source(text, 200) for text in (f"prng:{seed}", f"prng:seed={seed}", f"bernoulli:1/2,seed={seed}")}
        assert len(fair) == 1


def test_champernowne_prefix():
    assert champernowne_bits(10) == "1101110010"
    assert champernowne_bits(3) == "110"
    assert randlab.champernowne_bits is champernowne_bits
    assert specfmt.parse_source("champernowne", 10) == "1101110010"


def test_literal_and_file_sources(tmp_path):
    assert specfmt.parse_source("literal:0101", 3) == "010"
    with pytest.raises(SpecParseError, match="literal source has 2 bits, 3 requested"):
        specfmt.parse_source("literal:01", 3)
    path = tmp_path / "bits.txt"
    path.write_text("0101 11\n01\n")
    assert specfmt.parse_source(f"file:{path}", 8) == "01011101"
    with pytest.raises(SpecParseError, match="file source has 8 bits, 9 requested"):
        specfmt.parse_source(f"file:{path}", 9)


def test_parse_source():
    assert specfmt.parse_source("prng:9", 0) == ""
    assert specfmt.parse_source("prng:seed=9", 40) == _stream(0.5, 9, 40)
    assert specfmt.parse_source("bernoulli:3/4", 40) == _stream(0.75, 0, 40)
    assert specfmt.parse_source(" literal:0101 ", 4) == "0101"
    for text in ("bernoulli:3/4,speed=7", "bernoulli:2,seed=1", "prng:abc", "nosuch:1"):
        with pytest.raises(SpecParseError):
            specfmt.parse_source(text, 4)


def test_parse_decomposition():
    assert specfmt.parse_decomposition("binary").label == "binary"
    assert specfmt.parse_decomposition("ternary").base == 3
    assert specfmt.parse_decomposition("bary:5").base == 5
    assert specfmt.parse_decomposition("interleave:2").dim == 2
    assert isinstance(specfmt.parse_decomposition("natural:fair"), cells.NaturalDecomposition)
