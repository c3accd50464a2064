"""Textual formats for measures, martingales, strategies, sources, machines
and tests.

Measure documents are JSON with a "kind" field:

    {"kind": "fair_coin"}
    {"kind": "bernoulli", "p": "1/3"}
    {"kind": "split_table", "entries": [["", "0"], ["0", "1/2"]],
     "default": "1/2", "total": "1/1"}
    {"kind": "interleave", "factors": [<doc>, <doc>]}
    {"kind": "pushforward", "decomposition": "bary:3"}

measure_from_doc reads a document straight into its measure, and
measure_to_doc writes mu.doc(), the document mu's constructor gave it; a
measure without one (scaled, from_masses, a converted bound) is written as
its split_table snapshot to the bundle depth.  A document holds only the
fields its kind names, as do test documents (test_from_doc) and martingale
and strategy documents; an unknown field, a missing one or one of the wrong
JSON type is a SpecParseError that names it, as is a split table that lists
one string twice or interleaves and push:natural: links nested deeper than
MAX_NESTING, in a document or a compact spec.  Rationals are always "num/den" strings and
documents round-trip losslessly.  The CLI also accepts compact one-line forms:

    measures        fair | bernoulli:1/3 | split_table:FILE |
                    interleave:SPEC*SPEC | push:DEC
    martingales     quotient:SPEC/SPEC | all_in:0 | table:FILE | file:FILE
    strategies      doubling:CYLFILE | bit_all_in:SIDES |
                    likelihood_ratio:MEASURESPEC | table:FILE | null
    sources         prng:SEED | bernoulli:P,seed=SEED | champernowne |
                    file:PATH | literal:BITS
    decompositions  binary | ternary | bary:B | interleave:D

parse_source(text, length) reads a source spec straight into its first
length bits.  prng:SEED is the bernoulli:1/2,seed=SEED stream: both compare
random.Random(seed).random() with p.
"""

import json
import random

from . import betting, cells, randtests
from .battery import all_in_on_bit
from .bits import champernowne_bits, prefix_free_violation, validate_bits
from .errors import ConstructionError, SpecParseError
from .machines import PrefixFreeMachine
from .martingale import Martingale, from_measures, table_martingale
from .measure import Measure, bernoulli, fair_coin, interleave_product, split_table
from .rationals import format_rational, parse_rational


# ---------------------------------------------------------------- measures

MAX_NESTING = 100  # interleaves and push:natural: links nest at most this deep in a measure spec or document

_MEASURE_FIELDS = {
    "fair_coin": (), "bernoulli": ("p",), "split_table": ("entries", "default", "total"),
    "interleave": ("factors",), "pushforward": ("decomposition",),
}


def measure_from_doc(doc, nesting: int = 0) -> Measure:
    """The measure a measure document names (see the module docstring); nesting levels hold doc."""
    kind = _object(doc, "measure doc").get("kind")
    if not isinstance(kind, str) or kind not in _MEASURE_FIELDS:
        raise SpecParseError(f"unknown measure kind {kind!r}")
    what = f"{kind} measure doc"
    _known_fields(doc, what, ("kind",) + _MEASURE_FIELDS[kind])
    if kind == "fair_coin":
        return fair_coin()
    if kind == "bernoulli":
        return bernoulli(parse_rational(_field(doc, "p", what), f"{what} field 'p'"))
    if kind == "split_table":
        table = {}
        for sigma, q in _doc_field(doc, "entries", 2, what) if "entries" in doc else []:
            if validate_bits(sigma) in table:
                raise SpecParseError(f"{what} field 'entries' repeats the string {sigma!r}")
            table[sigma] = parse_rational(q)
        return split_table(
            table,
            default=parse_rational(doc.get("default", "1/2"), f"{what} field 'default'"),
            total=parse_rational(doc.get("total", "1/1"), f"{what} field 'total'"),
        )
    if kind == "interleave":
        factors = _field(doc, "factors", what)
        if not isinstance(factors, list) or len(factors) != 2:
            raise SpecParseError(f"{what} field 'factors' must list two measure docs")
        _check_nesting(nesting + 1, "interleave")
        return interleave_product(*(measure_from_doc(factor, nesting + 1) for factor in factors))
    name = _field(doc, "decomposition", what)
    if not isinstance(name, str):
        raise SpecParseError(f"{what} field 'decomposition' must be a string, got {json.dumps(name)[:80]}")
    return parse_decomposition(name, nesting).pushforward()


def _check_nesting(depth: int, what: str) -> None:
    if depth > MAX_NESTING:
        raise SpecParseError(f"{what} nested deeper than {MAX_NESTING} levels")


def measure_snapshot_doc(mu: Measure, depth: int) -> dict:
    """Lossless-to-depth serialization of any measure as an explicit table:
    mu.split at each positive string shorter than depth, positivity read off
    one walk of mu.children_pairs."""
    entries, texts = [], {}  # split id -> (split, its text): the split stays alive, so its id is not reused
    stack = [("", mu.total.numerator, mu.total.denominator)] if depth > 0 else []
    while stack:
        sigma, n, d = stack.pop()
        if n > 0:
            s = mu.split(sigma)
            entries.append([sigma, (texts.get(id(s)) or texts.setdefault(id(s), (s, format_rational(s))))[1]])
        if len(sigma) + 1 < depth:
            (n0, d0), (n1, d1) = mu.children_pairs(sigma, n, d)
            stack += [(sigma + "1", n1, d1), (sigma + "0", n0, d0)]
    return {
        "kind": "split_table",
        "entries": entries,
        "default": "1/2",
        "total": format_rational(mu.total),
    }


def measure_to_doc(mu: Measure, depth: int = 12) -> dict:
    """The document mu's constructor wrote, or else its snapshot to depth."""
    return mu.doc() if mu.doc else measure_snapshot_doc(mu, depth)


def parse_measure(text: str, nesting: int = 0) -> Measure:
    """Compact one-line measure spec (see module docstring); nesting levels hold text."""
    text = text.strip()
    if text in ("fair", "fair_coin"):
        return fair_coin()
    if text.startswith("bernoulli:"):
        return bernoulli(parse_rational(text.split(":", 1)[1]))
    if text.startswith(("split_table:", "doc:")):
        return measure_from_doc(load_json(text.split(":", 1)[1]), nesting)
    if text.startswith("interleave:"):
        body = text.split(":", 1)[1]
        if "*" not in body:
            raise SpecParseError("interleave needs SPEC*SPEC")
        _check_nesting(nesting + body.count("*"), "interleave")  # a left factor holds no "*", so each "*" below is one interleave
        left, right = body.split("*", 1)
        return interleave_product(parse_measure(left, nesting + 1), parse_measure(right, nesting + 1))
    if text.startswith("push:"):
        return parse_decomposition(text.split(":", 1)[1], nesting).pushforward()
    raise SpecParseError(f"cannot parse measure spec {text!r}")


# ------------------------------------------------------------ martingales

def parse_martingale(text: str, base: Measure) -> Martingale:
    """Compact martingale spec over the base measure; a quotient's denominator
    must write the same document as `base`."""
    text = text.strip()
    if text.startswith("quotient:"):
        body = text.split(":", 1)[1]
        for i, ch in enumerate(body):
            if ch != "/":
                continue
            try:
                nu = parse_measure(body[:i])
                mu = parse_measure(body[i + 1 :])
            except (SpecParseError, ConstructionError, OSError):
                continue
            if measure_to_doc(mu) != measure_to_doc(base):
                raise SpecParseError(f"quotient spec {text!r} divides by {body[i + 1 :]!r}, not the base measure {base.label}")
            return from_measures(nu, mu)
        raise SpecParseError(f"cannot split quotient spec {text!r}")
    if text.startswith("all_in:"):
        side = text.split(":", 1)[1]
        if side not in ("0", "1"):
            raise SpecParseError(f"all_in side must be 0 or 1, got {side!r}")
        return all_in_on_bit(base, int(side))
    if text.startswith(("table:", "file:")):
        doc = _known_fields(load_json(text.split(":", 1)[1]), "table martingale doc", ("start", "entries"))
        rows = _doc_field(doc, "entries", what="table martingale doc") if "entries" in doc else {}
        entries = {validate_bits(s): parse_rational(v) for s, v in rows.items()}
        return table_martingale(base, entries, start=parse_rational(doc.get("start", "1/1")))
    raise SpecParseError(f"cannot parse martingale spec {text!r}")


# -------------------------------------------------------------- strategies

def parse_strategy(text: str, mu: Measure) -> betting.BettingStrategy:
    text = text.strip()
    if text == "null":
        return betting.NullStrategy()
    if text.startswith("doubling:"):
        target = load_cylinder_file(text.split(":", 1)[1])
        return betting.doubling_strategy(target, mu)
    if text.startswith("bit_all_in:"):
        return betting.BitAllInStrategy(sides=text.split(":", 1)[1])
    if text.startswith("likelihood_ratio:"):
        return betting.LikelihoodRatioStrategy(parse_measure(text.split(":", 1)[1]))
    if text.startswith("table:"):
        doc = load_json(text.split(":", 1)[1])
        rows = _doc_field(doc, "nodes", what="table strategy doc")
        _known_fields(doc, "table strategy doc", ("start", "nodes"))
        nodes = {}
        for history, node in rows.items():
            event, stake = (_field(node, name, f"strategy node {history!r}") for name in ("event", "stake"))
            nodes[validate_bits(history)] = (_event_from_doc(event), parse_rational(stake))
        return betting.TableStrategy(nodes, start_capital=parse_rational(doc.get("start", "1/1")))
    raise SpecParseError(f"cannot parse strategy spec {text!r}")


def _event_from_doc(doc: dict):
    kind = _object(doc, "bet event").get("kind")
    if kind == "bit":
        index, side = (_parse_int(_field(doc, name, "bit event"), f"bit {name}") for name in ("index", "side"))
        if index < 0:
            raise SpecParseError(f"bit event field 'index' must be nonnegative, got {index}")
        if side not in (0, 1):
            raise SpecParseError(f"bit event field 'side' must be 0 or 1, got {side}")
        return betting.BitEvent(index=index, side=side)
    if kind == "cylinders":
        return betting.CylinderEvent(generators=_generators(_field(doc, "strings", "cylinder event"), "cylinder event field 'strings'"))
    raise SpecParseError(f"unknown event kind {kind!r}")


# ----------------------------------------------------------------- sources

def parse_source(text: str, length: int) -> str:
    """The first length bits of the source the text names; a literal or file
    source must hold at least length bits."""
    text = text.strip()
    if text == "champernowne":
        return champernowne_bits(length)
    kind, _, body = text.partition(":")
    if text.startswith(("literal:", "file:")):
        if kind == "file":
            with open(body, errors="replace") as fh:  # an undecodable byte fails validate_bits
                body = "".join(fh.read().split())
        if len(validate_bits(body)) < length:
            raise SpecParseError(f"{kind} source has {len(body)} bits, {length} requested")
        return body[:length]
    if text.startswith("prng:"):
        p, seed = 0.5, _parse_int(body.removeprefix("seed="), "source seed")
    elif text.startswith("bernoulli:"):
        parts = body.split(",")
        p, seed = parse_rational(parts[0]), 0
        for part in parts[1:]:
            if not part.startswith("seed="):
                raise SpecParseError(f"bad source option {part!r}")
            seed = _parse_int(part.split("=", 1)[1], "source seed")
        if not 0 <= p <= 1:
            raise SpecParseError(f"bernoulli source parameter outside [0,1]: {p}")
        p = float(p)
    else:
        raise SpecParseError(f"cannot parse source spec {text!r}")
    rng = random.Random(seed)
    return "".join("1" if rng.random() < p else "0" for _ in range(length))


# --------------------------------------------------------- decompositions

def parse_decomposition(text: str, nesting: int = 0) -> cells.CellDecomposition:
    text = text.strip()
    if text in ("binary", "binary_digits"):
        return cells.binary_digits()
    if text == "ternary":
        return cells.bary_grouped(3)
    if text.startswith("bary:"):
        return cells.bary_grouped(_parse_int(text.split(":", 1)[1], "digit base"))
    if text.startswith("interleave:"):
        return cells.interleave(_parse_int(text.split(":", 1)[1], "dimension"))
    if text.startswith("natural:"):
        _check_nesting(nesting + 1, "push:natural:")
        return cells.natural(parse_measure(text.split(":", 1)[1], nesting + 1))
    raise SpecParseError(f"cannot parse decomposition spec {text!r}")


# ------------------------------------------------------------------- files

def _parse_int(text, what: str) -> int:
    """An int, or a string that spells one; anything else (a JSON float,
    boolean, list or object too) is a parse error that names it."""
    try:
        if isinstance(text, (str, int)) and not isinstance(text, bool):
            return int(text)
    except ValueError:
        pass
    raise SpecParseError(f"bad {what} {text!r}: not an integer")


def _object(doc, what: str) -> dict:
    """doc itself; anything but a JSON object is a parse error that names it."""
    if not isinstance(doc, dict):
        raise SpecParseError(f"{what} must be a JSON object, got {json.dumps(doc)[:80]}")
    return doc


def _known_fields(doc, what: str, names: tuple) -> dict:
    """doc itself; a JSON object with a field outside names is a parse error that names the field."""
    extra = sorted(set(_object(doc, what)) - set(names))
    if extra:
        raise SpecParseError(f"{what} has unknown field {extra[0]!r}; it holds only {' and '.join(map(repr, names))}")
    return doc


def _field(doc, name: str, what: str):
    """doc[name]; a missing field, or a doc that is no JSON object, is a parse
    error that names it."""
    if name not in _object(doc, what):
        raise SpecParseError(f"{what} has no {name!r} field")
    return doc[name]


def load_json(path: str):
    """The JSON document in a file; an undecodable one is a parse error naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise SpecParseError(f"{path}: not a JSON document: {exc}") from None
        except RecursionError:
            raise SpecParseError(f"{path}: JSON document nested too deep to read") from None


def load_cylinder_file(path: str) -> tuple:
    """Newline-separated generators, validated prefix-free."""
    with open(path, errors="replace") as fh:  # an undecodable byte fails validate_bits
        return tuple(sorted(_generators([line.strip() for line in fh if line.strip()], "cylinder file")))


def _generators(strings, what: str) -> tuple:
    """A list of distinct bit strings, none a prefix of another, as a tuple;
    anything else is a parse error that names what holds it."""
    if not (isinstance(strings, list) and all(isinstance(g, str) for g in strings)):
        raise SpecParseError(f"{what} must be a list of bit strings, got {json.dumps(strings)[:80]}")
    bad = prefix_free_violation([validate_bits(g) for g in strings])
    if bad is not None and bad[0] == bad[1]:
        raise SpecParseError(f"{what} repeats the string {bad[0]!r}")
    if bad is not None:
        raise SpecParseError(f"{what} not prefix-free: {bad[0]!r} < {bad[1]!r}")
    return tuple(strings)


def load_machine_file(path: str):
    """Lines "codeword<TAB>output"; empty output allowed."""
    table = {}
    with open(path, errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise SpecParseError(f"{path}:{lineno}: expected codeword<TAB>output")
            # PrefixFreeMachine validates both strings
            codeword, output = line.split("\t", 1)
            codeword, output = codeword.strip(), output.strip()
            if codeword in table:
                raise SpecParseError(f"{path}:{lineno}: codeword {codeword!r} repeats an earlier line")
            table[codeword] = output
    return PrefixFreeMachine(table)


# ------------------------------------------------------------ test bundles

def test_to_doc(obj, depth: int) -> dict:
    kinds = [(randtests.IntegralStep, "integral"), (randtests.BoundedMLTest, "bounded_ml"), (randtests.VitaliTest, "vitali")]
    kind = next((name for cls, name in kinds if isinstance(obj, cls)), None)
    if kind is None:
        raise SpecParseError(f"cannot serialize {type(obj).__name__}")
    doc = {"kind": kind, "base": measure_to_doc(obj.base, depth), "bound": measure_to_doc(obj.bound, depth)}
    if kind == "integral":
        texts = {}  # by object, which is cheaper than hashing a rational: a converted step shares its values
        doc["values"] = [[cell, texts.get(id(v)) or texts.setdefault(id(v), format_rational(v))] for cell, v in sorted(obj.values.items())]
        doc.update(depth=obj.depth, unit_witness=obj.unit_witness)
    else:
        sets = obj.pieces if kind == "vitali" else obj.levels
        doc["pieces" if kind == "vitali" else "levels"] = [list(s.generators) for s in sets]
        doc["depth"] = max((s.depth for s in sets), default=0)
    return doc


def _doc_field(doc: dict, name: str, row_length=None, what="test doc"):
    """doc[name]: a JSON object, or given a row_length a list of lists of strings
    (each of that length unless it is 0); anything else is a parse error that
    names the field."""
    value = _field(doc, name, what)
    if row_length is None:
        ok, shape = isinstance(value, dict), "an object"
    else:
        ok = isinstance(value, list) and all(
            isinstance(row, list) and row_length in (0, len(row)) and all(isinstance(x, str) for x in row) for row in value
        )
        shape = "a list of [cell, value] string pairs" if row_length == 2 else "a list of lists of generator strings"
    if not ok:
        raise SpecParseError(f"{what} field {name!r} must be {shape}, got {json.dumps(value)[:80]}")
    return value


_TEST_FIELDS = {
    "bounded_ml": ("levels", "bound"), "vitali": ("pieces", "bound"), "integral": ("values", "bound", "unit_witness"),
}


def test_from_doc(doc):
    if not isinstance(doc, dict):
        raise SpecParseError(f"test doc must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _TEST_FIELDS:
        raise SpecParseError(f"unknown test kind {kind!r}")
    _known_fields(doc, f"{kind} test doc", ("kind", "base", "depth") + _TEST_FIELDS[kind])
    base = measure_from_doc(_doc_field(doc, "base"))
    depth = _parse_int(_field(doc, "depth", f"{kind} test doc"), "test depth")
    if kind != "integral":
        rows = _doc_field(doc, "pieces" if kind == "vitali" else "levels", 0)
        sets = [randtests.CylinderSet.from_strings([validate_bits(g) for g in gens], depth) for gens in rows]
    bound = measure_from_doc(_doc_field(doc, "bound"))
    if kind == "bounded_ml":
        return randtests.BoundedMLTest(base=base, levels=sets, bound=bound)
    if kind == "vitali":
        return randtests.VitaliTest(base=base, pieces=sets, bound=bound)
    values = {validate_bits(cell): parse_rational(v) for cell, v in _doc_field(doc, "values", 2)}
    unit_witness = doc.get("unit_witness", False)
    if not isinstance(unit_witness, bool):
        raise SpecParseError(f"test doc field 'unit_witness' must be true or false, got {json.dumps(unit_witness)[:80]}")
    return randtests.IntegralStep(base=base, depth=depth, values=values, bound=bound, unit_witness=unit_witness)
