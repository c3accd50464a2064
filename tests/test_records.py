"""The record classes: constructors, ==, repr, hashing and import cost.

Records are plain classes whose fields are their constructor's parameters;
these tests pin each constructor and the value semantics built on it.
"""

import inspect
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import randlab
from randlab import betting, cells, machines, martingale, measure, randtests

REQUIRED = inspect.Parameter.empty

# record -> its constructor's (name, default) pairs, in order
CONSTRUCTORS = {
    measure.AuditReport: [("checked", 0), ("violations", None)],
    martingale.CapitalTrace: [("prefix", REQUIRED), ("values", REQUIRED), ("hit_null_at", None)],
    martingale.VilleReport: [(name, REQUIRED) for name in ("n", "threshold", "fraction", "bound", "passed")],
    randtests.CylinderSet: [("generators", REQUIRED), ("depth", REQUIRED)],
    randtests.MLTest: [("base", REQUIRED), ("levels", REQUIRED)],
    randtests.BoundedMLTest: [("base", REQUIRED), ("levels", REQUIRED), ("bound", REQUIRED), ("witness", None)],
    randtests.VitaliTest: [("base", REQUIRED), ("pieces", REQUIRED), ("bound", REQUIRED)],
    randtests.IntegralStep: [("base", REQUIRED), ("depth", REQUIRED), ("values", REQUIRED), ("bound", REQUIRED), ("unit_witness", False)],
    cells.Region: [("intervals", REQUIRED)],
    cells.NamingOutcome: [("bits", REQUIRED), ("undetermined_at", None), ("brackets", None)],
    cells.OpenDecomposition: [("generators", REQUIRED), ("covered", REQUIRED), ("residual", REQUIRED)],
    cells.RefinementRow: [(name, REQUIRED) for name in ("sigmas", "covered", "residual", "straddlers")],
    cells.RefinementRelation: [(name, REQUIRED) for name in ("source", "target", "depth", "target_depth", "rows")],
    cells.TransferRow: [("low", REQUIRED), ("high", REQUIRED)],
    cells.TransferResult: [("relation", REQUIRED), ("rows", REQUIRED)],
    betting.BitEvent: [("index", REQUIRED), ("side", REQUIRED)],
    betting.CylinderEvent: [("generators", REQUIRED)],
    betting.KnowledgeState: [("generators", REQUIRED), ("mass", REQUIRED), ("weights", REQUIRED)],
    betting._Node: [("history", REQUIRED), ("knowledge", REQUIRED), ("capital", REQUIRED)],
    betting.PlayResult: [
        *((name, REQUIRED) for name in ("history", "start", "final", "max_attained", "factors", "events")),
        ("undetermined", False),
        ("violation", None),
    ],
    machines.DeficiencyRow: [(name, REQUIRED) for name in ("n", "neg_log_mass_low", "neg_log_mass_high", "complexity", "d_low", "d_high")],
    machines.DeficiencyTrace: [("point", REQUIRED), ("rows", None), ("nullity_at", None), ("undetermined_at", None)],
}
FROZEN = (betting.BitEvent, betting.CylinderEvent, randtests.CylinderSet, cells.Region)
# field values a constructor accepts; the rest get 1, 2, 3, ... so that
# records of different classes with the same shape hold the same values
SAMPLES = {
    randtests.CylinderSet: (("0", "10"), 2),
    randtests.IntegralStep: (None, 1, {"0": Fraction(3)}, None, True),
}


def sample(cls) -> tuple:
    return SAMPLES.get(cls) or tuple(range(1, len(CONSTRUCTORS[cls]) + 1))


def test_every_record_is_pinned():
    modules = (measure, martingale, randtests, cells, betting, machines)
    found = {c for m in modules for c in vars(m).values() if isinstance(c, type) and issubclass(c, measure.Record) and c.__module__ == m.__name__}
    assert found - {measure.Record, measure.FrozenRecord} == set(CONSTRUCTORS)
    assert len(CONSTRUCTORS) == 22


@pytest.mark.parametrize("cls", list(CONSTRUCTORS), ids=lambda c: c.__name__)
def test_constructor_fields_order_and_defaults(cls):
    parameters = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in parameters] == CONSTRUCTORS[cls]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters)
    assert cls._fields == tuple(name for name, _ in CONSTRUCTORS[cls])


@pytest.mark.parametrize("cls", list(CONSTRUCTORS), ids=lambda c: c.__name__)
def test_equal_fields_give_equal_records_and_a_field_repr(cls):
    args = sample(cls)
    record = cls(*args)
    assert record == cls(**dict(zip(cls._fields, args)))
    assert not record != cls(*args)
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls._fields)
    assert repr(record) == f"{cls.__qualname__}({fields})"
    if cls not in FROZEN:
        with pytest.raises(TypeError):
            hash(record)


def test_records_of_different_classes_never_compare_equal():
    records = [cls(*sample(cls)) for cls in CONSTRUCTORS]
    for a in records:
        for b in records:
            assert (a == b) is (a is b), (a, b)
    fair = randlab.fair_coin()
    assert randtests.MLTest(fair, []) != randtests.BoundedMLTest(fair, [], fair)
    assert randtests.BoundedMLTest(fair, [], fair) != randtests.MLTest(fair, [])


def test_a_differing_field_breaks_equality():
    assert betting.BitEvent(1, 0) != betting.BitEvent(1, 1)
    assert machines.DeficiencyTrace(1) != machines.DeficiencyTrace(1, nullity_at=2)
    assert measure.AuditReport(violations=["x"]) != measure.AuditReport()


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_value_types_hash_by_value_and_refuse_assignment(cls):
    args = sample(cls)
    record = cls(*args)
    assert hash(record) == hash(cls(*args)) == hash(tuple(getattr(record, name) for name in cls._fields))
    assert len({record, cls(*args)}) == 1
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert cls(*args) == record


def test_cylinder_set_sorts_its_generators():
    assert randtests.CylinderSet(("10", "0"), 2).generators == ("0", "10")
    assert randtests.CylinderSet(["10", "0"], 2) == randtests.CylinderSet(("0", "10"), 2)


def test_each_report_and_trace_gets_its_own_lists():
    a, b = measure.AuditReport(), measure.AuditReport()
    a.add("broken")
    assert b.violations == []
    assert a.violations is not b.violations
    s, t = machines.DeficiencyTrace(0), machines.DeficiencyTrace(0)
    s.rows.append("row")
    assert t.rows == [] and s.rows is not t.rows


def test_importing_the_cli_imports_no_dataclasses():
    src = os.path.dirname(os.path.dirname(randlab.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    script = "import sys, randlab.cli\nprint('dataclasses' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
