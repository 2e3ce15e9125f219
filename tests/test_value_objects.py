"""The value-object contract of the AST nodes and the result records.

Every class here is immutable and compares by class and fields: equal
objects hash equally, a differing field or a different class (a subclass
included) makes them unequal, AST spans take no part in equality or repr,
and pickle and deep copy give back an equal object.  Each constructor
takes the class's ``_fields`` in order; the parameters are pinned here.
"""
import copy
import importlib
import inspect
import pickle

import pytest

import sapta
from sapta.formulas import (
    And,
    ContextGuard,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PredicateApp,
    Record,
    SourceSpan,
    _Binary,
    _Quantifier,
)
from sapta.parser import NamedFormula
from sapta.predication import (
    CertificateRow,
    Judgment,
    PredicationClass,
    PredicationTag,
    induced_model,
)
from sapta.scenarios import CorpusResult, ScenarioReport
from sapta.semantics import ContextDef
from sapta.trivalent import Tv3

SPAN_A = SourceSpan(0, 4, 1, 1)
SPAN_B = SourceSpan(7, 11, 2, 3)
P = PredicateApp("p", "x")
Q = PredicateApp("q", "x")
P_TEXT = "PredicateApp(name='p', var='x')"
Q_TEXT = "PredicateApp(name='q', var='x')"

# class -> (field values, the same with one field changed, repr of the first)
NODES = {
    PredicateApp: (("p", "x"), ("p", "y"), P_TEXT),
    ContextGuard: (("c", "x"), ("d", "x"), "ContextGuard(context='c', var='x')"),
    Not: ((P,), (Q,), f"Not(operand={P_TEXT})"),
    And: ((P, Q), (Q, P), f"And(left={P_TEXT}, right={Q_TEXT})"),
    Or: ((P, Q), (P, P), f"Or(left={P_TEXT}, right={Q_TEXT})"),
    Implies: ((P, Q), (Q, Q), f"Implies(left={P_TEXT}, right={Q_TEXT})"),
    Iff: ((P, Q), (Q, P), f"Iff(left={P_TEXT}, right={Q_TEXT})"),
    ForAll: (("x", P), ("y", P), f"ForAll(var='x', body={P_TEXT})"),
    Exists: (("x", P), ("x", Q), f"Exists(var='x', body={P_TEXT})"),
}

JUDGMENTS = (Judgment("a", "p", Tv3.TRUE), Judgment("b", "p", Tv3.FALSE))
MODEL = induced_model(JUDGMENTS, "p")
P4 = PredicationClass(PredicationTag.P4, ("a", "b"))
P4_TEXT = "PredicationClass(tag=<PredicationTag.P4: 'P4'>, contexts_used=('a', 'b'))"
JUDGMENTS_TEXT = (
    "(Judgment(context='a', predicate='p', value=<Tv3.TRUE: 'T'>), "
    "Judgment(context='b', predicate='p', value=<Tv3.FALSE: 'F'>))"
)
REPORT = ScenarioReport("s", MODEL, JUDGMENTS, P4, {"w": 0.5})
REPORT_TEXT = (
    f"ScenarioReport(scenario_name='s', model={MODEL!r}, judgments={JUDGMENTS_TEXT}, "
    f"expected_class={P4_TEXT}, numeric_witness={{'w': 0.5}})"
)

RECORDS = {
    NamedFormula: (("f", P, 3), ("f", P, 4), f"NamedFormula(name='f', formula={P_TEXT}, line=3)"),
    ContextDef: (("c", ["e"]), ("c", ["e", "f"]), "ContextDef(name='c', extension=frozenset({'e'}))"),
    Judgment: (
        ("c", "p", Tv3.TRUE),
        ("c", "p", Tv3.UNDET),
        "Judgment(context='c', predicate='p', value=<Tv3.TRUE: 'T'>)",
    ),
    PredicationClass: ((PredicationTag.P4, ("a", "b")), (PredicationTag.P4, ("b", "a")), P4_TEXT),
    CertificateRow: (
        (PredicationTag.P1, PredicationTag.P2, "distinct", "why"),
        (PredicationTag.P1, PredicationTag.P3, "distinct", "why"),
        "CertificateRow(first=<PredicationTag.P1: 'P1'>, second=<PredicationTag.P2: 'P2'>, "
        "verdict='distinct', reason='why')",
    ),
    ScenarioReport: (
        ("s", MODEL, JUDGMENTS, P4, {"w": 0.5}),
        ("s", MODEL, JUDGMENTS, P4, {"w": 0.25}),
        REPORT_TEXT,
    ),
    CorpusResult: (
        ("s", REPORT, P4),
        ("s", REPORT, PredicationClass(PredicationTag.P1, ("a",))),
        f"CorpusResult(name='s', report={REPORT_TEXT}, classified={P4_TEXT})",
    ),
}

# Records holding a dict cannot be hashed.
UNHASHABLE = {ScenarioReport, CorpusResult}
# Records holding a Model, which compares by identity, compare by JSON after a copy.
HOLDS_MODEL = {ScenarioReport, CorpusResult}

CLASSES = {**NODES, **RECORDS}


def _subclass(cls):
    return type("Sub" + cls.__name__, (cls,), {"__slots__": ()})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_hash_and_repr(cls):
    fields, other, text = CLASSES[cls]
    a, b = cls(*fields), cls(*fields)
    assert a == b and not a != b
    assert a != cls(*other)
    assert a != _subclass(cls)(*fields)
    assert a != fields
    assert repr(a) == text
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, cls(*other)}) == 2


@pytest.mark.parametrize("cls", NODES, ids=lambda c: c.__name__)
def test_node_spans_are_ignored(cls):
    fields = NODES[cls][0]
    a, b = cls(*fields, SPAN_A), cls(*fields, SPAN_B)
    assert a.span == SPAN_A and cls(*fields).span is None
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == NODES[cls][2]


def test_node_type_must_match():
    assert And(P, Q) != Or(P, Q)
    assert Implies(P, Q) != Iff(P, Q)
    assert ForAll("x", P) != Exists("x", P)
    assert PredicateApp("c", "x") != ContextGuard("c", "x")
    assert len({And(P, Q), Or(P, Q), Implies(P, Q), Iff(P, Q)}) == 4


def test_record_defaults():
    assert PredicationClass(PredicationTag.DEGENERATE).contexts_used == ()
    assert ContextDef("c").extension == frozenset()
    assert ContextDef("c", ["e", "e"]).extension == frozenset({"e"})
    assert ScenarioReport("s", MODEL, JUDGMENTS, P4).numeric_witness == {}
    with pytest.raises(ValueError):
        ScenarioReport("s", MODEL, (Judgment("z", "p", Tv3.TRUE),), P4)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned(cls):
    fields, other, _ = CLASSES[cls]
    obj, changed = cls(*fields), cls(*other)
    names = list(inspect.signature(cls).parameters)
    assert names[: len(fields)] == [n for n in names if n != "span"]
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(changed, name))
    assert obj == cls(*fields)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("roundtrip", [
    lambda obj: pickle.loads(pickle.dumps(obj)),
    copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_pickle_and_deepcopy(cls, roundtrip):
    fields = CLASSES[cls][0]
    obj = cls(*fields, SPAN_A) if cls in NODES else cls(*fields)
    back = roundtrip(obj)
    assert type(back) is cls
    if cls in HOLDS_MODEL:
        assert back.to_json() == obj.to_json()
    else:
        assert back == obj
    if cls in NODES:
        assert back.span == SPAN_A


def test_nested_node_round_trip_keeps_spans():
    f = ForAll("x", And(PredicateApp("p", "x", SPAN_A), Not(Q, SPAN_B), SPAN_B), SPAN_A)
    for back in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert back == f
        assert (back.span, back.body.left.span, back.body.right.span) == (SPAN_A, SPAN_A, SPAN_B)


@pytest.mark.parametrize("cls", NODES, ids=lambda c: c.__name__)
def test_nodes_have_no_dict(cls):
    node = cls(*NODES[cls][0])
    assert not hasattr(node, "__dict__")


@pytest.mark.parametrize("cls, expected", [
    (Judgment, {"context": "c", "predicate": "p", "value": "T"}),
    (PredicationClass, {"class": "P4", "contexts": ["a", "b"]}),
    (CertificateRow, {"first": "P1", "second": "P2", "verdict": "distinct", "reason": "why"}),
    (CorpusResult, {
        "name": "s",
        "expectedClass": {"class": "P4", "contexts": ["a", "b"]},
        "classifiedClass": {"class": "P4", "contexts": ["a", "b"]},
        "match": True,
    }),
], ids=lambda c: getattr(c, "__name__", ""))
def test_to_json(cls, expected):
    assert cls(*RECORDS[cls][0]).to_json() == expected


def test_scenario_report_to_json():
    assert REPORT.to_json() == {
        "scenarioName": "s",
        "model": MODEL.to_json(),
        "judgments": [j.to_json() for j in JUDGMENTS],
        "expectedClass": P4.to_json(),
        "numericWitness": {"w": 0.5},
    }


# class -> its constructor's parameters, with their defaults.
SIGNATURES = {
    PredicateApp: "name, var, span=None",
    ContextGuard: "context, var, span=None",
    Not: "operand, span=None",
    And: "left, right, span=None",
    Or: "left, right, span=None",
    Implies: "left, right, span=None",
    Iff: "left, right, span=None",
    ForAll: "var, body, span=None",
    Exists: "var, body, span=None",
    NamedFormula: "name, formula, line",
    ContextDef: "name, extension=()",
    Judgment: "context, predicate, value",
    PredicationClass: "tag, contexts_used=()",
    CertificateRow: "first, second, verdict, reason",
    ScenarioReport: "scenario_name, model, judgments, expected_class, numeric_witness=None",
    CorpusResult: "name, report, classified",
}

# The records whose constructor does more than store its arguments.
HAND_WRITTEN = {ContextDef, ScenarioReport}


def _parameters(cls) -> str:
    return ", ".join(
        p.name if p.default is p.empty else f"{p.name}={p.default!r}"
        for p in inspect.signature(cls).parameters.values()
    )


def _package_records():
    """Every Record subclass defined in the package, all modules imported."""
    for module in sapta._HOMES:
        importlib.import_module(f"sapta.{module}")
    found, todo = [], [Record]
    while todo:
        subclasses = todo.pop().__subclasses__()
        todo += subclasses
        found += [cls for cls in subclasses if cls.__module__.startswith("sapta.")]
    return found


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda c: c.__name__)
def test_constructor_parameters_are_pinned(cls):
    assert _parameters(cls) == SIGNATURES[cls]
    kinds = {p.kind for p in inspect.signature(cls).parameters.values()}
    assert kinds == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_constructor_takes_keywords(cls):
    fields = CLASSES[cls][0]
    by_name = dict(zip(cls._fields, fields))
    assert cls(**by_name) == cls(*fields)
    if cls in NODES:
        assert cls(**by_name, span=SPAN_A).span == SPAN_A
        assert cls(*fields, span=SPAN_A) == cls(*fields)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_wrong_arity_names_the_class(cls):
    # The class called, also where its fields and constructor come from a base.
    owner = cls.__qualname__
    count = len(inspect.signature(cls).parameters)
    with pytest.raises(TypeError, match=rf"^{owner}\.__init__\(\) missing"):
        cls()
    with pytest.raises(TypeError, match=rf"^{owner}\.__init__\(\) takes"):
        cls(*range(count + 1))
    with pytest.raises(TypeError, match=rf"^{owner}\.__init__\(\) got an unexpected"):
        cls(*CLASSES[cls][0], bogus=1)


def test_every_package_record_takes_its_fields():
    records = _package_records()
    assert {cls for cls in records if cls._fields and cls.__name__[0] != "_"} == set(SIGNATURES)
    for cls in records:
        if not cls._fields:  # Formula and _Atom are abstract
            continue
        expected = [*cls._fields, "span"] if issubclass(cls, Formula) else list(cls._fields)
        assert list(inspect.signature(cls).parameters) == expected, cls
    hand_written = {
        cls for cls in records
        if "__init__" in vars(cls) and vars(cls)["__init__"].__code__.co_filename != "<string>"
    }
    assert hand_written == HAND_WRITTEN


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_subclass_without_fields_inherits_the_constructor(cls):
    sub = _subclass(cls)
    assert sub.__init__.__code__ is cls.__init__.__code__
    if "__init__" in vars(sub):  # a copy of a generated constructor
        assert sub.__init__.__qualname__ == f"{sub.__qualname__}.__init__"
        assert sub.__init__.__defaults__ == cls.__init__.__defaults__
    fields = CLASSES[cls][0]
    assert sub(*fields)._values() == cls(*fields)._values()


def test_node_classes_share_their_base_constructor():
    # Each gets its own copy of the base's constructor, sharing its code.
    binary = [And, Or, Implies, Iff, _Binary]
    assert len({cls.__init__ for cls in binary}) == 5
    assert len({cls.__init__.__code__ for cls in binary}) == 1
    assert ForAll.__init__ is not Exists.__init__
    assert ForAll.__init__.__code__ is Exists.__init__.__code__ is _Quantifier.__init__.__code__


@pytest.mark.parametrize("cls, args, missing", [
    (And, (P,), "right"),
    (Or, (P,), "right"),
    (Implies, (P,), "right"),
    (Iff, (P,), "right"),
    (ForAll, ("x",), "body"),
    (Exists, ("x",), "body"),
], ids=lambda v: getattr(v, "__name__", None))
def test_a_binary_or_quantifier_arity_error_names_the_class_called(cls, args, missing):
    message = f"{cls.__name__}.__init__() missing 1 required positional argument: '{missing}'"
    with pytest.raises(TypeError) as info:
        cls(*args)
    assert str(info.value) == message


def test_a_new_record_gets_a_constructor_with_defaults():
    class Pair(Record, defaults=(0,)):
        __slots__ = _fields = ("first", "second")

    class Triple(Pair, defaults=(None,)):
        __slots__ = ("third",)
        _fields = ("first", "second", "third")

    assert _parameters(Pair) == "first, second=0"
    assert Pair(1) == Pair(1, 0) == Pair(first=1, second=0)
    assert repr(Pair(1, second=2)).endswith("<locals>.Pair(first=1, second=2)")
    assert _parameters(Triple) == "first, second, third=None"
    assert Triple(1, 2)._values() == (1, 2, None)
    with pytest.raises(AttributeError):
        Pair(1).first = 2
