"""`Model.from_json` against a plain-dict reference builder, and its errors.

The reference reads the JSON object the obvious way: the last valuation row
for a cell wins, unlisted cells are U, and the incompatible pairs form a set
of unordered pairs.  It shares no code with sapta's semantics.
"""
import copy
import json
import tracemalloc
from collections import namedtuple
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from sapta.errors import ModelError
from sapta.evaluation import evaluate
from sapta.parser import parse
from sapta.predication import Judgment, PredicationTag, classify
from sapta.semantics import ContextDef, Model
from sapta.trivalent import Tv3


@st.composite
def models(draw):
    """A valid model object: K <= 8 contexts, N <= 6 entities, 1-3 predicates,
    declared in shuffled order, with repeated rows and pairs allowed."""
    contexts = draw(st.permutations([f"c{i}" for i in range(draw(st.integers(0, 8)))]))
    domain = draw(st.permutations([f"e{i}" for i in range(draw(st.integers(0, 6)))]))
    predicates = draw(st.permutations([f"p{i}" for i in range(draw(st.integers(1, 3)))]))
    subsets = st.lists(st.sampled_from(domain), unique=True) if domain else st.just([])
    rows, pairs = [], []
    if contexts and domain:
        rows = draw(st.lists(st.fixed_dictionaries({
            "context": st.sampled_from(contexts),
            "entity": st.sampled_from(domain),
            "predicate": st.sampled_from(predicates),
            "value": st.sampled_from("TFU"),
        }), max_size=40))
    if len(contexts) > 1:
        pairs = draw(st.lists(st.lists(st.sampled_from(contexts), min_size=2, max_size=2, unique=True),
                              max_size=30))
    return {
        "domain": domain,
        "background": draw(st.sampled_from(contexts)) if contexts else None,
        "contexts": [{"name": c, "extension": draw(subsets)} for c in contexts],
        "predicates": predicates,
        "valuation": rows,
        "incompatible": pairs,
    }


def reference(data):
    """(to_json() form, defaulted cell count) of a valid model object."""
    listed = {}
    for row in data["valuation"]:
        listed[(row["context"], row["entity"], row["predicate"])] = row["value"]
    names = [c["name"] for c in data["contexts"]]
    cells = [(c, e, p) for c in sorted(names) for e in sorted(data["domain"])
             for p in sorted(data["predicates"])]
    form = {
        "domain": data["domain"],
        "background": data["background"],
        "contexts": [{"name": c["name"], "extension": sorted(c["extension"])}
                     for c in data["contexts"]],
        "predicates": data["predicates"],
        "valuation": [{"context": c, "entity": e, "predicate": p, "value": listed.get((c, e, p), "U")}
                      for c, e, p in cells],
        "incompatible": sorted(sorted(pair) for pair in {frozenset(p) for p in data["incompatible"]}),
    }
    return form, len(cells) - len(listed)


DUPLICATE_ROWS = {
    "domain": ["a"],
    "background": "c",
    "contexts": [{"name": "c", "extension": ["a"]}],
    "predicates": ["p", "q"],
    "valuation": [
        {"context": "c", "entity": "a", "predicate": "p", "value": "T"},
        {"context": "c", "entity": "a", "predicate": "p", "value": "F"},
    ],
    "incompatible": [],
}


@settings(max_examples=300, deadline=None)
@given(models())
@example(DUPLICATE_ROWS)
def test_from_json_matches_reference(data):
    model = Model.from_json(copy.deepcopy(data))
    form, defaulted = reference(data)
    assert model.to_json() == form
    assert model.defaulted_valuations == defaulted


def test_repeated_row_counts_its_cell_once_and_the_last_row_wins():
    model = Model.from_json(DUPLICATE_ROWS)
    assert model.defaulted_valuations == 1
    assert model.value("c", "a", "p").value == "F"


# -- one fault at a time ------------------------------------------------------------

BASE = {
    "domain": ["e0", "e1"],
    "background": "c0",
    "contexts": [{"name": "c0", "extension": ["e0"]}, {"name": "c1"}, {"name": "c2"}],
    "predicates": ["p0"],
    "valuation": [
        {"context": "c0", "entity": "e0", "predicate": "p0", "value": "T"},
        {"context": "c1", "entity": "e1", "predicate": "p0", "value": "F"},
    ],
    "incompatible": [["c0", "c1"], ["c2", "c1"]],
}


def _row(**changes):
    row = {"context": "c0", "entity": "e1", "predicate": "p0", "value": "U"}
    row.update(changes)
    return row


# (array, bad entry, the message it raises)
FAULTS = [
    ("contexts", "c3", "every entry of 'contexts' must be a JSON object, got str"),
    ("contexts", ["c3"], "every entry of 'contexts' must be a JSON object, got list"),
    ("contexts", {}, "every entry of 'contexts' must have a 'name' key"),
    ("contexts", {"extension": ["e0"]}, "every entry of 'contexts' must have a 'name' key"),
    ("incompatible", "c0c1", "incompatible entry must be a pair of context names, got 'c0c1'"),
    ("incompatible", {"c0": 1, "c1": 2},
     "incompatible entry must be a pair of context names, got {'c0': 1, 'c1': 2}"),
    ("incompatible", ["c0", "c1", "c2"],
     "incompatible entry must be a pair of context names, got ['c0', 'c1', 'c2']"),
    ("incompatible", ["c0"], "incompatible entry must be a pair of context names, got ['c0']"),
    ("incompatible", ["c0", 1], "incompatible entry must be a pair of context names, got ['c0', 1]"),
    ("incompatible", [["c0"], "c1"],
     "incompatible entry must be a pair of context names, got [['c0'], 'c1']"),
    ("incompatible", ["c0", "zz"], "incompatible pair ('c0', 'zz') names an undeclared context"),
    ("incompatible", ["c2", "c2"], "context 'c2' cannot be incompatible with itself"),
    ("valuation", _row(value="X"),
     "malformed valuation row {'context': 'c0', 'entity': 'e1', 'predicate': 'p0', 'value': 'X'}: "
     "not a truth value: 'X' (expected 'T', 'F' or 'U')"),
    ("valuation", _row(value=None),
     "malformed valuation row {'context': 'c0', 'entity': 'e1', 'predicate': 'p0', 'value': None}: "
     "not a truth value: None (expected 'T', 'F' or 'U')"),
    ("valuation", {"context": "c0", "entity": "e1", "value": "T"},
     "malformed valuation row {'context': 'c0', 'entity': 'e1', 'value': 'T'}: 'predicate'"),
    ("valuation", ["c0", "e1", "p0", "T"],
     "malformed valuation row ['c0', 'e1', 'p0', 'T']: "
     "list indices must be integers or slices, not str"),
    ("valuation", _row(entity=["e1"]),
     "malformed valuation row {'context': 'c0', 'entity': ['e1'], 'predicate': 'p0', 'value': 'U'}: "
     "unhashable type: 'list'"),
    ("valuation", _row(context="zz"), "valuation names undeclared context 'zz'"),
    ("valuation", _row(context=7), "valuation names undeclared context 7"),
    ("valuation", _row(entity="zz"), "valuation names undeclared entity 'zz'"),
    ("valuation", _row(predicate="c1"), "valuation names undeclared predicate 'c1'"),
    ("contexts", {"name": "{0}", "extension": "e0"}, "the extension of '{0}' must be an array, got str"),
    ("contexts", {"name": "{0}", "extension": ["e0", 1]},
     "every entry of the extension of '{0}' must be a string, got 1"),
]


# BASE stores its relation as a byte map.  SPARSE_BASE is the same model with
# enough pair-free contexts that K·K > 64 entries even with one bad entry
# added, so it stores a set.
SPARSE_BASE = copy.deepcopy(BASE)
SPARSE_BASE["contexts"] += [{"name": f"x{i}"} for i in range(14)]
assert len(BASE["contexts"]) ** 2 <= 64 * len(BASE["incompatible"])
assert len(SPARSE_BASE["contexts"]) ** 2 > 64 * (len(SPARSE_BASE["incompatible"]) + 1)


@pytest.mark.parametrize("at_end", [False, True])
@pytest.mark.parametrize("field, bad, message", FAULTS)
def test_single_fault_message(field, bad, message, at_end):
    for base in (BASE, SPARSE_BASE):
        data = copy.deepcopy(base)
        Model.from_json(copy.deepcopy(data))
        data[field].insert(len(data[field]) if at_end else 0, bad)
        with pytest.raises(ModelError) as info:
            Model.from_json(data)
        assert str(info.value) == message


@pytest.mark.parametrize("field, bad, message", [
    ("valuation", _row(entity="zz"), "valuation names undeclared entity 'zz'"),
    ("incompatible", ["c0", "zz"], "incompatible pair ('c0', 'zz') names an undeclared context"),
    ("incompatible", ["c2", "c2"], "context 'c2' cannot be incompatible with itself"),
])
def test_constructor_fault_message_is_the_one_from_json_gives(field, bad, message):
    # `Model(...)` reaches the fault search that `Model._build` loads only
    # once a row or pair has failed, as `Model.from_json` does.
    for base in (BASE, SPARSE_BASE):
        data = copy.deepcopy(base)
        data[field].append(bad)
        with pytest.raises(ModelError) as loaded:
            Model.from_json(copy.deepcopy(data))
        with pytest.raises(ModelError) as built:
            Model(
                data["domain"],
                [ContextDef(c["name"], c.get("extension", ())) for c in data["contexts"]],
                data["predicates"],
                {(r["context"], r["entity"], r["predicate"]): Tv3.from_str(r["value"])
                 for r in data["valuation"]},
                [tuple(pair) for pair in data["incompatible"]],
                data["background"],
            )
        assert str(built.value) == str(loaded.value) == message


@pytest.mark.parametrize("data", [[], "model", None])
def test_model_that_is_not_an_object(data):
    with pytest.raises(ModelError) as info:
        Model.from_json(data)
    assert str(info.value) == f"a model must be a JSON object, got {type(data).__name__}"


@pytest.mark.parametrize("key", ["domain", "contexts", "predicates"])
def test_missing_model_key_is_named(key):
    data = copy.deepcopy(BASE)
    del data[key]
    with pytest.raises(ModelError) as info:
        Model.from_json(data)
    assert str(info.value) == f"a model must have a {key!r} key"


def test_two_letter_string_is_not_a_pair_of_one_letter_contexts():
    data = {"domain": [], "background": "a", "contexts": [{"name": "a"}, {"name": "b"}],
            "predicates": ["p"], "incompatible": ["ab"]}
    with pytest.raises(ModelError, match="incompatible entry must be a pair of context names, got 'ab'"):
        Model.from_json(data)


Pair = namedtuple("Pair", "first second")


class PairList(list):
    pass


@pytest.mark.parametrize("make", [Pair, lambda a, b: PairList([a, b])], ids=["namedtuple", "list"])
def test_a_pair_may_be_a_tuple_or_list_subclass(make):
    contexts = [ContextDef(c) for c in ("a", "b", "c")]
    plain = Model([], contexts, ["p"], incompatible=[("b", "a")], background="a")
    built = Model([], contexts, ["p"], incompatible=[make("b", "a")], background="a")
    assert built.to_json() == plain.to_json()
    assert built.incompatible("a", "b")


# -- both relation stores -------------------------------------------------------------


@st.composite
def relations(draw):
    """(context names in declared order, incompatible pairs, judgments) on
    either side of the byte-map rule K·K <= 64 entries: a few pairs over many
    contexts, or most of the pairs over a few contexts."""
    if draw(st.booleans()):
        names = draw(st.permutations([f"c{i}" for i in range(draw(st.integers(20, 60)))]))
        pairs = draw(st.lists(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True),
                              max_size=5))
        assert len(names) ** 2 > 64 * len(pairs)
    else:
        names = draw(st.permutations([f"c{i}" for i in range(draw(st.integers(2, 8)))]))
        every = list(combinations(names, 2))
        dropped = draw(st.sets(st.sampled_from(every), max_size=(len(every) - 1) // 2))
        pairs = [list(pair)[::draw(st.sampled_from((1, -1)))] for pair in every if pair not in dropped]
        assert len(names) ** 2 <= 64 * len(pairs)
    judged = sorted({c for pair in pairs for c in pair}) + draw(
        st.lists(st.sampled_from(names), min_size=1, max_size=3))
    judgments = draw(st.lists(st.builds(Judgment, st.sampled_from(judged), st.sampled_from("pq"),
                                        st.sampled_from(Tv3)), max_size=12))
    return names, pairs, judgments


_TAGS = {frozenset(values): f"P{k}" for k, values in
         enumerate(("T", "F", "U", "TF", "TU", "FU", "TFU"), 1)}


def classify_oracle(judgments, related, predicate):
    """(class, contexts) of a judgment set, with the relation a set of frozensets."""
    by_context = {}
    for j in judgments:
        if j.predicate == predicate and by_context.setdefault(j.context, j.value) is not j.value:
            return "Inconsistent", [j.context]
    if not by_context:
        return "Degenerate", []
    for a, b in combinations(sorted(by_context), 2):
        if by_context[a] is not by_context[b] and frozenset((a, b)) not in related:
            return "Inconsistent", [a]
    values = {v.value for v in by_context.values()}
    return _TAGS[frozenset(values)], [min(c for c, v in by_context.items() if v.value == value)
                                       for value in "TFU" if value in values]


@settings(max_examples=300, deadline=None)
@given(relations())
def test_both_relation_stores_match_a_set_of_pairs(drawn):
    names, pairs, judgments = drawn
    related = {frozenset(pair) for pair in pairs}
    model = Model.from_json({"domain": ["e"], "background": names[0], "predicates": ["p", "q"],
                             "contexts": [{"name": c} for c in names], "incompatible": pairs})
    assert model.to_json()["incompatible"] == sorted(sorted(pair) for pair in related)
    for a in names:
        for b in names:
            assert model.incompatible(a, b) == (frozenset((a, b)) in related)
    for predicate in "pq":
        result = classify(judgments, model, predicate)
        assert [result.tag.value, list(result.contexts_used)] == list(
            classify_oracle(judgments, related, predicate))


def _traced_build(data):
    """(model, bytes retained, peak bytes) of building a model from `data`."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        model = Model.from_json(data)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return model, retained - before, peak - before


def test_dense_relation_takes_a_byte_a_context_pair():
    # All K(K-1)/2 = 179,700 pairs of 600 contexts: a set of the packed
    # pairs retained 14.6 MB, the K·K byte map takes 0.36 MB.
    names = [f"k{i:03d}" for i in range(600)]
    data = json.loads(json.dumps({
        "domain": ["e"], "background": "k000", "predicates": ["p"],
        "contexts": [{"name": c, "extension": ["e"]} for c in names],
        "incompatible": list(combinations(names, 2)),
    }))
    model, retained, _ = _traced_build(data)
    assert model.incompatible("k599", "k000")
    assert retained < 2_000_000


def test_many_contexts_and_one_pair_allocate_nothing_quadratic():
    # A byte map over 20,000 contexts would take 400 MB.
    def model(pairs):
        return json.dumps({
            "domain": ["e"], "background": "c0", "predicates": ["p"],
            "contexts": [{"name": f"c{i}"} for i in range(20_000)], "incompatible": pairs,
        })

    text = model([["c19999", "c0"]])
    one, _, one_peak = _traced_build(json.loads(text))
    _, _, none_peak = _traced_build(json.loads(model([])))
    assert one.incompatible("c0", "c19999")
    assert one_peak - none_peak < 1_000_000
    assert one_peak < 50 * len(text)


def test_one_pair_test_on_a_dense_relation_reads_one_byte():
    # 2,000 contexts, each incompatible with the next 32: enough pairs for
    # the K·K byte map.  Testing one pair reads its byte; a K-byte mask and
    # a K-byte row of the map took 4.4 kB a call.
    k = 2000
    names = [f"c{i}" for i in range(k)]
    pairs = [(names[i], names[j]) for i in range(k) for j in range(i + 1, min(k, i + 33))]
    model = Model(["e"], [ContextDef(c) for c in names], ["p"], incompatible=pairs, background="c0")
    assert model._relation.__class__ is bytes
    assert model.incompatible("c1999", "c1967") and not model.incompatible("c0", "c1999")
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert model.incompatible("c1000", "c1020")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 1_000


# -- one row writer behind both constructors ------------------------------------------


@settings(max_examples=200, deadline=None)
@given(models())
@example(DUPLICATE_ROWS)
def test_constructor_and_from_json_agree(data):
    valuation = {(r["context"], r["entity"], r["predicate"]): Tv3.from_str(r["value"])
                 for r in data["valuation"]}
    built = Model(
        data["domain"],
        [ContextDef(c["name"], c["extension"]) for c in data["contexts"]],
        data["predicates"],
        valuation,
        [tuple(pair) for pair in data["incompatible"]],
        data["background"],
    )
    loaded = Model.from_json(copy.deepcopy(data))
    assert built.to_json() == loaded.to_json()
    assert built.defaulted_valuations == loaded.defaulted_valuations


def test_rowless_model_memory_follows_the_file_not_the_declared_cells():
    # 2000 entities x 250 contexts x 100 predicates = 5e7 cells, no rows.
    text = json.dumps({
        "domain": [f"e{i}" for i in range(2000)],
        "background": "c0",
        "contexts": [{"name": f"c{i}"} for i in range(250)],
        "predicates": [f"p{i}" for i in range(100)],
        "valuation": [],
        "incompatible": [],
    })
    data = json.loads(text)
    formula = parse("forall x. p99(x)")  # reads the background column c0 of p99
    judgments = [Judgment("c0", "p0", Tv3.TRUE), Judgment("c1", "p0", Tv3.FALSE)]
    tracemalloc.start()
    try:
        model = Model.from_json(data)
        value = evaluate(formula, model)
        tag = classify(judgments, model, "p0").tag
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.defaulted_valuations == 50_000_000
    assert value is Tv3.UNDET
    assert tag is PredicationTag.INCONSISTENT  # c0 and c1 are not declared incompatible
    assert peak < 50 * len(text.encode())


def test_building_columns_holds_no_second_copy_of_them():
    # N = 20,000 entities; one row in each of the K x P = 2,000 columns, so
    # the columns take 40 MB and the file about 334 KB.
    n, k, p = 20_000, 50, 40
    data = json.loads(json.dumps({
        "domain": [f"e{i}" for i in range(n)],
        "background": "c0",
        "contexts": [{"name": f"c{c}"} for c in range(k)],
        "predicates": [f"p{q}" for q in range(p)],
        "valuation": [{"context": f"c{c}", "entity": f"e{c * p + q}", "predicate": f"p{q}",
                       "value": "TFU"[q % 3]} for c in range(k) for q in range(p)],
    }))
    model, retained, peak = _traced_build(data)
    assert model.defaulted_valuations == n * k * p - k * p
    assert model.value("c49", "e1999", "p39") is Tv3.TRUE  # "TFU"[39 % 3]
    assert retained > n * k * p
    assert peak <= 1.1 * retained
