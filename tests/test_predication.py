"""Sevenfold classification, mutual exclusivity, entailment."""
import itertools
import random
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import sapta.certificate as certificate
import sapta.predication as predication
from sapta.certificate import canonical_witness, mutual_exclusivity_certificate
from sapta.cli import EX_ERROR, main
from sapta.errors import ModelError, UndeclaredName
from sapta.evaluation import evaluate
from sapta.inputs import judgments_from_json
from sapta.predication import (
    Entailment,
    Judgment,
    PredicationClass,
    PredicationTag,
    classify,
    entails,
    induced_model,
    judgments_to_json,
    schema_formula_for,
    tag_for_values,
)
from sapta.records import undet_name
from sapta.schemas import schema
from sapta.semantics import ContextDef, Model
from sapta.trivalent import Tv3

T, F, U = Tv3.TRUE, Tv3.FALSE, Tv3.UNDET


def incompat_model(*context_names, predicate="p"):
    names = sorted(context_names)
    return Model(
        domain=["e"],
        contexts=[ContextDef(c, {"e"}) for c in names],
        predicates=[predicate, undet_name(predicate)],
        incompatible=list(itertools.combinations(names, 2)),
        background=names[0],
    )


def J(context, value, predicate="p"):
    return Judgment(context, predicate, value)


# -- classify ----------------------------------------------------------------


def test_classify_found_alive_is_p5():
    m = incompat_model("c1", "c2")
    got = classify([J("c1", T), J("c2", U)], m, "p")
    assert got == PredicationClass(PredicationTag.P5, ("c1", "c2"))


def test_classify_found_dead_is_p6():
    m = incompat_model("c1", "c2")
    got = classify([J("c1", F), J("c2", U)], m, "p")
    assert got == PredicationClass(PredicationTag.P6, ("c1", "c2"))


def test_classify_contradiction_needs_incompatible_contexts():
    compatible = Model(
        domain=["e"],
        contexts=[ContextDef("c1", {"e"}), ContextDef("c2", {"e"})],
        predicates=["p"],
        background="c1",
    )
    got = classify([J("c1", T), J("c2", F)], compatible, "p")
    assert got.tag is PredicationTag.INCONSISTENT
    assert got.contexts_used == ("c1",)  # first context of the offending pair


@pytest.mark.parametrize("padding", [0, 20], ids=["byte-map", "set"])
def test_classify_needs_every_other_value_incompatible(padding):
    # a is incompatible with b but not with c, which asserts b's value: a is
    # the witness, though c, scanned later, is compatible with a as well.
    names = ["a", "b", "c", *(f"z{i}" for i in range(padding))]
    m = Model(["e"], [ContextDef(c, {"e"}) for c in names], ["p"],
              incompatible=[("a", "b")], background="a")
    assert (m._relation.__class__ is bytes) is (padding == 0)
    got = classify([J("a", T), J("b", F), J("c", F)], m, "p")
    assert got == PredicationClass(PredicationTag.INCONSISTENT, ("a",))


def test_classify_three_values_is_p7():
    m = incompat_model("c1", "c2", "c3")
    got = classify([J("c1", T), J("c2", F), J("c3", U)], m, "p")
    assert got == PredicationClass(PredicationTag.P7, ("c1", "c2", "c3"))


def test_classify_same_context_conflict():
    m = incompat_model("c1")
    got = classify([J("c1", T), J("c1", F)], m, "p")
    assert got == PredicationClass(PredicationTag.INCONSISTENT, ("c1",))


def test_classify_duplicate_judgments_absorbed():
    m = incompat_model("c1", "c2")
    got = classify([J("c1", T), J("c1", T), J("c2", T)], m, "p")
    assert got == PredicationClass(PredicationTag.P1, ("c1",))


def test_classify_same_value_contexts_need_not_be_incompatible():
    m = Model(
        domain=["e"],
        contexts=[ContextDef("c1", {"e"}), ContextDef("c2", {"e"}), ContextDef("c3", {"e"})],
        predicates=["p"],
        incompatible=[("c1", "c3"), ("c2", "c3")],  # c1/c2 compatible, both T
        background="c1",
    )
    got = classify([J("c1", T), J("c2", T), J("c3", U)], m, "p")
    assert got == PredicationClass(PredicationTag.P5, ("c1", "c3"))


def test_classify_witnesses_lexicographic():
    m = incompat_model("b", "a", "z")
    got = classify([J("z", T), J("a", T), J("b", U)], m, "p")
    assert got == PredicationClass(PredicationTag.P5, ("a", "b"))


def test_classify_empty_is_degenerate():
    m = incompat_model("c1")
    assert classify([], m, "p") == PredicationClass(PredicationTag.DEGENERATE, ())


def test_classify_is_per_predicate():
    m = Model(
        domain=["e"],
        contexts=[ContextDef("c1", {"e"}), ContextDef("c2", {"e"})],
        predicates=["p", "r"],
        incompatible=[("c1", "c2")],
        background="c1",
    )
    js = [J("c1", T), J("c2", F, predicate="r")]
    assert classify(js, m, "p").tag is PredicationTag.P1
    assert classify(js, m, "r").tag is PredicationTag.P2


def test_classify_undeclared_names():
    m = incompat_model("c1")
    with pytest.raises(UndeclaredName):
        classify([J("zz", T)], m, "p")
    with pytest.raises(UndeclaredName):
        classify([J("c1", T)], m, "nope")


def test_classify_exhaustive_bijection():
    m = incompat_model("c1", "c2", "c3")
    contexts = ("c1", "c2", "c3")
    seen = {}
    for r in range(1, 4):
        for values in itertools.combinations((T, F, U), r):
            js = [J(contexts[i], v) for i, v in enumerate(values)]
            got = classify(js, m, "p")
            seen[frozenset(values)] = got.tag
    assert sorted(tag.value for tag in seen.values()) == [f"P{k}" for k in range(1, 8)]
    for values, tag in seen.items():
        assert tag is tag_for_values(values)


def test_classify_permutation_invariant():
    m = incompat_model("c1", "c2", "c3")
    js = [J("c1", T), J("c2", F), J("c3", U)]
    rng = random.Random(7)
    baseline = classify(js, m, "p")
    for _ in range(10):
        shuffled = js[:]
        rng.shuffle(shuffled)
        assert classify(shuffled, m, "p") == baseline


def test_classify_invariant_under_context_renaming():
    m = incompat_model("c1", "c2")
    js = [J("c1", T), J("c2", U)]
    renaming = {"c1": "left_setup", "c2": "right_setup"}
    renamed_js = [Judgment(renaming[j.context], j.predicate, j.value) for j in js]
    renamed_m = incompat_model(*renaming.values())
    before = classify(js, m, "p")
    after = classify(renamed_js, renamed_m, "p")
    assert after.tag is before.tag
    assert after.contexts_used == tuple(renaming[c] for c in before.contexts_used)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_classify_matches_pairwise_scan(data):
    # Contexts are declared in random order, so the model's context indices
    # and the lexicographic order of names disagree.
    names = data.draw(st.permutations("abcde"))[: data.draw(st.integers(1, 5))]
    pairs = list(itertools.combinations(names, 2))
    related = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    m = Model(["e"], [ContextDef(c, {"e"}) for c in names], ["p"],
              incompatible=sorted(related), background=names[0])
    judgments = data.draw(st.lists(st.builds(J, st.sampled_from(names), st.sampled_from((T, F, U))),
                                   max_size=6))

    def reference():
        by_context = {}
        for j in judgments:
            if by_context.setdefault(j.context, j.value) is not j.value:
                return PredicationClass(PredicationTag.INCONSISTENT, (j.context,))
        if not by_context:
            return PredicationClass(PredicationTag.DEGENERATE, ())
        unordered = {frozenset(pair) for pair in related}
        for c1, c2 in itertools.combinations(sorted(by_context), 2):
            if by_context[c1] is not by_context[c2] and frozenset({c1, c2}) not in unordered:
                return PredicationClass(PredicationTag.INCONSISTENT, (c1,))
        values = set(by_context.values())
        witnesses = tuple(
            min(c for c, v in by_context.items() if v is value) for value in (T, F, U) if value in values
        )
        return PredicationClass(tag_for_values(values), witnesses)

    assert classify(judgments, m, "p") == reference()


# -- schema round-trip ---------------------------------------------------------


@pytest.mark.parametrize("values", [
    (T,), (F,), (U,), (T, F), (T, U), (F, U), (T, F, U),
])
def test_schema_round_trip(values):
    contexts = ("c1", "c2", "c3")[: len(values)]
    js = [J(c, v) for c, v in zip(contexts, values)]
    m = induced_model(js, "p")
    cls = classify(js, m, "p")
    k = cls.schema_index
    assert k is not None
    assert evaluate(schema(k, cls.contexts_used, "p"), m) is T


def test_schema_formula_for_inconsistent_is_none():
    cls = PredicationClass(PredicationTag.INCONSISTENT, ("c1",))
    assert schema_formula_for(cls, "p") is None


def test_induced_model_structure():
    js = [J("c2", U), J("c1", T)]
    m = induced_model(js, "p")
    assert m.domain == ("e",)
    assert sorted(m.contexts) == ["c1", "c2"]
    assert m.incompatible("c1", "c2")
    assert m.background == "c1"
    assert m.value("c2", "e", undet_name("p")) is T
    assert m.value("c1", "e", undet_name("p")) is F
    with pytest.raises(ModelError):
        induced_model([], "p")


def test_induced_model_names_its_entity():
    m = induced_model([J("c1", T)], "p", "electron")
    assert m.domain == ("electron",)
    assert m.value("c1", "electron", "p") is T
    assert m.value("c1", "electron", undet_name("p")) is F


def test_no_schema_or_witness_outside_p1_to_p7():
    for tag in (PredicationTag.INCONSISTENT, PredicationTag.DEGENERATE):
        assert PredicationClass(tag).schema_index is None
        with pytest.raises(ValueError):
            canonical_witness(tag)


# -- entailment ----------------------------------------------------------------


def test_entails_reflexive_and_conflicting():
    m = incompat_model("c1", "c2", "c3")
    js = [J("c1", T)]
    assert entails(js, m, J("c1", T)) is Entailment.YES
    assert entails(js, m, J("c1", F)) is Entailment.NO
    assert entails(js, m, J("c2", T)) is Entailment.UNDETERMINED
    assert [str(e) for e in Entailment] == ["Yes", "No", "Undetermined"]


def test_entails_blocks_explosion():
    m = Model(
        domain=["e"],
        contexts=[ContextDef(c, {"e"}) for c in ("c1", "c2", "c3")],
        predicates=["p", "r"],
        incompatible=[("c1", "c2")],
        background="c1",
    )
    js = [J("c1", T), J("c2", F)]  # contradiction across incompatible contexts
    assert entails(js, m, Judgment("c3", "r", T)) is Entailment.UNDETERMINED
    assert entails(js, m, Judgment("c3", "p", F)) is Entailment.UNDETERMINED
    assert entails(js, m, Judgment("c1", "r", U)) is Entailment.UNDETERMINED


def test_entails_undeclared_query_context():
    m = incompat_model("c1")
    with pytest.raises(UndeclaredName):
        entails([J("c1", T)], m, Judgment("zz", "p", T))


def test_unhashable_names_are_undeclared():
    m = incompat_model("c1")
    with pytest.raises(UndeclaredName, match=r"undeclared predicate \['p'\]"):
        classify([J("c1", T)], m, ["p"])
    with pytest.raises(UndeclaredName, match=r"undeclared context \['c1'\]"):
        classify([J(["c1"], T)], m, "p")
    with pytest.raises(UndeclaredName, match=r"undeclared context \['c1'\]"):
        entails([J("c1", T)], m, Judgment(["c1"], "p", T))


def test_entails_random_explosion_property():
    rng = random.Random(99)
    m = Model(
        domain=["e"],
        contexts=[ContextDef(c, {"e"}) for c in ("c1", "c2", "c3", "fresh")],
        predicates=["p", "r"],
        incompatible=[("c1", "c2"), ("c1", "c3"), ("c2", "c3")],
        background="c1",
    )
    for _ in range(200):
        js = [J("c1", T), J("c2", F)]
        if rng.random() < 0.5:
            js.append(J("c3", rng.choice((T, F, U))))
        rng.shuffle(js)
        query = Judgment(
            rng.choice(("fresh", "c3")) if rng.random() < 0.5 else "fresh",
            "r",
            rng.choice((T, F, U)),
        )
        assert entails(js, m, query) is Entailment.UNDETERMINED


# -- mutual exclusivity certificate ---------------------------------------------


def test_certificate_has_21_distinct_rows():
    rows = mutual_exclusivity_certificate()
    assert len(rows) == 21
    assert all(r.verdict == "distinct" for r in rows)


def test_certificate_reasons():
    rows = {(r.first, r.second): r for r in mutual_exclusivity_certificate()}
    assert rows[(PredicationTag.P1, PredicationTag.P2)].reason == "value sets {T} vs {F}"
    assert rows[(PredicationTag.P5, PredicationTag.P7)].reason == "2 vs 3 values"


def test_certificate_matches_independent_enumeration():
    # Oracle: the nonempty subsets of {T, F, U} are pairwise distinct sets.
    subsets = [
        frozenset(c)
        for r in range(1, 4)
        for c in itertools.combinations((T, F, U), r)
    ]
    assert len(subsets) == 7
    assert len(set(subsets)) == 7
    tags = [tag_for_values(s) for s in subsets]
    assert len(set(tags)) == 7


def test_canonical_witnesses_classify_to_their_tag():
    for k in range(1, 8):
        tag = PredicationTag(f"P{k}")
        js, m = canonical_witness(tag)
        assert classify(js, m, "p").tag is tag


# -- JSON ------------------------------------------------------------------------


def test_judgment_json_round_trip():
    js = (J("c1", T), J("c2", U, predicate="alive"))
    assert judgments_from_json(judgments_to_json(js)) == js
    assert [Judgment.from_json(j.to_json()) for j in js] == list(js)


def test_judgment_json_malformed():
    with pytest.raises(ModelError):
        judgments_from_json([{"context": "c1", "value": "T"}])
    with pytest.raises(ModelError):
        judgments_from_json([{"context": "c1", "predicate": "p", "value": "X"}])


@pytest.mark.parametrize("key", ["context", "predicate", "value"])
def test_judgment_without_a_key_names_it(key):
    row = {"context": "c1", "predicate": "p", "value": "T"}
    del row[key]
    with pytest.raises(ModelError) as info:
        judgments_from_json([row])
    assert str(info.value) == f"a judgment must have a {key!r} key"


@pytest.mark.parametrize("row, kind", [("c1", "str"), (["c1", "p", "T"], "list"), (None, "NoneType")])
def test_judgment_that_is_not_an_object(row, kind):
    with pytest.raises(ModelError) as info:
        judgments_from_json([row])
    assert str(info.value) == f"a judgment must be a JSON object, got {kind}"


def test_classify_is_not_quadratic_in_equal_valued_contexts():
    # With every context asserting one value no pair needs a check; a scan
    # over all later contexts of each context takes tens of seconds here.
    k = 50_000
    names = [f"c{i}" for i in range(k)]
    m = Model(["e"], [ContextDef(c, {"e"}) for c in names], ["p"], background=names[0])
    judgments = [J(c, T) for c in names]
    start = time.perf_counter()
    result = classify(judgments, m, "p")
    assert time.perf_counter() - start < 1.0
    assert result == PredicationClass(PredicationTag.P1, ("c0",))


def test_certificate_flags_every_row_of_a_mistagged_witness(monkeypatch):
    # P3's witness classified as P4: exactly the six rows pairing P3 overlap.
    real = predication.classify

    def mistag(*args):
        result = real(*args)
        if result.tag is PredicationTag.P3:
            return PredicationClass(PredicationTag.P4, result.contexts_used)
        return result

    monkeypatch.setattr(certificate, "classify", mistag)
    overlapping = {(r.first, r.second) for r in mutual_exclusivity_certificate()
                   if r.verdict == "OVERLAP"}
    tag = [PredicationTag(f"P{k}") for k in range(1, 8)]
    assert overlapping == {(tag[0], tag[2]), (tag[1], tag[2]), (tag[2], tag[3]),
                           (tag[2], tag[4]), (tag[2], tag[5]), (tag[2], tag[6])}
    assert main(["exclusivity", "--format", "text"]) == EX_ERROR
