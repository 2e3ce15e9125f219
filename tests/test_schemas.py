"""Shapes and error paths of the seven predication schema builders."""
import pytest

from sapta.errors import ArityMismatch, DuplicateContext
from sapta.formulas import (
    And,
    ContextGuard,
    ForAll,
    Iff,
    Implies,
    Not,
    PredicateApp,
    pretty,
)
from sapta.parser import parse
from sapta.records import undet_name
from sapta.schemas import schema


def test_schema_one_shape():
    assert schema(1, ["c"], "p") == ForAll(
        "x", Implies(ContextGuard("c", "x"), PredicateApp("p", "x"))
    )


def test_schema_two_negates():
    assert schema(2, ["c"], "p") == ForAll(
        "x", Implies(ContextGuard("c", "x"), Not(PredicateApp("p", "x")))
    )


def test_schema_three_uses_indeterminacy_predicate():
    assert schema(3, ["c"], "p") == ForAll(
        "x", Implies(ContextGuard("c", "x"), PredicateApp(undet_name("p"), "x"))
    )


def test_schema_four_shape():
    g1, g2 = ContextGuard("c1", "x"), ContextGuard("c2", "x")
    p = PredicateApp("p", "x")
    expected = ForAll(
        "x",
        And(And(Implies(g1, p), Implies(g2, Not(p))), Not(Iff(g1, g2))),
    )
    assert schema(4, ["c1", "c2"], "p") == expected


def test_schema_seven_has_three_guards_and_three_clauses():
    text = pretty(schema(7, ["c1", "c2", "c3"], "p"))
    assert text == (
        "forall x. ((c1(x) -> p(x)) & (c2(x) -> ~p(x)) & (c3(x) -> p_undet(x))"
        " & ~(c1(x) <-> c2(x)) & ~(c2(x) <-> c3(x)) & ~(c1(x) <-> c3(x)))"
    )


def test_schema_arity_errors():
    with pytest.raises(ArityMismatch):
        schema(4, ["c"], "p")
    with pytest.raises(ArityMismatch):
        schema(1, ["c1", "c2"], "p")
    with pytest.raises(ArityMismatch):
        schema(7, ["c1", "c2"], "p")


def test_schema_duplicate_context():
    with pytest.raises(DuplicateContext):
        schema(4, ["c", "c"], "p")


def test_schema_index_range():
    with pytest.raises(ValueError):
        schema(0, ["c"], "p")
    with pytest.raises(ValueError):
        schema(8, ["c"], "p")


def test_seven_schemas_pairwise_distinct():
    contexts = ["c1", "c2", "c3"]
    built = [schema(k, contexts[: {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 3}[k]], "p") for k in range(1, 8)]
    for i in range(7):
        for j in range(i + 1, 7):
            assert built[i] != built[j]


def test_schema_round_trips_through_concrete_syntax():
    for k, names in [(1, ["c1"]), (4, ["c1", "c2"]), (7, ["c1", "c2", "c3"])]:
        f = schema(k, names, "p")
        assert parse(pretty(f), contexts=names) == f


# Each schema written out by hand, over contexts w1..w3 and predicate r.
_SCHEMA_TEXTS = {
    1: "forall x. (w1(x) -> r(x))",
    2: "forall x. (w1(x) -> ~r(x))",
    3: "forall x. (w1(x) -> r_undet(x))",
    4: "forall x. ((w1(x) -> r(x)) & (w2(x) -> ~r(x)) & ~(w1(x) <-> w2(x)))",
    5: "forall x. ((w1(x) -> r(x)) & (w2(x) -> r_undet(x)) & ~(w1(x) <-> w2(x)))",
    6: "forall x. ((w1(x) -> ~r(x)) & (w2(x) -> r_undet(x)) & ~(w1(x) <-> w2(x)))",
    7: "forall x. ((w1(x) -> r(x)) & (w2(x) -> ~r(x)) & (w3(x) -> r_undet(x))"
       " & ~(w1(x) <-> w2(x)) & ~(w2(x) <-> w3(x)) & ~(w1(x) <-> w3(x)))",
}


@pytest.mark.parametrize("k", sorted(_SCHEMA_TEXTS))
def test_schema_is_its_text_written_out(k):
    text = _SCHEMA_TEXTS[k]
    names = ["w1", "w2", "w3"][: text.count(" -> ")]
    assert schema(k, names, "r") == parse(text, contexts=names)


def test_schema_guards_follow_the_given_context_order():
    f = schema(7, ["b", "c", "a"], "p")
    assert pretty(f) == (
        "forall x. ((b(x) -> p(x)) & (c(x) -> ~p(x)) & (a(x) -> p_undet(x))"
        " & ~(b(x) <-> c(x)) & ~(c(x) <-> a(x)) & ~(b(x) <-> a(x)))"
    )
    assert f != schema(7, ["a", "b", "c"], "p")
