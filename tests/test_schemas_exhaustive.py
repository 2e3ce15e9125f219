"""Exhaustive small-scope checks of the seven schemas and of the exclusivity
certificate's witnesses.

Every schema 1-7 is its guarded implications, in the order of its contexts,
followed by the pairwise clauses in the published order; reordering its
clauses or swapping a clause's sides changes its value on no model of a
small family, in either incompatibility mode.  Schema k alone holds on the
canonical witness of P_k, and each P4-P7 schema, like its witness, turns
false or `Inconsistent` when any one declared pair leaves the induced model.
"""
from __future__ import annotations

from itertools import combinations, permutations, product

import pytest

from sapta.certificate import canonical_witness
from sapta.evaluation import evaluate
from sapta.formulas import And, ContextGuard, ForAll, Iff, Implies, Not, PredicateApp
from sapta.predication import PredicationTag, classify
from sapta.records import PREDICATIONS, undet_name
from sapta.schemas import schema
from sapta.semantics import ContextDef, Model
from sapta.trivalent import Tv3

CONTEXTS = ("c1", "c2", "c3")
MODES = ("relational", "extensional")
# The clause pairs of each arity, as published: (1,2); (1,2), (2,3), (1,3).
PUBLISHED_PAIRS = {1: [], 2: [("c1", "c2")], 3: [("c1", "c2"), ("c2", "c3"), ("c1", "c3")]}


def _arity(k: int) -> int:
    return len(PREDICATIONS[k][0])


def _clause(a: str, b: str):
    return Not(Iff(ContextGuard(a, "x"), ContextGuard(b, "x")))


def _instance(implications: list, clauses: list):
    """The schema's shape, a left-nested conjunction under `forall x`, with
    the given clause list after the implications."""
    conjuncts = implications + clauses
    body = conjuncts[0]
    for c in conjuncts[1:]:
        body = And(body, c)
    return ForAll("x", body)


def _parts(k: int):
    """Schema k over the first contexts: its conjuncts in order, split into
    its guarded implications and its clause pairs."""
    f = schema(k, CONTEXTS[:_arity(k)], "p")
    conjuncts = []
    todo = [f.body]
    while todo:
        part = todo.pop()
        if isinstance(part, And):
            todo += [part.right, part.left]
        else:
            conjuncts.append(part)
    implications = [c for c in conjuncts if isinstance(c, Implies)]
    pairs = [(c.operand.left.context, c.operand.right.context) for c in conjuncts if isinstance(c, Not)]
    return f, conjuncts, implications, pairs


def _consequent(kind: str):
    p = PredicateApp("p", "x")
    return {"T": p, "F": Not(p), "U": PredicateApp(undet_name("p"), "x")}[kind]


@pytest.mark.parametrize("k", sorted(PREDICATIONS))
def test_schema_is_its_guarded_implications_then_its_clauses(k):
    f, conjuncts, implications, pairs = _parts(k)
    names = list(CONTEXTS[:_arity(k)])
    assert f.var == "x"
    assert conjuncts == implications + [_clause(*p) for p in pairs]
    assert _instance(implications, [_clause(*p) for p in pairs]) == f
    assert implications == [
        Implies(ContextGuard(c, "x"), _consequent(kind)) for c, kind in zip(names, PREDICATIONS[k][0])
    ]
    assert pairs == PUBLISHED_PAIRS[len(names)]
    # No other schema over the same contexts builds the same formula.
    assert [k2 for k2 in PREDICATIONS if _arity(k2) == len(names)
            and schema(k2, names, "p") == f] == [k]


def _variants(k: int):
    """Models over schema k's contexts and one entity: every subset of the
    context pairs declared incompatible, every set of contexts the entity
    lies in, and the valuation of the canonical witness or that valuation
    with each value moved on one place (T to F, F to U, U to T)."""
    names = list(CONTEXTS[:_arity(k)])
    _, witness = canonical_witness(PredicationTag(f"P{k}"))
    row = dict(zip(names, PREDICATIONS[k][0]))
    moved = {"T": "F", "F": "U", "U": "T"}
    all_pairs = list(combinations(names, 2))
    for kinds in (row, {c: moved[v] for c, v in row.items()}):
        valuation = {}
        for c, kind in kinds.items():
            valuation[(c, "e", "p")] = Tv3.from_str(kind)
            valuation[(c, "e", undet_name("p"))] = Tv3.from_bool(kind == "U")
        for related in product((False, True), repeat=len(all_pairs)):
            for inside in product((False, True), repeat=len(names)):
                yield Model(
                    domain=["e"],
                    contexts=[ContextDef(c, {"e"} if i else set()) for c, i in zip(names, inside)],
                    predicates=witness.predicates,
                    valuation=valuation,
                    incompatible=[p for p, r in zip(all_pairs, related) if r],
                    background=names[0],
                )


@pytest.mark.parametrize("k", sorted(PREDICATIONS))
def test_schema_value_ignores_clause_order_and_sides(k):
    f, _, implications, pairs = _parts(k)
    instances = []
    for order in permutations(pairs):
        for swaps in product((False, True), repeat=len(pairs)):
            instances.append(_instance(implications, [
                _clause(b, a) if swap else _clause(a, b) for (a, b), swap in zip(order, swaps)
            ]))
    assert len(instances) == {0: 1, 1: 2, 3: 48}[len(pairs)]
    seen = set()
    for model in _variants(k):
        for mode in MODES:
            want = evaluate(f, model, incompat_mode=mode)
            seen.add(want)
            for g in instances:
                assert evaluate(g, model, incompat_mode=mode) is want, (g, model.to_json(), mode)
    # The family tells schemas that hold from schemas that do not.
    assert Tv3.TRUE in seen and len(seen) > 1


@pytest.mark.parametrize("k", sorted(PREDICATIONS))
def test_schema_k_alone_holds_on_the_witness_of_pk(k):
    names = list(CONTEXTS[:_arity(k)])
    _, model = canonical_witness(PredicationTag(f"P{k}"))
    got = {k2: evaluate(schema(k2, names, "p"), model)
           for k2 in PREDICATIONS if _arity(k2) == len(names)}
    assert [k2 for k2, v in got.items() if v is Tv3.TRUE] == [k]
    # All contexts share the one entity, so read extensionally every
    # incompatibility clause, and with it every P4-P7 schema, is false.
    want = Tv3.TRUE if len(names) == 1 else Tv3.FALSE
    assert evaluate(schema(k, names, "p"), model, incompat_mode="extensional") is want


WITNESSED = [PredicationTag(f"P{k}") for k in range(4, 8)]


def _without(model: Model, pair: list) -> Model:
    data = model.to_json()
    data["incompatible"] = [p for p in data["incompatible"] if p != pair]
    return Model.from_json(data)


@pytest.mark.parametrize("tag", WITNESSED, ids=str)
def test_a_witness_without_any_one_declared_pair_is_inconsistent(tag):
    judgments, model = canonical_witness(tag)
    assert classify(judgments, model, "p").tag is tag
    pairs = model.to_json()["incompatible"]
    assert len(pairs) == {2: 1, 3: 3}[len(judgments)]
    for pair in pairs:
        got = classify(judgments, _without(model, pair), "p")
        assert got.tag is PredicationTag.INCONSISTENT, pair
        assert got.contexts_used == (pair[0],)  # the first context, in name order, with a partner


@pytest.mark.parametrize("tag", WITNESSED, ids=str)
def test_a_schema_without_any_one_declared_pair_is_false(tag):
    judgments, model = canonical_witness(tag)
    f = schema(int(tag.value[1:]), [j.context for j in judgments], "p")
    assert evaluate(f, model) is Tv3.TRUE
    for pair in model.to_json()["incompatible"]:
        assert evaluate(f, _without(model, pair)) is Tv3.FALSE, pair
