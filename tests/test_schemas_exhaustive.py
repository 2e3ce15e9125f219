"""Exhaustive small-scope checks of `guard_of` and of the exclusivity
certificate's witnesses.

`guard_of` runs on every schema 1-7 and on every clause list one edit away
from the right one: each clause dropped, duplicated, or replaced by another
pair, and each pair inserted, over the guards plus one foreign context, self
pairs included.  Every edit raises `NotASchema`; swapping a clause's sides
or reordering the clauses does not.  Each P4-P7 witness of the certificate
turns `Inconsistent` when any one declared pair leaves its induced model.
"""
from __future__ import annotations

from itertools import permutations, product

import pytest

from sapta.certificate import canonical_witness
from sapta.errors import NotASchema
from sapta.formulas import And, ContextGuard, ForAll, Iff, Implies, Not
from sapta.predication import PredicationTag, classify
from sapta.records import PREDICATIONS
from sapta.schemas import guard_of, schema
from sapta.semantics import Model

CONTEXTS = ("c1", "c2", "c3")
FOREIGN = "z"


def _arity(k: int) -> int:
    return len(PREDICATIONS[k][0])


def _guard(c: str):
    return ContextGuard(c, "x")


def _clause(a: str, b: str):
    return Not(Iff(_guard(a), _guard(b)))


def _instance(implications: list, clauses: list):
    """The schema's shape, a left-nested conjunction under `forall x`, with
    the given clause list after the implications."""
    conjuncts = implications + clauses
    body = conjuncts[0]
    for c in conjuncts[1:]:
        body = And(body, c)
    return ForAll("x", body)


def _parts(k: int):
    """Schema k over the first contexts: its guarded implications, its clause
    pairs in order, and the pairs guard_of returns for it."""
    names = CONTEXTS[:_arity(k)]
    f = schema(k, names, "p")
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
    return f, implications, pairs, [(i.left.context, i.right) for i in implications]


@pytest.mark.parametrize("k", sorted(PREDICATIONS))
def test_guard_of_round_trips_every_schema(k):
    f, implications, pairs, want = _parts(k)
    assert _instance(implications, [_clause(*p) for p in pairs]) == f
    assert guard_of(f) == want
    names = [c for c, _ in want]
    assert names == list(CONTEXTS[:_arity(k)])
    # The consequents name the schema again.
    assert [k2 for k2 in PREDICATIONS if _arity(k2) == len(names)
            and schema(k2, names, "p") == f] == [k]


@pytest.mark.parametrize("k", sorted(PREDICATIONS))
def test_guard_of_accepts_swapped_sides_and_any_clause_order(k):
    _, implications, pairs, want = _parts(k)
    seen = 0
    for order in permutations(pairs):
        for swaps in product((False, True), repeat=len(pairs)):
            clauses = [_clause(b, a) if swap else _clause(a, b) for (a, b), swap in zip(order, swaps)]
            assert guard_of(_instance(implications, clauses)) == want, clauses
            seen += 1
    assert seen == {0: 1, 1: 2, 3: 48}[len(pairs)]


def _one_edit_away(pairs: list, names: list):
    """Every clause list one edit from `pairs` that no longer lists the same
    set of unordered pairs once each."""
    everyone = [*names, FOREIGN]
    candidates = list(product(everyone, repeat=2))  # self pairs included
    for i in range(len(pairs)):
        yield "drop", pairs[:i] + pairs[i + 1:]
        for j in range(len(pairs) + 1):
            yield "duplicate", pairs[:j] + [pairs[i]] + pairs[j:]
        for other in candidates:
            if {*other} != {*pairs[i]}:
                yield "replace", pairs[:i] + [other] + pairs[i + 1:]
    for other in candidates:
        for j in range(len(pairs) + 1):
            yield "insert", pairs[:j] + [other] + pairs[j:]


@pytest.mark.parametrize("k", sorted(PREDICATIONS))
def test_guard_of_rejects_every_clause_list_one_edit_away(k):
    _, implications, pairs, _ = _parts(k)
    names = [i.left.context for i in implications]
    counts: dict[str, int] = {}
    for edit, edited in _one_edit_away(pairs, names):
        with pytest.raises(NotASchema):
            guard_of(_instance(implications, [_clause(a, b) for a, b in edited]))
        counts[edit] = counts.get(edit, 0) + 1
    m, n = len(pairs), (len(names) + 1) ** 2  # clauses, and candidate pairs
    want = {"insert": n * (m + 1)}
    if m:
        want.update(drop=m, duplicate=m * (m + 1), replace=m * (n - 2))
    assert counts == want


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
