"""Exhaustive small-scope checks of `classify` and `entails` against oracles
written apart from `predication`.

`classify` runs on every assignment of nothing, one value or two values to
each of up to four contexts, under every incompatibility relation on them,
once with the relation held as a byte map and once as a set of keys.
`entails` runs on every list of up to three judgments over two contexts.
"""
from __future__ import annotations

from itertools import combinations, product

import pytest

from sapta.predication import Entailment, Judgment, classify, entails
from sapta.semantics import ContextDef, Model
from sapta.trivalent import Tv3
from test_model_build import classify_oracle  # pairwise, written apart from `predication`

T, F, U = Tv3.TRUE, Tv3.FALSE, Tv3.UNDET

# Declared in another order than the names sort in, so that an index is
# never a name's rank.
CONTEXTS = ("d", "b", "c", "a")
# What one context asserts: nothing, one value, or two values in either order.
OPTIONS = ((), (T,), (F,), (U,), (T, F), (U, T), (F, U))


def _model(names, related, padding):
    """A model over `names` with `padding` pair-free contexts declared first."""
    contexts = [ContextDef(c, {"e"}) for c in [*(f"z{i:02d}" for i in range(padding)), *names]]
    return Model(["e"], contexts, ["p", "q"], incompatible=related, background=contexts[0].name)


def _judgment_sets(names):
    """Every assignment of OPTIONS to `names`: the first judgment of each
    context, then the second ones, after a clash on another predicate."""
    decoy = [Judgment(names[0], "q", T), Judgment(names[0], "q", F)]
    for assignment in product(OPTIONS, repeat=len(names)):
        firsts = [Judgment(c, "p", values[0]) for c, values in zip(names, assignment) if values]
        seconds = [Judgment(c, "p", values[1]) for c, values in zip(names, assignment) if len(values) > 1]
        yield decoy + firsts + seconds


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_classify_matches_the_pairwise_oracle_on_every_small_case(k):
    names = CONTEXTS[:k]
    pairs = list(combinations(names, 2))
    judgment_sets = list(_judgment_sets(names))
    for chosen in product((False, True), repeat=len(pairs)):
        related = [pair for pair, keep in zip(pairs, chosen) if keep]
        # The byte map holds a relation whose K·K is at most 64 times its
        # entries; an empty relation is a set however few the contexts.
        padding = 0
        while (k + padding) ** 2 <= 64 * len(related):
            padding += 1
        dense, sparse = _model(names, related, 0), _model(names, related, padding)
        assert (dense._relation.__class__ is bytes) is bool(related)
        assert sparse._relation.__class__ is set
        related_set = {frozenset(pair) for pair in related}
        for judgments in judgment_sets:
            want = classify_oracle(judgments, related_set, "p")
            for model in (dense, sparse):
                got = classify(judgments, model, "p")
                assert (got.tag.value, list(got.contexts_used)) == want, (related, judgments)


def test_classify_exhaustive_cases_reach_every_verdict():
    # The oracle sweep above is only as strong as the verdicts it meets.
    names = CONTEXTS
    related = {frozenset(pair) for pair in combinations(names[:3], 2)}
    seen = {classify_oracle(js, related, "p")[0] for js in _judgment_sets(names)}
    assert seen == {"Degenerate", "Inconsistent", *(f"P{k}" for k in range(1, 8))}


_UNIVERSE = [Judgment(c, "p", v) for c in ("c1", "c2") for v in (T, F, U)]


def test_entails_follows_its_rule_on_every_list_of_up_to_three_judgments():
    model = Model(["e"], [ContextDef("c1", {"e"}), ContextDef("c2", {"e"})], ["p"],
                  incompatible=[("c1", "c2")], background="c1")
    lists = [list(js) for n in range(4) for js in product(_UNIVERSE, repeat=n)]
    assert len(lists) == 1 + 6 + 36 + 216
    for judgments in lists:
        for query in _UNIVERSE:
            if query in judgments:
                want = Entailment.YES
            elif any(j.context == query.context and j.predicate == query.predicate
                     and j.value != query.value for j in judgments):
                want = Entailment.NO
            else:
                want = Entailment.UNDETERMINED
            assert entails(judgments, model, query) is want, (judgments, query)
            # One pass: a one-shot iterator gives the same answer.
            assert entails(iter(judgments), model, query) is want, (judgments, query)
