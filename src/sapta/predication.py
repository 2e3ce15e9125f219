"""Sevenfold classification of context-tagged judgments.

A judgment asserts one truth value for one predicate under one named
context.  The set of distinct values asserted across mutually incompatible
contexts determines the predication class: the seven nonempty subsets of
{T, F, U} map to P1..P7.  Distinct values under *compatible* contexts are a
genuine contradiction and classify as Inconsistent; the judgment-level
entailment relation never lets such a contradiction leak into other
contexts or predicates, which is what blocks explosion.
"""
from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import TYPE_CHECKING, Iterable

from .errors import ModelError
from .records import PREDICATIONS, Record, undet_name
from .semantics import ContextDef, Model, _declared
from .trivalent import Tv3

if TYPE_CHECKING:
    from .formulas import Formula

__all__ = [
    "Judgment",
    "PredicationTag",
    "PredicationClass",
    "Entailment",
    "SANSKRIT_NAMES",
    "classify",
    "entails",
    "induced_model",
    "schema_formula_for",
    "judgments_to_json",
    "tag_for_values",
]


class Judgment(Record):
    """A (context, predicate, value) triple: one conditional assertion."""

    __slots__ = _fields = ("context", "predicate", "value")

    def to_json(self) -> dict:
        return {"context": self.context, "predicate": self.predicate, "value": self.value.value}

    @classmethod
    def from_json(cls, data: dict) -> "Judgment":
        from .inputs import judgment_from_json

        return judgment_from_json(cls, data)


def judgments_to_json(judgments: Iterable[Judgment]) -> list[dict]:
    return [j.to_json() for j in judgments]


class PredicationTag(Enum):
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"
    P4 = "P4"
    P5 = "P5"
    P6 = "P6"
    P7 = "P7"
    INCONSISTENT = "Inconsistent"
    DEGENERATE = "Degenerate"

    def __str__(self) -> str:
        return self.value


# The predication table read per class: Pk -> (k, asserted values in witness
# order T, F, U).
_ROWS = {
    PredicationTag(f"P{k}"): (k, tuple(map(Tv3.from_str, letters)))
    for k, (letters, _) in PREDICATIONS.items()
}
_TAG_FOR_VALUES = {frozenset(values): tag for tag, (_, values) in _ROWS.items()}
_VALUE_ORDER = _ROWS[PredicationTag.P7][1]  # P7 asserts every value

# Transliterated names of the seven predications, used by text output.
SANSKRIT_NAMES = {PredicationTag(f"P{k}"): name for k, (_, name) in PREDICATIONS.items()}


class PredicationClass(Record, defaults=((),)):
    """Classification result: a tag plus the witness contexts.

    For P1..P7, ``contexts_used`` lists one witness context per asserted
    value in the order T, F, U (ties broken lexicographically).  For
    Inconsistent it carries the offending context; for Degenerate, nothing.
    """

    __slots__ = _fields = ("tag", "contexts_used")

    @property
    def schema_index(self) -> int | None:
        row = _ROWS.get(self.tag)
        return row[0] if row else None

    def to_json(self) -> dict:
        return {"class": self.tag.value, "contexts": list(self.contexts_used)}


def tag_for_values(values: Iterable[Tv3]) -> PredicationTag:
    """Predication tag for a nonempty set of asserted values."""
    return _TAG_FOR_VALUES[frozenset(values)]


def classify(judgments: Iterable[Judgment], model: Model, predicate: str) -> PredicationClass:
    """Map a judgment set to its predication class for one predicate.

    Judgments about other predicates are ignored (classification is
    per-predicate).  Extra contexts asserting an already-present value are
    absorbed: only the set of distinct values matters.  Two failure shapes
    yield Inconsistent: the same context asserting two different values, and
    two *compatible* contexts asserting different values — "it is and it is
    not" is licensed only across mutually incompatible conditions.
    """
    judgments = tuple(judgments)
    _declared(model._predicate_index, predicate, "predicate")
    for j in judgments:
        _declared(model._context_index, j.context, "context")

    by_context: dict[str, Tv3] = {}
    for j in judgments:
        if j.predicate == predicate and by_context.setdefault(j.context, j.value) is not j.value:
            return PredicationClass(PredicationTag.INCONSISTENT, (j.context,))

    if not by_context:
        return PredicationClass(PredicationTag.DEGENERATE, ())

    # The first context, in name order, with a compatible partner that asserts
    # another value.  Its partner comes later in name order, or the partner
    # would come first, so each context is checked once against every context
    # of the other values.  On a set relation every lookup that passes uses up
    # a declared pair, each pair at most twice, so the scan costs
    # O(J log J + |relation|) for J judged contexts; on a byte-map relation a
    # check is one AND of the context's row, one K-byte slice of the
    # symmetric map, with a mask of the other values' contexts, O(J·K),
    # which its K·K <= 64·|relation| bounds by O(|relation|) too.
    names = sorted(by_context)
    groups: dict[Tv3, list[str]] = {}  # value -> the contexts asserting it, in name order
    for c in names:
        groups.setdefault(by_context[c], []).append(c)
    if len(groups) > 1:
        at = model._context_index
        tests = {
            v: model._incompatible_with_each([at[b] for w, bs in groups.items() if w is not v for b in bs])
            for v in groups
        }
        for c in names:
            if not tests[by_context[c]](at[c]):
                return PredicationClass(PredicationTag.INCONSISTENT, (c,))

    witnesses = tuple(groups[v][0] for v in _VALUE_ORDER if v in groups)
    return PredicationClass(_TAG_FOR_VALUES[frozenset(groups)], witnesses)


def schema_formula_for(cls: PredicationClass, predicate: str) -> Formula | None:
    """Quantified-formula presentation of a P1..P7 classification."""
    k = cls.schema_index
    if k is None:
        return None
    from .schemas import schema  # only a P1..P7 verdict builds a formula

    return schema(k, cls.contexts_used, predicate)


def induced_model(judgments: Iterable[Judgment], predicate: str, entity: str = "e") -> Model:
    """Build the minimal model on which a judgment set's schema holds.

    One entity satisfies every judgment context's condition, so all contexts
    share one extension; the valuation mirrors the judgments, with the derived
    indeterminacy predicate true exactly where the value is U; all context
    pairs are declared incompatible.  The schema round trip holds under the
    relational reading: read extensionally, the shared extension makes every
    incompatibility clause, and so every P4-P7 schema, F.
    """
    relevant = [j for j in judgments if j.predicate == predicate]
    names = sorted({j.context for j in relevant})
    if not names:
        raise ModelError("cannot induce a model from an empty judgment set")
    u_pred = undet_name(predicate)
    valuation: dict[tuple[str, str, str], Tv3] = {}
    for j in relevant:
        valuation[(j.context, entity, predicate)] = j.value
        valuation[(j.context, entity, u_pred)] = Tv3.from_bool(j.value is Tv3.UNDET)
    return Model(
        domain=[entity],
        contexts=[ContextDef(c, {entity}) for c in names],
        predicates=[predicate, u_pred],
        valuation=valuation,
        incompatible=list(combinations(names, 2)),
        background=names[0],
    )


class Entailment(Enum):
    YES = "Yes"
    NO = "No"
    UNDETERMINED = "Undetermined"

    def __str__(self) -> str:
        return self.value


def entails(judgments: Iterable[Judgment], model: Model, query: Judgment) -> Entailment:
    """Whether a judgment set settles a queried judgment.

    Judgments are atomic, so closure within a context reduces to identity:
    Yes on an exact match, No when the same (context, predicate) carries a
    different value, Undetermined otherwise.  Judgments never license
    inference across contexts — a T/F pair under incompatible contexts
    settles nothing about any other context or predicate.
    """
    _declared(model._context_index, query.context, "context")
    answer = Entailment.UNDETERMINED
    for j in judgments:
        if j == query:
            return Entailment.YES
        if j.context == query.context and j.predicate == query.predicate and j.value is not query.value:
            answer = Entailment.NO  # unless a later judgment matches exactly
    return answer
