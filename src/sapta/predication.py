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

from bisect import bisect_right
from enum import Enum
from itertools import combinations
from typing import Iterable

from .errors import ModelError, UndeclaredName
from .formulas import PREDICATIONS, Formula, Record, schema, undet_name
from .semantics import ContextDef, Model, _array
from .trivalent import Tv3

__all__ = [
    "Judgment",
    "PredicationTag",
    "PredicationClass",
    "Entailment",
    "SANSKRIT_NAMES",
    "classify",
    "entails",
    "induced_model",
    "canonical_witness",
    "CertificateRow",
    "mutual_exclusivity_certificate",
    "schema_formula_for",
    "judgments_from_json",
    "judgments_to_json",
]


class Judgment(Record):
    """A (context, predicate, value) triple: one conditional assertion."""

    __slots__ = _fields = ("context", "predicate", "value")

    def __init__(self, context: str, predicate: str, value: Tv3):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "value", value)

    def to_json(self) -> dict:
        return {"context": self.context, "predicate": self.predicate, "value": self.value.value}

    @classmethod
    def from_json(cls, data: dict) -> "Judgment":
        try:
            judgment = cls(data["context"], data["predicate"], Tv3.from_str(data["value"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed judgment {data!r}: {exc}") from None
        if not (isinstance(judgment.context, str) and isinstance(judgment.predicate, str)):
            raise ModelError(f"malformed judgment {data!r}: context and predicate must be strings")
        return judgment


def judgments_from_json(data: list) -> tuple[Judgment, ...]:
    return tuple(Judgment.from_json(row) for row in _array(data, "a judgment set"))


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


class PredicationClass(Record):
    """Classification result: a tag plus the witness contexts.

    For P1..P7, ``contexts_used`` lists one witness context per asserted
    value in the order T, F, U (ties broken lexicographically).  For
    Inconsistent it carries the offending context; for Degenerate, nothing.
    """

    __slots__ = _fields = ("tag", "contexts_used")

    def __init__(self, tag: PredicationTag, contexts_used: tuple[str, ...] = ()):
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "contexts_used", contexts_used)

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
    if not model.is_predicate(predicate):
        raise UndeclaredName(f"undeclared predicate {predicate!r}")
    for j in judgments:
        if not model.is_context(j.context):
            raise UndeclaredName(f"undeclared context {j.context!r}")

    relevant = [j for j in judgments if j.predicate == predicate]
    by_context: dict[str, Tv3] = {}
    for j in relevant:
        seen = by_context.get(j.context)
        if seen is not None and seen is not j.value:
            return PredicationClass(PredicationTag.INCONSISTENT, (j.context,))
        by_context[j.context] = j.value

    if not by_context:
        return PredicationClass(PredicationTag.DEGENERATE, ())

    # The first compatible pair asserting different values, in lexicographic
    # pair order, read off the model's packed relation (min * K + max).  Each
    # context is checked against the later contexts of the other values'
    # groups only; every check that passes uses up a distinct declared pair,
    # so the scan costs O(K log K + |relation|).
    names = sorted(by_context)
    index = [model._context_index[c] for c in names]
    groups: dict[Tv3, tuple[list[int], list[int]]] = {}  # value -> positions, context indices
    for i, c in enumerate(names):
        positions, indices = groups.setdefault(by_context[c], ([], []))
        positions.append(i)
        indices.append(index[i])
    k, relation = len(model.contexts), model._incompatible
    for i, (a, c) in enumerate(zip(index, names)):
        v = by_context[c]
        for w, (positions, indices) in groups.items():
            if w is v:
                continue
            keys = [a * k + b if a < b else b * k + a for b in indices[bisect_right(positions, i):]]
            if not relation.issuperset(keys):
                return PredicationClass(PredicationTag.INCONSISTENT, (c,))

    values = frozenset(by_context.values())
    witnesses = tuple(
        min(c for c, v in by_context.items() if v is value)
        for value in _VALUE_ORDER
        if value in values
    )
    return PredicationClass(_TAG_FOR_VALUES[values], witnesses)


def schema_formula_for(cls: PredicationClass, predicate: str) -> Formula | None:
    """Quantified-formula presentation of a P1..P7 classification."""
    k = cls.schema_index
    if k is None:
        return None
    return schema(k, cls.contexts_used, predicate)


def induced_model(judgments: Iterable[Judgment], predicate: str, entity: str = "e") -> Model:
    """Build the minimal model on which a judgment set's schema holds.

    One entity satisfies every judgment context's condition; the valuation
    mirrors the judgments, with the derived indeterminacy predicate set true
    exactly where the value is U; all context pairs are mutually
    incompatible (distinct, non-overlapping conditions).
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
    if not model.is_context(query.context):
        raise UndeclaredName(f"undeclared context {query.context!r}")
    judgments = tuple(judgments)
    for j in judgments:
        if j == query:
            return Entailment.YES
    for j in judgments:
        if j.context == query.context and j.predicate == query.predicate and j.value is not query.value:
            return Entailment.NO
    return Entailment.UNDETERMINED


# ---------------------------------------------------------------------------
# Mutual exclusivity certificate.

_CANONICAL_CONTEXTS = ("c1", "c2", "c3")


def canonical_witness(tag: PredicationTag) -> tuple[tuple[Judgment, ...], Model]:
    """Canonical judgment set and model exhibiting a P1..P7 predication."""
    row = _ROWS.get(tag)
    if row is None:
        raise ValueError(f"no canonical witness for {tag}")
    judgments = tuple(Judgment(c, "p", v) for c, v in zip(_CANONICAL_CONTEXTS, row[1]))
    return judgments, induced_model(judgments, "p")


class CertificateRow(Record):
    __slots__ = _fields = ("first", "second", "verdict", "reason")

    def __init__(self, first: PredicationTag, second: PredicationTag, verdict: str, reason: str):
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "reason", reason)

    def to_json(self) -> dict:
        return {
            "first": self.first.value,
            "second": self.second.value,
            "verdict": self.verdict,
            "reason": self.reason,
        }


def _value_set_text(values: tuple[Tv3, ...]) -> str:
    return "{" + ", ".join(v.value for v in values) + "}"


def mutual_exclusivity_certificate() -> list[CertificateRow]:
    """Check pairwise distinctness of the seven predications.

    Classify each canonical witness once; for each of the 21 unordered
    pairs, verify neither witness lands on the other's class.  All rows must
    read "distinct"; the asserted value sets make the reason explicit.
    """
    classified = {tag: classify(*canonical_witness(tag), "p").tag for tag in _ROWS}
    rows = []
    for a, b in combinations(_ROWS, 2):
        distinct = classified[a] is a and classified[b] is b
        va, vb = _ROWS[a][1], _ROWS[b][1]
        if len(va) != len(vb):
            reason = f"{len(va)} vs {len(vb)} values"
        else:
            reason = f"value sets {_value_set_text(va)} vs {_value_set_text(vb)}"
        rows.append(CertificateRow(a, b, "distinct" if distinct else "OVERLAP", reason))
    return rows
