"""The mutual exclusivity certificate of the seven predications.

Each class P1..P7 has a canonical witness: a judgment set over the contexts
``c1``..``c3`` and the model it induces.  The certificate classifies each
witness once and checks, for each of the 21 unordered pairs of classes,
that neither witness lands on the other's class.  Only the ``exclusivity``
command loads this module.
"""
from __future__ import annotations

from itertools import combinations

from .predication import _ROWS, Judgment, PredicationTag, classify, induced_model
from .records import Record
from .semantics import Model
from .trivalent import Tv3

__all__ = [
    "canonical_witness",
    "CertificateRow",
    "mutual_exclusivity_certificate",
]

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
