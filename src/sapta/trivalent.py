"""Three truth values and the strong-Kleene connectives over them.

Inside a single context a proposition is true (T), false (F), or
indeterminate (U).  The connectives follow the strong Kleene tables, with
implication defined materially; ``impl3`` is the single place to swap in an
alternative implication table.  Values and operations are immutable and
pure, so they are safe to share across threads.
"""
from __future__ import annotations

from enum import Enum
from typing import Iterable

__all__ = [
    "Tv3",
    "neg3",
    "conj3",
    "disj3",
    "impl3",
    "iff3",
    "conj_all",
    "disj_any",
    "CONNECTIVES",
    "IMPLICATION",
]

# Table identification, surfaced in CLI output metadata.
CONNECTIVES = "strong-kleene"
IMPLICATION = "material"


class Tv3(Enum):
    """A three-valued truth value. Serialized as "T", "F", or "U"."""

    TRUE = "T"
    FALSE = "F"
    UNDET = "U"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_str(cls, text: str) -> "Tv3":
        try:
            return _BY_TEXT[text]
        except (KeyError, TypeError):
            raise ValueError(
                f"not a truth value: {text!r} (expected 'T', 'F' or 'U')"
            ) from None

    @classmethod
    def from_bool(cls, flag: bool) -> "Tv3":
        return cls.TRUE if flag else cls.FALSE


# Enum's own value lookup is several times slower than a dict's.
_BY_TEXT = {v.value: v for v in Tv3}

# The chain F < U < T turns conjunction into a meet and disjunction into a
# join; a value's rank is its position on the chain.
_CHAIN = (Tv3.FALSE, Tv3.UNDET, Tv3.TRUE)
_RANK = {v: rank for rank, v in enumerate(_CHAIN)}


def neg3(a: Tv3) -> Tv3:
    """Negation: swaps T and F, fixes U."""
    if a is Tv3.TRUE:
        return Tv3.FALSE
    if a is Tv3.FALSE:
        return Tv3.TRUE
    return Tv3.UNDET


def conj3(a: Tv3, b: Tv3) -> Tv3:
    """Conjunction: F dominates, U absorbs T."""
    return a if _RANK[a] <= _RANK[b] else b


def disj3(a: Tv3, b: Tv3) -> Tv3:
    """Disjunction: T dominates, U absorbs F."""
    return a if _RANK[a] >= _RANK[b] else b


def impl3(a: Tv3, b: Tv3) -> Tv3:
    """Material implication, defined as ``disj3(neg3(a), b)``.

    Note U -> U is U under these tables (not T as in Lukasiewicz); swap the
    body here to change that convention package-wide.
    """
    return disj3(neg3(a), b)


def iff3(a: Tv3, b: Tv3) -> Tv3:
    """Biconditional: implication both ways."""
    return conj3(impl3(a, b), impl3(b, a))


def conj_all(values: Iterable[Tv3]) -> Tv3:
    """Fold conjunction over an iterable; empty input yields T."""
    out = Tv3.TRUE
    for v in values:
        out = conj3(out, v)
        if out is Tv3.FALSE:  # absorbing
            break
    return out


def disj_any(values: Iterable[Tv3]) -> Tv3:
    """Fold disjunction over an iterable; empty input yields F."""
    out = Tv3.FALSE
    for v in values:
        out = disj3(out, v)
        if out is Tv3.TRUE:  # absorbing
            break
    return out
