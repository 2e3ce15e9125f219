"""Three truth values and the strong-Kleene connectives over them.

Inside a single context a proposition is true (T), false (F), or
indeterminate (U).  Each connective is defined once, as a table indexed by
a value's rank on the chain F < U < T (F, U, T = 0, 1, 2): negation is
``2 - x``, conjunction ``min`` and disjunction ``max``; implication is
material, ``OR[NOT[a]][b]``, and the biconditional is implication both ways.
These tables are the only definition of the connectives: the ``neg3`` ...
``iff3`` functions and ``evaluation.evaluate`` both read them, so replacing
``IMPL`` (and with it ``IFF``) changes ``impl3``, ``iff3`` and ``evaluate``
together.  Values and tables are immutable, so they are safe to share
across threads.
"""
from __future__ import annotations

from enum import Enum

__all__ = [
    "Tv3",
    "neg3",
    "conj3",
    "disj3",
    "impl3",
    "iff3",
    "NOT",
    "AND",
    "OR",
    "IMPL",
    "IFF",
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

    # Members are singletons compared by identity; Enum's own hash is Python code.
    __hash__ = object.__hash__

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
_RANKS = range(len(_CHAIN))


def _table(op) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(op(a, b) for b in _RANKS) for a in _RANKS)


NOT = tuple(2 - a for a in _RANKS)
AND = _table(min)
OR = _table(max)
# U -> U is U under these tables (not T as in Lukasiewicz).
IMPL = _table(lambda a, b: OR[NOT[a]][b])
IFF = _table(lambda a, b: AND[IMPL[a][b]][IMPL[b][a]])


def neg3(a: Tv3) -> Tv3:
    """Negation: swaps T and F, fixes U."""
    return _CHAIN[NOT[_RANK[a]]]


def conj3(a: Tv3, b: Tv3) -> Tv3:
    """Conjunction: F dominates, U absorbs T."""
    return _CHAIN[AND[_RANK[a]][_RANK[b]]]


def disj3(a: Tv3, b: Tv3) -> Tv3:
    """Disjunction: T dominates, U absorbs F."""
    return _CHAIN[OR[_RANK[a]][_RANK[b]]]


def impl3(a: Tv3, b: Tv3) -> Tv3:
    """Implication, read from ``IMPL``."""
    return _CHAIN[IMPL[_RANK[a]][_RANK[b]]]


def iff3(a: Tv3, b: Tv3) -> Tv3:
    """Biconditional, read from ``IFF``."""
    return _CHAIN[IFF[_RANK[a]][_RANK[b]]]
