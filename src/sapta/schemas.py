"""The seven predication schemas.

Schema k (1..7) is the universally quantified conjunction of one to three
guarded implications ``c(x) -> consequent``, whose consequents assert the
values of row k of ``records.PREDICATIONS``, and the pairwise
guard-incompatibility clauses ``~(c_i(x) <-> c_j(x))``.  :func:`schema`
builds it.  Only a ``classify`` whose verdict is P1..P7 loads this module,
to print the verdict's schema.
"""
from __future__ import annotations

from typing import Iterable

from .errors import ArityMismatch, DuplicateContext
from .formulas import And, ContextGuard, ForAll, Formula, Iff, Implies, Not, PredicateApp
from .records import PREDICATIONS, undet_name

__all__ = ["schema"]

# The order in which `schema` appends the pairwise incompatibility clauses,
# as published: (1,2) for two guards; (1,2), (2,3), (1,3) for three.
_INCOMPAT_PAIRS = {1: (), 2: ((0, 1),), 3: ((0, 1), (1, 2), (0, 2))}


def schema(n: int, contexts: Iterable[str], predicate: str) -> Formula:
    """Build predication schema ``n`` (1..7) over the given contexts, in ``x``.

    Schemas 1-3 assert one guarded truth value; 4-7 conjoin two or three
    guarded assertions with the pairwise guard-incompatibility clauses
    ``~(c_i(x) <-> c_j(x))``.
    """
    if n not in PREDICATIONS:
        raise ValueError(f"schema index must be 1..7, got {n}")
    names = list(contexts)
    if len(set(names)) != len(names):
        raise DuplicateContext(f"context names must be distinct, got {names}")
    consequents = PREDICATIONS[n][0]
    arity = len(consequents)
    if len(names) != arity:
        raise ArityMismatch(
            f"schema {n} takes {arity} context(s), got {len(names)}"
        )

    def consequent(kind: str) -> Formula:
        p = PredicateApp(predicate, "x")
        if kind == "T":
            return p
        if kind == "F":
            return Not(p)
        return PredicateApp(undet_name(predicate), "x")

    guards = [ContextGuard(c, "x") for c in names]
    conjuncts: list[Formula] = [
        Implies(g, consequent(kind)) for g, kind in zip(guards, consequents)
    ]
    for i, j in _INCOMPAT_PAIRS[arity]:
        conjuncts.append(Not(Iff(guards[i], guards[j])))

    body = conjuncts[0]
    for c in conjuncts[1:]:
        body = And(body, c)
    return ForAll("x", body)
