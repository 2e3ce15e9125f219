"""The seven predication schemas: building them and recognising them.

Schema k (1..7) is the universally quantified conjunction of one to three
guarded implications ``c(x) -> consequent``, whose consequents assert the
values of row k of ``records.PREDICATIONS``, and the pairwise
guard-incompatibility clauses ``~(c_i(x) <-> c_j(x))``.  :func:`schema`
builds it and :func:`guard_of` takes an instance apart again; both read the
clause order from one table, ``_INCOMPAT_PAIRS``.  Only a ``classify`` whose
verdict is P1..P7 loads this module, to print the verdict's schema.
"""
from __future__ import annotations

from typing import Iterable

from .errors import ArityMismatch, DuplicateContext, NotASchema
from .formulas import And, ContextGuard, ForAll, Formula, Iff, Implies, Not, PredicateApp, atom_name
from .records import PREDICATIONS, undet_name

__all__ = ["schema", "guard_of"]

# Pairwise incompatibility clause order as published: (1,2) for two guards;
# (1,2), (2,3), (1,3) for three.
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


def _conjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, And):
        return _conjuncts(f.left) + _conjuncts(f.right)
    return [f]


def _atom_over(f: Formula, var: str) -> str | None:
    name = atom_name(f)
    return name if name is not None and f.var == var else None


def guard_of(f: Formula) -> list[tuple[str, Formula]]:
    """Extract (context, consequent) pairs from a predication-schema instance.

    The formula must be a universally quantified conjunction of one to three
    guarded implications whose consequents are literals over the bound
    variable, together with exactly the pairwise guard-incompatibility
    clauses.  Pairs are returned in textual order.  Anything else raises
    :class:`NotASchema`.
    """
    if not isinstance(f, ForAll):
        raise NotASchema("schema instances are universally quantified")
    var = f.var
    impls: list[tuple[str, Formula]] = []
    clauses: list[frozenset[str]] = []
    for part in _conjuncts(f.body):
        if isinstance(part, Implies):
            guard = _atom_over(part.left, var)
            if guard is None:
                raise NotASchema("implication antecedent is not a guard atom")
            consequent = part.right
            literal = consequent.operand if isinstance(consequent, Not) else consequent
            if _atom_over(literal, var) is None:
                raise NotASchema("implication consequent is not a literal over the bound variable")
            impls.append((guard, consequent))
        elif isinstance(part, Not) and isinstance(part.operand, Iff):
            a = _atom_over(part.operand.left, var)
            b = _atom_over(part.operand.right, var)
            if a is None or b is None or a == b:
                raise NotASchema("incompatibility clause must relate two distinct guard atoms")
            clauses.append(frozenset({a, b}))
        else:
            raise NotASchema(f"unexpected conjunct: {type(part).__name__}")
    guards = [g for g, _ in impls]
    if not 1 <= len(guards) <= 3:
        raise NotASchema(f"schemas carry 1..3 guarded implications, found {len(guards)}")
    if len(set(guards)) != len(guards):
        raise NotASchema("guard contexts must be distinct")
    wanted = {frozenset({guards[i], guards[j]}) for i, j in _INCOMPAT_PAIRS[len(guards)]}
    if len(clauses) != len(wanted) or set(clauses) != wanted:
        raise NotASchema("pairwise incompatibility clauses do not match the guards")
    return impls
