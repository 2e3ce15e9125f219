"""Formula AST, canonical pretty-printer, and the seven predication schemas.

AST nodes are immutable and compare structurally; source spans are carried
for diagnostics but never participate in equality.  Guard atoms
(``ContextGuard``) and content predicates (``PredicateApp``) print
identically — the grammar is uniform and the distinction is semantic.  It
is normally introduced by :func:`schema` or by ``parse(..., contexts=...)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .errors import ArityMismatch, DuplicateContext

__all__ = [
    "SourceSpan",
    "Formula",
    "PredicateApp",
    "ContextGuard",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "ForAll",
    "Exists",
    "free_variables",
    "mark_contexts",
    "ast_to_dict",
    "pretty",
    "undet_name",
    "schema",
    "PREDICATIONS",
]


class SourceSpan(NamedTuple):
    """Byte range plus 1-based line/column of a token or node.

    A named tuple rather than a dataclass: the lexer builds one per token,
    and a tuple is about three times cheaper to construct.
    """

    start: int
    end: int
    line: int
    column: int

    def to_dict(self) -> dict:
        return {"start": self.start, "end": self.end, "line": self.line, "column": self.column}


def _span():
    # Diagnostics only: excluded from equality and hashing.
    return field(default=None, compare=False, repr=False)


class Formula:
    """Base class for formula AST nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class PredicateApp(Formula):
    name: str
    var: str
    span: SourceSpan | None = _span()


@dataclass(frozen=True, slots=True)
class ContextGuard(Formula):
    """A unary atom whose name denotes a context rather than a predicate."""

    context: str
    var: str
    span: SourceSpan | None = _span()


@dataclass(frozen=True, slots=True)
class Not(Formula):
    operand: Formula
    span: SourceSpan | None = _span()


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula
    span: SourceSpan | None = _span()


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula
    span: SourceSpan | None = _span()


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula
    span: SourceSpan | None = _span()


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula
    span: SourceSpan | None = _span()


@dataclass(frozen=True, slots=True)
class ForAll(Formula):
    var: str
    body: Formula
    span: SourceSpan | None = _span()


@dataclass(frozen=True, slots=True)
class Exists(Formula):
    var: str
    body: Formula
    span: SourceSpan | None = _span()


_BINARY = (And, Or, Implies, Iff)
_QUANT = (ForAll, Exists)
_ATOMIC = (PredicateApp, ContextGuard)


def atom_name(f: Formula) -> str | None:
    """Name of a unary atom, or None for non-atoms."""
    if isinstance(f, PredicateApp):
        return f.name
    if isinstance(f, ContextGuard):
        return f.context
    return None


def free_variables(f: Formula) -> frozenset[str]:
    """Variables occurring outside the scope of any quantifier binding them."""

    def walk(g: Formula, bound: frozenset[str]) -> frozenset[str]:
        if isinstance(g, _ATOMIC):
            return frozenset() if g.var in bound else frozenset({g.var})
        if isinstance(g, Not):
            return walk(g.operand, bound)
        if isinstance(g, _BINARY):
            return walk(g.left, bound) | walk(g.right, bound)
        if isinstance(g, _QUANT):
            return walk(g.body, bound | {g.var})
        raise TypeError(f"not a formula node: {g!r}")

    return walk(f, frozenset())


def mark_contexts(f: Formula, context_names: Iterable[str]) -> Formula:
    """Rewrite predicate atoms whose name is a known context into guards."""
    names = frozenset(context_names)

    def walk(g: Formula) -> Formula:
        if isinstance(g, PredicateApp):
            if g.name in names:
                return ContextGuard(g.name, g.var, g.span)
            return g
        if isinstance(g, ContextGuard):
            return g
        if isinstance(g, Not):
            return Not(walk(g.operand), g.span)
        if isinstance(g, _BINARY):
            return type(g)(walk(g.left), walk(g.right), g.span)
        if isinstance(g, _QUANT):
            return type(g)(g.var, walk(g.body), g.span)
        raise TypeError(f"not a formula node: {g!r}")

    return walk(f)


def ast_to_dict(f: Formula) -> dict:
    """JSON-friendly structural dump (spans omitted)."""
    if isinstance(f, PredicateApp):
        return {"node": "PredicateApp", "name": f.name, "var": f.var}
    if isinstance(f, ContextGuard):
        return {"node": "ContextGuard", "context": f.context, "var": f.var}
    if isinstance(f, Not):
        return {"node": "Not", "operand": ast_to_dict(f.operand)}
    if isinstance(f, _BINARY):
        return {
            "node": type(f).__name__,
            "left": ast_to_dict(f.left),
            "right": ast_to_dict(f.right),
        }
    if isinstance(f, _QUANT):
        return {"node": type(f).__name__, "var": f.var, "body": ast_to_dict(f.body)}
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Pretty-printing.
#
# Canonical form: minimal parentheses consistent with the grammar's
# precedence (~ > & > | > -> > <->, arrows right-associative), except that a
# quantifier body that is a binary connective is always parenthesized.  A
# quantifier extends maximally to the right, so any subtree ending in an
# unparenthesized quantifier must be wrapped when something follows it.

_LEVEL = {Iff: 1, Implies: 2, Or: 3, And: 4}
_OPTEXT = {Iff: "<->", Implies: "->", Or: "|", And: "&"}
_UNARY_LEVEL = 5  # ~, quantifiers, atoms


def pretty(f: Formula) -> str:
    """Render a formula in canonical concrete syntax.

    ``parse(pretty(f))`` is structurally equal to ``f``; no logical
    simplification is performed.
    """
    return _render(f, 1, True)


def _render(f: Formula, min_level: int, allow_open: bool) -> str:
    if isinstance(f, _ATOMIC):
        return f"{atom_name(f)}({f.var})"
    if isinstance(f, Not):
        return "~" + _render(f.operand, _UNARY_LEVEL, allow_open)
    if isinstance(f, _QUANT):
        kw = "forall" if isinstance(f, ForAll) else "exists"
        if isinstance(f.body, _BINARY):
            inner = "(" + _render(f.body, 1, True) + ")"
        else:
            inner = _render(f.body, _UNARY_LEVEL, True)
        s = f"{kw} {f.var}. {inner}"
        return s if allow_open else "(" + s + ")"
    if isinstance(f, _BINARY):
        level = _LEVEL[type(f)]
        right_assoc = isinstance(f, (Implies, Iff))
        left_min = level + 1 if right_assoc else level
        right_min = level if right_assoc else level + 1
        needs_paren = level < min_level
        left = _render(f.left, left_min, False)
        right = _render(f.right, right_min, allow_open or needs_paren)
        s = f"{left} {_OPTEXT[type(f)]} {right}"
        return "(" + s + ")" if needs_paren else s
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# The seven predication schemas.

UNDET_SUFFIX = "_undet"


def undet_name(predicate: str) -> str:
    """Companion predicate asserting that `predicate` is indeterminate.

    The indeterminacy branch of a schema cannot be phrased in terms of the
    content predicate alone (no strong-Kleene formula is T exactly when its
    input is U), so schemas use a derived predicate; model induction from
    judgments valuates it.
    """
    return predicate + UNDET_SUFFIX


# The seven predications, one row per nonempty subset of {T, F, U}: row k is
# schema k and class Pk.  A row holds the asserted values in witness order
# T, F, U and the transliterated name.  The schema's arity is the number of
# values, and each letter fixes a consequent: T the plain atom, F the negated
# atom, U the companion indeterminacy atom.
PREDICATIONS = {
    1: ("T", "syāt asti"),
    2: ("F", "syāt nāsti"),
    3: ("U", "syāt avaktavyam"),
    4: ("TF", "syāt asti cha nāsti cha"),
    5: ("TU", "syāt asti cha avaktavyam cha"),
    6: ("FU", "syāt nāsti cha avaktavyam cha"),
    7: ("TFU", "syād asti cha nāsti cha avaktavyam cha"),
}

# Pairwise incompatibility clause order as published: (1,2) for two guards;
# (1,2), (2,3), (1,3) for three.
_INCOMPAT_PAIRS = {1: (), 2: ((0, 1),), 3: ((0, 1), (1, 2), (0, 2))}


def schema(n: int, contexts: Iterable[str], predicate: str, *, var: str = "x") -> Formula:
    """Build predication schema ``n`` (1..7) over the given contexts.

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
        p = PredicateApp(predicate, var)
        if kind == "T":
            return p
        if kind == "F":
            return Not(p)
        return PredicateApp(undet_name(predicate), var)

    guards = [ContextGuard(c, var) for c in names]
    conjuncts: list[Formula] = [
        Implies(g, consequent(kind)) for g, kind in zip(guards, consequents)
    ]
    for i, j in _INCOMPAT_PAIRS[arity]:
        conjuncts.append(Not(Iff(guards[i], guards[j])))

    body = conjuncts[0]
    for c in conjuncts[1:]:
        body = And(body, c)
    return ForAll(var, body)
