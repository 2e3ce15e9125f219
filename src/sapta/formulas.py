"""Formula AST, canonical pretty-printer, and the seven predication schemas.

AST nodes are immutable and compare structurally; source spans are carried
for diagnostics but never participate in equality.  Guard atoms
(``ContextGuard``) and content predicates (``PredicateApp``) print
identically — the grammar is uniform and the distinction is semantic.  It
is normally introduced by :func:`schema` or by ``parse(..., contexts=...)``.
"""
from __future__ import annotations

from types import FunctionType
from typing import Iterable, NamedTuple

from .errors import ArityMismatch, DuplicateContext

__all__ = [
    "SourceSpan",
    "Formula",
    "OPERATORS",
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
    "ast_to_dict",
    "pretty",
    "undet_name",
    "schema",
    "PREDICATIONS",
]


class SourceSpan(NamedTuple):
    """Byte range plus 1-based line/column of a token or node.

    A named tuple: the lexer builds one per token, and a tuple is about
    three times cheaper to construct than a class instance.
    """

    start: int
    end: int
    line: int
    column: int

    def to_dict(self) -> dict:
        return {"start": self.start, "end": self.end, "line": self.line, "column": self.column}


# The code of every constructor `_constructor` has built.
_GENERATED: set = set()


class Record:
    """Immutable value object whose identity is its class and ``_fields``.

    Two records are equal when they have the same class and equal fields,
    and equal records hash equally.  ``repr`` shows the fields, assignment
    raises ``AttributeError``, and pickle and ``copy`` rebuild a record
    through its constructor from ``_init_args``.

    A subclass writes its fields once, as ``__slots__ = _fields = (...)``,
    and gets a constructor taking them in order, generated when the class
    is created; a class keyword ``defaults=(...)`` gives the last fields
    defaults, as for ``collections.namedtuple``.  A ``Formula`` node's
    constructor takes ``span=None`` after its fields.  A subclass without
    ``_fields`` of its own gets a copy of its parent's generated constructor
    under its own name, so that a wrong-arity call names the class called;
    one whose constructor must do more than store its arguments writes
    ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, defaults=(), **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in cls.__dict__:
            return
        if "_fields" in cls.__dict__:
            cls.__init__ = _constructor(cls, tuple(defaults))
        elif getattr(cls.__init__, "__code__", None) in _GENERATED:
            f = cls.__init__
            init = FunctionType(f.__code__, f.__globals__, f.__name__, f.__defaults__, f.__closure__)
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = init

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _init_args(self) -> tuple:
        return self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((self.__class__, self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._init_args()


class Formula(Record):
    """Base class for formula AST nodes.

    A node's ``span`` is for diagnostics only: it is a constructor argument
    after the fields, and takes no part in equality, hashing or ``repr``.
    The parser passes a lazy reference in its place, the plain tuple
    ``(tokens, first, last)`` of its token sequence and the indices of the
    node's first and last tokens; ``span`` resolves it when read.
    """

    __slots__ = ("_span",)

    @property
    def span(self) -> SourceSpan | None:
        """From the start of the node's first token to the end of its last."""
        span = self._span
        if span.__class__ is not tuple:  # a SourceSpan or None
            return span
        tokens, first, last = span
        start, _, line, column = tokens[first].span
        return SourceSpan(start, tokens[last].span.end, line, column)

    def _init_args(self) -> tuple:
        return (*self._values(), self.span)


def _constructor(cls, defaults: tuple):
    """``__init__`` storing its arguments through the class's slot descriptors.

    Built as ``collections.namedtuple`` builds ``__new__``: one ``exec`` of a
    ``def`` whose parameters are the field names, which come from class
    literals, so ``inspect.signature`` and keyword calls work.  Storing
    through the slot descriptors' ``__set__`` builds a node about twice as
    fast as going through ``object``'s ``__setattr__``, and the parser builds
    one node per atom and connective.
    """
    params, slots = list(cls._fields), list(cls._fields)
    if issubclass(cls, Formula):
        params.append("span")
        slots.append("_span")
        defaults += (None,)
    namespace = {f"_set{i}": getattr(cls, slot).__set__ for i, slot in enumerate(slots)}
    namespace["__name__"] = cls.__module__
    stores = "".join(f"\n    _set{i}(self, {param})" for i, param in enumerate(params))
    exec(f"def __init__(self, {', '.join(params)}):{stores}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = defaults
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    _GENERATED.add(init.__code__)
    return init


class _Atom(Formula):
    __slots__ = ()


class PredicateApp(_Atom):
    __slots__ = _fields = ("name", "var")


class ContextGuard(_Atom):
    """A unary atom whose name denotes a context rather than a predicate."""

    __slots__ = _fields = ("context", "var")


class Not(Formula):
    __slots__ = _fields = ("operand",)


class _Binary(Formula):
    __slots__ = _fields = ("left", "right")


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class _Quantifier(Formula):
    __slots__ = _fields = ("var", "body")


class ForAll(_Quantifier):
    __slots__ = ()


class Exists(_Quantifier):
    __slots__ = ()


# The one definition of the connectives' concrete syntax, read by the lexer,
# the parser and the printer.  A row holds the token kind, the node class,
# the ASCII spelling (the one the printer writes), the Unicode alias and the
# grouping: "right" or "left" for a binary connective, "prefix" otherwise.
# The binary connectives come first, loosest first, and a row's position is
# its precedence level; the prefix operators bind tighter than all of them.
OPERATORS = (
    ("iff", Iff, "<->", "↔", "right"),
    ("implies", Implies, "->", "→", "right"),
    ("or", Or, "|", "∨", "left"),
    ("and", And, "&", "∧", "left"),
    ("not", Not, "~", "¬", "prefix"),
    ("forall", ForAll, "forall", "∀", "prefix"),
    ("exists", Exists, "exists", "∃", "prefix"),
)


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
        if isinstance(g, _Atom):
            return frozenset() if g.var in bound else frozenset({g.var})
        if isinstance(g, Not):
            return walk(g.operand, bound)
        if isinstance(g, _Binary):
            return walk(g.left, bound) | walk(g.right, bound)
        if isinstance(g, _Quantifier):
            return walk(g.body, bound | {g.var})
        raise TypeError(f"not a formula node: {g!r}")

    return walk(f, frozenset())


def ast_to_dict(f: Formula) -> dict:
    """JSON-friendly structural dump (spans omitted)."""
    if isinstance(f, PredicateApp):
        return {"node": "PredicateApp", "name": f.name, "var": f.var}
    if isinstance(f, ContextGuard):
        return {"node": "ContextGuard", "context": f.context, "var": f.var}
    if isinstance(f, Not):
        return {"node": "Not", "operand": ast_to_dict(f.operand)}
    if isinstance(f, _Binary):
        return {
            "node": type(f).__name__,
            "left": ast_to_dict(f.left),
            "right": ast_to_dict(f.right),
        }
    if isinstance(f, _Quantifier):
        return {"node": type(f).__name__, "var": f.var, "body": ast_to_dict(f.body)}
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Pretty-printing.
#
# Canonical form: minimal parentheses consistent with the precedence and
# grouping in OPERATORS (~ > & > | > -> > <->, arrows grouping to the right),
# except that a quantifier body that is a binary connective is always
# parenthesized.  A quantifier extends maximally to the right, so any subtree
# ending in an unparenthesized quantifier must be wrapped when something
# follows it.

# Binary node class -> (precedence level, spelling, groups to the right).
_INFIX = {
    node: (level, text, assoc == "right")
    for level, (_, node, text, _, assoc) in enumerate(OPERATORS, 1)
    if assoc != "prefix"
}
_UNARY_LEVEL = len(_INFIX) + 1  # ~, quantifiers, atoms
_PREFIX = {node: text for _, node, text, _, assoc in OPERATORS if assoc == "prefix"}


def pretty(f: Formula) -> str:
    """Render a formula in canonical concrete syntax.

    ``parse(pretty(f))`` is structurally equal to ``f``; no logical
    simplification is performed.
    """
    return _render(f, 1, True)


def _render(f: Formula, min_level: int, allow_open: bool) -> str:
    if isinstance(f, _Atom):
        return f"{atom_name(f)}({f.var})"
    if isinstance(f, Not):
        return _PREFIX[Not] + _render(f.operand, _UNARY_LEVEL, allow_open)
    if isinstance(f, _Quantifier):
        if isinstance(f.body, _Binary):
            inner = "(" + _render(f.body, 1, True) + ")"
        else:
            inner = _render(f.body, _UNARY_LEVEL, True)
        s = f"{_PREFIX[type(f)]} {f.var}. {inner}"
        return s if allow_open else "(" + s + ")"
    if isinstance(f, _Binary):
        level, text, right_assoc = _INFIX[type(f)]
        left_min = level + 1 if right_assoc else level
        right_min = level if right_assoc else level + 1
        needs_paren = level < min_level
        left = _render(f.left, left_min, False)
        right = _render(f.right, right_min, allow_open or needs_paren)
        s = f"{left} {text} {right}"
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
