"""Formula AST and canonical pretty-printer.

AST nodes are immutable and compare structurally; source spans are carried
for diagnostics but never participate in equality.  Guard atoms
(``ContextGuard``) and content predicates (``PredicateApp``) print
identically — the grammar is uniform and the distinction is semantic.  It
is normally introduced by ``sapta.schemas.schema`` or by
``parse(..., contexts=...)``.
"""
from __future__ import annotations

from typing import NamedTuple

from .records import Record

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
]


class SourceSpan(NamedTuple):
    """Byte range plus 1-based line/column of a token or node.

    A named tuple.  Lexing and parsing build none unless an error needs
    one; a parsed node resolves its span when read (see ``Formula``).
    """

    start: int
    end: int
    line: int
    column: int

    def to_dict(self) -> dict:
        return {"start": self.start, "end": self.end, "line": self.line, "column": self.column}


class Formula(Record):
    """Base class for formula AST nodes.

    A node's ``span`` is for diagnostics only: it is a constructor argument
    after the fields, and takes no part in equality, hashing or ``repr``.
    The parser passes a lazy reference in its place, the plain tuple
    ``(tokens, first, last)`` of its token sequence and the indices of the
    node's first and last tokens; ``span`` resolves it when read.
    """

    __slots__ = ("_span",)
    _trailing = ("span",)

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
    return frozenset(_free_atoms(f))


def _free_atoms(f: Formula) -> dict[str, _Atom]:
    """Each free variable of `f`, mapped to its first free atom in textual order."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula node: {f!r}")
    free: dict[str, _Atom] = {}
    stack = [(f, frozenset())]
    while stack:
        node, bound = stack.pop()
        if isinstance(node, _Quantifier):
            bound = bound | {node.var}
        elif isinstance(node, _Atom) and node.var not in bound:
            free.setdefault(node.var, node)
        stack.extend((v, bound) for v in reversed(node._values()) if isinstance(v, Formula))
    return free


def ast_to_dict(f: Formula) -> dict:
    """JSON-friendly structural dump (spans omitted): the class name under
    ``"node"``, then the node's ``_fields`` in order, subformulas dumped."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula node: {f!r}")
    return _dump(f)


def _dump(f: Formula, Formula=Formula, getattr=getattr) -> dict:
    # Globals bound as locals: `sapta parse` dumps every node it parses.
    out = {"node": type(f).__name__}
    for name in f._fields:
        value = getattr(f, name)
        out[name] = _dump(value) if isinstance(value, Formula) else value
    return out


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
