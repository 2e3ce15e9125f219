"""Lexer and precedence-climbing parser for the formula language.

Grammar (ASCII surface syntax; Unicode aliases accepted by the lexer):

    formula := unary (BINOP unary)* ;
    unary := "~" unary | quant | atom ;
    quant := ("forall"|"exists") IDENT "." formula ;
    atom := IDENT "(" IDENT ")" | "(" formula ")" ;
    IDENT := [A-Za-z_][A-Za-z0-9_]*

``formulas.OPERATORS`` is the one definition of the operators' concrete
syntax, read by the lexer, this parser and ``pretty``: BINOP is <->, ->, |
or &, loosest first, the arrows grouping to the right.  ~ binds tighter,
and a quantifier extends maximally to the right.  Whitespace is
insignificant; "#" starts a line comment.  The parser is stateless and
reentrant.
"""
from __future__ import annotations

import re
from itertools import accumulate
from typing import Iterable, NamedTuple

from .errors import ParseError, UnboundVariable
from .formulas import (
    OPERATORS,
    ContextGuard,
    Formula,
    Not,
    PredicateApp,
    Record,
    SourceSpan,
    free_variables,
)

__all__ = ["parse", "parse_formula_file", "NamedFormula", "tokenize", "Token"]


class Token(NamedTuple):
    kind: str
    text: str
    span: SourceSpan


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_PUNCTUATION = {"(": "lparen", ")": "rparen", ".": "dot"}

# Token kind per lexeme; any other identifier is an "ident".
_KIND = {text: kind for kind, _, plain, alias, _ in OPERATORS for text in (plain, alias)} | _PUNCTUATION

# The lexemes that are not identifiers (`forall` is lexed as one), longest
# first; the single characters are matched as one class.
_SYMBOLS = sorted(
    (text for text in _KIND if not (text.isascii() and text.isidentifier())), key=len, reverse=True
)
_LONG = "|".join(re.escape(text) for text in _SYMBOLS if len(text) > 1)
_CHARS = re.escape("".join(text for text in _SYMBOLS if len(text) == 1))

# One match per lexeme: the whitespace before it (newlines excepted), then
# an identifier or operator, a newline, a comment, an unexpected character,
# or the end of the text.  Each alternative starts with a different class of
# character, so no match backtracks.
_LEXEME = re.compile(rf"([^\S\n]*)(?:({_IDENT}|{_LONG}|[{_CHARS}])|(\n)|(#[^\n]*)|(\S)|\Z)")

_DESCRIPTION = {
    **{kind: f"'{plain}'" for kind, _, plain, _, _ in OPERATORS},
    **{kind: f"'{text}'" for text, kind in _PUNCTUATION.items()},
    "ident": "identifier",
    "eof": "end of input",
}

# Binary connective kind -> (precedence level, node class, groups to the right).
_INFIX = {
    kind: (level, node, assoc == "right")
    for level, (kind, node, _, _, assoc) in enumerate(OPERATORS, 1)
    if assoc != "prefix"
}
_PREFIX = {kind: node for kind, node, _, _, assoc in OPERATORS if assoc == "prefix"}
_OPERAND_START = {*_PREFIX, "lparen", "ident"}


def tokenize(text: str, *, line: int = 1, column: int = 1, offset: int = 0) -> list[Token]:
    """Lex formula text into tokens, tracking byte offsets and line/column."""
    # Tokens are built with tuple.__new__, which skips the Python-level
    # __new__ of the named tuples; there is one Token and one SourceSpan per
    # token, and this halves the lexer's time.
    new = tuple.__new__
    kind_of = _KIND.get
    out: list[Token] = []
    append = out.append
    ln = line
    origin = -column  # column of character i on the current line is i - origin
    i = 0
    for space, word, newline, comment, bad in _LEXEME.findall(text):
        i += len(space)
        if word:
            j = i + len(word)
            span = new(SourceSpan, (offset + i, offset + j, ln, i - origin))
            append(new(Token, (kind_of(word, "ident"), word, span)))
            i = j
        elif newline:
            ln += 1
            origin = i
            i += 1
        elif comment:
            i += len(comment)
        elif bad:
            start = offset + len(text[:i].encode("utf-8"))
            raise ParseError(
                f"unexpected character {bad!r}",
                span=SourceSpan(start, start + len(bad.encode("utf-8")), ln, i - origin),
                found=repr(bad),
            )
    append(Token("eof", "", SourceSpan(offset + i, offset + i, ln, i - origin)))
    if text.isascii():
        return out
    # Offsets so far count characters; byte[k] is the UTF-8 length of text[:k].
    byte = list(accumulate((len(ch.encode("utf-8")) for ch in text), initial=0))
    return [
        Token(kind, word, SourceSpan(offset + byte[start - offset], offset + byte[end - offset], *at))
        for kind, word, (start, end, *at) in out
    ]


# Deepest nesting the parser accepts: at most this many constructs (`~`,
# quantifiers, parentheses, arrows) open at once, and at most this many
# nodes from the root of the tree to any leaf.  The first bounds the
# parser's own recursion; the second every AST walker (printing, JSON
# dumping, free variables, evaluation), which recurses down the tree.
MAX_DEPTH = 100


def _too_deep(span: SourceSpan | None) -> ParseError:
    return ParseError(f"formula nested deeper than {MAX_DEPTH} levels", span=span)


def _check_height(f: Formula) -> None:
    """Raise at a node lying more than MAX_DEPTH nodes below the root."""
    stack = [(f, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise _too_deep(node.span)
        for child in ("operand", "left", "right", "body"):
            if hasattr(node, child):
                stack.append((getattr(node, child), depth + 1))


class _Parser:
    """Precedence climbing over the token list; `kinds` is the tokens' kinds,
    read by index so that most tokens are never touched as objects.  Atoms
    named in `contexts` become guards."""

    def __init__(self, tokens: list[Token], contexts: frozenset[str]):
        self.tokens = tokens
        self.kinds = [tok.kind for tok in tokens]
        self.contexts = contexts
        self.pos = 0
        self.depth = 0  # constructs open around the current token
        self.operators = 0  # operators, quantifiers and parentheses read

    def expect(self, kind: str) -> Token:
        if self.kinds[self.pos] != kind:
            self.fail({kind})
        self.pos += 1
        return self.tokens[self.pos - 1]

    def fail(self, expected: set[str]) -> None:
        tok = self.tokens[self.pos]
        names = sorted(_DESCRIPTION[k] for k in expected)
        found = repr(tok.text) if tok.kind == "ident" else _DESCRIPTION.get(tok.kind, repr(tok.text))
        raise ParseError(
            f"expected {' or '.join(names)}, got {found}",
            span=tok.span,
            expected={_DESCRIPTION[k].strip("'") for k in expected},
            found=found,
        )

    def nested(self, tok: Token, production, *args) -> Formula:
        """Parse the sub-formula `tok` opens, one nesting level down."""
        if self.depth == MAX_DEPTH:
            raise _too_deep(tok.span)
        self.depth += 1
        self.operators += 1
        node = production(*args)
        self.depth -= 1
        return node

    def formula(self, level: int = 1) -> Formula:
        """Parse operands joined by connectives binding at `level` or tighter:
        one grouping to the right takes the rest one nesting level down, one
        grouping to the left loops."""
        node = self.unary()
        while True:
            row = _INFIX.get(self.kinds[self.pos])
            if row is None or row[0] < level:
                return node
            op_level, cls, right_assoc = row
            self.pos += 1
            if right_assoc:
                rhs = self.nested(self.tokens[self.pos - 1], self.formula, op_level)
            else:
                self.operators += 1
                rhs = self.formula(op_level + 1)
            node = cls(node, rhs, _join(node, rhs))

    def unary(self) -> Formula:
        kinds, pos = self.kinds, self.pos
        kind = kinds[pos]
        if kind == "ident":
            # The eof token ends the list, so the lookahead stays in range.
            if kinds[pos + 1] != "lparen" or kinds[pos + 2] != "ident" or kinds[pos + 3] != "rparen":
                # Not `name ( var )`: the first token out of place raises.
                self.pos += 1
                self.expect("lparen")
                self.expect("ident")
                self.expect("rparen")
            self.pos = pos + 4
            name, _, var, close = self.tokens[pos : pos + 4]
            start, _, line, column = name.span
            cls = ContextGuard if name.text in self.contexts else PredicateApp
            return cls(name.text, var.text, SourceSpan(start, close.span.end, line, column))
        tok = self.tokens[pos]
        cls = _PREFIX.get(kind)
        if cls is Not:
            self.pos += 1
            operand = self.nested(tok, self.unary)
            return Not(operand, _extend(tok.span, operand))
        if cls is not None:  # a quantifier
            self.pos += 1
            var = self.expect("ident")
            self.expect("dot")
            body = self.nested(tok, self.formula)
            return cls(var.text, body, _extend(tok.span, body))
        if kind == "lparen":
            self.pos += 1
            inner = self.nested(tok, self.formula)
            self.expect("rparen")
            return inner
        self.fail(_OPERAND_START)
        raise AssertionError("unreachable")


def _join(left: Formula, right: Formula) -> SourceSpan:
    start, _, line, column = left.span
    return SourceSpan(start, right.span.end, line, column)


def _extend(start: SourceSpan, node: Formula) -> SourceSpan:
    return SourceSpan(start.start, node.span.end, start.line, start.column)


def _parse_tokens(tokens: list[Token], contexts: frozenset[str], require_closed: bool) -> Formula:
    parser = _Parser(tokens, contexts)
    f = parser.formula()
    if parser.kinds[parser.pos] != "eof":
        parser.fail({"eof"})
    if parser.operators >= MAX_DEPTH:  # fewer cannot build a deeper tree
        _check_height(f)
    if require_closed:
        fv = free_variables(f)
        if fv:
            raise UnboundVariable(sorted(fv)[0])
    return f


def parse(
    text: str,
    *,
    contexts: Iterable[str] = (),
    require_closed: bool = False,
) -> Formula:
    """Parse formula text into an AST.

    The grammar cannot distinguish guards from content predicates, so atoms
    parse as ``PredicateApp``, except that atoms named in ``contexts`` parse
    as ``ContextGuard``.  With ``require_closed``, a remaining free variable
    raises :class:`UnboundVariable`.
    """
    return _parse_tokens(tokenize(text), frozenset(contexts), require_closed)


class NamedFormula(Record):
    """One entry of a formula file: an optional let-name, the AST, its line."""

    __slots__ = _fields = ("name", "formula", "line")

    def __init__(self, name: str | None, formula: Formula, line: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "line", line)


_LET = re.compile(rf"^(\s*let\s+)({_IDENT})(\s*=\s*)(.*)$")


def parse_formula_file(
    text: str,
    *,
    contexts: Iterable[str] = (),
    require_closed: bool = False,
) -> list[NamedFormula]:
    """Parse a formula file: one formula per line, or ``let NAME = formula``.

    Blank lines and comment-only lines are skipped.  Spans are file-relative.
    """
    names = frozenset(contexts)
    entries: list[NamedFormula] = []
    byte_base = 0
    for lineno, raw in enumerate(text.split("\n"), start=1):
        code = raw.split("#", 1)[0]
        if code.strip():
            m = _LET.match(code)
            if m:
                name: str | None = m.group(2)
                frag = m.group(4)
                col0 = m.start(4)
            else:
                name = None
                frag = code
                col0 = 0
            tokens = tokenize(
                frag,
                line=lineno,
                column=col0 + 1,
                offset=byte_base + len(raw[:col0].encode("utf-8")),
            )
            f = _parse_tokens(tokens, names, require_closed)
            entries.append(NamedFormula(name, f, lineno))
        byte_base += len(raw.encode("utf-8")) + 1  # '\n'
    return entries
