"""Lexer and recursive-descent parser for the formula language.

Grammar (ASCII surface syntax; Unicode aliases accepted by the lexer):

    formula := iff ;  iff := impl ("<->" iff)? ;  impl := or ("->" impl)? ;
    or := and ("|" and)* ;  and := unary ("&" unary)* ;
    unary := "~" unary | quant | atom ;
    quant := ("forall"|"exists") IDENT "." formula ;
    atom := IDENT "(" IDENT ")" | "(" formula ")" ;
    IDENT := [A-Za-z_][A-Za-z0-9_]*

Whitespace is insignificant; "#" starts a line comment.  Precedence is
~ > & > | > -> > <->, the arrows are right-associative, and a quantifier
extends maximally to the right.  The parser is stateless and reentrant.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, NamedTuple

from .errors import ParseError, UnboundVariable
from .formulas import (
    And,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PredicateApp,
    SourceSpan,
    free_variables,
    mark_contexts,
)

__all__ = ["parse", "parse_formula_file", "NamedFormula", "tokenize", "Token"]


class Token(NamedTuple):
    kind: str
    text: str
    span: SourceSpan


# Token kind per lexeme; any other identifier is an "ident".
_KIND = {
    "<->": "iff",
    "->": "implies",
    "~": "not",
    "&": "and",
    "|": "or",
    "(": "lparen",
    ")": "rparen",
    ".": "dot",
    "forall": "forall",
    "exists": "exists",
    "¬": "not",
    "∧": "and",
    "∨": "or",
    "→": "implies",
    "↔": "iff",
    "∀": "forall",
    "∃": "exists",
}

# One match per lexeme: the whitespace before it (newlines excepted), then
# an identifier or operator, a newline, a comment, an unexpected character,
# or the end of the text.  Each alternative starts with a different class of
# character, so no match backtracks.
_LEXEME = re.compile(
    r"([^\S\n]*)"
    r"(?:([A-Za-z_][A-Za-z0-9_]*|<->|->|[~&|().¬∧∨→↔∀∃])|(\n)|(#[^\n]*)|(\S)|\Z)"
)

_DESCRIPTION = {
    "not": "'~'",
    "and": "'&'",
    "or": "'|'",
    "implies": "'->'",
    "iff": "'<->'",
    "lparen": "'('",
    "rparen": "')'",
    "dot": "'.'",
    "forall": "'forall'",
    "exists": "'exists'",
    "ident": "identifier",
    "eof": "end of input",
}


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
# parser's own recursion; the second every AST walker (printing, context
# marking, evaluation), which recurses down the tree.
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
    """Recursive descent over the token list; `kinds` is the tokens' kinds,
    read by index so that most tokens are never touched as objects."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.kinds = [tok.kind for tok in tokens]
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

    def nested(self, tok: Token, production) -> Formula:
        """Parse the sub-formula `tok` opens, one nesting level down."""
        if self.depth == MAX_DEPTH:
            raise _too_deep(tok.span)
        self.depth += 1
        self.operators += 1
        node = production()
        self.depth -= 1
        return node

    def formula(self) -> Formula:
        left = self.impl()
        if self.kinds[self.pos] == "iff":
            self.pos += 1
            right = self.nested(self.tokens[self.pos - 1], self.formula)
            return Iff(left, right, _join(left, right))
        return left

    def impl(self) -> Formula:
        left = self.or_()
        if self.kinds[self.pos] == "implies":
            self.pos += 1
            right = self.nested(self.tokens[self.pos - 1], self.impl)
            return Implies(left, right, _join(left, right))
        return left

    def or_(self) -> Formula:
        node = self.and_()
        while self.kinds[self.pos] == "or":
            self.pos += 1
            self.operators += 1
            rhs = self.and_()
            node = Or(node, rhs, _join(node, rhs))
        return node

    def and_(self) -> Formula:
        node = self.unary()
        while self.kinds[self.pos] == "and":
            self.pos += 1
            self.operators += 1
            rhs = self.unary()
            node = And(node, rhs, _join(node, rhs))
        return node

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
            return PredicateApp(name.text, var.text, SourceSpan(start, close.span.end, line, column))
        tok = self.tokens[pos]
        if kind == "not":
            self.pos += 1
            operand = self.nested(tok, self.unary)
            return Not(operand, _extend(tok.span, operand))
        if kind in ("forall", "exists"):
            self.pos += 1
            var = self.expect("ident")
            self.expect("dot")
            body = self.nested(tok, self.formula)
            cls = ForAll if kind == "forall" else Exists
            return cls(var.text, body, _extend(tok.span, body))
        if kind == "lparen":
            self.pos += 1
            inner = self.nested(tok, self.formula)
            self.expect("rparen")
            return inner
        self.fail({"not", "forall", "exists", "lparen", "ident"})
        raise AssertionError("unreachable")


def _join(left: Formula, right: Formula) -> SourceSpan:
    start, _, line, column = left.span
    return SourceSpan(start, right.span.end, line, column)


def _extend(start: SourceSpan, node: Formula) -> SourceSpan:
    return SourceSpan(start.start, node.span.end, start.line, start.column)


def _parse_tokens(tokens: list[Token], contexts: Iterable[str], require_closed: bool) -> Formula:
    parser = _Parser(tokens)
    f = parser.formula()
    if parser.kinds[parser.pos] != "eof":
        parser.fail({"eof"})
    if parser.operators >= MAX_DEPTH:  # fewer cannot build a deeper tree
        _check_height(f)
    names = frozenset(contexts)
    if names:
        f = mark_contexts(f, names)
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
    parse as ``PredicateApp``; names listed in ``contexts`` are rewritten to
    ``ContextGuard``.  With ``require_closed``, a remaining free variable
    raises :class:`UnboundVariable`.
    """
    return _parse_tokens(tokenize(text), contexts, require_closed)


@dataclass(frozen=True)
class NamedFormula:
    """One entry of a formula file: an optional let-name, the AST, its line."""

    name: str | None
    formula: Formula
    line: int


_LET = re.compile(r"^(\s*let\s+)([A-Za-z_][A-Za-z0-9_]*)(\s*=\s*)(.*)$")


def parse_formula_file(
    text: str,
    *,
    contexts: Iterable[str] = (),
    require_closed: bool = False,
) -> list[NamedFormula]:
    """Parse a formula file: one formula per line, or ``let NAME = formula``.

    Blank lines and comment-only lines are skipped.  Spans are file-relative.
    """
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
            f = _parse_tokens(tokens, contexts, require_closed)
            entries.append(NamedFormula(name, f, lineno))
        byte_base += len(raw.encode("utf-8")) + 1  # '\n'
    return entries
