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
from typing import Iterable

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


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    span: SourceSpan


_SINGLE = {
    "~": "not",
    "&": "and",
    "|": "or",
    "(": "lparen",
    ")": "rparen",
    ".": "dot",
    "¬": "not",
    "∧": "and",
    "∨": "or",
    "→": "implies",
    "↔": "iff",
    "∀": "forall",
    "∃": "exists",
}
_KEYWORDS = {"forall", "exists"}
_IDENT_START = re.compile(r"[A-Za-z_]")
_IDENT_CONT = re.compile(r"[A-Za-z0-9_]")

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
    out: list[Token] = []
    i = 0
    byte = offset
    ln, col = line, column
    n = len(text)

    def span_at(start_byte: int, nbytes: int, sl: int, sc: int) -> SourceSpan:
        return SourceSpan(start_byte, start_byte + nbytes, sl, sc)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            byte += 1
            ln += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            byte += len(ch.encode("utf-8"))
            col += 1
            continue
        if ch == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                byte += len(text[i].encode("utf-8"))
                i += 1
                col += 1
            continue
        if text.startswith("<->", i):
            out.append(Token("iff", "<->", span_at(byte, 3, ln, col)))
            i += 3
            byte += 3
            col += 3
            continue
        if text.startswith("->", i):
            out.append(Token("implies", "->", span_at(byte, 2, ln, col)))
            i += 2
            byte += 2
            col += 2
            continue
        if ch in _SINGLE:
            nbytes = len(ch.encode("utf-8"))
            out.append(Token(_SINGLE[ch], ch, span_at(byte, nbytes, ln, col)))
            i += 1
            byte += nbytes
            col += 1
            continue
        if _IDENT_START.match(ch):
            start_byte, sl, sc = byte, ln, col
            j = i
            while j < n and _IDENT_CONT.match(text[j]):
                j += 1
            word = text[i:j]
            kind = word if word in _KEYWORDS else "ident"
            out.append(Token(kind, word, span_at(start_byte, j - i, sl, sc)))
            byte += j - i
            col += j - i
            i = j
            continue
        raise ParseError(
            f"unexpected character {ch!r}",
            span=span_at(byte, len(ch.encode("utf-8")), ln, col),
            found=repr(ch),
        )
    out.append(Token("eof", "", SourceSpan(byte, byte, ln, col)))
    return out


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
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # constructs open around the current token
        self.operators = 0  # operators, quantifiers and parentheses read

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail({kind})
        return self.advance()

    def fail(self, expected: set[str]) -> None:
        tok = self.peek()
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
        if self.peek().kind == "iff":
            tok = self.advance()
            right = self.nested(tok, self.formula)
            return Iff(left, right, _join(left, right))
        return left

    def impl(self) -> Formula:
        left = self.or_()
        if self.peek().kind == "implies":
            tok = self.advance()
            right = self.nested(tok, self.impl)
            return Implies(left, right, _join(left, right))
        return left

    def or_(self) -> Formula:
        node = self.and_()
        while self.peek().kind == "or":
            self.advance()
            self.operators += 1
            rhs = self.and_()
            node = Or(node, rhs, _join(node, rhs))
        return node

    def and_(self) -> Formula:
        node = self.unary()
        while self.peek().kind == "and":
            self.advance()
            self.operators += 1
            rhs = self.unary()
            node = And(node, rhs, _join(node, rhs))
        return node

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "not":
            self.advance()
            operand = self.nested(tok, self.unary)
            return Not(operand, _extend(tok.span, operand))
        if tok.kind in ("forall", "exists"):
            self.advance()
            var = self.expect("ident")
            self.expect("dot")
            body = self.nested(tok, self.formula)
            cls = ForAll if tok.kind == "forall" else Exists
            return cls(var.text, body, _extend(tok.span, body))
        if tok.kind == "lparen":
            self.advance()
            inner = self.nested(tok, self.formula)
            self.expect("rparen")
            return inner
        if tok.kind == "ident":
            name = self.advance()
            self.expect("lparen")
            var = self.expect("ident")
            close = self.expect("rparen")
            span = SourceSpan(name.span.start, close.span.end, name.span.line, name.span.column)
            return PredicateApp(name.text, var.text, span)
        self.fail({"not", "forall", "exists", "lparen", "ident"})
        raise AssertionError("unreachable")


def _node_span(f: Formula) -> SourceSpan | None:
    return getattr(f, "span", None)


def _join(left: Formula, right: Formula) -> SourceSpan | None:
    a, b = _node_span(left), _node_span(right)
    if a is None or b is None:
        return a or b
    return SourceSpan(a.start, b.end, a.line, a.column)


def _extend(start: SourceSpan, node: Formula) -> SourceSpan:
    b = _node_span(node)
    end = b.end if b is not None else start.end
    return SourceSpan(start.start, end, start.line, start.column)


def _parse_tokens(tokens: list[Token], contexts: Iterable[str], require_closed: bool) -> Formula:
    parser = _Parser(tokens)
    f = parser.formula()
    if parser.peek().kind != "eof":
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
