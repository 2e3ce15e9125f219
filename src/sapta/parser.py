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
from collections.abc import Sequence
from itertools import accumulate, repeat
from typing import Iterable, NamedTuple

from .errors import ParseError, UnboundVariable
from .formulas import (
    OPERATORS,
    ContextGuard,
    Formula,
    Not,
    PredicateApp,
    SourceSpan,
    _free_atoms,
)
from .records import Record

__all__ = ["parse", "parse_formula_file", "NamedFormula", "tokenize", "Tokens", "Token"]


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
_KIND[""] = "eof"  # the empty word ends every token list

# One match per lexeme: an identifier or operator, or a comment, which ends
# at the line's end.  Whitespace and unexpected characters lie between matches.
_WORD = re.compile(rf"{_IDENT}|{_LONG}|[{_CHARS}]|#[^\r\n]*")
# A line ends at CR LF, CR or LF.
_LINE_END = re.compile(r"(\r\n?|\n)")

_DESCRIPTION = {
    **{kind: f"'{plain}'" for kind, _, plain, _, _ in OPERATORS},
    **{kind: f"'{text}'" for text, kind in _PUNCTUATION.items()},
    "ident": "identifier",
    "eof": "end of input",
}

# Binary connective word, in either spelling -> (precedence level, node
# class, groups to the right); prefix word -> node class.  A word is an
# identifier exactly when it is not in _KIND, and "" is eof.
_INFIX = {
    text: (level, node, assoc == "right")
    for level, (_, node, plain, alias, assoc) in enumerate(OPERATORS, 1)
    if assoc != "prefix"
    for text in (plain, alias)
}
_PREFIX = {text: node for _, node, plain, alias, assoc in OPERATORS if assoc == "prefix"
           for text in (plain, alias)}
_OPERAND_START = {*(kind for kind, *_, assoc in OPERATORS if assoc == "prefix"), "lparen", "ident"}


def tokenize(text: str, *, line: int = 1, column: int = 1, offset: int = 0) -> Tokens:
    """Lex formula text into a :class:`Tokens` sequence, ``eof`` last.

    Only the tokens' words are computed here.  ``list()`` of the result is
    the ``list[Token]``, kinds and spans included, that ``tokenize``
    returned when it built every token at once.  An unexpected character
    raises here.
    """
    words = _WORD.findall(text)
    found = "".join(words)
    if "#" in text:  # comments hold spaces, and are no tokens
        found = "".join(found.split())
        words = [word for word in words if word[0] != "#"]
    if found != "".join(text.split()):  # a character lies outside every word
        _token_list(text, line, column, offset)  # raises at the first one
    words.append("")
    return Tokens(text, line, column, offset, words)


class Tokens(Sequence):
    """The tokens of one fragment: their ``words`` list, which parsing
    releases, and the coordinates of the fragment's first character.  The
    :class:`Token` objects, with their kinds and spans, are built all at
    once when the first element is read, and kept; ``len()`` counts the
    words and builds none."""

    __slots__ = ("text", "line", "column", "offset", "words", "_tokens")

    def __init__(self, text: str, line: int, column: int, offset: int, words: list[str]):
        self.text, self.line, self.column, self.offset = text, line, column, offset
        self.words = words
        self._tokens: list[Token] | None = None

    def __len__(self) -> int:
        return len(self._list() if self.words is None else self.words)

    def __getitem__(self, index):
        return self._list()[index]

    def __iter__(self):
        return iter(self._list())

    def _list(self) -> list[Token]:
        if self._tokens is None:
            self._tokens = _token_list(self.text, self.line, self.column, self.offset)
        return self._tokens


def _token_list(text: str, line: int, column: int, offset: int) -> list[Token]:
    """Every token of `text` with its span, tracking byte offsets and
    line/column; the package's one span computation."""
    # byte[k] is the offset of character k: `offset` plus the UTF-8 length of
    # text[:k].  A lone surrogate counts as the three bytes "surrogatepass"
    # gives it, so it is reported as an unexpected character.
    if text.isascii():
        byte = range(offset, offset + len(text) + 1)
    else:
        byte = [*accumulate((len(ch.encode("utf-8", "surrogatepass")) for ch in text),
                            initial=offset)]
    out: list[Token] = []
    ln = line
    origin = -column  # column of character i on the current line is i - origin
    i = 0
    # The gap before each word holds whitespace, then the first unexpected
    # character if there is one; the empty word at the end is the eof token.
    for start, end in [*map(re.Match.span, _WORD.finditer(text)), (len(text), len(text))]:
        bad = text[i:start].lstrip()[:1]
        j = text.index(bad, i) if bad else start  # the end of the whitespace
        for line_end in _LINE_END.finditer(text, i, j):
            ln += 1
            origin = line_end.end() - 1
        if bad:
            raise ParseError(
                f"unexpected character {bad!r}",
                span=SourceSpan(byte[j], byte[j + 1], ln, j - origin),
                found=repr(bad),
            )
        word = text[start:end]
        if word[:1] != "#":
            span = SourceSpan(byte[start], byte[end], ln, start - origin)
            out.append(Token(_KIND.get(word, "ident"), word, span))
        i = end
    return out


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
        for value in node._values():
            if isinstance(value, Formula):
                stack.append((value, depth + 1))


class _Parser:
    """Precedence climbing over the tokens' `words`, read by index so that
    no Token is built unless an error needs its span.  A node records its
    span as (tokens, first token, last token), which ``Formula.span``
    resolves when read.  Atoms named in `contexts` become guards.

    Each construct that nests, a parenthesis, `~`, a quantifier or an
    arrow's right operand, checks and counts its own level where it opens."""

    def __init__(self, tokens: Tokens, contexts: frozenset[str]):
        self.tokens = tokens
        self.words = tokens.words
        self.contexts = contexts
        self.pos = 0
        self.depth = 0  # constructs open around the current token
        self.operators = 0  # operators, quantifiers and parentheses read

    def expect(self, kind: str) -> str:
        word = self.words[self.pos]
        if _KIND.get(word, "ident") != kind:
            self.fail({kind})
        self.pos += 1
        return word

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

    def formula(self, level: int = 1) -> Formula:
        """Parse operands joined by connectives binding at `level` or tighter:
        one grouping to the right takes the rest one nesting level down, one
        grouping to the left loops."""
        node = self.unary()
        words = self.words
        while True:
            row = _INFIX.get(words[self.pos])
            if row is None or row[0] < level:
                return node
            op_level, cls, right_assoc = row
            self.pos += 1
            self.operators += 1
            if right_assoc:
                if self.depth == MAX_DEPTH:
                    raise _too_deep(self.tokens[self.pos - 1].span)
                self.depth += 1
                rhs = self.formula(op_level)
                self.depth -= 1
            else:
                rhs = self.formula(op_level + 1)
            node = cls(node, rhs, (self.tokens, node._span[1], rhs._span[2]))

    def unary(self) -> Formula:
        words, pos = self.words, self.pos
        word = words[pos]
        if word not in _KIND:  # an identifier
            # The eof word ends the list, so the lookahead stays in range.
            if words[pos + 1] != "(" or words[pos + 2] in _KIND or words[pos + 3] != ")":
                # Not `name ( var )`: the first token out of place raises.
                self.pos += 1
                self.expect("lparen")
                self.expect("ident")
                self.expect("rparen")
            self.pos = pos + 4
            cls = ContextGuard if word in self.contexts else PredicateApp
            return cls(word, words[pos + 2], (self.tokens, pos, pos + 3))
        cls = _PREFIX.get(word)
        if cls is None and word != "(":
            self.fail(_OPERAND_START)
        self.pos += 1
        if cls is not None and cls is not Not:  # a quantifier's variable and dot
            var = self.expect("ident")
            self.expect("dot")
        if self.depth == MAX_DEPTH:
            raise _too_deep(self.tokens[pos].span)
        self.depth += 1
        self.operators += 1
        if cls is None:  # a parenthesis
            node = self.formula()
            self.expect("rparen")
        elif cls is Not:
            operand = self.unary()
            node = Not(operand, (self.tokens, pos, operand._span[2]))
        else:
            body = self.formula()
            node = cls(var, body, (self.tokens, pos, body._span[2]))
        self.depth -= 1
        return node


def _parse_tokens(tokens: Tokens, contexts: frozenset[str], require_closed: bool) -> Formula:
    parser = _Parser(tokens, contexts)
    f = parser.formula()
    if parser.words[parser.pos] != "":
        parser.fail({"eof"})
    tokens.words = None  # the nodes' spans need only the text
    if parser.operators >= MAX_DEPTH:  # fewer cannot build a deeper tree
        _check_height(f)
    if require_closed:
        free = _free_atoms(f)
        if free:
            var = min(free)
            raise UnboundVariable(var, free[var].span)
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


_LET = re.compile(rf"^(\s*let\s+)({_IDENT})(\s*=\s*)(.*)$")


def parse_formula_file(
    text: str,
    *,
    contexts: Iterable[str] = (),
    require_closed: bool = False,
) -> list[NamedFormula]:
    """Parse a formula file: one formula per line, or ``let NAME = formula``.

    Blank lines and comment-only lines are skipped.  A line ends at CR LF,
    CR or LF.  Spans are file-relative: an offset counts the UTF-8 bytes of
    `text`, line endings as written.
    """
    names = frozenset(contexts)
    entries: list[NamedFormula] = []
    byte_base = 0
    if "\r" in text:  # each line, then the ending the split keeps
        parts = _LINE_END.split(text)
        lines = zip(parts[::2], [*parts[1::2], ""])
    else:  # the common case: `str.split` takes an eighth of the time
        lines = zip(text.split("\n"), repeat("\n"))
    for lineno, (raw, end) in enumerate(lines, start=1):
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
                offset=byte_base + len(raw[:col0].encode("utf-8", "surrogatepass")),
            )
            f = _parse_tokens(tokens, names, require_closed)
            entries.append(NamedFormula(name, f, lineno))
        byte_base += len(raw.encode("utf-8", "surrogatepass")) + len(end)
    return entries
