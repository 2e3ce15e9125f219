"""The lexer against the one it replaced, kept here as an oracle.

The oracle matched one lexeme per `findall` item with five capture groups:
the whitespace before it (line ends excepted), then an identifier or
operator, a line end (CR LF, CR or LF), a comment, an unexpected character,
or the end of the text.  `tokenize` must give the same words, the same
tokens with their kinds and spans, and the same error for an unexpected
character.
"""
import re
from itertools import accumulate

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from sapta.errors import ParseError
from sapta.formulas import OPERATORS, SourceSpan
from sapta.parser import Token, tokenize

_KIND = {text: kind for kind, _, plain, alias, _ in OPERATORS for text in (plain, alias)} | {
    "(": "lparen", ")": "rparen", ".": "dot"
}
_SYMBOLS = sorted((text for text in _KIND if not text.isidentifier()), key=len, reverse=True)
_LONG = "|".join(re.escape(text) for text in _SYMBOLS if len(text) > 1)
_CHARS = re.escape("".join(text for text in _SYMBOLS if len(text) == 1))
_LEXEME = re.compile(
    rf"([^\S\r\n]*)(?:([A-Za-z_][A-Za-z0-9_]*|{_LONG}|[{_CHARS}])|(\r\n?|\n)|(#[^\r\n]*)|(\S)|\Z)"
)


def _oracle_tokens(text: str, line: int, column: int, offset: int) -> list[Token]:
    out = []
    ln, origin, i = line, -column, 0
    for space, word, newline, comment, bad in _LEXEME.findall(text):
        i += len(space)
        if word:
            j = i + len(word)
            span = SourceSpan(offset + i, offset + j, ln, i - origin)
            out.append(Token(_KIND.get(word, "ident"), word, span))
            i = j
        elif newline:
            ln += 1
            i += len(newline)
            origin = i - 1
        elif comment:
            i += len(comment)
        elif bad:
            start = offset + len(text[:i].encode("utf-8"))
            raise ParseError(
                f"unexpected character {bad!r}",
                span=SourceSpan(start, start + len(bad.encode("utf-8")), ln, i - origin),
                found=repr(bad),
            )
    out.append(Token("eof", "", SourceSpan(offset + i, offset + i, ln, i - origin)))
    byte = list(accumulate((len(ch.encode("utf-8")) for ch in text), initial=0))
    return [
        Token(kind, word, SourceSpan(offset + byte[start - offset], offset + byte[end - offset], *at))
        for kind, word, (start, end, *at) in out
    ]


_PIECES = [
    *_KIND, "x", "p", "c1", "_q", "forallx", "exists_", "p1x",
    " ", "\t", "\n", "\r", "\xa0", "　", "\x0b", "\x1c", "\x1f", " ", "\x85",
    "# ¬ é ∀", "#", "#$ (p)\t", "$", "é", "-", "<", "<-", "<>", "1", "9lives", "?", "₂", "\x00",
]
_TEXTS = st.lists(st.sampled_from(_PIECES), max_size=16).map("".join) | st.text(max_size=20)
_COORDS = (st.integers(1, 5), st.integers(1, 5), st.integers(0, 50))


def _outcome(lex):
    """The tokens `lex` returns, or the message, span and found of its error."""
    try:
        return list(lex())
    except ParseError as exc:
        return str(exc), exc.span, exc.found


@settings(max_examples=500, deadline=None)
@given(_TEXTS, *_COORDS)
@example("∀x. (c(x) → p(x)) ∧ ¬(c1(x) ↔ c2(x)) ∨ ∃y. q(y)  # ¬ é ∀\n", 1, 1, 0)
@example("p(x) & q(x) <- r(x)", 1, 1, 0)
@example("\xa0p(x)　\x0b\x1c\n 2p(x)", 3, 2, 7)
def test_tokenize_matches_the_oracle(text, line, column, offset):
    want = _outcome(lambda: _oracle_tokens(text, line, column, offset))
    got = _outcome(lambda: tokenize(text, line=line, column=column, offset=offset))
    assert got == want
    if isinstance(want, list):
        tokens = tokenize(text, line=line, column=column, offset=offset)
        assert tokens.words == [tok.text for tok in want]


@pytest.mark.parametrize("text", ["p(x) $ q(x)", "é", "p(x) - q(x)", "p(x) < q(x)", "p(x) <- q(x)",
                                  "1p(x)", "p(x)\n\xa0 é", "p(x)  # ok é\n\x1c $", "p(x)\r\n\x0b9"])
def test_unexpected_characters_raise_as_the_oracle_does(text):
    with pytest.raises(ParseError) as want:
        _oracle_tokens(text, 2, 3, 10)
    with pytest.raises(ParseError) as got:
        tokenize(text, line=2, column=3, offset=10)
    assert (str(got.value), got.value.span, got.value.found) == (
        str(want.value), want.value.span, want.value.found)
